package ir

// Memo memoizes one per-key fact computed by an interprocedural
// analysis ("does this function block on a termination signal", "what
// are this function's taint facts", ...). Recursion through the call
// graph is broken by a visiting set: a query that re-enters a key
// already on the stack yields the analyzer-chosen cycle default, and
// that provisional answer is NOT cached, so an eventual non-cyclic
// query recomputes it properly. The zero value is ready to use.
type Memo[K comparable, V any] struct {
	// MaxDepth bounds nested computations; at that depth a query gets
	// the cycle default. Zero means unbounded.
	MaxDepth int

	vals     map[K]V
	visiting map[K]bool
	depth    int
}

// Get returns the cached value for key, computing it with compute on a
// miss. cycleDefault is returned (uncached) when the query cycles back
// into an in-progress computation or exceeds the depth bound.
func (m *Memo[K, V]) Get(key K, cycleDefault V, compute func() V) V {
	if v, ok := m.vals[key]; ok {
		return v
	}
	if m.visiting[key] || (m.MaxDepth > 0 && m.depth >= m.MaxDepth) {
		return cycleDefault
	}
	if m.vals == nil {
		m.vals = make(map[K]V)
		m.visiting = make(map[K]bool)
	}
	m.visiting[key] = true
	m.depth++
	v := compute()
	m.depth--
	delete(m.visiting, key)
	m.vals[key] = v
	return v
}

// Cached returns the value a finished Get stored for key, if any.
func (m *Memo[K, V]) Cached(key K) (V, bool) {
	v, ok := m.vals[key]
	return v, ok
}
