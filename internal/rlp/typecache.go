package rlp

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// The plan codec is the only wire path: each Go type is compiled once
// into a flat program of encode/decode ops (plan.go) and cached here.
// The reflection walker it replaced survives as the differential
// oracle in oracle_test.go, out of every production binary.

// planCache is an atomic-swap type cache (go-ethereum's
// rlp/typecache.go idiom): readers Load the current map with no
// locks; the writer path serializes on mu, copies the map, inserts,
// and Stores the copy. After warmup every lookup is a single atomic
// load plus a map read.
type planCache struct {
	cur atomic.Value // map[reflect.Type]*plan
	mu  sync.Mutex
}

var thePlanCache planCache

// cachedPlan returns the compiled plan for typ, compiling and caching
// it on first use. Compilation cannot fail: a type (or one direction
// of it) the codec does not support compiles to an op that returns
// the error when a value of that type is reached.
func cachedPlan(typ reflect.Type) *plan {
	m, _ := thePlanCache.cur.Load().(map[reflect.Type]*plan)
	if p := m[typ]; p != nil {
		return p
	}
	return thePlanCache.generate(typ)
}

func (c *planCache) generate(typ reflect.Type) *plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, _ := c.cur.Load().(map[reflect.Type]*plan)
	if p := cur[typ]; p != nil {
		// Raced with another writer between Load and Lock.
		return p
	}
	cc := &compileCtx{inProgress: make(map[reflect.Type]*plan)}
	p := cc.compile(typ)
	next := make(map[reflect.Type]*plan, len(cur)+len(cc.inProgress))
	for k, v := range cur {
		next[k] = v
	}
	// Every type reached during the compile is complete; registering
	// them all saves recompiling shared message substructures
	// (Endpoint, Cap, ...) on their own first use.
	for t, sub := range cc.inProgress {
		next[t] = sub
	}
	c.cur.Store(next)
	return p
}
