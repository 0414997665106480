package ir

import "math/bits"

// BitSet is a fixed-capacity bit vector used as the dataflow lattice
// element. The zero value of makeBitSet(n) is the empty set.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns an empty set with capacity for n bits.
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64), n: n}
}

func (s *BitSet) Len() int { return s.n }

func (s *BitSet) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/64]&(1<<uint(i%64)) != 0
}

func (s *BitSet) Set(i int) {
	if i >= 0 && i < s.n {
		s.words[i/64] |= 1 << uint(i%64)
	}
}

func (s *BitSet) Clear(i int) {
	if i >= 0 && i < s.n {
		s.words[i/64] &^= 1 << uint(i%64)
	}
}

// Copy returns an independent copy of s.
func (s *BitSet) Copy() *BitSet {
	c := &BitSet{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Fill sets every bit (the ⊤ element for intersection problems).
func (s *BitSet) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	// Mask the tail so Equal stays meaningful.
	if rem := s.n % 64; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << uint(rem)) - 1
	}
}

// UnionWith s |= o; reports whether s changed.
func (s *BitSet) UnionWith(o *BitSet) bool {
	changed := false
	for i := range s.words {
		next := s.words[i] | o.words[i]
		if next != s.words[i] {
			s.words[i] = next
			changed = true
		}
	}
	return changed
}

// IntersectWith s &= o; reports whether s changed.
func (s *BitSet) IntersectWith(o *BitSet) bool {
	changed := false
	for i := range s.words {
		next := s.words[i] & o.words[i]
		if next != s.words[i] {
			s.words[i] = next
			changed = true
		}
	}
	return changed
}

// Equal reports set equality.
func (s *BitSet) Equal(o *BitSet) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Empty reports whether no bit is set.
func (s *BitSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order.
func (s *BitSet) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			bit := w & -w
			i := wi*64 + bits.TrailingZeros64(bit)
			fn(i)
			w &^= bit
		}
	}
}

// Direction of a dataflow problem.
type Direction int

const (
	Forward Direction = iota
	Backward
)

// Problem is a classic iterative bit-vector dataflow problem over a
// function's CFG. Facts are indices into a problem-defined universe.
type Problem struct {
	Dir Direction
	// MeetUnion selects the meet operator: true = union (may
	// analyses: reaching defs, "armed on some path"), false =
	// intersection (must analyses: dominators, available facts).
	MeetUnion bool
	// Bits is the size of the fact universe.
	Bits int
	// Boundary is the entry fact (Forward: entry block in-set;
	// Backward: exit block out-set). Nil means empty.
	Boundary *BitSet
	// Transfer computes out = fn(block, in) by mutating and returning
	// the provided set (already a copy of the meet result).
	Transfer func(b *Block, in *BitSet) *BitSet
}

// Solve runs the worklist algorithm to a fixed point and returns the
// in/out fact sets per block (indexed by Block.Index). For Backward
// problems "in" is the fact set at block entry in execution order —
// i.e. the solver's output — and "out" the set at block exit.
func Solve(f *Func, p Problem) (in, out []*BitSet) {
	n := len(f.Blocks)
	in = make([]*BitSet, n)
	out = make([]*BitSet, n)
	for i := 0; i < n; i++ {
		in[i] = NewBitSet(p.Bits)
		out[i] = NewBitSet(p.Bits)
		if !p.MeetUnion {
			in[i].Fill()
			out[i].Fill()
		}
	}

	boundary := p.Boundary
	if boundary == nil {
		boundary = NewBitSet(p.Bits)
	}

	// Normalize direction: treat everything as forward over
	// pred/succ selected by Dir.
	preds := func(b *Block) []*Block { return b.Preds }
	succs := func(b *Block) []*Block { return b.Succs }
	start := f.Entry
	if p.Dir == Backward {
		preds, succs = succs, preds
		start = f.Exit
	}

	work := make([]*Block, 0, n)
	inWork := make([]bool, n)
	push := func(b *Block) {
		if !inWork[b.Index] {
			inWork[b.Index] = true
			work = append(work, b)
		}
	}
	for _, b := range f.Blocks {
		push(b)
	}

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false

		// Meet over predecessors (in normalized direction).
		meet := NewBitSet(p.Bits)
		if b == start {
			meet = boundary.Copy()
		} else if ps := preds(b); len(ps) == 0 {
			// Unreachable in this direction: empty for union,
			// ⊤ for intersection (no constraint).
			if !p.MeetUnion {
				meet.Fill()
			}
		} else {
			if !p.MeetUnion {
				meet.Fill()
			}
			for _, pb := range ps {
				if p.MeetUnion {
					meet.UnionWith(out[pb.Index])
				} else {
					meet.IntersectWith(out[pb.Index])
				}
			}
		}
		in[b.Index] = meet
		next := p.Transfer(b, meet.Copy())
		if !next.Equal(out[b.Index]) {
			out[b.Index] = next
			for _, sb := range succs(b) {
				push(sb)
			}
		}
	}

	if p.Dir == Backward {
		// Present results in execution order: in = facts holding at
		// block entry = the solver's "out" in reversed orientation.
		return out, in
	}
	return in, out
}
