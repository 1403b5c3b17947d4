package assign

import (
	"slices"

	"fairassign/internal/rtree"
	"fairassign/internal/ta"
)

// sortItemsByID orders items by ascending ID. IDs are unique per side,
// so the result is a total order; the generic sort avoids the reflection
// swapper sort.Slice allocates on every call of the per-loop hot path.
func sortItemsByID(items []rtree.Item) {
	slices.SortFunc(items, func(a, b rtree.Item) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// taFuncs converts functions to their TA representation (effective
// weights plus scoring family). All weight vectors share one contiguous
// backing array — one allocation instead of one per function.
func taFuncs(funcs []Function) []ta.Func {
	out := make([]ta.Func, len(funcs))
	if len(funcs) == 0 {
		return out
	}
	dims := len(funcs[0].Weights)
	backing := make([]float64, len(funcs)*dims)
	for i, f := range funcs {
		w := backing[i*dims : (i+1)*dims : (i+1)*dims]
		g := f.Fam.GammaScale(f.gamma())
		for d, a := range f.Weights {
			w[d] = a * g
		}
		out[i] = ta.Func{ID: f.ID, Weights: w, Fam: f.Fam}
	}
	return out
}

// capTable tracks remaining capacities for one side of the problem.
type capTable struct {
	remaining map[uint64]int
	units     int // total remaining units
}

func newFuncCaps(funcs []Function) *capTable {
	t := &capTable{remaining: make(map[uint64]int, len(funcs))}
	for _, f := range funcs {
		t.remaining[f.ID] = f.capacity()
		t.units += f.capacity()
	}
	return t
}

func newObjectCaps(objs []Object) *capTable {
	t := &capTable{remaining: make(map[uint64]int, len(objs))}
	for _, o := range objs {
		t.remaining[o.ID] = o.capacity()
		t.units += o.capacity()
	}
	return t
}

// consume decrements one unit; it reports whether the entity is now
// exhausted (capacity reached zero).
func (t *capTable) consume(id uint64) bool {
	t.remaining[id]--
	t.units--
	return t.remaining[id] == 0
}

func (t *capTable) exhausted(id uint64) bool { return t.remaining[id] <= 0 }

// add registers a newly arrived entity with the given capacity.
func (t *capTable) add(id uint64, capacity int) {
	t.remaining[id] = capacity
	t.units += capacity
}

// restore gives one unit back (a partner departed); it reports whether
// the entity went from exhausted to live again.
func (t *capTable) restore(id uint64) bool {
	t.remaining[id]++
	t.units++
	return t.remaining[id] == 1
}

// drop forgets a departing entity, discarding its remaining units.
func (t *capTable) drop(id uint64) {
	if r := t.remaining[id]; r > 0 {
		t.units -= r
	}
	delete(t.remaining, id)
}
