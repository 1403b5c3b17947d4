// Package ta implements the paper's reverse top-1 search (Section 5.1):
// given an object o, find the preference function f maximizing f(o) by
// adapting Fagin's Threshold Algorithm over D sorted coefficient lists.
// TA is correct for any monotone aggregate, so the lists serve every
// scoring family in internal/score unchanged: only the threshold
// changes, from the linear fractional knapsack to the family bound over
// the per-dimension last-seen ceilings (score.Family.Bound).
//
// The package provides:
//
//   - Lists: in-memory per-dimension sorted lists over a function set with
//     tombstoned deletion;
//   - the tight threshold T_tight computed by fractional knapsack, valid
//     for normalized functions (Σα = 1) and prioritized functions
//     (Σα' = γ ≤ B);
//   - biased list probing (probe the list with the highest l_i·o_i);
//   - Search: a per-object resumable TA state whose candidate queue is
//     capped at Ω = ω·|F| entries, restarting from scratch when the
//     guarantee budget is exhausted (the paper's memory/time trade-off);
//   - DiskLists + BatchSearch: the Section 7.6 variant for disk-resident
//     F, scanning the lists block-wise and amortizing one pass over all
//     current skyline objects (used by SB-alt).
package ta

import (
	"fmt"
	"slices"
	"sort"

	"fairassign/internal/geom"
	"fairassign/internal/score"
)

// Func is a preference function as seen by the search structures: the
// weights are the effective coefficients α'_i = α_i·γ (γ = 1 for the
// standard normalized problem; γᵖ-folded for Lp) and Fam selects the
// scoring family (zero value: the paper's linear model).
type Func struct {
	ID      uint64
	Weights []float64
	Fam     score.Family
}

// Score returns f(o) under the function's family — Σ α'_i · o_i
// (Equations 1 and 2) in the linear case.
func (f Func) Score(o geom.Point) float64 { return score.Eval(f.Fam, f.Weights, o) }

type listEntry struct {
	coef float64
	id   uint64
	idx  int // dense function index (position in a canonical order)
}

// Counters tallies TA work for the experiment harness. A list source and
// the searches over it run on one goroutine, so the increments are plain.
type Counters struct {
	SortedAccesses int64 // entries popped from sorted lists
	RandomAccesses int64 // full-weight lookups
	Restarts       int64 // Ω-exhaustion restarts
}

func (c *Counters) addSorted()  { c.SortedAccesses++ }
func (c *Counters) addRandom()  { c.RandomAccesses++ }
func (c *Counters) addRestart() { c.Restarts++ }

// Lists indexes a function set as D descending-sorted coefficient lists
// plus a random-access table, supporting tombstoned removal of assigned
// functions.
//
// The lists are stored columnar (structure-of-arrays): coefs[d] is the
// contiguous descending coefficient column of list d and lidx[d] the
// aligned dense-index column, with idsDense mapping a dense index back
// to the function ID. The biased-probing descent touches only the
// coefficient column, so the scan is a sequential walk over packed
// float64s instead of 24-byte structs — a third of the memory traffic
// of the former []listEntry layout — and the list build sorts 12-byte
// pairs instead.
type Lists struct {
	dimCount int
	coefs    [][]float64
	lidx     [][]int32
	idsDense []uint64
	funcs    map[uint64][]float64
	index    map[uint64]int // function ID -> dense index
	byIdx    [][]float64    // dense index -> weights
	fams     []score.Family // dense index -> scoring family
	famSet   []score.Family // distinct families present (build-time)
	linear   bool           // every function is the linear family
	removed  []bool         // dense index -> tombstone
	live     int
	maxB     float64 // max Σ weights over all functions (1 when normalized)

	Counters Counters
}

// NewLists builds the sorted lists. All functions must share the given
// dimensionality.
func NewLists(funcs []Func, dims int) (*Lists, error) {
	l := &Lists{
		dimCount: dims,
		coefs:    make([][]float64, dims),
		lidx:     make([][]int32, dims),
		idsDense: make([]uint64, len(funcs)),
		funcs:    make(map[uint64][]float64, len(funcs)),
		index:    make(map[uint64]int, len(funcs)),
		byIdx:    make([][]float64, len(funcs)),
		fams:     make([]score.Family, len(funcs)),
		removed:  make([]bool, len(funcs)),
		live:     len(funcs),
		linear:   true,
	}
	for i, f := range funcs {
		if len(f.Weights) != dims {
			return nil, fmt.Errorf("ta: function %d has %d weights, want %d", f.ID, len(f.Weights), dims)
		}
		if err := f.Fam.Validate(); err != nil {
			return nil, fmt.Errorf("ta: function %d: %w", f.ID, err)
		}
		if _, dup := l.funcs[f.ID]; dup {
			return nil, fmt.Errorf("ta: duplicate function id %d", f.ID)
		}
		l.funcs[f.ID] = f.Weights
		l.index[f.ID] = i
		l.byIdx[i] = f.Weights
		l.idsDense[i] = f.ID
		l.fams[i] = f.Fam
		if !f.Fam.IsLinear() {
			l.linear = false
		}
		if !containsFamily(l.famSet, f.Fam) {
			l.famSet = append(l.famSet, f.Fam)
		}
		sum := 0.0
		for _, w := range f.Weights {
			if w < 0 {
				return nil, fmt.Errorf("ta: function %d has negative weight", f.ID)
			}
			sum += w
		}
		if sum > l.maxB {
			l.maxB = sum
		}
	}
	// Sort one reusable (coef, id, idx) scratch per dimension, then
	// scatter into the columnar layout. (coef desc, id asc) is a total
	// order — IDs are unique — so the sorted permutation is unique and
	// slices.SortFunc yields exactly what sort.Slice did, reflection-free.
	scratch := make([]listEntry, len(funcs))
	for d := 0; d < dims; d++ {
		for i, f := range funcs {
			scratch[i] = listEntry{coef: f.Weights[d], id: f.ID, idx: i}
		}
		slices.SortFunc(scratch, func(a, b listEntry) int {
			switch {
			case a.coef > b.coef:
				return -1
			case a.coef < b.coef:
				return 1
			case a.id < b.id:
				return -1
			case a.id > b.id:
				return 1
			}
			return 0
		})
		coefs := make([]float64, len(scratch))
		lidx := make([]int32, len(scratch))
		for i, e := range scratch {
			coefs[i] = e.coef
			lidx[i] = int32(e.idx)
		}
		l.coefs[d] = coefs
		l.lidx[d] = lidx
	}
	return l, nil
}

// Dims returns the dimensionality.
func (l *Lists) Dims() int { return l.dimCount }

// Live returns the number of unassigned functions.
func (l *Lists) Live() int { return l.live }

// MaxB returns the knapsack budget: the maximum Σ weights over all
// functions (kept at its initial value, a valid upper bound as functions
// are only removed).
func (l *Lists) MaxB() float64 { return l.maxB }

// Weights returns the weight vector of a live function (nil if removed or
// unknown).
func (l *Lists) Weights(id uint64) []float64 {
	i, ok := l.index[id]
	if !ok || l.removed[i] {
		return nil
	}
	return l.byIdx[i]
}

// FamilyOf returns the scoring family of a function (the linear zero
// value when the ID is unknown).
func (l *Lists) FamilyOf(id uint64) score.Family {
	i, ok := l.index[id]
	if !ok {
		return score.Family{}
	}
	return l.fams[i]
}

// ScorerOf returns the live function's scorer (family + effective
// weights); ok is false when the function is removed or unknown.
func (l *Lists) ScorerOf(id uint64) (score.Scorer, bool) {
	i, ok := l.index[id]
	if !ok || l.removed[i] {
		return score.Scorer{}, false
	}
	return score.Scorer{Fam: l.fams[i], W: l.byIdx[i]}, true
}

// containsFamily reports membership in a (tiny) distinct-family set.
func containsFamily(set []score.Family, f score.Family) bool {
	for _, g := range set {
		if g == f {
			return true
		}
	}
	return false
}

// Removed reports whether the function has been tombstoned.
func (l *Lists) Removed(id uint64) bool {
	i, ok := l.index[id]
	return ok && l.removed[i]
}

// Remove tombstones an assigned function; subsequent searches skip it.
func (l *Lists) Remove(id uint64) error {
	i, ok := l.index[id]
	if !ok {
		return fmt.Errorf("ta: unknown function id %d", id)
	}
	if l.removed[i] {
		return fmt.Errorf("ta: function %d already removed", id)
	}
	l.removed[i] = true
	l.live--
	return nil
}

// TightThreshold computes T_tight for object o given the last coefficient
// seen in each list (lastSeen) and budget B: the fractional-knapsack
// maximum of Σ β_i·o_i subject to Σβ = B, 0 ≤ β_i ≤ lastSeen_i
// (Section 5.1). It upper-bounds f(o) for every function not yet
// encountered in any list.
func TightThreshold(o geom.Point, lastSeen []float64, B float64) float64 {
	type dimVal struct {
		o float64
		l float64
	}
	dims := make([]dimVal, len(o))
	for i := range o {
		dims[i] = dimVal{o: o[i], l: lastSeen[i]}
	}
	sort.Slice(dims, func(i, j int) bool { return dims[i].o > dims[j].o })
	t := 0.0
	for _, dv := range dims {
		if B <= 0 {
			break
		}
		beta := dv.l
		if beta > B {
			beta = B
		}
		t += beta * dv.o
		B -= beta
	}
	return t
}

// ExhaustiveBest scans a slice of functions and returns the one
// maximizing f(o) (ties: lowest ID). Used for small function sets such as
// the function skyline of the prioritized variant (Section 6.2). ok is
// false when funcs is empty.
func ExhaustiveBest(funcs []Func, o geom.Point) (best Func, score float64, ok bool) {
	for _, f := range funcs {
		s := f.Score(o)
		if !ok || s > score || (s == score && f.ID < best.ID) {
			best, score, ok = f, s, true
		}
	}
	return best, score, ok
}
