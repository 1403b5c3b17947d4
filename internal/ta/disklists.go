package ta

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
	"fairassign/internal/score"
)

// DiskLists materializes the D sorted coefficient lists on the simulated
// disk, as in Section 7.6 where F does not fit in memory. Each list is a
// run of pages holding (coefficient, functionID) entries in descending
// coefficient order; a small in-memory directory maps function IDs to
// their per-list positions so that a "random access" costs exactly one
// page read.
type DiskLists struct {
	dimCount int
	pool     *pagestore.BufferPool
	perPage  int
	// pages[d] lists the page IDs of list d in scan order.
	pages [][]pagestore.PageID
	// listLen is the number of entries per list (= number of functions).
	listLen int
	// slot[d][id] is the position of function id in list d.
	slot       []map[uint64]int
	removed    map[uint64]bool
	removedIdx []bool // by dense index (= position in list 0)
	live       int
	maxB       float64

	// Scoring families stay in the in-memory directory (like slot): the
	// on-disk pages hold only coefficients, exactly as before.
	fams    []score.Family // by dense index (= position in list 0)
	famByID map[uint64]score.Family
	famSet  []score.Family
	linear  bool

	Counters Counters
}

const diskEntrySize = 16 // float64 coefficient + uint64 id

// BuildDiskLists writes the sorted lists of funcs into pages allocated
// from the pool's store.
func BuildDiskLists(pool *pagestore.BufferPool, funcs []Func, dims int) (*DiskLists, error) {
	perPage := pool.PageSize() / diskEntrySize
	if perPage < 1 {
		return nil, fmt.Errorf("ta: page size %d too small for list entries", pool.PageSize())
	}
	dl := &DiskLists{
		dimCount:   dims,
		pool:       pool,
		perPage:    perPage,
		pages:      make([][]pagestore.PageID, dims),
		slot:       make([]map[uint64]int, dims),
		removed:    make(map[uint64]bool),
		removedIdx: make([]bool, len(funcs)),
		listLen:    len(funcs),
		live:       len(funcs),
		fams:       make([]score.Family, len(funcs)),
		famByID:    make(map[uint64]score.Family, len(funcs)),
		linear:     true,
	}
	for _, f := range funcs {
		if len(f.Weights) != dims {
			return nil, fmt.Errorf("ta: function %d has %d weights, want %d", f.ID, len(f.Weights), dims)
		}
		if err := f.Fam.Validate(); err != nil {
			return nil, fmt.Errorf("ta: function %d: %w", f.ID, err)
		}
		dl.famByID[f.ID] = f.Fam
		if !f.Fam.IsLinear() {
			dl.linear = false
		}
		if !containsFamily(dl.famSet, f.Fam) {
			dl.famSet = append(dl.famSet, f.Fam)
		}
		sum := 0.0
		for _, w := range f.Weights {
			sum += w
		}
		if sum > dl.maxB {
			dl.maxB = sum
		}
	}
	for d := 0; d < dims; d++ {
		col := make([]listEntry, 0, len(funcs))
		for _, f := range funcs {
			col = append(col, listEntry{coef: f.Weights[d], id: f.ID})
		}
		sort.Slice(col, func(i, j int) bool {
			if col[i].coef != col[j].coef {
				return col[i].coef > col[j].coef
			}
			return col[i].id < col[j].id
		})
		dl.slot[d] = make(map[uint64]int, len(col))
		for i, e := range col {
			dl.slot[d][e.id] = i
		}
		if d == 0 {
			// Position in list 0 is the dense function index.
			for i, e := range col {
				dl.fams[i] = dl.famByID[e.id]
			}
		}
		// Write the column into pages.
		for start := 0; start < len(col); start += perPage {
			end := start + perPage
			if end > len(col) {
				end = len(col)
			}
			page := make([]byte, pool.PageSize())
			off := 0
			for _, e := range col[start:end] {
				binary.LittleEndian.PutUint64(page[off:], math.Float64bits(e.coef))
				binary.LittleEndian.PutUint64(page[off+8:], e.id)
				off += diskEntrySize
			}
			id, err := pool.Store().Allocate()
			if err != nil {
				return nil, err
			}
			if err := pool.Put(id, page); err != nil {
				return nil, err
			}
			dl.pages[d] = append(dl.pages[d], id)
		}
	}
	if err := pool.Flush(); err != nil {
		return nil, err
	}
	return dl, nil
}

// Dims returns the dimensionality.
func (dl *DiskLists) Dims() int { return dl.dimCount }

// listSource implementation (see search.go); NewDiskSearch reads the
// shape once.
func (dl *DiskLists) shape() listShape {
	return listShape{
		dims: dl.dimCount, n: dl.listLen, maxB: dl.maxB,
		removed: dl.removedIdx, live: &dl.live, counters: &dl.Counters,
		fams: dl.fams, famSet: dl.famSet, linear: dl.linear,
	}
}
func (dl *DiskLists) entryAt(d, i int) (listEntry, error) {
	dl.Counters.addSorted()
	e, err := dl.readEntry(d, i)
	if err != nil {
		return listEntry{}, err
	}
	// The position in list 0 serves as the dense function index.
	e.idx = dl.slot[0][e.id]
	return e, nil
}
func (dl *DiskLists) weightsAt(_ int, id uint64, hintDim int, hintCoef float64) ([]float64, error) {
	w, err := dl.randomWeights(id, hintDim, hintCoef)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// FamilyOf returns the scoring family of a function (the linear zero
// value when the ID is unknown).
func (dl *DiskLists) FamilyOf(id uint64) score.Family { return dl.famByID[id] }

// Live returns the number of unassigned functions.
func (dl *DiskLists) Live() int { return dl.live }

// NumPages returns the total pages across all lists.
func (dl *DiskLists) NumPages() int {
	n := 0
	for _, p := range dl.pages {
		n += len(p)
	}
	return n
}

// Removed reports whether a function has been tombstoned.
func (dl *DiskLists) Removed(id uint64) bool { return dl.removed[id] }

// Remove tombstones an assigned function.
func (dl *DiskLists) Remove(id uint64) error {
	if _, ok := dl.slot[0][id]; !ok {
		return fmt.Errorf("ta: unknown function id %d", id)
	}
	if dl.removed[id] {
		return fmt.Errorf("ta: function %d already removed", id)
	}
	dl.removed[id] = true
	dl.removedIdx[dl.slot[0][id]] = true
	dl.live--
	return nil
}

// readEntry fetches entry i of list d through the buffer pool (the I/O is
// counted by the pool).
func (dl *DiskLists) readEntry(d, i int) (listEntry, error) {
	page := dl.pages[d][i/dl.perPage]
	buf, err := dl.pool.Get(page)
	if err != nil {
		return listEntry{}, err
	}
	off := (i % dl.perPage) * diskEntrySize
	return listEntry{
		coef: math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])),
		id:   binary.LittleEndian.Uint64(buf[off+8:]),
	}, nil
}

// randomWeights gathers the full weight vector of a function by one page
// random access per remaining list (the scanned list d0 already yielded
// its coefficient).
func (dl *DiskLists) randomWeights(id uint64, d0 int, coef0 float64) (geom.Point, error) {
	w := make(geom.Point, dl.dimCount)
	w[d0] = coef0
	for d := 0; d < dl.dimCount; d++ {
		if d == d0 {
			continue
		}
		dl.Counters.addRandom()
		e, err := dl.readEntry(d, dl.slot[d][id])
		if err != nil {
			return nil, err
		}
		w[d] = e.coef
	}
	return w, nil
}

// WeightsOf gathers a function's full weight vector via one random page
// access per list (I/O-counted). Used by SB-alt's best-object scan.
func (dl *DiskLists) WeightsOf(id uint64) (geom.Point, error) {
	if _, ok := dl.slot[0][id]; !ok {
		return nil, fmt.Errorf("ta: unknown function id %d", id)
	}
	w := make(geom.Point, dl.dimCount)
	for d := 0; d < dl.dimCount; d++ {
		dl.Counters.addRandom()
		e, err := dl.readEntry(d, dl.slot[d][id])
		if err != nil {
			return nil, err
		}
		w[d] = e.coef
	}
	return w, nil
}

// BatchObject is one skyline object whose best function is wanted.
type BatchObject struct {
	ID    uint64
	Point geom.Point
}

// BatchResult is the best live function found for one object.
type BatchResult struct {
	FuncID uint64
	Score  float64
	OK     bool
}

// BatchSearch finds the best live function for every object in one
// block-wise round-robin pass over the disk lists (Section 7.6). Each
// page of each list is read at most once per call and each function's
// coefficients are random-accessed at most once per call, regardless of
// how many objects are searched — this is the SB-alt I/O saving.
func (dl *DiskLists) BatchSearch(objs []BatchObject) (map[uint64]BatchResult, error) {
	res := make(map[uint64]BatchResult, len(objs))
	if dl.live == 0 || len(objs) == 0 {
		for _, o := range objs {
			res[o.ID] = BatchResult{}
		}
		return res, nil
	}
	type state struct {
		obj       BatchObject
		order     []int
		objSorted []float64 // object values sorted descending (family bounds)
		best      BatchResult
		done      bool
	}
	states := make([]*state, len(objs))
	for i, o := range objs {
		st := &state{obj: o, order: dimOrderFor(o.Point)}
		if !dl.linear {
			st.objSorted = make([]float64, len(o.Point))
			for j, d := range st.order {
				st.objSorted[j] = o.Point[d]
			}
		}
		states[i] = st
	}
	// boundFor computes the knapsack upper bound for one object given the
	// current lastSeen vector, optionally excluding one dimension whose
	// coefficient is already known (excl = -1 for none). It is exact for
	// the all-linear setting; with non-linear families present the
	// refined exclusion is unsound across families, so the generic
	// per-family bound over the full ceilings is used instead (still a
	// valid upper bound: the known coefficient never exceeds its
	// ceiling).
	boundFor := func(st *state, lastSeen []float64, b float64, excl int) float64 {
		if !dl.linear {
			// famBoundPad (see search.go) keeps the bound a true upper
			// bound under float rounding at any score magnitude, for the
			// skip check and the retirement check alike.
			fb := score.MaxBound(dl.famSet, lastSeen, st.obj.Point, st.order, st.objSorted, dl.maxB)
			return fb + famBoundPad(fb)
		}
		t := 0.0
		for _, d := range st.order {
			if d == excl {
				continue
			}
			if b <= 0 {
				break
			}
			beta := lastSeen[d]
			if beta > b {
				beta = b
			}
			t += beta * st.obj.Point[d]
			b -= beta
		}
		return t
	}
	lastSeen := make([]float64, dl.dimCount)
	for d := range lastSeen {
		lastSeen[d] = dl.maxB
	}
	blockIdx := make([]int, dl.dimCount) // next page per list
	seen := make(map[uint64]bool, dl.listLen)
	remaining := len(states)

	for remaining > 0 {
		progressed := false
		for d := 0; d < dl.dimCount && remaining > 0; d++ {
			if blockIdx[d] >= len(dl.pages[d]) {
				continue
			}
			progressed = true
			start := blockIdx[d] * dl.perPage
			end := start + dl.perPage
			if end > dl.listLen {
				end = dl.listLen
			}
			blockIdx[d]++
			for i := start; i < end; i++ {
				dl.Counters.addSorted()
				e, err := dl.readEntry(d, i)
				if err != nil {
					return nil, err
				}
				lastSeen[d] = e.coef
				if seen[e.id] {
					continue
				}
				seen[e.id] = true
				if dl.removed[e.id] {
					continue
				}
				// TA-style pruning: the function's unseen coefficients are
				// bounded by lastSeen, so its score on object o is at most
				// coef·o_d plus the knapsack optimum over the remaining
				// dimensions. Skip the D-1 random accesses when no active
				// object could improve its current best.
				improves := false
				for _, st := range states {
					if st.done {
						continue
					}
					if !st.best.OK {
						improves = true
						break
					}
					var bound float64
					if dl.linear {
						bound = e.coef*st.obj.Point[d] +
							boundFor(st, lastSeen, dl.maxB-e.coef, d)
					} else {
						bound = boundFor(st, lastSeen, dl.maxB, -1)
					}
					if bound > st.best.Score {
						improves = true
						break
					}
				}
				if !improves {
					continue
				}
				w, err := dl.randomWeights(e.id, d, e.coef)
				if err != nil {
					return nil, err
				}
				fam := dl.famByID[e.id]
				for _, st := range states {
					if st.done {
						continue
					}
					// st.objSorted (descending object values, built once per
					// object) makes the OWA case a plain dot product instead
					// of a per-(function, object) sort.
					s := score.EvalPrepared(fam, w, st.obj.Point, st.objSorted)
					if !st.best.OK || s > st.best.Score ||
						(s == st.best.Score && e.id < st.best.FuncID) {
						st.best = BatchResult{FuncID: e.id, Score: s, OK: true}
					}
				}
			}
			// After each block, retire objects whose best already meets
			// the threshold.
			for _, st := range states {
				if st.done || !st.best.OK {
					continue
				}
				if st.best.Score >= boundFor(st, lastSeen, dl.maxB, -1) {
					st.done = true
					remaining--
				}
			}
		}
		if !progressed {
			break // lists exhausted: current bests are final
		}
	}
	for _, st := range states {
		res[st.obj.ID] = st.best
	}
	return res, nil
}
