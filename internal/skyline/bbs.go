// Package skyline implements skyline computation and maintenance over
// R-tree indexed object sets:
//
//   - BBS (branch-and-bound skyline, Papadias et al.) for the initial
//     skyline, extended to keep each pruned entry in the pruned list
//     ("plist") of exactly one dominating skyline object (Section 5.2 of
//     the paper);
//   - UpdateSkyline (Algorithm 2): the paper's I/O-optimal incremental
//     maintenance under deletions of skyline objects — no R-tree node is
//     ever read twice across the entire assignment run (Theorem 1);
//   - DeltaSky: the state-of-the-art baseline that re-traverses the tree
//     once per deletion, used by the Fig. 8 comparison;
//   - BNL and SFS in-memory skylines, used as oracles and for the
//     function-side skyline of the prioritized variant (Section 6.2).
//
// All dominance tests use the strict definition (Section 2.2): p dominates
// q iff p >= q in every dimension and p != q; coincident duplicates are
// both on the skyline.
package skyline

import (
	"slices"
	"sync"

	"fairassign/internal/geom"
	"fairassign/internal/heaputil"
	"fairassign/internal/metrics"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
)

// entry is a heap element: either an R-tree node reference or a data
// point, ordered by descending coordinate sum of its top corner —
// equivalent to BBS's ascending L1 distance from the sky point.
type entry struct {
	rect  geom.Rect
	child pagestore.PageID // InvalidPage for data points
	id    uint64           // object ID for data points
	key   float64          // sum of top-corner coordinates
	// sub is set on the point entry of a skyline object a Maintainer
	// arrival demoted: the object stays parked with its own pruned list
	// attached (see Maintainer.Insert).
	sub *skyObj
}

func (e entry) isPoint() bool { return e.child == pagestore.InvalidPage }

func topCornerSum(r geom.Rect) float64 {
	s := 0.0
	for _, v := range r.Max {
		s += v
	}
	return s
}

// entryHeap is a boxing-free max-heap on key (closest to the sky point
// first).
type entryHeap []entry

func lessEntry(a, b entry) bool { return a.key > b.key }

func (h *entryHeap) push(e entry) { heaputil.Push((*[]entry)(h), lessEntry, e) }
func (h *entryHeap) pop() entry   { return heaputil.Pop((*[]entry)(h), lessEntry) }
func (h *entryHeap) Len() int     { return len(*h) }

// approximate per-entry memory footprint for the paper's memory metric.
func entryBytes(dims int) int64 { return int64(2*8*dims + 32) }

// entryHeapPool recycles branch-and-bound heaps across skyline passes
// (Compute calls, maintainer construction, and each Remove's resume).
var entryHeapPool = sync.Pool{New: func() any { return new(entryHeap) }}

func acquireEntryHeap() *entryHeap { return entryHeapPool.Get().(*entryHeap) }

// releaseEntryHeap scrubs the heap (so no R-tree node memory is retained
// through the pool) and returns it for reuse.
func releaseEntryHeap(h *entryHeap) {
	clear((*h)[:cap(*h)])
	*h = (*h)[:0]
	entryHeapPool.Put(h)
}

// Compute runs plain BBS over the tree and returns the skyline. It visits
// the minimum possible set of nodes (I/O-optimal for a single skyline
// computation). Deleted object IDs in skip are ignored. It accepts any
// rtree.NodeReader, so it runs equally over the live tree and over a
// frozen rtree.View (snapshot-addressable skyline queries).
func Compute(t rtree.NodeReader, skip map[uint64]bool) ([]rtree.Item, error) {
	if t.Len() == 0 {
		return nil, nil
	}
	var sky []rtree.Item
	h := acquireEntryHeap()
	defer releaseEntryHeap(h)
	root, err := t.ReadNode(t.Root())
	if err != nil {
		return nil, err
	}
	pushNodeEntries(h, root)
	var cs *ColSet // columnar mirror of sky, for the dominance kernel
	for len(*h) > 0 {
		e := h.pop()
		if cs != nil && cs.AnyDominates(e.rect.Max) {
			continue
		}
		if e.isPoint() {
			if skip != nil && skip[e.id] {
				continue
			}
			sky = append(sky, rtree.Item{ID: e.id, Point: e.rect.Min})
			if cs == nil {
				cs = acquireColSet(len(e.rect.Min))
				defer releaseColSet(cs)
			}
			cs.Append(e.id, e.rect.Min)
			continue
		}
		n, err := t.ReadNode(e.child)
		if err != nil {
			return nil, err
		}
		pushNodeEntries(h, n)
	}
	return sky, nil
}

func pushNodeEntries(h *entryHeap, n *rtree.Node) {
	for _, ne := range n.Entries {
		h.push(entry{
			rect:  ne.Rect,
			child: ne.Child,
			id:    ne.ID,
			key:   topCornerSum(ne.Rect),
		})
	}
}

// dominatedByAny reports whether e is strictly dominated by one of the
// skyline items: a node entry is prunable when its best corner is
// dominated; a point entry when the point itself is. This is the
// row-wise definitional form of ColSet.AnyDominates, retained as the
// oracle for the kernel differential tests.
func dominatedByAny(sky []rtree.Item, e entry) bool {
	for _, s := range sky {
		if s.Point.Dominates(e.rect.Max) {
			return true
		}
	}
	return false
}

// BNL computes the skyline of an in-memory point set with the
// block-nested-loops algorithm (Börzsönyi et al.). O(n²) worst case; used
// as a test oracle and for small function-side skylines.
func BNL(items []rtree.Item) []rtree.Item {
	var window []rtree.Item
	for _, it := range items {
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if w.Point.Dominates(it.Point) {
				dominated = true
			}
			if !it.Point.Dominates(w.Point) {
				keep = append(keep, w)
			}
		}
		if dominated {
			// restore pruned window (it cannot have dominated anything
			// if it is itself dominated, but keep is already correct)
			window = keep
			continue
		}
		window = append(keep, it)
	}
	return window
}

// SFS computes the skyline with sort-filter-skyline: items are sorted by
// descending coordinate sum (a topological order of dominance), after
// which each item needs comparing only against the accumulated skyline.
func SFS(items []rtree.Item) []rtree.Item {
	if len(items) == 0 {
		return nil
	}
	sorted := make([]rtree.Item, len(items))
	copy(sorted, items)
	sortBySumDesc(sorted)
	cs := acquireColSet(len(sorted[0].Point))
	defer releaseColSet(cs)
	var sky []rtree.Item
	for _, it := range sorted {
		if cs.AnyDominates(it.Point) {
			continue
		}
		sky = append(sky, it)
		cs.Append(it.ID, it.Point)
	}
	return sky
}

func sortBySumDesc(items []rtree.Item) {
	sum := func(p geom.Point) float64 {
		s := 0.0
		for _, v := range p {
			s += v
		}
		return s
	}
	// (sum desc, ID asc) is a total order, so the sorted permutation is
	// unique — slices.SortFunc (pdqsort, no reflection) must produce the
	// byte-identical sequence sort.Slice did.
	slices.SortFunc(items, func(a, b rtree.Item) int {
		sa, sb := sum(a.Point), sum(b.Point)
		switch {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// trackMem grows/shrinks a tracker when one is attached.
func trackMem(m *metrics.MemTracker, delta int64) {
	if m == nil {
		return
	}
	if delta >= 0 {
		m.Grow(delta)
	} else {
		m.Shrink(-delta)
	}
}
