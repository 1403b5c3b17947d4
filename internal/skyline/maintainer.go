package skyline

import (
	"fmt"

	"fairassign/internal/geom"
	"fairassign/internal/metrics"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
)

// Maintainer implements the paper's incremental skyline maintenance
// (Section 5.2, Algorithm 2). During the initial BBS pass every pruned
// entry (node or object) is stored in the pruned list of exactly one
// dominating skyline object. When skyline objects are removed, their
// pruned lists are redistributed: entries dominated by a surviving
// skyline object move to that object's plist, the rest are re-examined by
// resuming the branch-and-bound search. Theorem 1: no R-tree node is read
// twice across the lifetime of the maintainer.
//
// A tree-backed maintainer (NewMaintainer) parks pruned subtrees by page
// reference and therefore requires the tree to stay physically unchanged
// for its lifetime; when the index itself absorbs inserts and deletes,
// use NewMaintainerFromItems, which materializes every entry as a point
// and never touches the tree again.
//
// Invariant: every entry in a skyline object's pruned list is strictly
// dominated by that object, including the lists of demoted objects
// parked by Insert. So the skyline, as an ID set, is always the skyline
// of the live entries, whatever list each entry happens to sit in.
type Maintainer struct {
	tree *rtree.Tree // nil for materialized maintainers (no node entries)
	dims int
	sky  map[uint64]*skyObj
	mem  *metrics.MemTracker

	// order and cols mirror the sky map as dense arrays: order[i] is the
	// skyline object whose point sits at column row i (skyObj.slot keeps
	// the back-pointer). The columnar mirror feeds the branch-free
	// dominance kernel (dominator) and the batched scorer kernel (Best);
	// the map stays the ID-lookup path. As a side effect Skyline() and
	// the Insert demote scan now run in deterministic insertion order
	// instead of map order.
	order []*skyObj
	cols  *ColSet

	// lastDom caches the most recent successful dominator: consecutive
	// heap entries are spatially close, so the same skyline object
	// usually prunes runs of them, turning the O(|sky|) scan into O(D).
	// It is always on the skyline (delSky clears it).
	lastDom *skyObj

	// free recycles skyObj slots of removed skyline objects (keeping
	// their plist capacity), and orphans is the Remove scratch buffer;
	// together they keep the steady-state removal loop of an assignment
	// run nearly allocation-free.
	free    []*skyObj
	orphans []entry

	// liveCheck, when set (NewMaintainerFromItems), is consulted for
	// every resurfacing point entry: an entry whose (id, point) it
	// rejects is stale — its object departed, exhausted, or its ID now
	// names a different point — and is dropped. It is what lets Discard
	// leave parked objects in place.
	liveCheck func(id uint64, pt geom.Point) bool

	// NodeReads counts R-tree node visits performed by this maintainer
	// (used by tests to verify I/O optimality).
	NodeReads int64
}

// newSkyObj takes a recycled slot when one is available.
func (m *Maintainer) newSkyObj(it rtree.Item) *skyObj {
	if n := len(m.free); n > 0 {
		s := m.free[n-1]
		m.free = m.free[:n-1]
		s.item = it
		return s
	}
	return &skyObj{item: it}
}

// recycle returns a slot that left the skyline for good to the free
// list. The caller must already have copied (or migrated) the plist
// contents; the slots are scrubbed so no R-tree node memory is retained
// through the free list.
func (m *Maintainer) recycle(s *skyObj) {
	s.item = rtree.Item{}
	clear(s.plist)
	s.plist = s.plist[:0]
	m.free = append(m.free, s)
}

type skyObj struct {
	item  rtree.Item
	plist []entry
	slot  int // index in Maintainer.order / Maintainer.cols
}

// addSky registers a skyline object in the map and the columnar mirror.
func (m *Maintainer) addSky(s *skyObj) {
	s.slot = len(m.order)
	m.order = append(m.order, s)
	m.cols.Append(s.item.ID, s.item.Point)
	m.sky[s.item.ID] = s
}

// delSky unregisters a skyline object (swap-delete in the mirror). The
// caller still owns s and its plist.
func (m *Maintainer) delSky(s *skyObj) {
	if m.lastDom == s {
		m.lastDom = nil
	}
	i, last := s.slot, len(m.order)-1
	if i != last {
		moved := m.order[last]
		m.order[i] = moved
		moved.slot = i
	}
	m.order = m.order[:last]
	m.cols.SwapDelete(i)
	delete(m.sky, s.item.ID)
}

// NewMaintainer computes the initial skyline of the tree with a
// plist-tracking BBS and returns a maintainer ready for removals. mem may
// be nil; when set, plist and heap footprints are tracked for the paper's
// memory metric.
func NewMaintainer(t *rtree.Tree, mem *metrics.MemTracker) (*Maintainer, error) {
	m := &Maintainer{tree: t, dims: t.Dims(), sky: make(map[uint64]*skyObj), mem: mem, cols: NewColSet(t.Dims())}
	if t.Len() == 0 {
		return m, nil
	}
	h := acquireEntryHeap()
	defer releaseEntryHeap(h)
	root, err := m.readNode(t.Root())
	if err != nil {
		return nil, err
	}
	m.pushChildren(h, root)
	if err := m.resume(h); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMaintainerFromItems builds a maintainer over an in-memory item
// set, materializing every entry as a point. A tree-backed maintainer
// parks whole pruned subtrees by page reference, which is I/O-optimal
// but assumes the index never changes underneath it; a materialized
// maintainer holds no index references at all, so it stays correct
// while the index absorbs physical inserts and deletes — the dynamic
// Workspace regime. Item points are aliased, not copied: callers must
// treat them as immutable for the maintainer's lifetime.
//
// live reports whether (id, point) is still a member of the maintained
// set; Discard relies on it to drop objects parked in pruned lists
// lazily, when they resurface. It may be nil for a maintainer that only
// ever removes skyline objects.
func NewMaintainerFromItems(dims int, items []rtree.Item, live func(id uint64, pt geom.Point) bool, mem *metrics.MemTracker) *Maintainer {
	m := &Maintainer{dims: dims, sky: make(map[uint64]*skyObj), liveCheck: live, mem: mem, cols: NewColSet(dims)}
	if len(items) == 0 {
		return m
	}
	// Seed the skyline with SFS (descending corner-sum visit order means
	// dominators precede what they dominate), then park the rest.
	for _, it := range SFS(items) {
		m.addSky(m.newSkyObj(rtree.Item{ID: it.ID, Point: it.Point.Clone()}))
	}
	for _, it := range items {
		if _, onSky := m.sky[it.ID]; onSky {
			continue
		}
		e := entry{
			rect:  geom.RectFromPoint(it.Point),
			child: pagestore.InvalidPage,
			id:    it.ID,
			key:   topCornerSum(geom.RectFromPoint(it.Point)),
		}
		o := m.dominator(e)
		if o == nil {
			// Non-strict domination ties (duplicate points) can leave an
			// item outside both sets; it belongs on the skyline.
			m.addSky(m.newSkyObj(rtree.Item{ID: it.ID, Point: it.Point.Clone()}))
			continue
		}
		o.plist = append(o.plist, e)
		trackMem(m.mem, entryBytes(m.dims))
	}
	return m
}

// Skyline returns the current skyline objects (insertion order).
func (m *Maintainer) Skyline() []rtree.Item {
	out := make([]rtree.Item, 0, len(m.order))
	for _, s := range m.order {
		out = append(out, s.item)
	}
	return out
}

// Best returns the skyline object maximizing the scorer, ties to the
// lowest ID — BestUnder over the maintained skyline without
// materializing the item slice, scored by the batched columnar kernel.
// ok is false on an empty skyline. Like every mutating method it must
// not be called concurrently with mutations (the kernel scratch lives
// on the maintainer).
func (m *Maintainer) Best(sc score.Scorer) (best rtree.Item, bestScore float64, ok bool) {
	i, s, ok := m.cols.Best(sc)
	if !ok {
		return rtree.Item{}, 0, false
	}
	return m.order[i].item, s, true
}

// Size returns the number of current skyline objects.
func (m *Maintainer) Size() int { return len(m.sky) }

// Contains reports whether the object is currently on the skyline.
func (m *Maintainer) Contains(id uint64) bool {
	_, ok := m.sky[id]
	return ok
}

// PlistLen returns the pruned-list length of a skyline object (tests).
func (m *Maintainer) PlistLen(id uint64) int {
	if s, ok := m.sky[id]; ok {
		return len(s.plist)
	}
	return 0
}

// Insert adds a newly arrived object to the maintained set (the dynamic
// scenario sketched as future work in Section 8, using the insertion
// rule of Section 2.2). If the object is dominated by a current skyline
// object it is parked in that object's pruned list and will resurface if
// its dominator is ever removed. Otherwise it joins the skyline, and
// each skyline object it dominates is parked in its pruned list as one
// entry that keeps the object's own pruned list attached (everything in
// that list is dominated by the demoted object, hence by the arrival).
// The cost is one entry per demoted object, not the size of their
// lists, and a demoted object that resurfaces undominated rejoins the
// skyline with its list intact. No R-tree access is needed.
func (m *Maintainer) Insert(it rtree.Item) error {
	if _, dup := m.sky[it.ID]; dup {
		return fmt.Errorf("skyline: object %d already on the skyline", it.ID)
	}
	e := entry{
		rect:  geom.RectFromPoint(it.Point),
		child: pagestore.InvalidPage,
		id:    it.ID,
		key:   topCornerSum(geom.RectFromPoint(it.Point)),
	}
	if o := m.dominator(e); o != nil {
		o.plist = append(o.plist, e)
		trackMem(m.mem, entryBytes(m.dims))
		return nil
	}
	obj := m.newSkyObj(rtree.Item{ID: it.ID, Point: it.Point.Clone()})
	// Demote every skyline object the arrival dominates. The scan walks
	// the dense order slice; delSky swap-fills slot i with a not-yet-
	// visited object from the tail, so i is re-examined after a demotion
	// and every object is tested exactly once.
	for i := 0; i < len(m.order); {
		s := m.order[i]
		if !it.Point.Dominates(s.item.Point) {
			i++
			continue
		}
		m.delSky(s)
		obj.plist = append(obj.plist, entry{
			rect:  geom.RectFromPoint(s.item.Point),
			child: pagestore.InvalidPage,
			id:    s.item.ID,
			key:   topCornerSum(geom.RectFromPoint(s.item.Point)),
			sub:   s,
		})
		trackMem(m.mem, entryBytes(m.dims))
	}
	m.addSky(obj)
	return nil
}

// Remove deletes the given skyline objects (they have been assigned) and
// incrementally restores the skyline of the remaining data, per
// Algorithm 2. It is an error to remove an object that is not currently
// on the skyline.
func (m *Maintainer) Remove(ids ...uint64) error {
	return m.remove(ids, false)
}

// Discard deletes objects from the maintained set wherever they
// currently live — the general deletion the dynamic Workspace needs. An
// object on the skyline is removed exactly as Remove would. An object
// parked in a pruned list cannot be deleted in place: it stays parked
// until a later removal resurfaces it, and the live check must reject
// it by then. Without a live check (a tree-backed maintainer)
// discarding an object that is not on the skyline is an error.
func (m *Maintainer) Discard(ids ...uint64) error {
	return m.remove(ids, m.liveCheck != nil)
}

// stale reports whether a resurfacing point entry no longer represents
// a live object, by the live check.
func (m *Maintainer) stale(e entry) bool {
	return m.liveCheck != nil && !m.liveCheck(e.id, e.rect.Min)
}

func (m *Maintainer) remove(ids []uint64, lenient bool) error {
	if len(ids) == 0 {
		return nil
	}
	// Collect pruned lists of all removed objects, then drop the objects
	// (their slots are recycled for future skyline arrivals).
	orphans := m.orphans[:0]
	onSky := false
	for _, id := range ids {
		s, ok := m.sky[id]
		if !ok {
			if !lenient {
				m.orphans = orphans
				return fmt.Errorf("skyline: object %d is not on the skyline", id)
			}
			continue // parked: the live check drops it on resurfacing
		}
		orphans = append(orphans, s.plist...)
		m.delSky(s)
		m.recycle(s)
		onSky = true
	}
	if !onSky {
		m.orphans = orphans
		return nil // nothing left the skyline
	}

	// Line 1 of UpdateSkyline: entries dominated by a surviving skyline
	// object migrate to that object's plist; the rest form Scand.
	// Stale point entries evaporate here instead of re-parking; a stale
	// demoted object's own list joins the orphans, since what it
	// dominated may still be live.
	h := acquireEntryHeap()
	defer releaseEntryHeap(h)
	for i := 0; i < len(orphans); i++ {
		e := orphans[i]
		if e.isPoint() && m.stale(e) {
			trackMem(m.mem, -entryBytes(m.dims))
			if e.sub != nil {
				orphans = append(orphans, e.sub.plist...)
				m.recycle(e.sub)
			}
			continue
		}
		if o := m.dominator(e); o != nil {
			o.plist = append(o.plist, e)
			continue
		}
		h.push(e)
	}
	// Scrub the scratch so it does not retain node memory between calls.
	clear(orphans)
	m.orphans = orphans[:0]
	// Memory neutral so far (entries moved between structures).
	return m.resume(h)
}

// resume is ResumeSkyline (Algorithm 2): branch-and-bound over the
// candidate heap against the current skyline, storing pruned entries in
// plists and visiting child nodes only when not dominated.
func (m *Maintainer) resume(h *entryHeap) error {
	for h.Len() > 0 {
		e := h.pop()
		trackMem(m.mem, -entryBytes(m.dims))
		if e.isPoint() {
			// Stale entries evaporate on resurfacing, and an ID already
			// back on the skyline (a stale copy from a Discard/Insert
			// cycle) must not clobber its live slot. A demoted object
			// dropped either way hands its own list back to the search.
			if _, onSky := m.sky[e.id]; onSky || m.stale(e) {
				if e.sub != nil {
					for _, pe := range e.sub.plist {
						h.push(pe)
					}
					m.recycle(e.sub)
				}
				continue
			}
		}
		if o := m.dominator(e); o != nil {
			o.plist = append(o.plist, e)
			trackMem(m.mem, entryBytes(m.dims))
			continue
		}
		if e.sub != nil {
			m.addSky(e.sub) // a demoted object returns with its list
			continue
		}
		if e.isPoint() {
			// Clone at the long-lived retention boundary: e.rect.Min is a
			// sub-slice of the decoded node's whole coordinate array, and
			// skyline objects outlive the node cache.
			m.addSky(m.newSkyObj(rtree.Item{ID: e.id, Point: e.rect.Min.Clone()}))
			continue
		}
		n, err := m.readNode(e.child)
		if err != nil {
			return err
		}
		m.pushChildren(h, n)
	}
	return nil
}

// dominator returns a skyline object strictly dominating e's top corner,
// or nil. Entries are kept in the plist of exactly one dominator; any
// dominator is a correct choice (an entry is prunable iff one exists),
// so the columnar kernel's first-by-slot pick — like the map-order pick
// before it — never changes skyline evolution or node reads.
func (m *Maintainer) dominator(e entry) *skyObj {
	if d := m.lastDom; d != nil && d.item.Point.Dominates(e.rect.Max) {
		return d
	}
	if i := m.cols.FirstDominator(e.rect.Max); i >= 0 {
		s := m.order[i]
		m.lastDom = s
		return s
	}
	return nil
}

func (m *Maintainer) readNode(id pagestore.PageID) (*rtree.Node, error) {
	if m.tree == nil {
		return nil, fmt.Errorf("skyline: materialized maintainer holds node entry for page %d", id)
	}
	m.NodeReads++
	return m.tree.ReadNode(id)
}

func (m *Maintainer) pushChildren(h *entryHeap, n *rtree.Node) {
	for _, ne := range n.Entries {
		h.push(entry{
			rect:  ne.Rect,
			child: ne.Child,
			id:    ne.ID,
			key:   topCornerSum(ne.Rect),
		})
		trackMem(m.mem, entryBytes(m.dims))
	}
}
