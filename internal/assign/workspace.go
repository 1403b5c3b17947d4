package assign

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"fairassign/internal/cow"
	"fairassign/internal/geom"
	"fairassign/internal/metrics"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/skyline"
)

// Typed misuse errors. All Workspace methods return wrapped forms of
// these sentinels (match with errors.Is), so callers can distinguish
// programming mistakes from environmental failures.
var (
	// ErrClosed is returned by every Workspace method after Close.
	ErrClosed = errors.New("assign: workspace is closed")
	// ErrViewClosed is returned by View query methods after View.Close.
	ErrViewClosed = errors.New("assign: view is closed")
	// ErrDuplicateID is returned by AddObject/AddFunction when the ID is
	// already live on that side.
	ErrDuplicateID = errors.New("assign: duplicate id")
	// ErrUnknownID is returned by RemoveObject/RemoveFunction when no
	// live entity has the ID.
	ErrUnknownID = errors.New("assign: unknown id")
)

// Workspace is the long-lived incremental form of the solver: it builds
// the shared solve state once, computes the initial stable matching with
// SB, and then repairs the matching in place as preference functions and
// objects arrive or depart — the dynamic regime the paper sketches as
// future work in Section 8.
//
// Repair works through two bounded chain primitives, mirroring the
// paper's Chain algorithm and its Property 2 (a mutual best pair is
// stable):
//
//   - a freed function unit proposes down its preference order: it takes
//     the best object that either has spare capacity or holds a strictly
//     worse assignment, displacing that assignment and re-chaining the
//     displaced function;
//   - a freed object unit pulls the best function that strictly prefers
//     it over its current worst assignment (or has spare capacity), and
//     the vacancy the mover leaves behind cascades.
//
// Because both sides rank every pair by the same score f(o), the stable
// matching is unique (up to score ties), so chain repair lands on
// exactly the matching a from-scratch solve of the mutated snapshot
// produces — the conformance mutation harness asserts this after every
// mutation of randomized scripts.
//
// Exact score ties (bit-equal f(o) for different pairs — measure zero
// for continuous data, but reachable through duplicate or diagonal
// points) are broken by (score, function ID, object ID), the order of
// Oracle's definitional greedy, in the build as in repair: every best
// function comes from the same FuncBlocks pass (ties to the lower
// function ID) and every best object from a scan that ties to the lower
// object ID. On 2-D integer-grid instances with positive weights, where
// ties are everywhere, the built and the repaired matchings equal
// Oracle's (TestWorkspaceBuildMatchesOracleOnTies,
// TestWorkspaceRepairUnchanged). A one-shot SB solve breaks such ties
// by TA scan order instead, so on tied instances the two can return
// different — equally stable — resolutions of the tie.
//
// The availability frontier — the skyline of objects with remaining
// capacity — is maintained incrementally through the Section 5.2
// machinery. Like Algorithm 2, which updates the skyline once per
// round, it absorbs availability flips in batches: syncFrontier applies
// their net change (Maintainer.Insert, then one Maintainer.Discard)
// before each function proposal, the only repair step that reads it,
// and at the end of each mutation's repair, so a vacancy chain that
// revives and refills an object costs it nothing. A function proposal
// scores that skyline for the best free object, and scores the
// displacement block — every full object as columns beside its worst
// assignment — for the best object whose worst it beats; the better of
// the two wins. Both are batched kernel passes: repair reads no index
// pages, and the R-tree serves structural edits, views and the initial
// solve.
//
// A vacancy's reverse search scores every live function at once: the
// functions' effective weights sit in per-family columnar blocks
// (score.FuncBlocks), each beside its floor — free while the function
// has a spare unit, otherwise its worst assignment — and one batched
// kernel pass picks the best function whose floor the vacancy beats.
// The function side has no pages, so it costs no I/O and no snapshot
// page image.
//
// Snapshot capture is O(Δ), not O(population): the object tables, the
// function table, the function half of the matching and the object
// index's page table (pagestore.VersionedStore) are copy-on-write
// chunked tables (cow.Table). A capture freezes them — copying each
// table's directory root, one pointer per 64 chunks — and the writer
// clones a chunk and its directory page only on its first write to
// them after the freeze, so an epoch pays for the chunks it wrote; a
// page that no open view holds is rewritten in place. Pair slices are
// immutable values, so frozen pair tables share them too.
// Writer-only state (the object half of the matching, the per-function
// scorers, the capacity tables) stays in plain maps, and the
// availability frontier is never captured, so an epoch that only
// exhausted or revived objects reuses the previous object capture
// whole.
type Workspace struct {
	// mu is the single-writer lock: it serializes mutations, epoch
	// publication, and snapshot acquisition. Snapshot readers never take
	// it — a View answers from immutable published state — so reads
	// proceed concurrently with (and unblocked by) repairs.
	mu sync.Mutex

	cfg  Config
	dims int

	obj *objPart // the object side: index, frontier, tables, capture

	epoch uint64 // latest published epoch: one per commit

	// pub caches the captured state of the latest published epoch. It is
	// built lazily by the first Snapshot after a mutation and dropped
	// (released) by the next mutation, so pure churn pays nothing for it.
	// pubA mirrors it for the lock-free Snapshot fast path: readers
	// retain straight off the atomic pointer and never queue on mu
	// unless the cache was just invalidated (or while a pinned epoch is
	// being recaptured).
	pub  *pubState
	pubA atomic.Pointer[pubState]

	// dur is the durability state (nil without a WALDir): the log every
	// Apply batch is fsynced to before its epoch publishes, plus the
	// snapshot directory. recovery describes how an OpenWorkspace
	// workspace was reconstructed.
	dur      *durableState
	recovery *RecoveryInfo

	// funcs is the function table; views read frozen copies of it. eff
	// is the writer's own per-function scorer (family over the effective
	// weights), which repair reads on every candidate.
	funcs *cow.Table[Function]
	eff   map[uint64]score.Scorer
	// allFuncs holds every live function's effective weights in
	// per-family columnar blocks, beside its floor (see syncFloor): the
	// reverse search (best function for a vacant object) is one batched
	// dual-kernel pass over it, with no pages and no I/O.
	allFuncs *score.FuncBlocks
	funcCaps *capTable

	// byFunc is the function half of the matching; the object half is
	// obj.byObj. One wsPair per assigned unit, present in exactly one
	// slice of each side. Pair slices are immutable values — link and
	// unlink build new ones — so frozen copies of byFunc share them with
	// the writer; a function with no pairs has no entry.
	byFunc *cow.Table[[]wsPair]

	queue []repairItem // free units awaiting chain repair

	closed    bool        // guarded by mu
	closedA   atomic.Bool // mirrors closed for the lock-free Snapshot fast path
	corrupt   error       // non-nil after a mid-mutation structural failure (see ErrCorrupt)
	mutations int64
	commits   int64 // epochs published (group commits batch many mutations into one)
	chainLen  int64 // reassignments performed by repair chains
	searches  int64 // top-1 searches issued by repair
	resolves  int64 // full solves (the initial build)
}

// objPart is the object side of a workspace: its versioned page store,
// R-tree, availability frontier, displacement block, object and
// capacity tables, and the object half of the matching.
type objPart struct {
	vstore *pagestore.VersionedStore
	pool   *pagestore.BufferPool
	tree   *rtree.Tree

	// avail is the availability frontier: a materialized skyline
	// maintainer over the objects with remaining capacity. It holds no
	// R-tree references (the workspace physically mutates its tree), so
	// arbitrary Insert/Discard traffic stays correct. Only buildFrontier
	// and syncFrontier change it.
	avail *skyline.Maintainer
	// pending maps each object whose availability changed since the last
	// syncFrontier to its availability at that sync; pendingIDs holds the
	// same objects in first-change order, so syncs are deterministic.
	// Both are empty outside repair.
	pending    map[uint64]bool
	pendingIDs []uint64
	discards   []uint64 // syncFrontier's Discard scratch

	objs  *cow.Table[Object] // views read frozen copies of it
	caps  *capTable
	byObj map[uint64][]wsPair
	units int // assigned units: the number of pairs in the matching

	// full is the displacement search's index: every full object with
	// its worst assignment. link, unlink and restoreUnit keep it in step
	// with caps and byObj; views never see it.
	full *displacementBlock

	pageDirty bool // tree pages written since the last flush
	// pub caches the capture of the current objects and tree. An object
	// arrival or departure drops it; otherwise every epoch's capture
	// reuses it for the cost of a refcount increment (availability
	// flips leave it alone: it holds no frontier).
	pub *partPub
}

// wsPair is one assigned unit of the matching.
type wsPair struct {
	fid   uint64
	oid   uint64
	score float64
}

// repairItem is a freed unit: a function unit looking for an object, or
// an object unit looking for a function.
type repairItem struct {
	isFunc bool
	id     uint64
}

// WorkspaceStats is a point-in-time summary of a workspace.
type WorkspaceStats struct {
	Objects       int   // live objects
	Functions     int   // live functions
	AssignedUnits int   // pairs in the current matching
	SkylineSize   int   // availability frontier: skyline of the objects with spare capacity
	Mutations     int64 // mutations applied since construction
	Commits       int64 // epochs published (Apply groups many mutations into one)
	ChainSteps    int64 // reassignments performed by repair chains
	Searches      int64 // top-1 searches issued by repair
	Resolves      int64 // from-scratch solves (1: the initial build)
	// IO counts page accesses of the object index: its structural
	// inserts and deletes. Repair searches read no pages, and the
	// function side has none.
	IO metrics.IOCounter
}

// NewWorkspace builds the shared state, solves the initial instance
// with Algorithm 3's loop, and returns a workspace ready for mutations.
// The build finds each skyline object's best function with one
// FuncBlocks pass over every live function (sbBlocks), the reverse
// search repair runs, instead of SB's resumable TA searches. The object
// store is built through a versioned wrapper around the configured store
// factory, so snapshots can freeze its page table. The workspace adopts
// the solve's object tree.
func NewWorkspace(p *Problem, cfg Config) (*Workspace, error) {
	st, err := newSolveState(p, cfg.versioned())
	if err != nil {
		return nil, err
	}
	res, err := st.runSB(sbBlocks)
	if err != nil {
		st.release()
		return nil, err
	}
	w := &Workspace{
		cfg:      cfg,
		dims:     p.Dims,
		obj:      newObjPart(st.store, st.pool, st.tree, len(p.Objects)),
		funcs:    cow.New[Function](len(p.Functions)),
		eff:      make(map[uint64]score.Scorer, len(p.Functions)),
		allFuncs: score.NewFuncBlocks(p.Dims),
		funcCaps: st.funcCaps,
		byFunc:   cow.New[[]wsPair](len(p.Functions)),
		resolves: 1,
	}
	for _, o := range p.Objects {
		w.obj.objs.Set(o.ID, Object{ID: o.ID, Point: o.Point.Clone(), Capacity: o.Capacity})
		w.obj.caps.add(o.ID, st.objCaps.remaining[o.ID])
	}
	for _, f := range p.Functions {
		w.addFunc(f)
	}
	for _, pr := range res.Pairs {
		w.link(wsPair{fid: pr.FuncID, oid: pr.ObjectID, score: pr.Score})
	}
	// Materialize the availability frontier from the post-solve
	// capacity table. The solve's own maintainer ends in the same
	// logical state but parks pruned subtrees by page reference, which
	// would go stale under the physical tree mutations ahead.
	w.obj.buildFrontier(p.Dims)
	// Commit the initial epoch so snapshots taken before any mutation
	// freeze the built tree's pages.
	if err := w.commitLocked(); err != nil {
		w.Close()
		return nil, err
	}
	if cfg.WALDir != "" {
		if err := w.initDurable(); err != nil {
			w.Close()
			return nil, err
		}
	}
	return w, nil
}

// addFunc registers a function in the function table, the writer's
// scorer map and the reverse-search blocks. Caller holds w.mu (or is
// constructing the workspace).
func (w *Workspace) addFunc(f Function) {
	ew := f.Effective()
	w.funcs.Set(f.ID, f)
	w.eff[f.ID] = score.Scorer{Fam: f.Fam, W: ew}
	w.allFuncs.Add(f.ID, f.Fam, ew)
}

// newObjPart wraps a freshly built object index (store from a versioned
// config) over n objects as an object side with empty tables, whose
// pages await their first flush.
func newObjPart(store pagestore.Store, pool *pagestore.BufferPool, tree *rtree.Tree, n int) *objPart {
	return &objPart{
		vstore:    store.(*pagestore.VersionedStore),
		pool:      pool,
		tree:      tree,
		objs:      cow.New[Object](n),
		caps:      &capTable{remaining: make(map[uint64]int, n)},
		byObj:     make(map[uint64][]wsPair),
		pending:   make(map[uint64]bool),
		full:      newDisplacementBlock(tree.Dims()),
		pageDirty: true,
	}
}

// buildFrontier materializes the availability frontier from the
// capacity table.
func (pt *objPart) buildFrontier(dims int) {
	var items []rtree.Item
	for id, o := range pt.objs.All() {
		if pt.caps.remaining[id] > 0 {
			items = append(items, rtree.Item{ID: id, Point: o.Point})
		}
	}
	// Parked entries can go stale (their object departed or exhausted —
	// and its ID may even be reused for a different point); the live
	// check drops them the moment they resurface.
	pt.avail = skyline.NewMaintainerFromItems(dims, items, func(id uint64, p geom.Point) bool {
		o, ok := pt.objs.Get(id)
		return ok && pt.caps.remaining[id] > 0 && o.Point.Equal(p)
	}, nil)
}

// frontierIDs returns the IDs of the availability frontier in
// ascending order.
func (pt *objPart) frontierIDs() []uint64 {
	sky := pt.avail.Skyline()
	ids := make([]uint64, len(sky))
	for i, it := range sky {
		ids[i] = it.ID
	}
	slices.Sort(ids)
	return ids
}

// dropPub releases the cached capture after a change to the objects or
// tree, so the next Snapshot re-captures them.
func (pt *objPart) dropPub() {
	if pt.pub != nil {
		pt.pub.release()
		pt.pub = nil
	}
}

// restoreUnit gives one unit of capacity back to an object; a revival
// (exhausted → available) is recorded for the next frontier sync.
func (pt *objPart) restoreUnit(oid uint64) {
	if pt.caps.restore(oid) {
		pt.full.remove(oid)
		pt.availChanged(oid, false)
	}
}

// consumeUnit takes one unit of an object's capacity; an exhaustion is
// recorded for the next frontier sync.
func (pt *objPart) consumeUnit(oid uint64) {
	if pt.caps.consume(oid) {
		pt.availChanged(oid, true)
	}
}

// availChanged records that an object's availability flipped from was;
// only the first flip since the last sync is kept.
func (pt *objPart) availChanged(oid uint64, was bool) {
	if _, seen := pt.pending[oid]; !seen {
		pt.pending[oid] = was
		pt.pendingIDs = append(pt.pendingIDs, oid)
	}
}

// syncFrontier applies the net availability change since the last
// sync. The inserts run first: a Discard resurfaces parked entries
// through the live check, which already sees the current capacities, so
// a revived object still awaiting its Insert could rejoin the skyline
// there and turn that Insert into a duplicate.
func (pt *objPart) syncFrontier() error {
	if len(pt.pendingIDs) == 0 {
		return nil
	}
	drop := pt.discards[:0]
	for _, id := range pt.pendingIDs {
		was, now := pt.pending[id], pt.caps.remaining[id] > 0
		switch {
		case now && !was:
			o, _ := pt.objs.Get(id)
			if err := pt.avail.Insert(rtree.Item{ID: id, Point: o.Point}); err != nil {
				// Insert only errors on a live duplicate, which consistent
				// availability bookkeeping rules out.
				return fmt.Errorf("assign: availability frontier out of sync: %w", err)
			}
		case was && !now:
			drop = append(drop, id)
		}
	}
	clear(pt.pending)
	pt.pendingIDs = pt.pendingIDs[:0]
	pt.discards = drop
	return pt.avail.Discard(drop...)
}

// syncFull keeps an object's displacement row in step with its capacity
// and pairs: a full object has a row holding its current worst
// assignment; any other object has none.
func (pt *objPart) syncFull(oid uint64) {
	ps := pt.byObj[oid]
	if len(ps) == 0 || pt.caps.remaining[oid] > 0 {
		pt.full.remove(oid)
		return
	}
	o, _ := pt.objs.Get(oid)
	pt.full.put(oid, o.Point, worstOfObj(ps))
}

// displacementBlock holds every full object (no spare capacity) as one
// columnar block: the object's point as per-dimension columns, beside
// the score and function ID of its worst assignment — the one a
// stronger proposer displaces. An object that beats the best free one
// for a proposer must be full, and full objects number at most the size
// of the matching, so one EvalBlock pass over the block answers the
// displacement search with no page reads. Only the writer uses it; its
// score scratch lives on the block.
type displacementBlock struct {
	cols   [][]float64    // cols[d][i] is attribute d of row i
	ids    []uint64       // object ID of row i
	worstS []float64      // score of row i's worst assignment
	worstF []uint64       // function ID of row i's worst assignment
	row    map[uint64]int // object ID → row
	out    []float64      // best's score scratch
}

func newDisplacementBlock(dims int) *displacementBlock {
	return &displacementBlock{cols: make([][]float64, dims), row: make(map[uint64]int)}
}

// put adds a full object's row, or refreshes the worst assignment of the
// row it already has.
func (b *displacementBlock) put(oid uint64, p geom.Point, worst wsPair) {
	i, ok := b.row[oid]
	if !ok {
		i = len(b.ids)
		b.row[oid] = i
		for d := range b.cols {
			b.cols[d] = append(b.cols[d], p[d])
		}
		b.ids = append(b.ids, oid)
		b.worstS = append(b.worstS, 0)
		b.worstF = append(b.worstF, 0)
	}
	b.worstS[i], b.worstF[i] = worst.score, worst.fid
}

// remove drops an object's row, if it has one, by moving the last row
// into its slot.
func (b *displacementBlock) remove(oid uint64) {
	i, ok := b.row[oid]
	if !ok {
		return
	}
	last := len(b.ids) - 1
	for d, col := range b.cols {
		col[i] = col[last]
		b.cols[d] = col[:last]
	}
	b.ids[i], b.worstS[i], b.worstF[i] = b.ids[last], b.worstS[last], b.worstF[last]
	b.row[b.ids[i]] = i
	b.ids, b.worstS, b.worstF = b.ids[:last], b.worstS[:last], b.worstF[:last]
	delete(b.row, oid)
}

// best returns the full object a proposing function scores highest
// among those whose worst assignment it beats — a strictly higher
// score, or an equal score and a lower function ID — with ties to the
// lower object ID. Scores are bit-identical to sc.Score. ok is false
// when the function displaces nobody.
func (b *displacementBlock) best(fid uint64, sc score.Scorer) (oid uint64, s float64, ok bool) {
	n := len(b.ids)
	if cap(b.out) < n {
		b.out = make([]float64, n)
	}
	out := b.out[:n]
	score.EvalBlock(sc.Fam, sc.W, b.cols, out)
	for i, si := range out {
		if !(si > b.worstS[i] || (si == b.worstS[i] && fid < b.worstF[i])) {
			continue
		}
		if id := b.ids[i]; !ok || si > s || (si == s && id < oid) {
			oid, s, ok = id, si, true
		}
	}
	return oid, s, ok
}

// objLive reports whether an object is live. Caller holds w.mu.
func (w *Workspace) objLive(id uint64) bool {
	_, ok := w.obj.objs.Get(id)
	return ok
}

// commitLocked seals the current epoch: the workspace's cached
// published state is dropped (open views keep theirs alive), and if the
// object pages changed, the object buffer pool flushes, so the page
// table holds the epoch's final bytes for the next capture to freeze.
// Caller holds w.mu (or is constructing the workspace).
func (w *Workspace) commitLocked() error {
	w.dropPubLocked()
	if pt := w.obj; pt.pageDirty {
		if err := pt.pool.Flush(); err != nil {
			return err
		}
		pt.pageDirty = false
	}
	w.epoch++
	w.commits++
	return nil
}

// dropPubLocked invalidates the cached published state: the fast-path
// pointer is cleared first, so no new reader can retain it after the
// workspace reference is released.
func (w *Workspace) dropPubLocked() {
	if w.pub != nil {
		w.pubA.Store(nil)
		w.pub.release()
		w.pub = nil
	}
}

// Snapshot returns a read view pinned to the latest published epoch.
// The view is immune to later mutations, safe for concurrent use, and
// must be Closed, so the writer may rewrite the pages it holds in place.
// The capture is performed at most once per epoch — concurrent
// snapshots between two mutations share one immutable state — and the
// shared case is lock-free: only the first snapshot after a mutation
// (which performs the capture) synchronizes with the writer.
func (w *Workspace) Snapshot() (*View, error) {
	// Fast path: a published state is cached and alive; retain it
	// without touching the writer lock. (During an in-flight mutation
	// this hands out the previous epoch — exactly the latest published
	// state.) The closed re-check after the retain closes the window
	// where a racing Close — whose cache invalidation cannot revoke a
	// pointer already loaded — would otherwise let a post-Close call
	// succeed while other views keep the state alive.
	if p := w.pubA.Load(); p != nil && p.tryRetain() {
		if w.closedA.Load() {
			p.release()
			return nil, ErrClosed
		}
		return &View{pub: p}, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.liveLocked(); err != nil {
		return nil, err
	}
	if w.pub == nil {
		w.pub = w.captureLocked()
		w.pubA.Store(w.pub)
	}
	w.pub.retain()
	return &View{pub: w.pub}, nil
}

// captureLocked freezes the logical state of the current epoch. The
// object side contributes its cached capture, re-captured only if the
// objects or tree changed since; the function and pair tables are
// frozen copy-on-write copies, costing a directory root (one pointer
// per 64 chunks) each. Per entity points, weights and pair slices
// alias the immutable originals; flat forms (the sorted matching, the
// Problem) are built lazily by the views. Holds w.mu.
func (w *Workspace) captureLocked() *pubState {
	if w.obj.pub == nil {
		w.obj.pub = w.obj.capture()
	}
	w.obj.pub.retain()
	p := &pubState{
		epoch: w.epoch,
		dims:  w.dims,
		stats: w.statsLocked(),
		obj:   w.obj.pub,
	}
	p.refs.Store(1) // the workspace's own cache reference
	p.funcs = w.funcs.Freeze()
	p.byFunc = w.byFunc.Freeze()
	return p
}

// capture freezes the object side: a pinned page snapshot, the tree
// metadata and a frozen object table.
func (pt *objPart) capture() *partPub {
	p := &partPub{
		snap: pt.vstore.Acquire(),
		meta: pt.tree.Meta(),
		objs: pt.objs.Freeze(),
	}
	p.refs.Store(1) // the object side's own cache reference
	return p
}

// Dims returns the workspace dimensionality.
func (w *Workspace) Dims() int { return w.dims }

// Close releases the page store behind the object index. The workspace
// must not be used afterwards.
func (w *Workspace) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.closedA.Store(true)
	w.dropPubLocked()
	w.obj.dropPub()
	w.obj.vstore.Close()
	if w.dur != nil {
		w.dur.log.Close()
	}
}

// link records one assigned unit on both sides. Pair slices are values:
// link and unlink build new ones and never edit one in place, so frozen
// pair tables can share byFunc's, and a removal can range over a slice
// while unlinking its pairs.
func (w *Workspace) link(p wsPair) {
	pt := w.obj
	ps := pt.byObj[p.oid]
	pt.byObj[p.oid] = append(ps[:len(ps):len(ps)], p)
	pt.units++
	pt.syncFull(p.oid)
	ps, _ = w.byFunc.Get(p.fid)
	w.byFunc.Set(p.fid, append(ps[:len(ps):len(ps)], p))
	w.syncFloor(p.fid)
}

// unlink removes one instance of the pair from both sides.
func (w *Workspace) unlink(p wsPair) error {
	pt := w.obj
	ps, err := cutPair(pt.byObj[p.oid], p)
	if err != nil {
		return err
	}
	pt.byObj[p.oid] = ps
	pt.units--
	pt.syncFull(p.oid)
	ps, _ = w.byFunc.Get(p.fid)
	if ps, err = cutPair(ps, p); err != nil {
		return err
	}
	if len(ps) == 0 {
		w.byFunc.Del(p.fid)
	} else {
		w.byFunc.Set(p.fid, ps)
	}
	w.syncFloor(p.fid)
	return nil
}

// syncFloor refreshes a function's floor in the reverse-search blocks,
// wherever funcCaps or byFunc change for it: free while it has a spare
// unit, else its worst assignment, which a vacancy must beat. Between
// taking its last unit and linking the pair it has no worst yet, and
// stays free until the link.
func (w *Workspace) syncFloor(fid uint64) {
	ps, _ := w.byFunc.Get(fid)
	if w.funcCaps.remaining[fid] > 0 || len(ps) == 0 {
		w.allFuncs.ClearFloor(fid)
		return
	}
	worst := worstOfFunc(ps)
	w.allFuncs.SetFloor(fid, worst.score, worst.oid)
}

// cutPair returns a new slice holding ps without one instance of p; ps
// itself is left as it is. A missing pair means the two halves of the
// matching disagree — a broken invariant the caller escalates to
// corruption.
func cutPair(ps []wsPair, p wsPair) ([]wsPair, error) {
	for i := range ps {
		if ps[i] == p {
			out := make([]wsPair, 0, len(ps)-1)
			return append(append(out, ps[:i]...), ps[i+1:]...), nil
		}
	}
	return ps, fmt.Errorf("assign: workspace pair index out of sync: pair (function %d, object %d) missing", p.fid, p.oid)
}

// worstOfObj returns the weakest assignment an object holds — the one a
// stronger proposer displaces. Greedy order: lower score is worse; on a
// tie the higher function ID lost the tiebreak, so it goes first.
func worstOfObj(ps []wsPair) wsPair {
	worst := ps[0]
	for _, p := range ps[1:] {
		if p.score < worst.score || (p.score == worst.score && p.fid > worst.fid) {
			worst = p
		}
	}
	return worst
}

// worstOfFunc is the function-side mirror: lower score is worse, ties
// broken toward the higher object ID.
func worstOfFunc(ps []wsPair) wsPair {
	worst := ps[0]
	for _, p := range ps[1:] {
		if p.score < worst.score || (p.score == worst.score && p.oid > worst.oid) {
			worst = p
		}
	}
	return worst
}

// AddObject introduces a new object: it joins the object R-tree and the
// availability frontier, then pulls takers for its capacity via chain
// repair.
func (w *Workspace) AddObject(o Object) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.applyLocked([]Mutation{{Kind: MutAddObject, Object: o}})
}

// RemoveObject withdraws an object. Its assigned functions are freed
// and re-chained; the object leaves the availability skyline through
// the next frontier sync's Discard (delta maintenance: if it is parked
// inside a pruned list, the frontier's live check drops it when it
// resurfaces).
func (w *Workspace) RemoveObject(id uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.applyLocked([]Mutation{{Kind: MutRemoveObject, ID: id}})
}

// AddFunction introduces a new preference function and runs the paper's
// chain update: the arrival proposes down its preference order,
// displacing strictly worse assignments along a bounded chain.
func (w *Workspace) AddFunction(f Function) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.applyLocked([]Mutation{{Kind: MutAddFunction, Function: f}})
}

// RemoveFunction withdraws a function; the object units it held become
// vacancies that pull replacement functions along chains.
func (w *Workspace) RemoveFunction(id uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.applyLocked([]Mutation{{Kind: MutRemoveFunction, ID: id}})
}

func (w *Workspace) pushFunc(id uint64) { w.queue = append(w.queue, repairItem{isFunc: true, id: id}) }
func (w *Workspace) pushObj(id uint64)  { w.queue = append(w.queue, repairItem{isFunc: false, id: id}) }

// liveLocked guards against use after Close and after a corrupting
// mid-mutation failure. Caller holds w.mu.
func (w *Workspace) liveLocked() error {
	if w.closed {
		return ErrClosed
	}
	if w.corrupt != nil {
		return fmt.Errorf("%w: %w", ErrCorrupt, w.corrupt)
	}
	return nil
}

// repair drains the free-unit queue. Every step either fills a free
// slot (bounded by total capacity) or replaces an assignment with a
// strictly better one in the greedy order, so the cascade terminates;
// at quiescence no blocking pair remains, and with both sides ranking
// pairs by the same score that stable matching is the greedy one. The
// final frontier sync leaves nothing pending between mutations.
func (w *Workspace) repair() error {
	for len(w.queue) > 0 {
		it := w.queue[0]
		w.queue = w.queue[1:]
		var err error
		if it.isFunc {
			err = w.placeFunction(it.id)
		} else {
			err = w.fillObject(it.id)
		}
		if err != nil {
			return err
		}
	}
	return w.obj.syncFrontier()
}

// placeFunction runs proposal chains for every free unit of a function.
func (w *Workspace) placeFunction(fid uint64) error {
	if _, ok := w.eff[fid]; !ok {
		return nil // departed while queued
	}
	for w.funcCaps.remaining[fid] > 0 {
		if err := w.obj.syncFrontier(); err != nil { // bestEntry reads it
			return err
		}
		oid, score, displace, ok := w.bestEntry(fid)
		if !ok {
			return nil // no object accepts: the unit stays free
		}
		if displace {
			evicted := worstOfObj(w.obj.byObj[oid])
			if err := w.unlink(evicted); err != nil {
				return err
			}
			w.funcCaps.restore(evicted.fid)
			w.syncFloor(evicted.fid)
			w.pushFunc(evicted.fid)
		} else {
			w.obj.consumeUnit(oid)
		}
		w.funcCaps.consume(fid)
		w.syncFloor(fid)
		w.link(wsPair{fid: fid, oid: oid, score: score})
		w.chainLen++
	}
	return nil
}

// scorerOf returns a live function's effective scorer: its scoring
// family over the γ-folded weights, read from the writer-only eff map —
// one plain map lookup on the repair hot paths, no allocation.
func (w *Workspace) scorerOf(fid uint64) score.Scorer { return w.eff[fid] }

// bestEntry finds the best object a function unit can enter: the best
// available object, or a full object holding a strictly worse
// assignment. Two batched kernel passes answer it with no page reads:
// one over the availability frontier's columnar mirror (which must be
// synced), one over the displacement block of full objects. Both score
// under the function's scorer, which is what keeps repair correct for
// every monotone family, and both order candidates by (score desc,
// object ID asc).
func (w *Workspace) bestEntry(fid uint64) (oid uint64, sc float64, displace, ok bool) {
	fsc := w.scorerOf(fid)
	pt := w.obj
	avail, availScore, availOK := pt.avail.Best(fsc)
	w.searches++
	id, s, found := pt.full.best(fid, fsc)
	if found && (!availOK || s > availScore || (s == availScore && id < avail.ID)) {
		return id, s, true, true
	}
	if availOK {
		return avail.ID, availScore, false, true
	}
	return 0, 0, false, false
}

// fillObject runs vacancy chains for every free unit of an object.
func (w *Workspace) fillObject(oid uint64) error {
	pt := w.obj
	o, ok := pt.objs.Get(oid)
	if !ok {
		return nil // departed while queued
	}
	for pt.caps.remaining[oid] > 0 {
		gid, score, ok := w.bestTaker(oid, o.Point)
		if !ok {
			return nil // nobody wants the vacancy: it stays open
		}
		if w.funcCaps.remaining[gid] > 0 {
			w.funcCaps.consume(gid)
			w.syncFloor(gid)
		} else {
			// The mover abandons its worst unit, cascading the vacancy.
			ps, _ := w.byFunc.Get(gid)
			left := worstOfFunc(ps)
			if err := w.unlink(left); err != nil {
				return err
			}
			pt.restoreUnit(left.oid)
			w.pushObj(left.oid)
		}
		pt.consumeUnit(oid)
		w.link(wsPair{fid: gid, oid: oid, score: score})
		w.chainLen++
	}
	return nil
}

// bestTaker finds the best function that wants a vacant object unit: a
// function with spare capacity wants it at any score; a fully assigned
// function wants it only above its current worst assignment, the floor
// syncFloor keeps. One batched kernel pass scores every live function,
// each bit-identical to its scorer, and selects by (score desc,
// function ID asc) among the functions whose floor the object beats.
func (w *Workspace) bestTaker(oid uint64, point geom.Point) (gid uint64, sc float64, ok bool) {
	w.searches++
	return w.allFuncs.Best(point, oid)
}

// sortPairsDefinitional orders pairs in the definitional greedy order:
// descending score, ties by ascending function then object ID.
func sortPairsDefinitional(out []Pair) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.FuncID != b.FuncID {
			return a.FuncID < b.FuncID
		}
		return a.ObjectID < b.ObjectID
	})
}

// flattenPairs copies a pair table holding n pairs into a fresh
// unordered slice.
func flattenPairs(t *cow.Frozen[[]wsPair], n int) []Pair {
	out := make([]Pair, 0, n)
	for _, ps := range t.All() {
		out = appendPairs(out, ps)
	}
	return out
}

func appendPairs(out []Pair, ps []wsPair) []Pair {
	for _, p := range ps {
		out = append(out, Pair{FuncID: p.fid, ObjectID: p.oid, Score: p.score})
	}
	return out
}

// pairsLocked flattens the matching into a fresh unordered slice.
// Caller holds w.mu.
func (w *Workspace) pairsLocked() []Pair {
	return flattenPairs(&w.byFunc.Frozen, w.obj.units)
}

// Pairs returns the current matching in the definitional greedy order:
// descending score, ties by ascending function then object ID.
func (w *Workspace) Pairs() []Pair {
	w.mu.Lock()
	out := w.pairsLocked()
	w.mu.Unlock()
	sortPairsDefinitional(out)
	return out
}

// ObjectPoint returns a live object's feature vector.
func (w *Workspace) ObjectPoint(id uint64) (geom.Point, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	o, ok := w.obj.objs.Get(id)
	if !ok {
		return nil, false
	}
	return o.Point, true
}

// PairsOf returns the current assignments of one function (unordered).
func (w *Workspace) PairsOf(fid uint64) []Pair {
	w.mu.Lock()
	defer w.mu.Unlock()
	ps, _ := w.byFunc.Get(fid)
	return appendPairs(make([]Pair, 0, len(ps)), ps)
}

// ProblemSnapshot materializes the current instance as a Problem
// (entities sorted by ID), for differential validation against one-shot
// solvers. (Read views over the live workspace are taken with Snapshot
// instead.)
func (w *Workspace) ProblemSnapshot() *Problem {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.problemLocked()
}

func (w *Workspace) problemLocked() *Problem {
	p := &Problem{Dims: w.dims}
	for _, o := range w.obj.objs.All() {
		p.Objects = append(p.Objects, Object{ID: o.ID, Point: o.Point.Clone(), Capacity: o.Capacity})
	}
	sort.Slice(p.Objects, func(i, j int) bool { return p.Objects[i].ID < p.Objects[j].ID })
	for _, f := range w.funcs.All() {
		weights := make([]float64, len(f.Weights))
		copy(weights, f.Weights)
		p.Functions = append(p.Functions, Function{ID: f.ID, Weights: weights, Gamma: f.Gamma, Capacity: f.Capacity, Fam: f.Fam})
	}
	sort.Slice(p.Functions, func(i, j int) bool { return p.Functions[i].ID < p.Functions[j].ID })
	return p
}

// VerifyStable checks that the current matching is stable for the
// current population, atomically with respect to concurrent mutations.
// On a corrupt workspace it fails fast with ErrCorrupt — the in-memory
// matching is not trustworthy after a mid-mutation failure.
func (w *Workspace) VerifyStable() error {
	w.mu.Lock()
	if w.corrupt != nil {
		err := fmt.Errorf("%w: %w", ErrCorrupt, w.corrupt)
		w.mu.Unlock()
		return err
	}
	p := w.problemLocked()
	pairs := w.pairsLocked()
	w.mu.Unlock()
	// IsStable is O(|F|·|O|); run it on the copies, outside the lock.
	return IsStable(p, pairs)
}

// FrontierIDs returns the IDs of the availability frontier — the
// skyline of the objects with spare capacity — in ascending order, read
// under the writer lock. Views hold no copy of the frontier; this is
// the one way to observe it.
func (w *Workspace) FrontierIDs() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.obj.frontierIDs()
}

// Stats summarizes the workspace.
func (w *Workspace) Stats() WorkspaceStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.statsLocked()
}

func (w *Workspace) statsLocked() WorkspaceStats {
	s := WorkspaceStats{
		Objects:       w.obj.objs.Len(),
		Functions:     w.funcs.Len(),
		AssignedUnits: w.obj.units,
		SkylineSize:   w.obj.avail.Size(),
		Mutations:     w.mutations,
		Commits:       w.commits,
		ChainSteps:    w.chainLen,
		Searches:      w.searches,
		Resolves:      w.resolves,
	}
	if !w.closed {
		s.IO.Add(w.obj.vstore.IO().Snapshot())
	}
	return s
}
