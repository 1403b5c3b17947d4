package assign

import (
	"sync"
	"sync/atomic"

	"fairassign/internal/cow"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/topk"
)

// partPub is the object side's capture: a pagestore snapshot freezing
// the object index's page table and a frozen copy of the object table,
// both sharing every chunk the writer has not written since. It holds no
// availability state, so it is refcounted by the object side (which
// caches it until the objects or tree next change) and by every
// pubState composing it: an epoch that added or removed no object —
// even one whose repair exhausted or revived objects — joins the
// capture for the cost of a refcount increment.
type partPub struct {
	refs atomic.Int64

	snap *pagestore.Snapshot
	meta rtree.Meta
	objs cow.Frozen[Object]
}

func (p *partPub) retain() { p.refs.Add(1) }

func (p *partPub) release() {
	if p.refs.Add(-1) == 0 {
		p.snap.Release()
	}
}

// pubState is one published epoch of a Workspace: the logical matching
// state captured under the writer lock, plus the object side's capture.
// It is shared — refcounted — between the workspace (which caches the
// state of its latest epoch until the next mutation) and every View
// handed out for that epoch; the object capture is released when the
// last reference drops.
//
// The function, pair and object tables are frozen copy-on-write copies
// of the writer's own tables: a capture copies their directory roots
// (one pointer per 64 chunks), and the directory pages and chunks —
// with the object points, weight vectors and pair slices they hold,
// none of which the writer edits in place — are shared with the writer
// until it next writes to them. The view's lookups (Object, PairsOf)
// read the frozen tables directly; the flat forms (the sorted matching,
// the Problem) are built lazily, once per epoch, for readers that want
// everything.
type pubState struct {
	refs atomic.Int64

	epoch  uint64
	dims   int
	stats  WorkspaceStats
	obj    *partPub
	funcs  cow.Frozen[Function]
	byFunc cow.Frozen[[]wsPair]

	pairs     []Pair // flattened in definitional order by pairsOnce
	pairsOnce sync.Once

	objs        []Object // the objects, flattened by problemOnce
	funcList    []Function
	problemOnce sync.Once
}

func (p *pubState) retain() { p.refs.Add(1) }

// tryRetain takes a reference only if the state is still alive —
// the lock-free Snapshot fast path. Failure means a concurrent
// release drove the count to zero (the state is being destroyed);
// the caller falls back to the locked slow path.
func (p *pubState) tryRetain() bool {
	for {
		r := p.refs.Load()
		if r <= 0 {
			return false
		}
		if p.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

func (p *pubState) release() {
	if p.refs.Add(-1) == 0 {
		p.obj.release()
	}
}

func (p *pubState) sortedPairs() []Pair {
	p.pairsOnce.Do(func() {
		p.pairs = flattenPairs(&p.byFunc, p.stats.AssignedUnits)
		sortPairsDefinitional(p.pairs)
	})
	return p.pairs
}

// problem flattens the frozen object and function tables.
func (p *pubState) problem() ([]Object, []Function) {
	p.problemOnce.Do(func() {
		p.objs = make([]Object, 0, p.stats.Objects)
		for _, o := range p.obj.objs.All() {
			p.objs = append(p.objs, o)
		}
		p.funcList = make([]Function, 0, p.funcs.Len())
		for _, f := range p.funcs.All() {
			p.funcList = append(p.funcList, f)
		}
	})
	return p.objs, p.funcList
}

// View is a snapshot-isolated read handle on a Workspace: every method
// answers from the epoch the view pinned when Workspace.Snapshot was
// called, no matter how many mutations the workspace absorbs
// afterwards. Logical reads (Pairs, Stats, Problem) are served from the
// captured state; index-backed queries (TopK, Skyline) traverse the
// object R-tree through its frozen page table. A View is safe for
// concurrent use by multiple goroutines, stays valid after the
// workspace is closed, and must be Closed: while it is open, the
// writer puts every write to a page it holds into a fresh version.
type View struct {
	pub    *pubState
	closed atomic.Bool
}

// Epoch returns the published workspace epoch this view pins.
func (v *View) Epoch() uint64 { return v.pub.epoch }

// Dims returns the problem dimensionality.
func (v *View) Dims() int { return v.pub.dims }

// Close releases the view's pin on its epoch. Idempotent. After the
// last view of an epoch closes (and the workspace has moved on), the
// page snapshot's pin is removed: the writer rewrites the page versions
// only that epoch held in place, and the garbage collector frees the
// superseded ones with their decoded nodes.
func (v *View) Close() {
	if v.closed.CompareAndSwap(false, true) {
		v.pub.release()
	}
}

// Pairs returns the frozen matching in the definitional greedy order.
// The slice is shared by every caller on this epoch and must be treated
// as immutable.
func (v *View) Pairs() []Pair {
	if v.closed.Load() {
		return nil
	}
	return v.pub.sortedPairs()
}

// PairsOf returns the frozen assignments of one function, best first:
// one lookup in the epoch's frozen pair table, copied into a fresh
// slice the caller owns (nil if the function holds none).
func (v *View) PairsOf(fid uint64) []Pair {
	if v.closed.Load() {
		return nil
	}
	ps, _ := v.pub.byFunc.Get(fid)
	if len(ps) == 0 {
		return nil
	}
	out := appendPairs(make([]Pair, 0, len(ps)), ps)
	sortPairsDefinitional(out)
	return out
}

// Stats returns the workspace summary as of the view's epoch (the
// zero value once the view is closed).
func (v *View) Stats() WorkspaceStats {
	if v.closed.Load() {
		return WorkspaceStats{}
	}
	return v.pub.stats
}

// Object returns a frozen object by ID, looked up in the frozen object
// table.
func (v *View) Object(id uint64) (Object, bool) {
	if v.closed.Load() {
		return Object{}, false
	}
	return v.pub.obj.objs.Get(id)
}

// Problem materializes the frozen population as a Problem, flattening
// the frozen tables once per epoch. Entity slices are shared with the
// view (treat as immutable); the per-entity points and weights are the
// immutable originals.
func (v *View) Problem() *Problem {
	if v.closed.Load() {
		return nil
	}
	objs, funcs := v.pub.problem()
	return &Problem{Dims: v.pub.dims, Objects: objs, Functions: funcs}
}

// VerifyStable checks that the frozen matching is stable for the frozen
// population — the audit hook, answered entirely from the snapshot.
func (v *View) VerifyStable() error {
	if v.closed.Load() {
		return ErrViewClosed
	}
	return IsStable(v.Problem(), v.Pairs())
}

// tree returns the object index frozen at the view's epoch. Searches
// over it read the pinned page versions and never touch the writer's
// buffer pool or I/O counters.
func (v *View) tree() *rtree.View {
	return rtree.NewView(v.pub.obj.snap, v.pub.dims, v.pub.obj.meta)
}

// TopK runs a BRS ranked search with the given effective weights over
// the frozen object index, returning the k best objects and scores.
func (v *View) TopK(weights []float64, k int) ([]rtree.Item, []float64, error) {
	return v.TopKScorer(score.LinearScorer(weights), k)
}

// TopKScorer is TopK under an arbitrary monotone scorer (effective
// weights folded in), evaluated with BRS over the pinned index epoch.
// Emission order is score descending, ties to the lower ID.
func (v *View) TopKScorer(sc score.Scorer, k int) ([]rtree.Item, []float64, error) {
	if v.closed.Load() {
		return nil, nil, ErrViewClosed
	}
	return topk.TopKScorer(v.tree(), sc, k, nil)
}
