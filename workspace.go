package fairassign

import (
	"fmt"
	"math"

	"fairassign/internal/assign"
	"fairassign/internal/geom"
)

// Workspace is the long-lived, incremental counterpart of Solver. Where
// NewSolver(...).Solve() rebuilds the object index and search
// structures on every call, a Workspace builds them once and then
// *repairs* the stable matching in place as users and objects arrive or
// depart — the dynamic regime of a live serving system.
//
// Repair semantics versus Solve. After every mutation the workspace
// matching is exactly the matching Solve would produce on the current
// population (same pairs, scores equal to floating-point roundoff): a
// function arrival proposes down its preference order and displaces
// strictly worse assignments along a bounded chain; an object departure
// frees its holders, which re-chain; an object arrival or a function
// departure opens vacancies that pull the best wanting functions,
// cascading until no one benefits. Both sides rank every pair by the
// same score f(o), so the stable matching is unique and chain repair
// converges to it without a global recomputation. The skyline of
// objects with remaining capacity (the availability frontier) is
// maintained incrementally and offers every proposal its best free
// object. Like the paper's once-per-round skyline update, it absorbs
// only the net availability change, before each proposal and once at
// the end of the mutation, so a vacancy chain that revives and refills
// an object never touches it. The full objects sit in one columnar
// block beside their worst assignments, so the displacement search is
// one batched scoring pass over at most the matching's size, with no
// index page reads; every function sits in a columnar block beside its
// own worst assignment, so a vacancy's reverse search is one batched
// pass that rejects a fully assigned function with one compare.
//
// Concurrency. A Workspace follows a single-writer / many-readers
// contract: all methods are safe to call from any goroutine — an
// internal writer lock serializes mutations — and Snapshot returns a
// View pinned to the epoch published by the last mutation. Readers
// never block behind repairs and repairs never block behind readers:
// a snapshot freezes the index's copy-on-write page table, a write to a
// page that an open view holds goes into a fresh version (any other
// write is made in place), and a view keeps answering from its epoch
// until it is Closed. The garbage collector frees the superseded page
// versions and cached nodes once no view holds them.
type Workspace struct {
	ws   *assign.Workspace
	opts Options
}

// Typed misuse errors returned by Workspace and View methods (match
// with errors.Is; returned errors carry the offending ID as context).
var (
	// ErrWorkspaceClosed is returned by every Workspace method called
	// after Close.
	ErrWorkspaceClosed = assign.ErrClosed
	// ErrViewClosed is returned by View query methods called after
	// View.Close.
	ErrViewClosed = assign.ErrViewClosed
	// ErrDuplicateID is returned by AddObject/AddFunction when an entity
	// with that ID is already live on the same side.
	ErrDuplicateID = assign.ErrDuplicateID
	// ErrUnknownID is returned by RemoveObject/RemoveFunction when no
	// live entity has the ID.
	ErrUnknownID = assign.ErrUnknownID
)

// WorkspaceStats summarizes a workspace and the repair work it has
// performed since construction.
type WorkspaceStats struct {
	// Population and matching size.
	Objects       int
	Functions     int
	AssignedUnits int
	// AvailableFrontier is the current size of the maintained skyline
	// over objects with spare capacity.
	AvailableFrontier int
	// Mutations counts applied mutations; Commits counts the epoch
	// publishes that carried them (group commits via Apply batch
	// mutations, so Commits <= Mutations+1); ChainSteps counts the
	// reassignments repair performed; Searches counts the top-1
	// searches those chains issued. Resolves counts from-scratch solves
	// (always 1: the initial build).
	Mutations  int64
	Commits    int64
	ChainSteps int64
	Searches   int64
	Resolves   int64
	// IOAccesses is the paper's I/O metric accumulated over the
	// workspace lifetime. It counts the object index's structural
	// inserts and deletes: repair searches read no pages, and the
	// function side is held in memory and has none.
	IOAccesses int64
}

// NewWorkspace validates the inputs, builds the shared solver state,
// and computes the initial matching. Options are honored exactly as in
// NewSolver; the Algorithm field is ignored (the initial solve is SB,
// mutations use chain repair).
func NewWorkspace(objects []Object, functions []Function, opts Options) (*Workspace, error) {
	p, err := buildProblem(objects, functions, opts)
	if err != nil {
		return nil, err
	}
	ws, err := assign.NewWorkspace(p, opts.assignConfig())
	if err != nil {
		return nil, err
	}
	return &Workspace{ws: ws, opts: opts}, nil
}

// WeightNormalizationTolerance is the slack within which a weight
// vector counts as already normalized: when |Σw − 1| is at most this
// value, prepareWeights leaves the weights bit-exact instead of
// dividing by the sum. The tolerance exists so that weights produced by
// a prior normalization (whose float64 sum can land a few ULPs off 1)
// round-trip unchanged through NewSolver, NewWorkspace, and the CSV
// loaders; sums farther from 1 are rescaled. The boundary is tested in
// both directions.
const WeightNormalizationTolerance = 1e-12

// prepareWeights copies (and unless opted out, normalizes) a function's
// weight vector, mirroring NewSolver's validation. Non-finite weights
// are rejected for every family (they would poison score arithmetic and
// the index structures); negative and all-zero vectors are rejected
// unless normalization is skipped. Errors wrap ErrBadWeight.
func prepareWeights(f Function, opts Options) ([]float64, error) {
	w := make([]float64, len(f.Weights))
	copy(w, f.Weights)
	return normalizeWeights(w, f.ID, opts)
}

// normalizeWeights validates and (within tolerance) normalizes a weight
// vector in place.
func normalizeWeights(w []float64, fid uint64, opts Options) ([]float64, error) {
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: function %d has non-finite weight", ErrBadWeight, fid)
		}
	}
	if !opts.SkipNormalization {
		sum := 0.0
		for _, v := range w {
			if v < 0 {
				return nil, fmt.Errorf("%w: function %d has negative weight", ErrBadWeight, fid)
			}
			sum += v
		}
		if sum <= 0 {
			return nil, fmt.Errorf("%w: function %d has zero weights", ErrBadWeight, fid)
		}
		if math.Abs(sum-1) > WeightNormalizationTolerance {
			for i := range w {
				w[i] /= sum
			}
		}
	}
	return w, nil
}

// Dims returns the workspace dimensionality.
func (w *Workspace) Dims() int { return w.ws.Dims() }

// AddObject introduces a new object; the matching is repaired in place.
func (w *Workspace) AddObject(o Object) error {
	return w.ws.AddObject(assign.Object{
		ID:       o.ID,
		Point:    geom.Point(o.Attributes).Clone(),
		Capacity: o.Capacity,
	})
}

// RemoveObject withdraws an object; functions holding it are reassigned
// along repair chains.
func (w *Workspace) RemoveObject(id uint64) error { return w.ws.RemoveObject(id) }

// AddFunction introduces a new preference function (normalized per the
// workspace Options, under any scorer family); it claims its stable
// share of the objects via a displacement chain.
func (w *Workspace) AddFunction(f Function) error {
	af, err := resolveFunction(f, w.opts, w.Dims())
	if err != nil {
		return err
	}
	return w.ws.AddFunction(af)
}

// RemoveFunction withdraws a function; the object units it held are
// re-offered to the functions that want them most.
func (w *Workspace) RemoveFunction(id uint64) error { return w.ws.RemoveFunction(id) }

// pairsFromInternal converts internal pairs to the public form; the
// single site keeping live and snapshot accessors field-for-field
// identical.
func pairsFromInternal(pairs []assign.Pair) []Pair {
	out := make([]Pair, len(pairs))
	for i, p := range pairs {
		out[i] = Pair{FunctionID: p.FuncID, ObjectID: p.ObjectID, Score: p.Score}
	}
	return out
}

// statsFromInternal maps the internal summary to the public one.
func statsFromInternal(s assign.WorkspaceStats) WorkspaceStats {
	return WorkspaceStats{
		Objects:           s.Objects,
		Functions:         s.Functions,
		AssignedUnits:     s.AssignedUnits,
		AvailableFrontier: s.SkylineSize,
		Mutations:         s.Mutations,
		Commits:           s.Commits,
		ChainSteps:        s.ChainSteps,
		Searches:          s.Searches,
		Resolves:          s.Resolves,
		IOAccesses:        s.IO.Accesses(),
	}
}

// Assignment returns the current stable matching in the definitional
// greedy order (descending score, ties by ascending IDs).
func (w *Workspace) Assignment() []Pair { return pairsFromInternal(w.ws.Pairs()) }

// Stats returns a point-in-time summary of the workspace.
func (w *Workspace) Stats() WorkspaceStats { return statsFromInternal(w.ws.Stats()) }

// Verify checks that the current matching is stable for the current
// population — an audit hook mirroring Solver.Verify.
func (w *Workspace) Verify() error {
	return w.ws.VerifyStable()
}

// Close releases the page stores behind the workspace indexes. The
// workspace must not be used afterwards.
func (w *Workspace) Close() { w.ws.Close() }

// Snapshot returns a read-only View pinned to the workspace's latest
// published epoch. The view's answers are immune to later mutations: a
// snapshot taken before a batch of Add/Remove calls returns the same
// Assignment, Stats, and TopK results after the batch lands, while a
// fresh Snapshot reflects it. Any number of views may be open
// concurrently, across goroutines, at the same or different epochs;
// each must be Closed: while a view is open, every write to an index
// page it holds goes into a fresh page version.
func (w *Workspace) Snapshot() (*View, error) {
	v, err := w.ws.Snapshot()
	if err != nil {
		return nil, err
	}
	return &View{v: v, opts: w.opts}, nil
}

// View is a snapshot-isolated read handle on a Workspace: a consistent,
// immutable observation of the matching, the population, and the object
// index at one epoch. All methods are safe for concurrent use, keep
// working while the workspace mutates (and even after it is closed),
// and never touch the writer's I/O accounting. The view's index is a
// frozen copy of the workspace's copy-on-write page table. Close
// releases the epoch; query methods on a closed view fail with
// ErrViewClosed (or return empty results where no error channel
// exists).
type View struct {
	v    *assign.View
	opts Options
}

// Epoch returns the published workspace epoch this view observes. One
// epoch is published at construction and one per mutation, so the
// epoch also identifies which prefix of the mutation history the view
// reflects.
func (v *View) Epoch() uint64 { return v.v.Epoch() }

// Dims returns the problem dimensionality.
func (v *View) Dims() int { return v.v.Dims() }

// Close releases the view's epoch pin. Idempotent and safe to call
// concurrently with in-flight reads on other views.
func (v *View) Close() { v.v.Close() }

// Assignment returns the frozen stable matching in the definitional
// greedy order (descending score, ties by ascending IDs). The slice is
// freshly allocated and owned by the caller.
func (v *View) Assignment() []Pair { return pairsFromInternal(v.v.Pairs()) }

// AssignmentOf returns the frozen assignments of one function, best
// first. The slice is freshly allocated and owned by the caller.
func (v *View) AssignmentOf(functionID uint64) []Pair {
	return pairsFromInternal(v.v.PairsOf(functionID))
}

// Stats returns the workspace summary as it stood at the view's epoch.
func (v *View) Stats() WorkspaceStats { return statsFromInternal(v.v.Stats()) }

// Verify checks that the frozen matching is stable for the frozen
// population — the audit hook of Solver and Workspace, answered
// entirely from the snapshot.
func (v *View) Verify() error { return v.v.VerifyStable() }

// TopK returns the k objects the given preference function ranks
// highest among the view's frozen object set — the paper's single-user
// query (Section 2.3), evaluated with BRS over the pinned index epoch
// under the function's scorer family. Weights are normalized per the
// workspace Options and scaled by the function's Gamma, exactly as an
// assignment would score them.
func (v *View) TopK(f Function, k int) ([]Ranked, error) {
	if k <= 0 {
		return nil, nil
	}
	af, err := resolveFunction(f, v.opts, v.Dims())
	if err != nil {
		return nil, err
	}
	if len(af.Weights) != v.Dims() {
		return nil, fmt.Errorf("fairassign: function has %d weights, view has %d dims", len(af.Weights), v.Dims())
	}
	items, scores, err := v.v.TopKScorer(af.Scorer(), k)
	if err != nil {
		return nil, err
	}
	out := make([]Ranked, len(items))
	for i, it := range items {
		obj, ok := v.v.Object(it.ID)
		if !ok {
			return nil, fmt.Errorf("fairassign: view index returned unknown object %d", it.ID)
		}
		attrs := make([]float64, len(obj.Point))
		copy(attrs, obj.Point)
		out[i] = Ranked{
			Object: Object{ID: obj.ID, Attributes: attrs, Capacity: obj.Capacity},
			Score:  scores[i],
		}
	}
	return out, nil
}
