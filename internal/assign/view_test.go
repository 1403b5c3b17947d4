package assign

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/rtree"
	"fairassign/internal/skyline"
)

func viewTestWorkspace(t *testing.T, n, nf, dims int, seed int64) *Workspace {
	t.Helper()
	ws, err := NewWorkspace(randProblem(rand.New(rand.NewSource(seed)), nf, n, dims), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// randPoint / randWeights draw fresh entities for mutation batches.
func randPoint(rng *rand.Rand, dims int) geom.Point {
	pt := make(geom.Point, dims)
	for d := range pt {
		pt[d] = rng.Float64()
	}
	return pt
}

func randWeights(rng *rand.Rand, dims int) []float64 {
	w := make([]float64, dims)
	sum := 0.0
	for d := range w {
		w[d] = 0.05 + rng.Float64()
		sum += w[d]
	}
	for d := range w {
		w[d] /= sum
	}
	return w
}

func clonePairs(ps []Pair) []Pair { return append([]Pair(nil), ps...) }

func identicalPairs(t *testing.T, label string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.FuncID != w.FuncID || g.ObjectID != w.ObjectID ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: pair %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// mutateBatch applies a deterministic batch of all four mutation kinds.
func mutateBatch(t *testing.T, ws *Workspace, seed int64) {
	t.Helper()
	snap := ws.ProblemSnapshot()
	if err := ws.RemoveObject(snap.Objects[len(snap.Objects)/2].ID); err != nil {
		t.Fatal(err)
	}
	if err := ws.RemoveFunction(snap.Functions[0].ID); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	if err := ws.AddObject(Object{ID: 900_000 + uint64(seed), Point: randPoint(rng, snap.Dims)}); err != nil {
		t.Fatal(err)
	}
	if err := ws.AddFunction(Function{ID: 910_000 + uint64(seed), Weights: randWeights(rng, snap.Dims)}); err != nil {
		t.Fatal(err)
	}
}

// The acceptance-criterion test: a view taken before a mutation batch
// returns byte-identical Assignment/Stats/TopK/skyline output after
// the batch lands, while a fresh view reflects the batch.
func TestViewSnapshotIsolation(t *testing.T) {
	ws := viewTestWorkspace(t, 150, 14, 3, 20090824)
	defer ws.Close()

	v1, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()

	weights := []float64{0.5, 0.3, 0.2}
	beforePairs := clonePairs(v1.Pairs())
	beforeStats := v1.Stats()
	beforeItems, beforeScores, err := v1.TopK(weights, 12)
	if err != nil {
		t.Fatal(err)
	}
	beforeSky, err := skyline.Compute(v1.tree(), nil)
	if err != nil {
		t.Fatal(err)
	}

	for i := int64(0); i < 3; i++ {
		mutateBatch(t, ws, 100+i)
	}

	// The pinned view is bit-stable across the batch.
	identicalPairs(t, "view pairs after batch", v1.Pairs(), beforePairs)
	if v1.Stats() != beforeStats {
		t.Fatalf("view stats drifted: %+v vs %+v", v1.Stats(), beforeStats)
	}
	afterItems, afterScores, err := v1.TopK(weights, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(afterItems) != len(beforeItems) {
		t.Fatalf("view TopK drifted: %d vs %d results", len(afterItems), len(beforeItems))
	}
	for i := range afterItems {
		if afterItems[i].ID != beforeItems[i].ID ||
			math.Float64bits(afterScores[i]) != math.Float64bits(beforeScores[i]) {
			t.Fatalf("view TopK[%d] drifted: (%d,%v) vs (%d,%v)",
				i, afterItems[i].ID, afterScores[i], beforeItems[i].ID, beforeScores[i])
		}
	}
	afterSky, err := skyline.Compute(v1.tree(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(afterSky) != len(beforeSky) {
		t.Fatalf("view skyline drifted: %d vs %d", len(afterSky), len(beforeSky))
	}
	if err := v1.VerifyStable(); err != nil {
		t.Fatalf("frozen matching not stable for frozen population: %v", err)
	}

	// A fresh view reflects the batch and agrees with the live accessors.
	v2, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	identicalPairs(t, "fresh view vs live", v2.Pairs(), ws.Pairs())
	if v2.Epoch() <= v1.Epoch() {
		t.Fatalf("epoch did not advance: %d -> %d", v1.Epoch(), v2.Epoch())
	}
	if v2.Stats().Mutations != beforeStats.Mutations+12 {
		t.Fatalf("fresh view mutations %d, want %d", v2.Stats().Mutations, beforeStats.Mutations+12)
	}
	if err := v2.VerifyStable(); err != nil {
		t.Fatal(err)
	}

	// The frozen view's skyline equals an in-memory skyline of its own
	// frozen population — the index epoch and the logical capture agree.
	frozen := v1.Problem()
	ref := skyline.SFS(problemItems(frozen))
	if len(ref) != len(beforeSky) {
		t.Fatalf("view skyline %d items, reference %d", len(beforeSky), len(ref))
	}
}

func problemItems(p *Problem) []rtree.Item {
	out := make([]rtree.Item, len(p.Objects))
	for i, o := range p.Objects {
		out[i] = rtree.Item{ID: o.ID, Point: o.Point}
	}
	return out
}

// Snapshots taken between the same two mutations share one epoch state;
// a mutation starts a new one.
func TestViewSharedEpoch(t *testing.T) {
	ws := viewTestWorkspace(t, 60, 6, 2, 7)
	defer ws.Close()
	v1, _ := ws.Snapshot()
	v2, _ := ws.Snapshot()
	defer v1.Close()
	defer v2.Close()
	if v1.Epoch() != v2.Epoch() {
		t.Fatalf("same-interval views pin different epochs: %d vs %d", v1.Epoch(), v2.Epoch())
	}
	if &v1.Pairs()[0] != &v2.Pairs()[0] {
		t.Fatalf("same-epoch views do not share the captured state")
	}
	mutateBatch(t, ws, 5)
	v3, _ := ws.Snapshot()
	defer v3.Close()
	if v3.Epoch() == v1.Epoch() {
		t.Fatalf("mutation did not advance the view epoch")
	}
}

// Eight goroutines running TopK on one view, each on pooled searchers,
// get exactly the answers the queries gave one at a time.
func TestViewTopKConcurrentReaders(t *testing.T) {
	ws := viewTestWorkspace(t, 3000, 20, 3, 8)
	defer ws.Close()
	v, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	rng := rand.New(rand.NewSource(9))
	type answer struct {
		items  []rtree.Item
		scores []float64
	}
	queries := make([][]float64, 16)
	want := make([]answer, len(queries))
	for i := range queries {
		queries[i] = randWeights(rng, 3)
		items, scores, err := v.TopK(queries[i], 5+i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer{items, scores}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (g + r) % len(queries)
				items, scores, err := v.TopK(queries[i], 5+i)
				if err != nil {
					t.Error(err)
					return
				}
				if len(items) != len(want[i].items) {
					t.Errorf("reader %d query %d: %d results, want %d", g, i, len(items), len(want[i].items))
					return
				}
				for j := range items {
					if items[j].ID != want[i].items[j].ID ||
						math.Float64bits(scores[j]) != math.Float64bits(want[i].scores[j]) {
						t.Errorf("reader %d query %d rank %d: (%d, %v), want (%d, %v)", g, i, j,
							items[j].ID, scores[j], want[i].items[j].ID, want[i].scores[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// Typed misuse errors: duplicates, unknown IDs, use after Close.
func TestWorkspaceTypedErrors(t *testing.T) {
	ws := viewTestWorkspace(t, 40, 5, 2, 11)
	snap := ws.ProblemSnapshot()

	if err := ws.AddObject(Object{ID: snap.Objects[0].ID, Point: geom.Point{0.5, 0.5}}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate AddObject: %v", err)
	}
	if err := ws.AddFunction(Function{ID: snap.Functions[0].ID, Weights: []float64{0.5, 0.5}}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate AddFunction: %v", err)
	}
	if err := ws.RemoveObject(424242); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown RemoveObject: %v", err)
	}
	if err := ws.RemoveFunction(424242); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown RemoveFunction: %v", err)
	}

	v, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ws.Close()
	ws.Close() // idempotent

	if err := ws.AddObject(Object{ID: 1_000_000, Point: geom.Point{0.1, 0.2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddObject after Close: %v", err)
	}
	if err := ws.RemoveObject(snap.Objects[1].ID); !errors.Is(err, ErrClosed) {
		t.Fatalf("RemoveObject after Close: %v", err)
	}
	if err := ws.AddFunction(Function{ID: 1_000_001, Weights: []float64{0.5, 0.5}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddFunction after Close: %v", err)
	}
	if err := ws.RemoveFunction(snap.Functions[0].ID); !errors.Is(err, ErrClosed) {
		t.Fatalf("RemoveFunction after Close: %v", err)
	}
	if _, err := ws.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close: %v", err)
	}

	// A view taken before Close keeps answering: the page versions are
	// retained independently of the inner store.
	if len(v.Pairs()) == 0 {
		t.Fatal("pre-close view lost its pairs")
	}
	if _, _, err := v.TopK([]float64{0.6, 0.4}, 3); err != nil {
		t.Fatalf("pre-close view TopK after workspace Close: %v", err)
	}
	if err := v.VerifyStable(); err != nil {
		t.Fatal(err)
	}
	v.Close()
	v.Close() // idempotent
	if err := v.VerifyStable(); !errors.Is(err, ErrViewClosed) {
		t.Fatalf("VerifyStable on closed view: %v", err)
	}
	if _, _, err := v.TopK([]float64{0.6, 0.4}, 3); !errors.Is(err, ErrViewClosed) {
		t.Fatalf("TopK on closed view: %v", err)
	}
	if v.Pairs() != nil {
		t.Fatalf("Pairs on closed view should be nil")
	}
}

// checkNoViewPins fails if a page snapshot is still pinned beyond the
// workspace's own cached object capture: once every view is closed,
// the writer must be free to rewrite every page in place.
func checkNoViewPins(t *testing.T, ws *Workspace) {
	t.Helper()
	want := 0
	if ws.obj.pub != nil {
		want = 1
	}
	if n := ws.obj.vstore.LivePins(); n != want {
		t.Fatalf("%d page snapshots pinned after every view closed, want %d (the cached capture)", n, want)
	}
}

// The leak check of the CI stress step: after every view closes (and
// the workspace keeps churning), no page snapshot is pinned beyond the
// workspace's own cached capture, and buffer-pool frame counts stay
// within capacity.
func TestSnapshotEpochReclamationBaseline(t *testing.T) {
	ws := viewTestWorkspace(t, 200, 12, 3, 99)
	defer ws.Close()
	pool := ws.obj.pool
	poolCap := pool.Capacity()

	var views []*View
	for i := int64(0); i < 6; i++ {
		v, err := ws.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// Touch the pinned index so decoded nodes are materialized on
		// the retained versions.
		if _, _, err := v.TopK([]float64{0.2, 0.3, 0.5}, 5); err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
		mutateBatch(t, ws, 300+i)
	}

	if n := ws.obj.vstore.LivePins(); n == 0 {
		t.Fatal("open views pin no page snapshot")
	}
	for _, v := range views {
		v.Close()
	}
	mutateBatch(t, ws, 400)
	checkNoViewPins(t, ws)
	if pool.Len() > poolCap && poolCap > 0 {
		t.Fatalf("buffer pool frames above capacity: %d > %d", pool.Len(), poolCap)
	}
	if pool.Capacity() != poolCap {
		t.Fatalf("pool capacity drifted: %d -> %d", poolCap, pool.Capacity())
	}
}

// TestOldViewSurvivesPairSliceEdits pins the copy-on-write contract of
// the frozen tables: a view taken while a capacity-3 function holds 3
// objects keeps answering PairsOf, Pairs, Object and Problem exactly as
// before after the middle object of the function's pair slice departs
// and a better object arrives. Editing the shared pair slice in place
// (a swap-delete on unlink) would show through the old view.
func TestOldViewSurvivesPairSliceEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := &Problem{Dims: 2, Functions: []Function{
		{ID: 1, Weights: []float64{0.5, 0.5}, Capacity: 3},
		{ID: 2, Weights: []float64{0.8, 0.2}},
	}}
	for id := uint64(10); id < 20; id++ {
		p.Objects = append(p.Objects, Object{ID: id, Point: randPoint(rng, 2)})
	}
	ws, err := NewWorkspace(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	held, _ := ws.byFunc.Get(1)
	if len(held) != 3 {
		t.Fatalf("function 1 holds %d objects, want 3", len(held))
	}

	old, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	wantPairsOf := clonePairs(old.PairsOf(1))
	wantPairs := ws.Pairs()
	wantProblem := ws.ProblemSnapshot()
	wantObjs := map[uint64]Object{}
	for _, o := range p.Objects {
		got, ok := old.Object(o.ID)
		if !ok {
			t.Fatalf("old view lost object %d before any mutation", o.ID)
		}
		wantObjs[o.ID] = Object{ID: got.ID, Point: got.Point.Clone(), Capacity: got.Capacity}
	}

	mid := held[1].oid
	if err := ws.RemoveObject(mid); err != nil {
		t.Fatal(err)
	}
	if err := ws.AddObject(Object{ID: 99, Point: geom.Point{1, 1}}); err != nil {
		t.Fatal(err)
	}
	now, _ := ws.byFunc.Get(1)
	took := false
	for _, pr := range now {
		took = took || pr.oid == 99
	}
	if !took {
		t.Fatalf("function 1 did not take the better arrival: %+v", now)
	}

	identicalPairs(t, "old PairsOf", old.PairsOf(1), wantPairsOf)
	identicalPairs(t, "old Pairs", old.Pairs(), wantPairs)
	for id, want := range wantObjs {
		got, ok := old.Object(id)
		if !ok || got.ID != want.ID || got.Capacity != want.Capacity || !got.Point.Equal(want.Point) {
			t.Fatalf("old Object(%d) = %+v, %v; want %+v", id, got, ok, want)
		}
	}
	if _, ok := old.Object(99); ok {
		t.Fatal("old view sees the later arrival")
	}
	got := old.Problem()
	objs := append([]Object(nil), got.Objects...)
	funcs := append([]Function(nil), got.Functions...)
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].ID < funcs[j].ID })
	if !reflect.DeepEqual(objs, wantProblem.Objects) || !reflect.DeepEqual(funcs, wantProblem.Functions) {
		t.Fatalf("old Problem changed:\n got %+v %+v\nwant %+v %+v", objs, funcs, wantProblem.Objects, wantProblem.Functions)
	}

	fresh, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, ok := fresh.Object(mid); ok {
		t.Fatalf("new view still holds removed object %d", mid)
	}
	if _, ok := fresh.Object(99); !ok {
		t.Fatal("new view misses the arrival")
	}
}
