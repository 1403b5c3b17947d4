package assign

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairassign/internal/geom"
	"fairassign/internal/score"
)

// stressStep is one scripted mutation, applied identically to the
// workspace and to the in-memory model used for cold reference solves.
type stressStep struct {
	kind int // 0 add obj, 1 remove obj, 2 add func, 3 remove func
	obj  Object
	fn   Function
	id   uint64
}

// stressScript precomputes a deterministic mutation script over a model
// population, plus — per prefix k — the cold SB matching and the object
// set after the first k mutations. Readers use Stats().Mutations to
// identify which prefix their snapshot pinned.
type stressScript struct {
	steps    []stressStep
	expected [][]Pair                // expected[k]: cold solve after k mutations
	objects  []map[uint64]geom.Point // objects[k]: live objects after k mutations
}

// randStressFam draws a scoring family for stress traffic: a linear
// majority (the paper's workload) with every non-linear family mixed
// in, so concurrent snapshot validation covers OWA/Chebyshev/Lp repair
// paths too.
func randStressFam(rng *rand.Rand) score.Family {
	switch rng.Intn(8) {
	case 0:
		return score.Family{Kind: score.OWA}
	case 1:
		return score.Family{Kind: score.Chebyshev}
	case 2:
		return score.Family{Kind: score.Lp, P: float64(2 + rng.Intn(2))}
	default:
		return score.Family{}
	}
}

func buildStressScript(t *testing.T, base *Problem, muts int, seed int64) *stressScript {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Mix scorer kinds into the base population, in place: the caller
	// hands the same base to NewWorkspace, so the workspace build and
	// the model cold solves must see identical families.
	for i := range base.Functions {
		base.Functions[i].Fam = randStressFam(rng)
	}
	model := &Problem{Dims: base.Dims}
	model.Objects = append([]Object(nil), base.Objects...)
	model.Functions = append([]Function(nil), base.Functions...)
	sc := &stressScript{}
	nextID := uint64(1 << 32)

	record := func() {
		snap := &Problem{Dims: model.Dims}
		snap.Objects = append([]Object(nil), model.Objects...)
		snap.Functions = append([]Function(nil), model.Functions...)
		cold, err := SB(snap, testCfg())
		if err != nil {
			t.Fatalf("cold solve of prefix %d: %v", len(sc.expected), err)
		}
		sc.expected = append(sc.expected, cold.Pairs)
		objs := make(map[uint64]geom.Point, len(model.Objects))
		for _, o := range model.Objects {
			objs[o.ID] = o.Point
		}
		sc.objects = append(sc.objects, objs)
	}
	record() // prefix 0

	for len(sc.steps) < muts {
		var st stressStep
		switch k := rng.Intn(4); {
		case k == 1 && len(model.Objects) > 8:
			i := rng.Intn(len(model.Objects))
			st = stressStep{kind: 1, id: model.Objects[i].ID}
			model.Objects = append(model.Objects[:i], model.Objects[i+1:]...)
		case k == 3 && len(model.Functions) > 3:
			i := rng.Intn(len(model.Functions))
			st = stressStep{kind: 3, id: model.Functions[i].ID}
			model.Functions = append(model.Functions[:i], model.Functions[i+1:]...)
		case k == 2:
			nextID++
			f := Function{ID: nextID, Weights: randWeights(rng, model.Dims), Fam: randStressFam(rng)}
			st = stressStep{kind: 2, fn: f}
			model.Functions = append(model.Functions, f)
		default:
			nextID++
			o := Object{ID: nextID, Point: randPoint(rng, model.Dims)}
			st = stressStep{kind: 0, obj: o}
			model.Objects = append(model.Objects, o)
		}
		sc.steps = append(sc.steps, st)
		record()
	}
	return sc
}

func (st stressStep) apply(ws *Workspace) error {
	switch st.kind {
	case 0:
		return ws.AddObject(st.obj)
	case 1:
		return ws.RemoveObject(st.id)
	case 2:
		return ws.AddFunction(st.fn)
	default:
		return ws.RemoveFunction(st.id)
	}
}

// scoreMultisetEqual compares matchings as (function, object) multisets
// with scores equal to within roundoff — the cross-algorithm contract
// (the workspace and SB may legitimately emit different orders).
func scoreMultisetEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	type key struct{ f, o uint64 }
	count := make(map[key]int, len(b))
	score := make(map[key]float64, len(b))
	for _, p := range b {
		count[key{p.FuncID, p.ObjectID}]++
		score[key{p.FuncID, p.ObjectID}] = p.Score
	}
	for _, p := range a {
		k := key{p.FuncID, p.ObjectID}
		if count[k] == 0 {
			return false
		}
		count[k]--
		if math.Abs(score[k]-p.Score) > 1e-9 {
			return false
		}
	}
	return true
}

func stressMutationCount() int {
	if s := os.Getenv("FAIRASSIGN_STRESS_MUTATIONS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	if testing.Short() {
		return 80
	}
	return 240
}

// TestWorkspaceSnapshotStress runs one churn writer against N
// concurrent snapshot readers over hundreds of mutations (run under
// -race in CI; bound the script with FAIRASSIGN_STRESS_MUTATIONS).
// Every reader asserts full snapshot consistency, not just
// crash-freedom: the matching its view returns must be score-identical
// to a cold SB solve of exactly the mutation-script prefix the view
// pinned, its TopK answers must rank exactly the objects live at that
// prefix, and repeated reads of one view must be bit-stable.
func TestWorkspaceSnapshotStress(t *testing.T) {
	muts := stressMutationCount()
	seed := int64(20260726)
	rng := rand.New(rand.NewSource(seed))
	base := randProblem(rng, 9, 48, 3)
	script := buildStressScript(t, base, muts, seed+1)

	ws, err := NewWorkspace(base, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()

	readers := 4
	if n := runtime.GOMAXPROCS(0) - 1; n < readers && n > 0 {
		readers = n
	}
	var (
		done      atomic.Bool
		readCount atomic.Int64
		wg        sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed + 100 + int64(r)))
			for !done.Load() {
				v, err := ws.Snapshot()
				if err != nil {
					t.Errorf("reader %d: Snapshot: %v", r, err)
					return
				}
				k := int(v.Stats().Mutations)
				if k < 0 || k >= len(script.expected) {
					t.Errorf("reader %d: view pins unknown prefix %d", r, k)
					v.Close()
					return
				}
				pairs := v.Pairs()
				if !scoreMultisetEqual(pairs, script.expected[k]) {
					t.Errorf("reader %d: prefix %d: view matching differs from cold solve of that prefix", r, k)
					v.Close()
					return
				}
				// Re-reads of one view are bit-stable (shared immutable state).
				again := v.Pairs()
				for i := range pairs {
					if pairs[i] != again[i] {
						t.Errorf("reader %d: view pairs unstable at %d", r, i)
						v.Close()
						return
					}
				}
				// Ranked search over the pinned index epoch must rank
				// exactly the prefix's object population.
				w := randWeights(rrng, v.Dims())
				items, scores, err := v.TopK(w, 5)
				if err != nil {
					t.Errorf("reader %d: prefix %d: TopK: %v", r, k, err)
					v.Close()
					return
				}
				objs := script.objects[k]
				last := math.Inf(1)
				for i, it := range items {
					pt, live := objs[it.ID]
					if !live {
						t.Errorf("reader %d: prefix %d: TopK returned object %d not live at that prefix", r, k, it.ID)
						v.Close()
						return
					}
					if got, want := scores[i], geom.Dot(w, pt); math.Abs(got-want) > 1e-12 {
						t.Errorf("reader %d: prefix %d: TopK score %v for object %d, want %v", r, k, got, it.ID, want)
					}
					if scores[i] > last {
						t.Errorf("reader %d: prefix %d: TopK scores not monotone", r, k)
					}
					last = scores[i]
				}
				if want := min(5, len(objs)); len(items) != want {
					t.Errorf("reader %d: prefix %d: TopK returned %d items, want %d", r, k, len(items), want)
				}
				// Full stability audit on a sample of reads (it is the
				// expensive O(|F|·|O|) check; the multiset comparison
				// above already pins the matching exactly).
				if readCount.Load()%8 == 0 {
					if err := v.VerifyStable(); err != nil {
						t.Errorf("reader %d: prefix %d: %v", r, k, err)
					}
				}
				v.Close()
				readCount.Add(1)
			}
		}(r)
	}

	// The writer additionally pins one long-lived view every 40
	// mutations and checks, 20 mutations later, that it stayed frozen.
	type pinned struct {
		v     *View
		pairs []Pair
		at    int
	}
	var held []pinned
	for i, st := range script.steps {
		if err := st.apply(ws); err != nil {
			t.Fatalf("writer: step %d: %v", i, err)
		}
		if i%4 == 0 {
			// Give readers a scheduling window: real churn has think
			// time, and the point is interleaving, not writer throughput.
			time.Sleep(200 * time.Microsecond)
		}
		if i%40 == 0 {
			v, err := ws.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, pinned{v: v, pairs: clonePairs(v.Pairs()), at: i})
		}
		for h := 0; h < len(held); h++ {
			if i-held[h].at >= 20 {
				identicalPairs(t, "long-lived pinned view", held[h].v.Pairs(), held[h].pairs)
				held[h].v.Close()
				held = append(held[:h], held[h+1:]...)
				h--
			}
		}
	}
	done.Store(true)
	wg.Wait()
	for _, h := range held {
		identicalPairs(t, "long-lived pinned view (final)", h.v.Pairs(), h.pairs)
		h.v.Close()
	}
	if readCount.Load() == 0 {
		t.Fatal("no reader completed a single validated read")
	}
	t.Logf("stress: %d mutations, %d readers, %d validated snapshot reads", muts, readers, readCount.Load())

	// Leak check under concurrency: once every view is closed, no page
	// snapshot is pinned beyond the workspace's own cached capture of
	// the current epoch, and the pool stays within its capacity.
	checkNoViewPins(t, ws)
	if pool := ws.obj.pool; pool.Capacity() > 0 && pool.Len() > pool.Capacity() {
		t.Fatalf("buffer pool frames above capacity: %d > %d", pool.Len(), pool.Capacity())
	}
	if err := ws.VerifyStable(); err != nil {
		t.Fatal(err)
	}
	final := ws.Pairs()
	if !scoreMultisetEqual(final, script.expected[len(script.expected)-1]) {
		t.Fatal("final workspace matching differs from cold solve of the full script")
	}
}
