package assign_test

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/geom"
	"fairassign/internal/score"
)

// scoreMultisetEqual compares matchings as (function, object) multisets
// with scores equal to within roundoff.
func scoreMultisetEqual(a, b []assign.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	type key struct{ f, o uint64 }
	count := make(map[key]int, len(b))
	scores := make(map[key]float64, len(b))
	for _, p := range b {
		count[key{p.FuncID, p.ObjectID}]++
		scores[key{p.FuncID, p.ObjectID}] = p.Score
	}
	for _, p := range a {
		k := key{p.FuncID, p.ObjectID}
		if count[k] == 0 {
			return false
		}
		count[k]--
		if math.Abs(scores[k]-p.Score) > 1e-9 {
			return false
		}
	}
	return true
}

func stressOpsPerWriter() int {
	if s := os.Getenv("FAIRASSIGN_STRESS_MUTATIONS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	if testing.Short() {
		return 40
	}
	return 120
}

func randStressPoint(rng *rand.Rand, dims int) geom.Point {
	p := make(geom.Point, dims)
	for d := range p {
		p[d] = rng.Float64()
	}
	return p
}

func randStressWeights(rng *rand.Rand, dims int) []float64 {
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

// TestShardedSnapshotStress runs K concurrent shard writers against N
// concurrent snapshot readers (run under -race in CI; bound the script
// with FAIRASSIGN_STRESS_MUTATIONS). Writers own disjoint ID ranges —
// their arrivals land on whatever shards the partitioner routes them
// to, so every interleaving exercises concurrent Apply calls whose
// repair chains cross shards. The interleaving is nondeterministic, so
// readers validate each view against the view's OWN pinned population:
// the frozen matching must be score-identical to a from-scratch SB
// solve of the frozen problem, stable for it, and bit-stable across
// re-reads of one view.
func TestShardedSnapshotStress(t *testing.T) {
	const dims = 3
	seed := int64(20260808)
	base := &assign.Problem{
		Dims:      dims,
		Objects:   datagen.Objects(datagen.Independent, 90, dims, seed),
		Functions: datagen.Functions(9, dims, seed+1),
	}
	// Mix in non-linear families so cross-shard frontier exchange runs
	// under every scorer kind while racing readers.
	famRng := rand.New(rand.NewSource(seed + 2))
	for i := range base.Functions {
		switch famRng.Intn(8) {
		case 0:
			base.Functions[i].Fam = score.Family{Kind: score.OWA}
		case 1:
			base.Functions[i].Fam = score.Family{Kind: score.Chebyshev}
		}
	}
	cfg := assign.Config{PageSize: 512, BufferFrac: 0.05}
	cfg.Shards = 4
	e, err := assign.NewWorkspace(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	writers := 3
	readers := 2
	if n := runtime.GOMAXPROCS(0); n > 4 {
		readers = n - writers
	}
	ops := stressOpsPerWriter()

	var (
		done      atomic.Bool
		readCount atomic.Int64
		wg        sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !done.Load() {
				v, err := e.Snapshot()
				if err != nil {
					t.Errorf("reader %d: Snapshot: %v", r, err)
					return
				}
				pairs := v.Pairs()
				again := v.Pairs()
				for i := range pairs {
					if pairs[i] != again[i] {
						t.Errorf("reader %d: view pairs unstable at %d", r, i)
						v.Close()
						return
					}
				}
				p := v.Problem()
				cold, err := assign.SB(p, cfg)
				if err != nil {
					t.Errorf("reader %d: cold solve of pinned population: %v", r, err)
					v.Close()
					return
				}
				if !scoreMultisetEqual(pairs, cold.Pairs) {
					t.Errorf("reader %d: seq %d: view matching differs from cold SB solve of its own pinned population (%d pairs vs %d)",
						r, v.Epoch(), len(pairs), len(cold.Pairs))
					v.Close()
					return
				}
				if readCount.Load()%8 == 0 {
					if err := v.VerifyStable(); err != nil {
						t.Errorf("reader %d: seq %d: %v", r, v.Epoch(), err)
					}
				}
				v.Close()
				readCount.Add(1)
			}
		}(r)
	}

	var werr atomic.Value
	var wwg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wwg.Add(1)
		go func(wi int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(seed + 1000*int64(wi)))
			nextID := uint64(1<<32) + uint64(wi)<<24 // disjoint per-writer ID range
			var ownObjs, ownFuncs []uint64
			for op := 0; op < ops; op++ {
				var muts []assign.Mutation
				switch k := rng.Intn(5); {
				case k == 1 && len(ownObjs) > 4:
					at := rng.Intn(len(ownObjs))
					muts = append(muts, assign.Mutation{Kind: assign.MutRemoveObject, ID: ownObjs[at]})
					ownObjs = append(ownObjs[:at], ownObjs[at+1:]...)
				case k == 3 && wi == 0 && len(ownFuncs) > 2:
					at := rng.Intn(len(ownFuncs))
					muts = append(muts, assign.Mutation{Kind: assign.MutRemoveFunction, ID: ownFuncs[at]})
					ownFuncs = append(ownFuncs[:at], ownFuncs[at+1:]...)
				case k == 4 && wi == 0:
					nextID++
					f := assign.Function{ID: nextID, Weights: randStressWeights(rng, dims)}
					muts = append(muts, assign.Mutation{Kind: assign.MutAddFunction, Function: f})
					ownFuncs = append(ownFuncs, f.ID)
				default:
					// Arrival bursts: small batches keep group commits and
					// multi-mutation validation overlays in play.
					for n := 1 + rng.Intn(3); n > 0; n-- {
						nextID++
						o := assign.Object{ID: nextID, Point: randStressPoint(rng, dims)}
						muts = append(muts, assign.Mutation{Kind: assign.MutAddObject, Object: o})
						ownObjs = append(ownObjs, o.ID)
					}
				}
				if err := e.Apply(muts); err != nil {
					werr.Store(err)
					return
				}
			}
		}(wi)
	}
	wwg.Wait()
	done.Store(true)
	wg.Wait()
	if err, _ := werr.Load().(error); err != nil {
		t.Fatalf("writer failed: %v", err)
	}
	if readCount.Load() == 0 {
		t.Fatal("no reader completed a single validated read")
	}
	if err := e.VerifyStable(); err != nil {
		t.Fatal(err)
	}
	// Final differential: the engine's end state equals a cold solve.
	cold, err := assign.SB(e.ProblemSnapshot(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !scoreMultisetEqual(e.Pairs(), cold.Pairs) {
		t.Fatal("final sharded matching differs from cold solve of the final population")
	}
	t.Logf("stress: %d writers x %d ops, %d readers, %d validated snapshot reads",
		writers, ops, readers, readCount.Load())
}
