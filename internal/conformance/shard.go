package conformance

import (
	"fmt"
	"math/rand"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/score"
)

// ShardCounts is the standard shard-count grid of the invariance sweep.
// 1 exercises an explicitly one-partition workspace against the default,
// 2 and 4 the even spatial splits, and 7 an odd count whose uneven
// ranges catch any balance assumption baked into routing or repair.
var ShardCounts = []int{1, 2, 4, 7}

// identicalPairs asserts two definitionally sorted pair lists are
// byte-identical: same pairs, same order, bit-equal scores. This is the
// shard-count invariance contract — stronger than sameMatching's
// epsilon, because a partitioned workspace runs the same float
// operations in the same order as the default one, just routed through
// per-partition structures.
func identicalPairs(got, want []assign.Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("pair %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// VerifyShardInvariance runs one mutation script simultaneously on a
// default Workspace and on workspaces at every given partition count,
// applying identical mutation batches to all replicas. After the
// initial build and after every batch it asserts, per engine:
//
//   - the matching is byte-identical to the workspace's (same pairs,
//     same definitional order, bit-equal scores);
//   - the partition-invariant stats (objects, functions, assigned
//     units) agree;
//   - global TopK through the sharded view's ceiling merge returns
//     exactly what the workspace view's single-tree BRS returns, for a
//     sample of live preference functions;
//   - the sharded view's frozen matching is stable for its own frozen
//     population.
func VerifyShardInvariance(spec MutationSpec, cfg assign.Config, counts []int) error {
	rng := rand.New(rand.NewSource(spec.Seed))
	p := generateMutationBase(spec, rng)
	ws, err := assign.NewWorkspace(p, cfg)
	if err != nil {
		return fmt.Errorf("[%s] build workspace: %w", spec, err)
	}
	defer ws.Close()
	engines := make([]*assign.Workspace, len(counts))
	for i, n := range counts {
		scfg := cfg
		scfg.Shards = n
		eng, err := assign.NewWorkspace(p, scfg)
		if err != nil {
			return fmt.Errorf("[%s] build %d-shard engine: %w", spec, n, err)
		}
		defer eng.Close()
		engines[i] = eng
	}

	check := func(label string) error {
		want := ws.Pairs()
		wstats := ws.Stats()
		wv, err := ws.Snapshot()
		if err != nil {
			return fmt.Errorf("[%s] %s: workspace snapshot: %w", spec, label, err)
		}
		defer wv.Close()
		scorers := sampleScorers(ws.ProblemSnapshot(), rng, 3)
		for i, eng := range engines {
			n := counts[i]
			if err := identicalPairs(eng.Pairs(), want); err != nil {
				return fmt.Errorf("[%s] %s: %d shards vs workspace: %w", spec, label, n, err)
			}
			estats := eng.Stats()
			if estats.Objects != wstats.Objects || estats.Functions != wstats.Functions ||
				estats.AssignedUnits != wstats.AssignedUnits {
				return fmt.Errorf("[%s] %s: %d shards stats (%d obj, %d func, %d units) vs workspace (%d, %d, %d)",
					spec, label, n, estats.Objects, estats.Functions, estats.AssignedUnits,
					wstats.Objects, wstats.Functions, wstats.AssignedUnits)
			}
			ev, err := eng.Snapshot()
			if err != nil {
				return fmt.Errorf("[%s] %s: %d shards snapshot: %w", spec, label, n, err)
			}
			if err := func() error {
				defer ev.Close()
				if err := identicalPairs(ev.Pairs(), want); err != nil {
					return fmt.Errorf("view pairs: %w", err)
				}
				if err := ev.VerifyStable(); err != nil {
					return fmt.Errorf("view unstable: %w", err)
				}
				for _, sc := range scorers {
					k := 1 + rng.Intn(12)
					wi, wsc, err := wv.TopKScorer(sc, k)
					if err != nil {
						return fmt.Errorf("workspace topk: %w", err)
					}
					ei, esc, err := ev.TopKScorer(sc, k)
					if err != nil {
						return fmt.Errorf("sharded topk: %w", err)
					}
					if len(ei) != len(wi) {
						return fmt.Errorf("topk(k=%d): %d results, want %d", k, len(ei), len(wi))
					}
					for j := range wi {
						if ei[j].ID != wi[j].ID || esc[j] != wsc[j] {
							return fmt.Errorf("topk(k=%d) rank %d: got (%d, %v), want (%d, %v)",
								k, j, ei[j].ID, esc[j], wi[j].ID, wsc[j])
						}
					}
				}
				return nil
			}(); err != nil {
				return fmt.Errorf("[%s] %s: %d shards: %w", spec, label, n, err)
			}
		}
		return nil
	}

	if err := check("initial"); err != nil {
		return err
	}

	objIDs := make([]uint64, 0, len(p.Objects))
	for _, o := range p.Objects {
		objIDs = append(objIDs, o.ID)
	}
	funcIDs := make([]uint64, 0, len(p.Functions))
	for _, f := range p.Functions {
		funcIDs = append(funcIDs, f.ID)
	}
	nextID := uint64(1_000_000)
	for step := 0; step < spec.Steps; step++ {
		size := 1 + rng.Intn(3)
		var muts []assign.Mutation
		for j := 0; j < size; j++ {
			switch rng.Intn(4) {
			case 0: // object arrival
				nextID++
				o := datagen.Objects(spec.Kind, 1, spec.Dims, spec.Seed+101*int64(step)+7*int64(j+1))[0]
				o.ID = nextID
				if spec.Caps {
					o.Capacity = 1 + rng.Intn(3)
				}
				muts = append(muts, assign.Mutation{Kind: assign.MutAddObject, Object: o})
				objIDs = append(objIDs, o.ID)
			case 1: // function arrival
				nextID++
				f := datagen.Functions(1, spec.Dims, spec.Seed+211*int64(step)+13*int64(j+1))[0]
				if spec.Scorers {
					f = datagen.WithScorerFamilies([]assign.Function{f}, "mixed", spec.Seed+307*int64(step)+17*int64(j+1))[0]
				}
				f.ID = nextID
				if spec.Gammas {
					f.Gamma = float64(1 + rng.Intn(4))
				}
				if spec.Caps {
					f.Capacity = 1 + rng.Intn(3)
				}
				muts = append(muts, assign.Mutation{Kind: assign.MutAddFunction, Function: f})
				funcIDs = append(funcIDs, f.ID)
			case 2: // object departure
				if len(objIDs) <= 2 {
					continue
				}
				at := rng.Intn(len(objIDs))
				id := objIDs[at]
				objIDs = append(objIDs[:at], objIDs[at+1:]...)
				muts = append(muts, assign.Mutation{Kind: assign.MutRemoveObject, ID: id})
			default: // function departure
				if len(funcIDs) <= 1 {
					continue
				}
				at := rng.Intn(len(funcIDs))
				id := funcIDs[at]
				funcIDs = append(funcIDs[:at], funcIDs[at+1:]...)
				muts = append(muts, assign.Mutation{Kind: assign.MutRemoveFunction, ID: id})
			}
		}
		if len(muts) == 0 {
			continue
		}
		label := fmt.Sprintf("batch %d (%d muts)", step, len(muts))
		if err := ws.Apply(muts); err != nil {
			return fmt.Errorf("[%s] %s: workspace apply: %w", spec, label, err)
		}
		for i, eng := range engines {
			if err := eng.Apply(muts); err != nil {
				return fmt.Errorf("[%s] %s: %d shards apply: %w", spec, label, counts[i], err)
			}
		}
		if err := check(label); err != nil {
			return err
		}
	}
	return nil
}

// sampleScorers draws up to n effective scorers from the live function
// population (plus one fixed uniform-weights probe so every script also
// exercises a scorer owned by no function).
func sampleScorers(p *assign.Problem, rng *rand.Rand, n int) []score.Scorer {
	uniform := make([]float64, p.Dims)
	for d := range uniform {
		uniform[d] = 1 / float64(p.Dims)
	}
	out := []score.Scorer{score.LinearScorer(uniform)}
	if len(p.Functions) == 0 {
		return out
	}
	for i := 0; i < n; i++ {
		f := p.Functions[rng.Intn(len(p.Functions))]
		out = append(out, score.Scorer{Fam: f.Fam, W: f.Effective()})
	}
	return out
}
