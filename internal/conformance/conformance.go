// Package conformance is a randomized differential-testing harness over
// every assignment algorithm in the repository. It generates problem
// instances across the paper's three object distributions, dimensions,
// capacities, and γ priorities, runs every algorithm on each instance,
// and checks that all of them produce the matching defined by the Oracle
// definitional greedy (and, independently, by capacitated Gale–Shapley).
//
// The harness exists so that hot-path work — any optimization of the
// search structures or of the shared SB loop — can be changed with
// confidence: a behavioral regression in any algorithm, on any
// supported problem shape, surfaces as a conformance failure with a seed
// that reproduces it deterministically.
package conformance

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
)

// Spec describes one randomized case. Everything is derived
// deterministically from the fields, so a failing case reproduces from
// its printed spec alone.
type Spec struct {
	Seed     int64
	Kind     datagen.Kind // object distribution
	Dims     int          // 2..5 in the standard sweep
	FuncCaps bool         // random function capacities in [1,3]
	ObjCaps  bool         // random object capacities in [1,3]
	Gammas   bool         // random integer priorities γ in [1,4]
}

func (s Spec) String() string {
	return fmt.Sprintf("seed=%d kind=%s dims=%d fcaps=%t ocaps=%t gammas=%t",
		s.Seed, s.Kind, s.Dims, s.FuncCaps, s.ObjCaps, s.Gammas)
}

// Algorithm is one entrant in the differential run.
type Algorithm struct {
	Name string
	Run  func(*assign.Problem, assign.Config) (*assign.Result, error)
}

// Algorithms returns every solver under test.
func Algorithms() []Algorithm {
	return []Algorithm{
		{"SB", assign.SB},
		{"SBBasic", assign.SBBasic},
		{"SBDeltaSky", assign.SBDeltaSky},
		{"BruteForce", assign.BruteForce},
		{"Chain", assign.Chain},
		{"SBAlt", assign.SBAlt},
		{"SBTwoSkylines", assign.SBTwoSkylines},
	}
}

// Generate builds the problem instance for a spec. Sizes are drawn from
// the spec's own RNG and kept small enough that the O(|F|·|O|) oracle
// stays cheap while still exercising multi-loop runs of every algorithm.
func Generate(spec Spec) *assign.Problem {
	rng := rand.New(rand.NewSource(spec.Seed))
	nf := 5 + rng.Intn(16)  // 5..20 functions
	no := 30 + rng.Intn(91) // 30..120 objects
	objs := datagen.Objects(spec.Kind, no, spec.Dims, spec.Seed+1)
	funcs := datagen.Functions(nf, spec.Dims, spec.Seed+2)
	if spec.Gammas {
		funcs = datagen.WithRandomGamma(funcs, 4, spec.Seed+3)
	}
	if spec.FuncCaps {
		funcs = datagen.WithRandomFunctionCapacity(funcs, 3, spec.Seed+4)
	}
	if spec.ObjCaps {
		for i := range objs {
			objs[i].Capacity = 1 + rng.Intn(3)
		}
	}
	return &assign.Problem{Dims: spec.Dims, Objects: objs, Functions: funcs}
}

// config is the shared execution environment: a small page size and
// buffer so the disk-based algorithms exercise real evictions, and a
// non-trivial Ω so resumable searches restart on some cases.
func config() assign.Config {
	return assign.Config{PageSize: 512, BufferFrac: 0.05, OmegaFrac: 0.05}
}

// scoreEps tolerates the floating-point summation-order differences
// between algorithms that compute f(o) through different code paths.
const scoreEps = 1e-9

// canonical sorts a pair list for multiset comparison.
func canonical(pairs []assign.Pair) []assign.Pair {
	out := make([]assign.Pair, len(pairs))
	copy(out, pairs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].FuncID != out[j].FuncID {
			return out[i].FuncID < out[j].FuncID
		}
		if out[i].ObjectID != out[j].ObjectID {
			return out[i].ObjectID < out[j].ObjectID
		}
		return out[i].Score < out[j].Score
	})
	return out
}

// sameMatching checks that two pair lists are the same multiset of
// (function, object) assignments with scores equal to within scoreEps.
func sameMatching(got, want []assign.Pair) error {
	g, w := canonical(got), canonical(want)
	if len(g) != len(w) {
		return fmt.Errorf("%d pairs, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i].FuncID != w[i].FuncID || g[i].ObjectID != w[i].ObjectID {
			return fmt.Errorf("pair %d = (f%d,o%d), want (f%d,o%d)",
				i, g[i].FuncID, g[i].ObjectID, w[i].FuncID, w[i].ObjectID)
		}
		if math.Abs(g[i].Score-w[i].Score) > scoreEps {
			return fmt.Errorf("pair %d (f%d,o%d) score %v, want %v",
				i, g[i].FuncID, g[i].ObjectID, g[i].Score, w[i].Score)
		}
	}
	return nil
}

// identicalRun checks byte identity: pairs in the same emission order
// with bit-equal scores.
func identicalRun(got, want []assign.Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.FuncID != w.FuncID || g.ObjectID != w.ObjectID ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("emission slot %d = (f%d,o%d,%x), want (f%d,o%d,%x)",
				i, g.FuncID, g.ObjectID, math.Float64bits(g.Score),
				w.FuncID, w.ObjectID, math.Float64bits(w.Score))
		}
	}
	return nil
}

// Verify runs one differential case end to end. It returns the first
// discrepancy found, wrapped with the algorithm name and the spec, or nil
// when every algorithm agrees.
func Verify(spec Spec) error {
	p := Generate(spec)
	oracle, err := assign.Oracle(p)
	if err != nil {
		return fmt.Errorf("[%s] oracle: %w", spec, err)
	}
	// Second, structurally independent reference: clone-expansion
	// Gale–Shapley must agree with the definitional greedy.
	gs, err := assign.GaleShapleyCapacitated(p)
	if err != nil {
		return fmt.Errorf("[%s] gale-shapley: %w", spec, err)
	}
	if err := sameMatching(gs.Pairs, oracle.Pairs); err != nil {
		return fmt.Errorf("[%s] GaleShapleyCapacitated vs Oracle: %w", spec, err)
	}
	if err := assign.IsStable(p, oracle.Pairs); err != nil {
		return fmt.Errorf("[%s] oracle matching unstable: %w", spec, err)
	}

	for _, alg := range Algorithms() {
		res, err := alg.Run(p, config())
		if err != nil {
			return fmt.Errorf("[%s] %s: %w", spec, alg.Name, err)
		}
		if err := sameMatching(res.Pairs, oracle.Pairs); err != nil {
			return fmt.Errorf("[%s] %s vs Oracle: %w", spec, alg.Name, err)
		}
	}
	return nil
}

// StandardSweep enumerates the full grid — 3 distributions × dims 2..5 ×
// {plain, function capacities, object capacities, both} × {γ on, off} —
// with seedsPerCell seeds per grid cell. seedsPerCell = 3 yields 288
// cases.
func StandardSweep(seedsPerCell int) []Spec {
	var specs []Spec
	seed := int64(1)
	for _, kind := range []datagen.Kind{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
		for dims := 2; dims <= 5; dims++ {
			for _, caps := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				for _, gammas := range []bool{false, true} {
					for s := 0; s < seedsPerCell; s++ {
						specs = append(specs, Spec{
							Seed:     seed,
							Kind:     kind,
							Dims:     dims,
							FuncCaps: caps[0],
							ObjCaps:  caps[1],
							Gammas:   gammas,
						})
						seed += 7
					}
				}
			}
		}
	}
	return specs
}
