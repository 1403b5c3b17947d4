package conformance

import (
	"fmt"
	"math/rand"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
)

// ScorerSpec describes one randomized case of the scorer-family sweep:
// a problem instance whose functions score under a non-linear monotone
// family (or a mix of families), differential-tested against the
// generalized definitional greedy. Everything derives deterministically
// from the fields.
type ScorerSpec struct {
	Seed   int64
	Kind   datagen.Kind // object distribution
	Dims   int          // 2..4 in the standard sweep
	Mode   string       // datagen.ScorerModes entry
	Caps   bool         // random capacities in [1,3] on both sides
	Gammas bool         // random integer priorities γ in [1,4]
}

func (s ScorerSpec) String() string {
	return fmt.Sprintf("scorer seed=%d kind=%s dims=%d mode=%s caps=%t gammas=%t",
		s.Seed, s.Kind, s.Dims, s.Mode, s.Caps, s.Gammas)
}

// GenerateScorer builds the problem instance for a scorer spec.
func GenerateScorer(spec ScorerSpec) *assign.Problem {
	rng := rand.New(rand.NewSource(spec.Seed))
	nf := 5 + rng.Intn(12)  // 5..16 functions
	no := 30 + rng.Intn(71) // 30..100 objects
	objs := datagen.Objects(spec.Kind, no, spec.Dims, spec.Seed+1)
	funcs := datagen.Functions(nf, spec.Dims, spec.Seed+2)
	funcs = datagen.WithScorerFamilies(funcs, spec.Mode, spec.Seed+3)
	if spec.Gammas {
		funcs = datagen.WithRandomGamma(funcs, 4, spec.Seed+4)
	}
	if spec.Caps {
		funcs = datagen.WithRandomFunctionCapacity(funcs, 3, spec.Seed+5)
		for i := range objs {
			objs[i].Capacity = 1 + rng.Intn(3)
		}
	}
	return &assign.Problem{Dims: spec.Dims, Objects: objs, Functions: funcs}
}

// VerifyScorers runs one scorer-family differential case end to end:
// every algorithm (the SB family, Brute Force, Chain, SB-alt and the
// two-skyline variant) plus a drained Progressive run must reproduce
// the generalized Oracle matching, and the Oracle matching itself must
// be stable under the generalized blocking-pair audit.
func VerifyScorers(spec ScorerSpec) error {
	p := GenerateScorer(spec)
	oracle, err := assign.Oracle(p)
	if err != nil {
		return fmt.Errorf("[%s] oracle: %w", spec, err)
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
	// Progressive: drain the on-demand stream and compare the multiset.
	prog, err := assign.NewProgressive(p, config())
	if err != nil {
		return fmt.Errorf("[%s] progressive: %w", spec, err)
	}
	var drained []assign.Pair
	for {
		pair, ok, err := prog.Next()
		if err != nil {
			return fmt.Errorf("[%s] progressive next: %w", spec, err)
		}
		if !ok {
			break
		}
		drained = append(drained, pair)
	}
	if err := sameMatching(drained, oracle.Pairs); err != nil {
		return fmt.Errorf("[%s] Progressive vs Oracle: %w", spec, err)
	}
	return nil
}

// ScorerSweep enumerates the scorer-family grid — every non-linear
// mode (OWA, minimax, best, median, Chebyshev, Lp, mixed) × 2 object
// distributions × dims 2..4 × {plain, capacities} × {γ on, off} — with
// seedsPerCell seeds per cell. seedsPerCell = 1 yields 168 cases.
func ScorerSweep(seedsPerCell int) []ScorerSpec {
	var specs []ScorerSpec
	seed := int64(70_000)
	for _, mode := range datagen.ScorerModes {
		for _, kind := range []datagen.Kind{datagen.Independent, datagen.AntiCorrelated} {
			for dims := 2; dims <= 4; dims++ {
				for _, caps := range []bool{false, true} {
					for _, gammas := range []bool{false, true} {
						for s := 0; s < seedsPerCell; s++ {
							specs = append(specs, ScorerSpec{
								Seed:   seed,
								Kind:   kind,
								Dims:   dims,
								Mode:   mode,
								Caps:   caps,
								Gammas: gammas,
							})
							seed += 13
						}
					}
				}
			}
		}
	}
	return specs
}
