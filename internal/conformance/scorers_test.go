package conformance

import (
	"testing"
)

// TestScorerFamilySweep is the acceptance gate for the pluggable
// scoring families: on every cell of the mode × distribution ×
// dimension × capacity × priority grid, all seven algorithms and a
// drained Progressive run must reproduce the generalized Oracle
// matching.
func TestScorerFamilySweep(t *testing.T) {
	specs := ScorerSweep(1)
	if len(specs) < 150 {
		t.Fatalf("sweep has %d cases, want >= 150", len(specs))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			if err := VerifyScorers(spec); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScorerMutationSweep is the Workspace acceptance gate for
// non-linear families: across randomized scripts whose base population
// and function arrivals mix every scoring family, the repaired matching
// after each mutation must be score-identical to a from-scratch SB
// solve of the snapshot, stable, and snapshot-isolated (the harness
// brackets every step with interleaved view reads).
func TestScorerMutationSweep(t *testing.T) {
	specs := ScorerMutationSweep(2)
	if len(specs) < 40 {
		t.Fatalf("sweep has %d scripts, want >= 40", len(specs))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			if err := VerifyMutations(spec, config()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
