package conformance

import (
	"testing"

	"fairassign/internal/datagen"
)

// TestDifferentialStandardSweep is the acceptance gate for every solver
// in the repository: all seven algorithms must produce the oracle
// matching on every cell of the distribution × dimension × capacity ×
// priority grid. Failures print the offending spec, which reproduces
// the case deterministically.
func TestDifferentialStandardSweep(t *testing.T) {
	specs := StandardSweep(3)
	if len(specs) < 200 {
		t.Fatalf("sweep has %d cases, want >= 200", len(specs))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			if err := Verify(spec); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpecReproducibility makes sure Generate is a pure function of the
// spec — the property that makes printed failures replayable.
func TestSpecReproducibility(t *testing.T) {
	spec := Spec{Seed: 4242, Kind: datagen.Correlated, Dims: 3, Gammas: true}
	a, b := Generate(spec), Generate(spec)
	if len(a.Objects) != len(b.Objects) || len(a.Functions) != len(b.Functions) {
		t.Fatal("sizes differ between generations")
	}
	for i := range a.Objects {
		for d := range a.Objects[i].Point {
			if a.Objects[i].Point[d] != b.Objects[i].Point[d] {
				t.Fatal("object coordinates differ between generations")
			}
		}
	}
	for i := range a.Functions {
		if a.Functions[i].Gamma != b.Functions[i].Gamma {
			t.Fatal("gammas differ between generations")
		}
	}
}
