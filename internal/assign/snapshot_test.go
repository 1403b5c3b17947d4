package assign_test

import (
	"errors"
	"testing"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/geom"
)

func testProblem(t *testing.T, n int) *assign.Problem {
	t.Helper()
	return &assign.Problem{
		Dims:      2,
		Objects:   datagen.Objects(datagen.Independent, n, 2, 42),
		Functions: datagen.Functions(8, 2, 43),
	}
}

func TestSnapshotIsolationAcrossApply(t *testing.T) {
	e, err := assign.NewWorkspace(testProblem(t, 120), assign.Config{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	before, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()
	frozen := append([]assign.Pair(nil), before.Pairs()...)
	seq := before.Epoch()

	// Mutate: one arrival and one departure in one batch.
	if err := e.Apply([]assign.Mutation{
		{Kind: assign.MutAddObject, Object: assign.Object{ID: 900_001, Point: geom.Point{0.31, 0.62}}},
		{Kind: assign.MutRemoveObject, ID: frozen[0].ObjectID},
	}); err != nil {
		t.Fatal(err)
	}

	after, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if after.Epoch() <= seq {
		t.Fatalf("sequence did not advance: %d -> %d", seq, after.Epoch())
	}
	got := before.Pairs()
	if len(got) != len(frozen) {
		t.Fatalf("pinned view drifted: %d pairs, had %d", len(got), len(frozen))
	}
	for i := range got {
		if got[i] != frozen[i] {
			t.Fatalf("pinned view drifted at pair %d", i)
		}
	}
	if err := before.VerifyStable(); err != nil {
		t.Fatalf("pinned view unstable for its own population: %v", err)
	}
	if err := after.VerifyStable(); err != nil {
		t.Fatalf("fresh view unstable: %v", err)
	}
	if _, ok := after.Object(900_001); !ok {
		t.Fatal("fresh view missing the arrival")
	}
	if _, ok := before.Object(900_001); ok {
		t.Fatal("pinned view sees the future")
	}
}

func TestUseAfterClose(t *testing.T) {
	e, err := assign.NewWorkspace(testProblem(t, 60), assign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.Snapshot(); !errors.Is(err, assign.ErrClosed) {
		t.Fatalf("Snapshot after Close: %v, want ErrClosed", err)
	}
	if err := e.Apply([]assign.Mutation{{Kind: assign.MutRemoveObject, ID: 1}}); !errors.Is(err, assign.ErrClosed) {
		t.Fatalf("Apply after Close: %v, want ErrClosed", err)
	}
	// The pre-close view keeps serving its pinned state.
	if err := v.VerifyStable(); err != nil {
		t.Fatalf("pre-close view died with the engine: %v", err)
	}
	v.Close()
	if _, _, err := v.TopK([]float64{0.5, 0.5}, 3); !errors.Is(err, assign.ErrViewClosed) {
		t.Fatalf("TopK on closed view: %v, want ErrViewClosed", err)
	}
}
