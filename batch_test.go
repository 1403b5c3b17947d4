package fairassign

import (
	"math"
	"testing"
)

func batchItems(n int) []BatchItem {
	items := make([]BatchItem, n)
	for i := range items {
		seed := int64(100 + i)
		kind := []Distribution{Independent, Correlated, AntiCorrelated}[i%3]
		items[i] = BatchItem{
			Objects:   GenerateObjects(kind, 150+10*i, 3, seed),
			Functions: GenerateFunctions(20+i, 3, seed+1),
		}
	}
	return items
}

// TestSolveBatchMatchesIndividualSolves checks that concurrent batch
// solving returns, per item, exactly what a standalone Solve returns.
func TestSolveBatchMatchesIndividualSolves(t *testing.T) {
	items := batchItems(9)
	got := SolveBatch(items, BatchOptions{Parallelism: 4})
	if len(got) != len(items) {
		t.Fatalf("got %d results, want %d", len(got), len(items))
	}
	for i, item := range items {
		if got[i].Err != nil {
			t.Fatalf("item %d: %v", i, got[i].Err)
		}
		solver, err := NewSolver(item.Objects, item.Functions, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := solver.Solve()
		if err != nil {
			t.Fatal(err)
		}
		g, w := got[i].Result.Pairs, want.Pairs
		if len(g) != len(w) {
			t.Fatalf("item %d: %d pairs, want %d", i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] || math.IsNaN(g[j].Score) {
				t.Fatalf("item %d pair %d: %+v, want %+v", i, j, g[j], w[j])
			}
		}
	}
}

// TestSolveBatchIsolatesErrors checks that one invalid tenant reports its
// error in its own slot and the rest of the batch still solves.
func TestSolveBatchIsolatesErrors(t *testing.T) {
	items := batchItems(3)
	items[1] = BatchItem{} // nothing to assign: NewSolver must fail
	got := SolveBatch(items, BatchOptions{Parallelism: 3})
	if got[1].Err == nil {
		t.Fatal("empty item should report an error")
	}
	if got[1].Result != nil {
		t.Fatal("failed item should carry no result")
	}
	for _, i := range []int{0, 2} {
		if got[i].Err != nil {
			t.Fatalf("item %d: %v", i, got[i].Err)
		}
		if len(got[i].Result.Pairs) == 0 {
			t.Fatalf("item %d: no pairs", i)
		}
	}
}

// TestSolveBatchPerItemOptions checks option override and inheritance.
func TestSolveBatchPerItemOptions(t *testing.T) {
	items := batchItems(2)
	items[1].Options = &Options{Algorithm: BruteForce}
	got := SolveBatch(items, BatchOptions{
		Parallelism: 2,
		Defaults:    Options{Algorithm: SB},
	})
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	// Both algorithms compute the same stable matching, so contents agree.
	if len(got[0].Result.Pairs) == 0 || len(got[1].Result.Pairs) == 0 {
		t.Fatal("empty results")
	}
}

// TestSolveBatchEmptyAndSequential covers the edge paths.
func TestSolveBatchEmptyAndSequential(t *testing.T) {
	if out := SolveBatch(nil, BatchOptions{}); len(out) != 0 {
		t.Fatalf("nil batch returned %d results", len(out))
	}
	items := batchItems(2)
	out := SolveBatch(items, BatchOptions{Parallelism: 1})
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{1, 3, 8, 200} {
			hit := make([]int32, n)
			parallelFor(n, workers, func(i int) { hit[i]++ })
			for i, h := range hit {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times", n, workers, i, h)
				}
			}
		}
	}
}
