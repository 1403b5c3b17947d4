package fairassign

import (
	"sort"
	"testing"
)

// drainMatcher pulls every available pair from a progressive matcher.
func drainMatcher(t *testing.T, m *ProgressiveMatcher) []Pair {
	t.Helper()
	var out []Pair
	for {
		p, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

// assertNonIncreasingScores checks the streaming-order guarantee.
func assertNonIncreasingScores(t *testing.T, pairs []Pair) {
	t.Helper()
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Score > pairs[i-1].Score {
			t.Fatalf("score order violated at %d: %v emitted after %v",
				i, pairs[i].Score, pairs[i-1].Score)
		}
	}
}

// assertMatchesBatch checks that a progressive stream equals the batch
// Solve result element for element once the batch result is put in the
// greedy emission order (descending score, ties by ascending IDs).
func assertMatchesBatch(t *testing.T, got []Pair, batch *Result) {
	t.Helper()
	want := make([]Pair, len(batch.Pairs))
	copy(want, batch.Pairs)
	sort.Slice(want, func(i, j int) bool {
		if want[i].Score != want[j].Score {
			return want[i].Score > want[j].Score
		}
		if want[i].FunctionID != want[j].FunctionID {
			return want[i].FunctionID < want[j].FunctionID
		}
		return want[i].ObjectID < want[j].ObjectID
	})
	if len(got) != len(want) {
		t.Fatalf("progressive %d pairs, batch %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: progressive %+v, batch %+v", i, got[i], want[i])
		}
	}
}

func TestProgressiveMatcherBasics(t *testing.T) {
	objects := GenerateObjects(Independent, 50, 3, 61)
	functions := GenerateFunctions(80, 3, 62)
	m, err := NewProgressiveMatcher(objects, functions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	matched := map[uint64]bool{}
	count := 0
	for {
		p, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if matched[p.ObjectID] {
			t.Fatalf("object %d assigned twice", p.ObjectID)
		}
		matched[p.ObjectID] = true
		count++
	}
	if count != 50 {
		t.Fatalf("matched %d pairs, want 50 (objects are the scarce side)", count)
	}

	// Releasing more stock reopens the matching for the 30 unmatched
	// functions.
	extra := GenerateObjects(Independent, 40, 3, 63)
	for i := range extra {
		extra[i].ID += 1000
	}
	for _, o := range extra {
		if err := m.AddObject(o); err != nil {
			t.Fatal(err)
		}
	}
	more := 0
	for {
		_, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		more++
	}
	if more != 30 {
		t.Fatalf("after release: matched %d more, want 30 (functions now scarce)", more)
	}
	if s := m.Stats(); s.Loops == 0 || s.CPUTime <= 0 {
		t.Errorf("stats not tracked: %+v", s)
	}
}

func TestProgressiveMatcherAgreesWithSolver(t *testing.T) {
	objects := GenerateObjects(AntiCorrelated, 200, 3, 71)
	functions := GenerateFunctions(60, 3, 72)
	solver, err := NewSolver(objects, functions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewProgressiveMatcher(objects, functions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := drainMatcher(t, m)
	assertNonIncreasingScores(t, got)
	assertMatchesBatch(t, got, want)
}

// TestProgressiveMatcherScoreOrderAcrossDistributions locks the
// streaming-order guarantee on every object distribution.
func TestProgressiveMatcherScoreOrderAcrossDistributions(t *testing.T) {
	for _, kind := range []Distribution{Independent, Correlated, AntiCorrelated} {
		t.Run(string(kind), func(t *testing.T) {
			objects := GenerateObjects(kind, 150, 4, 81)
			functions := GenerateFunctions(40, 4, 82)
			solver, err := NewSolver(objects, functions, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := solver.Solve()
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewProgressiveMatcher(objects, functions, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := drainMatcher(t, m)
			assertNonIncreasingScores(t, got)
			assertMatchesBatch(t, got, want)
		})
	}
}

// TestProgressiveMatcherCapacitated checks both halves of the streaming
// contract under capacities on both sides: non-increasing score order
// and agreement with the capacitated batch result.
func TestProgressiveMatcherCapacitated(t *testing.T) {
	objects := GenerateObjects(Independent, 120, 3, 91)
	for i := range objects {
		objects[i].Capacity = 1 + i%3
	}
	functions := GenerateFunctions(50, 3, 92)
	for i := range functions {
		functions[i].Capacity = 1 + i%4
	}
	solver, err := NewSolver(objects, functions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewProgressiveMatcher(objects, functions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := drainMatcher(t, m)
	if len(got) == 0 {
		t.Fatal("no pairs streamed")
	}
	assertNonIncreasingScores(t, got)
	assertMatchesBatch(t, got, want)
	if err := solver.Verify(got); err != nil {
		t.Fatal(err)
	}
}
