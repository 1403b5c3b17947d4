package fairassign

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

func figure1Problem() ([]Object, []Function) {
	objects := []Object{
		{ID: 1, Attributes: []float64{0.5, 0.6}},
		{ID: 2, Attributes: []float64{0.2, 0.7}},
		{ID: 3, Attributes: []float64{0.8, 0.2}},
		{ID: 4, Attributes: []float64{0.4, 0.4}},
	}
	functions := []Function{
		{ID: 1, Weights: []float64{0.8, 0.2}},
		{ID: 2, Weights: []float64{0.2, 0.8}},
		{ID: 3, Weights: []float64{0.5, 0.5}},
	}
	return objects, functions
}

func TestQuickstartFigure1(t *testing.T) {
	objects, functions := figure1Problem()
	solver, err := NewSolver(objects, functions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{1: 3, 2: 2, 3: 1}
	if len(res.Pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(res.Pairs))
	}
	for _, p := range res.Pairs {
		if want[p.FunctionID] != p.ObjectID {
			t.Errorf("f%d -> o%d, want o%d", p.FunctionID, p.ObjectID, want[p.FunctionID])
		}
	}
	if err := solver.Verify(res.Pairs); err != nil {
		t.Fatal(err)
	}
}

func TestAllPublicAlgorithmsAgree(t *testing.T) {
	objects := GenerateObjects(AntiCorrelated, 400, 3, 5)
	functions := GenerateFunctions(60, 3, 6)
	var ref []Pair
	for _, alg := range []Algorithm{SB, BruteForce, Chain, SBAlt, TwoSkylines} {
		solver, err := NewSolver(objects, functions, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.Solve()
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := solver.Verify(res.Pairs); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		pairs := append([]Pair(nil), res.Pairs...)
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].FunctionID < pairs[j].FunctionID })
		if ref == nil {
			ref = pairs
			continue
		}
		if len(pairs) != len(ref) {
			t.Fatalf("%s: %d pairs, want %d", alg, len(pairs), len(ref))
		}
		for i := range pairs {
			if pairs[i] != ref[i] {
				t.Fatalf("%s: pair %d = %+v, want %+v", alg, i, pairs[i], ref[i])
			}
		}
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	objects, functions := figure1Problem()
	if _, err := NewSolver(objects, functions, Options{Algorithm: "quantum"}); err == nil {
		t.Fatal("unknown algorithm should be rejected")
	}
}

// TestDuplicateIDsRejected checks that a solver or workspace given two
// objects or two functions with one ID fails with ErrDuplicateID.
func TestDuplicateIDsRejected(t *testing.T) {
	objects, functions := figure1Problem()
	dupObjects := append(objects, Object{ID: objects[0].ID, Attributes: []float64{0.1, 0.1}})
	dupFunctions := append(functions, Function{ID: functions[0].ID, Weights: []float64{0.5, 0.5}})
	for _, tc := range []struct {
		name      string
		objects   []Object
		functions []Function
	}{
		{"objects", dupObjects, functions},
		{"functions", objects, dupFunctions},
	} {
		if _, err := NewSolver(tc.objects, tc.functions, Options{}); !errors.Is(err, ErrDuplicateID) {
			t.Errorf("NewSolver with duplicate %s: error = %v, want ErrDuplicateID", tc.name, err)
		}
		if _, err := NewWorkspace(tc.objects, tc.functions, Options{}); !errors.Is(err, ErrDuplicateID) {
			t.Errorf("NewWorkspace with duplicate %s: error = %v, want ErrDuplicateID", tc.name, err)
		}
	}
}

func TestWeightNormalization(t *testing.T) {
	objects, _ := figure1Problem()
	// Raw slider values 4 and 1 normalize to (0.8, 0.2), as in Table 1.
	functions := []Function{{ID: 1, Weights: []float64{4, 1}}}
	solver, err := NewSolver(objects, functions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs[0].ObjectID != 3 {
		t.Errorf("normalized weights should pick object c (3), got %d", res.Pairs[0].ObjectID)
	}
	if math.Abs(res.Pairs[0].Score-0.68) > 1e-12 {
		t.Errorf("score = %v, want 0.68", res.Pairs[0].Score)
	}
}

func TestSkipNormalization(t *testing.T) {
	objects, _ := figure1Problem()
	functions := []Function{{ID: 1, Weights: []float64{4, 1}}}
	solver, err := NewSolver(objects, functions, Options{SkipNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Unnormalized: f(c) = 4·0.8 + 1·0.2 = 3.4.
	if math.Abs(res.Pairs[0].Score-3.4) > 1e-12 {
		t.Errorf("score = %v, want 3.4", res.Pairs[0].Score)
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, err := NewSolver(nil, nil, Options{}); err == nil {
		t.Error("empty problem should fail")
	}
	objects := []Object{{ID: 1, Attributes: []float64{0.5, 0.5}}}
	if _, err := NewSolver(objects, []Function{{ID: 1, Weights: []float64{-1, 2}}}, Options{}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewSolver(objects, []Function{{ID: 1, Weights: []float64{0, 0}}}, Options{}); err == nil {
		t.Error("zero weights should fail")
	}
	if _, err := NewSolver(objects, []Function{{ID: 1, Weights: []float64{1, 1, 1}}}, Options{}); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestVerifyCatchesTampering(t *testing.T) {
	objects := GenerateObjects(Independent, 50, 2, 7)
	functions := GenerateFunctions(20, 2, 8)
	solver, err := NewSolver(objects, functions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Verify(res.Pairs); err != nil {
		t.Fatal(err)
	}
	tampered := append([]Pair(nil), res.Pairs...)
	tampered[0].ObjectID, tampered[5].ObjectID = tampered[5].ObjectID, tampered[0].ObjectID
	if err := solver.Verify(tampered); err == nil {
		t.Error("Verify should reject a tampered matching")
	}
}

func TestGenerators(t *testing.T) {
	for _, kind := range []Distribution{Independent, Correlated, AntiCorrelated} {
		objs := GenerateObjects(kind, 100, 3, 1)
		if len(objs) != 100 || len(objs[0].Attributes) != 3 {
			t.Fatalf("%s: wrong shape", kind)
		}
	}
	if got := GenerateObjects(ZillowLike, 64, 99, 1); len(got) != 64 || len(got[0].Attributes) != 5 {
		t.Error("zillow generator must produce 5 attributes")
	}
	if got := GenerateObjects(NBALike, 64, 99, 1); len(got) != 64 || len(got[0].Attributes) != 5 {
		t.Error("nba generator must produce 5 attributes")
	}
	funcs := GenerateFunctions(10, 4, 2)
	for _, f := range funcs {
		sum := 0.0
		for _, w := range f.Weights {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("function %d weights sum to %v", f.ID, sum)
		}
	}
}

// TestStabilityPropertyQuick is the top-level property test: for random
// instances, the solver output always satisfies Definition 1.
func TestStabilityPropertyQuick(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		no, nf := 2+r.Intn(60), 2+r.Intn(30)
		dims := 2 + r.Intn(3)
		objects := GenerateObjects(Independent, no, dims, seed)
		functions := GenerateFunctions(nf, dims, seed+1)
		// Random capacities and priorities.
		for i := range functions {
			if r.Intn(2) == 0 {
				functions[i].Capacity = 1 + r.Intn(3)
			}
			if r.Intn(2) == 0 {
				functions[i].Gamma = float64(1 + r.Intn(4))
			}
		}
		solver, err := NewSolver(objects, functions, Options{})
		if err != nil {
			return false
		}
		res, err := solver.Solve()
		if err != nil {
			return false
		}
		return solver.Verify(res.Pairs) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolveOnCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	objPath := filepath.Join(dir, "objects.csv")
	funcPath := filepath.Join(dir, "functions.csv")
	objects := GenerateObjects(Independent, 80, 3, 11)
	functions := GenerateFunctions(25, 3, 12)
	if err := SaveObjectsCSV(objPath, objects); err != nil {
		t.Fatal(err)
	}
	if err := SaveFunctionsCSV(funcPath, functions); err != nil {
		t.Fatal(err)
	}
	loadedO, err := LoadObjectsCSV(objPath)
	if err != nil {
		t.Fatal(err)
	}
	loadedF, err := LoadFunctionsCSV(funcPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(loadedO) != len(objects) || len(loadedF) != len(functions) {
		t.Fatalf("round trip lost rows: %d/%d objects, %d/%d functions",
			len(loadedO), len(objects), len(loadedF), len(functions))
	}
	for i := range loadedO {
		if loadedO[i].ID != objects[i].ID {
			t.Fatal("object ids scrambled")
		}
		for d := range loadedO[i].Attributes {
			if loadedO[i].Attributes[d] != objects[i].Attributes[d] {
				t.Fatal("object attributes lost precision")
			}
		}
	}

	// Solving from loaded data must match solving from memory.
	s1, err := NewSolver(objects, functions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSolver(loadedO, loadedF, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Pairs) != len(r2.Pairs) {
		t.Fatal("pair counts differ after CSV round trip")
	}
	for i := range r1.Pairs {
		if r1.Pairs[i] != r2.Pairs[i] {
			t.Fatalf("pair %d differs after CSV round trip", i)
		}
	}
}
