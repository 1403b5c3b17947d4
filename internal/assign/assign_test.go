package assign

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fairassign/internal/geom"
)

// randProblem builds a random assignment instance with continuous
// coordinates (ties have measure zero), so the stable matching is unique
// and every algorithm must produce the identical pair multiset.
func randProblem(rng *rand.Rand, nf, no, dims int) *Problem {
	p := &Problem{Dims: dims}
	for i := 0; i < no; i++ {
		pt := make(geom.Point, dims)
		for d := range pt {
			pt[d] = rng.Float64()
		}
		p.Objects = append(p.Objects, Object{ID: uint64(i + 1), Point: pt})
	}
	for i := 0; i < nf; i++ {
		w := make([]float64, dims)
		sum := 0.0
		for d := range w {
			w[d] = rng.Float64()
			sum += w[d]
		}
		for d := range w {
			w[d] /= sum
		}
		p.Functions = append(p.Functions, Function{ID: uint64(i + 1), Weights: w})
	}
	return p
}

// canonical sorts pairs for comparison.
func canonical(pairs []Pair) []Pair {
	out := make([]Pair, len(pairs))
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

func samePairs(t *testing.T, name string, got, want []Pair) {
	t.Helper()
	g, w := canonical(got), canonical(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d pairs, want %d", name, len(g), len(w))
	}
	for i := range g {
		if g[i].FuncID != w[i].FuncID || g[i].ObjectID != w[i].ObjectID {
			t.Fatalf("%s: pair %d = (f%d,o%d), want (f%d,o%d)",
				name, i, g[i].FuncID, g[i].ObjectID, w[i].FuncID, w[i].ObjectID)
		}
		if math.Abs(g[i].Score-w[i].Score) > 1e-9 {
			t.Fatalf("%s: pair %d score %v, want %v", name, i, g[i].Score, w[i].Score)
		}
	}
}

// algorithms under test, all expected to produce the oracle matching.
var allAlgorithms = []struct {
	name string
	run  func(*Problem, Config) (*Result, error)
}{
	{"SB", SB},
	{"SBBasic", SBBasic},
	{"SBDeltaSky", SBDeltaSky},
	{"BruteForce", BruteForce},
	{"Chain", Chain},
	{"SBAlt", SBAlt},
	{"SBTwoSkylines", SBTwoSkylines},
}

func testCfg() Config {
	return Config{PageSize: 512, BufferFrac: 0.1, OmegaFrac: 0.05}
}

func TestAllAlgorithmsMatchOracleSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randProblem(rng, 40, 40, 3)
	want, err := Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) != 40 {
		t.Fatalf("oracle produced %d pairs, want 40", len(want.Pairs))
	}
	for _, alg := range allAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			got, err := alg.run(p, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, alg.name, got.Pairs, want.Pairs)
			if err := IsStable(p, got.Pairs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllAlgorithmsMoreObjectsThanFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randProblem(rng, 15, 120, 2)
	want, err := Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) != 15 {
		t.Fatalf("oracle pairs = %d, want 15", len(want.Pairs))
	}
	for _, alg := range allAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			got, err := alg.run(p, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, alg.name, got.Pairs, want.Pairs)
		})
	}
}

func TestAllAlgorithmsMoreFunctionsThanObjects(t *testing.T) {
	// Section 1: "the case where F is larger than O" — only |O| pairs
	// can be formed.
	rng := rand.New(rand.NewSource(3))
	p := randProblem(rng, 80, 12, 3)
	want, err := Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) != 12 {
		t.Fatalf("oracle pairs = %d, want 12", len(want.Pairs))
	}
	for _, alg := range allAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			got, err := alg.run(p, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, alg.name, got.Pairs, want.Pairs)
		})
	}
}

func TestGaleShapleyAgreesWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		nf, no := 1+rng.Intn(40), 1+rng.Intn(40)
		p := randProblem(rng, nf, no, 2+rng.Intn(3))
		want, err := Oracle(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GaleShapley(p)
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, fmt.Sprintf("GS trial %d (|F|=%d,|O|=%d)", trial, nf, no), got.Pairs, want.Pairs)
	}
}

func TestRandomizedAlgorithmEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized sweep")
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		dims := 2 + rng.Intn(3)
		nf, no := 1+rng.Intn(50), 1+rng.Intn(50)
		p := randProblem(rng, nf, no, dims)
		want, err := Oracle(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range allAlgorithms {
			got, err := alg.run(p, testCfg())
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg.name, err)
			}
			samePairs(t, fmt.Sprintf("trial %d %s (|F|=%d,|O|=%d,D=%d)", trial, alg.name, nf, no, dims),
				got.Pairs, want.Pairs)
		}
	}
}

func TestFunctionCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := randProblem(rng, 10, 80, 3)
	for i := range p.Functions {
		p.Functions[i].Capacity = 1 + rng.Intn(4)
	}
	want, err := Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	demand := 0
	for _, f := range p.Functions {
		demand += f.Capacity
	}
	if int(want.Stats.Pairs) != demand {
		t.Fatalf("oracle pairs = %d, want total func capacity %d", want.Stats.Pairs, demand)
	}
	for _, alg := range allAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			got, err := alg.run(p, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, alg.name, got.Pairs, want.Pairs)
			if err := IsStable(p, got.Pairs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestObjectCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randProblem(rng, 60, 12, 3)
	for i := range p.Objects {
		p.Objects[i].Capacity = 1 + rng.Intn(5)
	}
	want, err := Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			got, err := alg.run(p, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, alg.name, got.Pairs, want.Pairs)
		})
	}
}

func TestBothSidesCapacitated(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := randProblem(rng, 25, 25, 2)
	for i := range p.Functions {
		p.Functions[i].Capacity = 1 + rng.Intn(3)
	}
	for i := range p.Objects {
		p.Objects[i].Capacity = 1 + rng.Intn(3)
	}
	want, err := Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			got, err := alg.run(p, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, alg.name, got.Pairs, want.Pairs)
		})
	}
}

func TestPriorities(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randProblem(rng, 30, 60, 3)
	gammas := []float64{1, 2, 4, 8}
	for i := range p.Functions {
		p.Functions[i].Gamma = gammas[rng.Intn(len(gammas))]
	}
	want, err := Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			got, err := alg.run(p, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, alg.name, got.Pairs, want.Pairs)
		})
	}
}

func TestPrioritiesGiveHighGammaFirstPick(t *testing.T) {
	// Two identical-weight users competing for one great object: the
	// higher-priority user must win it.
	p := &Problem{
		Dims: 2,
		Objects: []Object{
			{ID: 1, Point: geom.Point{0.9, 0.9}},
			{ID: 2, Point: geom.Point{0.3, 0.3}},
		},
		Functions: []Function{
			{ID: 1, Weights: []float64{0.5, 0.5}, Gamma: 1},
			{ID: 2, Weights: []float64{0.5, 0.5}, Gamma: 4},
		},
	}
	res, err := SB(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	byFunc := map[uint64]uint64{}
	for _, pr := range res.Pairs {
		byFunc[pr.FuncID] = pr.ObjectID
	}
	if byFunc[2] != 1 || byFunc[1] != 2 {
		t.Fatalf("priority user should win the good object: %v", res.Pairs)
	}
}

func TestPaperFigure1Assignment(t *testing.T) {
	// Figure 1: (f1,c), then (f2,b), then (f3,a).
	p := &Problem{
		Dims: 2,
		Objects: []Object{
			{ID: 1, Point: geom.Point{0.5, 0.6}}, // a
			{ID: 2, Point: geom.Point{0.2, 0.7}}, // b
			{ID: 3, Point: geom.Point{0.8, 0.2}}, // c
			{ID: 4, Point: geom.Point{0.4, 0.4}}, // d
		},
		Functions: []Function{
			{ID: 1, Weights: []float64{0.8, 0.2}}, // f1
			{ID: 2, Weights: []float64{0.2, 0.8}}, // f2
			{ID: 3, Weights: []float64{0.5, 0.5}}, // f3
		},
	}
	want := map[uint64]uint64{1: 3, 2: 2, 3: 1} // f1→c, f2→b, f3→a
	for _, alg := range allAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			got, err := alg.run(p, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Pairs) != 3 {
				t.Fatalf("pairs = %d, want 3", len(got.Pairs))
			}
			for _, pr := range got.Pairs {
				if want[pr.FuncID] != pr.ObjectID {
					t.Errorf("f%d assigned o%d, want o%d", pr.FuncID, pr.ObjectID, want[pr.FuncID])
				}
			}
			// The first stable pair has the highest score: f1(c) = 0.68.
			if math.Abs(got.Pairs[0].Score-0.68) > 1e-12 || got.Pairs[0].FuncID != 1 {
				t.Errorf("first pair = %+v, want (f1,c,0.68)", got.Pairs[0])
			}
		})
	}
}

func TestIdenticalFunctionsAndObjects(t *testing.T) {
	// Duplicates must not break anything (Section 6.1 notes algorithms
	// make no distinctiveness assumptions).
	p := &Problem{Dims: 2}
	for i := 0; i < 6; i++ {
		p.Objects = append(p.Objects, Object{ID: uint64(i + 1), Point: geom.Point{0.5, 0.5}})
		p.Functions = append(p.Functions, Function{ID: uint64(i + 1), Weights: []float64{0.5, 0.5}})
	}
	want, err := Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			got, err := alg.run(p, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Pairs) != len(want.Pairs) {
				t.Fatalf("pairs = %d, want %d", len(got.Pairs), len(want.Pairs))
			}
			if err := IsStable(p, got.Pairs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSingletonProblem(t *testing.T) {
	p := &Problem{
		Dims:      2,
		Objects:   []Object{{ID: 7, Point: geom.Point{0.3, 0.9}}},
		Functions: []Function{{ID: 9, Weights: []float64{0.6, 0.4}}},
	}
	for _, alg := range allAlgorithms {
		got, err := alg.run(p, testCfg())
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if len(got.Pairs) != 1 || got.Pairs[0].FuncID != 9 || got.Pairs[0].ObjectID != 7 {
			t.Fatalf("%s: pairs = %v", alg.name, got.Pairs)
		}
	}
}

func TestEmptySides(t *testing.T) {
	noFuncs := &Problem{Dims: 2, Objects: []Object{{ID: 1, Point: geom.Point{0.1, 0.2}}}}
	noObjs := &Problem{Dims: 2, Functions: []Function{{ID: 1, Weights: []float64{0.5, 0.5}}}}
	for _, alg := range allAlgorithms {
		for _, p := range []*Problem{noFuncs, noObjs} {
			got, err := alg.run(p, testCfg())
			if err != nil {
				t.Fatalf("%s: %v", alg.name, err)
			}
			if len(got.Pairs) != 0 {
				t.Fatalf("%s: expected no pairs, got %v", alg.name, got.Pairs)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []*Problem{
		{Dims: 0},
		{Dims: 2, Objects: []Object{{ID: 1, Point: geom.Point{0.5}}}},
		{Dims: 2, Functions: []Function{{ID: 1, Weights: []float64{0.5}}}},
		{Dims: 2, Functions: []Function{{ID: 1, Weights: []float64{-0.1, 1.1}}}},
		{Dims: 1, Objects: []Object{{ID: 1, Point: geom.Point{0.5}}, {ID: 1, Point: geom.Point{0.6}}}},
		{Dims: 1, Functions: []Function{{ID: 2, Weights: []float64{1}}, {ID: 2, Weights: []float64{1}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestIsStableDetectsBlockingPair(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := randProblem(rng, 10, 10, 2)
	res, err := Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := IsStable(p, res.Pairs); err != nil {
		t.Fatalf("oracle output should be stable: %v", err)
	}
	// Swap two partners: almost surely creates a blocking pair.
	broken := canonical(res.Pairs)
	broken[0].ObjectID, broken[1].ObjectID = broken[1].ObjectID, broken[0].ObjectID
	// Recompute scores for honesty.
	find := func(fid uint64) Function {
		for _, f := range p.Functions {
			if f.ID == fid {
				return f
			}
		}
		t.Fatal("missing function")
		return Function{}
	}
	findO := func(oid uint64) Object {
		for _, o := range p.Objects {
			if o.ID == oid {
				return o
			}
		}
		t.Fatal("missing object")
		return Object{}
	}
	for i := range broken[:2] {
		broken[i].Score = find(broken[i].FuncID).Score(findO(broken[i].ObjectID).Point)
	}
	if err := IsStable(p, broken); err == nil {
		t.Fatal("IsStable should detect the swap")
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randProblem(rng, 30, 200, 3)
	res, err := SB(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pairs != 30 {
		t.Errorf("Pairs = %d, want 30", res.Stats.Pairs)
	}
	if res.Stats.Loops == 0 {
		t.Error("Loops not counted")
	}
	if res.Stats.IO.Accesses() == 0 {
		t.Error("I/O not counted")
	}
	if res.Stats.PeakMem == 0 {
		t.Error("PeakMem not tracked")
	}
	if res.Stats.TASorted == 0 || res.Stats.TARandom == 0 {
		t.Error("TA counters not tracked")
	}
	if res.Stats.CPUTime <= 0 {
		t.Error("CPU time not measured")
	}
}

func TestSBMultiPairEmitsFasterThanBasic(t *testing.T) {
	// Section 5.3: multi-pair emission must need far fewer loops than the
	// single-pair Algorithm 1.
	rng := rand.New(rand.NewSource(12))
	p := randProblem(rng, 60, 300, 3)
	opt, err := SB(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	basic, err := SBBasic(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if basic.Stats.Loops != 60 {
		t.Errorf("single-pair SB should loop once per pair: %d loops", basic.Stats.Loops)
	}
	if opt.Stats.Loops >= basic.Stats.Loops {
		t.Errorf("multi-pair SB used %d loops, basic used %d", opt.Stats.Loops, basic.Stats.Loops)
	}
}

func TestSBIOFarBelowBruteForce(t *testing.T) {
	// The headline result (Fig. 9): SB incurs orders of magnitude less
	// I/O. At test scale we just require a decisive gap.
	rng := rand.New(rand.NewSource(13))
	p := randProblem(rng, 100, 2000, 3)
	cfg := Config{PageSize: 512, BufferFrac: 0.02, OmegaFrac: 0.025}
	sb, err := SB(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := BruteForce(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "SBvsBF", sb.Pairs, bf.Pairs)
	if sb.Stats.IO.Accesses()*2 > bf.Stats.IO.Accesses() {
		t.Errorf("SB I/O = %d should be well below Brute Force I/O = %d",
			sb.Stats.IO.Accesses(), bf.Stats.IO.Accesses())
	}
}
