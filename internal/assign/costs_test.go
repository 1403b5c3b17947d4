package assign

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/metrics"
	"fairassign/internal/score"
)

// sbFamilyCostWant pins, per instance and algorithm, the pair sequence
// (an FNV-1a hash over IDs and score bits in emission order) and every
// metrics.Stats field except CPUTime. The SB family shares one pairing
// step (Lines 12–17); these constants make any change to its output,
// emission order, I/O order or counters fail loudly. They were recorded
// on amd64, where the compiler never fuses a multiply-add, so score bits
// follow the written expressions.
var sbFamilyCostWant = map[string]string{
	"caps-gamma/SB":            "hash=d3eb9c72221be970 io=24/24/0/0 mem=28416 loops=40 pairs=77 topk=1734 sorted=22046 random=3381 nodes=24",
	"caps-gamma/SBBasic":       "hash=60c21901a7e8e5ec io=24/24/0/0 mem=10480 loops=77 pairs=77 topk=3490 sorted=192862 random=23494 nodes=24",
	"caps-gamma/SBDeltaSky":    "hash=60c21901a7e8e5ec io=595/595/0/0 mem=6880 loops=77 pairs=77 topk=3490 sorted=192862 random=23494 nodes=595",
	"caps-gamma/SBDiskFuncs":   "hash=d3eb9c72221be970 io=29303/20625/0/0 mem=28416 loops=40 pairs=77 topk=1734 sorted=22046 random=7233 nodes=24",
	"caps-gamma/SBAlt":         "hash=d3eb9c72221be970 io=5117/2552/0/0 mem=12880 loops=40 pairs=77 topk=35 sorted=3296 random=1797 nodes=24",
	"caps-gamma/SBTwoSkylines": "hash=d3eb9c72221be970 io=24/24/0/0 mem=13408 loops=40 pairs=77 topk=0 sorted=0 random=0 nodes=24",
	"caps-gamma/Progressive":   "hash=6cd06964a1218e20 io=24/24/0/0 mem=28736 loops=40 pairs=77 topk=1734 sorted=22046 random=3381 nodes=24",
	"fig17-5d/SB":              "hash=7991000ca084a642 io=21/21/0/0 mem=331952 loops=16 pairs=100 topk=455 sorted=18882 random=17203 nodes=21",
	"fig17-5d/SBBasic":         "hash=259cc701f268421a io=21/21/0/0 mem=8624 loops=100 pairs=100 topk=3112 sorted=519741 random=450217 nodes=21",
	"fig17-5d/SBDeltaSky":      "hash=259cc701f268421a io=680/21/0/0 mem=8624 loops=100 pairs=100 topk=3112 sorted=519741 random=450217 nodes=680",
	"fig17-5d/SBDiskFuncs":     "hash=7991000ca084a642 io=89155/88155/0/0 mem=331952 loops=16 pairs=100 topk=455 sorted=18882 random=70252 nodes=21",
	"fig17-5d/SBAlt":           "hash=7991000ca084a642 io=45729/40733/0/0 mem=8624 loops=16 pairs=100 topk=16 sorted=12960 random=32748 nodes=21",
	"fig17-5d/SBTwoSkylines":   "hash=7991000ca084a642 io=21/21/0/0 mem=79136 loops=16 pairs=100 topk=0 sorted=0 random=0 nodes=21",
	"fig17-5d/Progressive":     "hash=367f959fb39855ae io=21/21/0/0 mem=387616 loops=16 pairs=100 topk=455 sorted=18882 random=17203 nodes=21",
	"anti-2d/SB":               "hash=abae72f14ab077b4 io=38/38/0/0 mem=67472 loops=41 pairs=80 topk=3592 sorted=25259 random=4136 nodes=38",
	"anti-2d/SBBasic":          "hash=ae8dac86af38d750 io=38/38/0/0 mem=29440 loops=80 pairs=80 topk=7093 sorted=170754 random=12128 nodes=38",
	"anti-2d/SBDeltaSky":       "hash=ae8dac86af38d750 io=411/299/0/0 mem=29376 loops=80 pairs=80 topk=7093 sorted=170754 random=12128 nodes=411",
	"anti-2d/SBDiskFuncs":      "hash=abae72f14ab077b4 io=29595/11586/0/0 mem=67472 loops=41 pairs=80 topk=3592 sorted=25259 random=4298 nodes=38",
	"anti-2d/SBAlt":            "hash=abae72f14ab077b4 io=4001/1529/0/0 mem=32240 loops=41 pairs=80 topk=41 sorted=3168 random=795 nodes=38",
	"anti-2d/SBTwoSkylines":    "hash=abae72f14ab077b4 io=38/38/0/0 mem=35696 loops=41 pairs=80 topk=0 sorted=0 random=0 nodes=38",
	"anti-2d/Progressive":      "hash=0c63133ab78629b0 io=38/38/0/0 mem=68328 loops=41 pairs=80 topk=3592 sorted=25259 random=4136 nodes=38",
}

// costInstances are the three fixed instances of the cost lock: one with
// function and object capacities and priorities, one in the Figure 17
// setting (5-D, |F| ≫ |O|, function lists behind a 2% buffer), and one
// 2-D anti-correlated instance with a wide skyline.
func costInstances() []struct {
	name string
	p    *Problem
	cfg  Config
} {
	rng := rand.New(rand.NewSource(1701))
	caps := randProblem(rng, 40, 300, 3)
	for i := range caps.Functions {
		caps.Functions[i].Capacity = 1 + rng.Intn(3)
		caps.Functions[i].Gamma = float64(1 + rng.Intn(4))
	}
	for i := range caps.Objects {
		caps.Objects[i].Capacity = 1 + rng.Intn(2)
	}

	fig17 := randProblem(rand.New(rand.NewSource(1702)), 1500, 100, 5)

	anti := randProblem(rand.New(rand.NewSource(1703)), 80, 0, 2)
	arng := rand.New(rand.NewSource(1704))
	for i := 0; i < 600; i++ {
		v, s := arng.Float64(), 0.95+0.1*arng.Float64()
		pt := geom.Point{math.Min(1, s*v), math.Min(1, s*(1-v))}
		anti.Objects = append(anti.Objects, Object{ID: uint64(i + 1), Point: pt})
	}

	return []struct {
		name string
		p    *Problem
		cfg  Config
	}{
		{"caps-gamma", caps, testCfg()},
		{"fig17-5d", fig17, Config{PageSize: 512, BufferFrac: 1, FuncBufferFrac: 0.02}},
		{"anti-2d", anti, testCfg()},
	}
}

// pairHash is an FNV-1a hash over the pairs' IDs and score bits, in
// slice order.
func pairHash(pairs []Pair) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint64(buf[0:], p.FuncID)
		binary.LittleEndian.PutUint64(buf[8:], p.ObjectID)
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.Score))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// costLine renders one run: the pair-sequence hash, then every Stats
// counter except CPUTime.
func costLine(pairs []Pair, s metrics.Stats) string {
	return fmt.Sprintf("hash=%016x io=%d/%d/%d/%d mem=%d loops=%d pairs=%d topk=%d sorted=%d random=%d nodes=%d",
		pairHash(pairs), s.IO.LogicalReads, s.IO.PhysicalReads, s.IO.LogicalWrites, s.IO.PhysicalWrites,
		s.PeakMem, s.Loops, s.Pairs, s.TopKRuns, s.TASorted, s.TARandom, s.NodeReads)
}

// TestSBFamilyCostsUnchanged locks the SB family's outputs and cost
// counters on three fixed instances against constants recorded before
// the family's pairing step was shared.
func TestSBFamilyCostsUnchanged(t *testing.T) {
	progressive := func(p *Problem, cfg Config) (*Result, error) {
		g, err := NewProgressive(p, cfg)
		if err != nil {
			return nil, err
		}
		pairs := drain(t, g)
		return &Result{Pairs: pairs, Stats: g.Stats()}, nil
	}
	algs := []struct {
		name string
		run  func(*Problem, Config) (*Result, error)
	}{
		{"SB", SB},
		{"SBBasic", SBBasic},
		{"SBDeltaSky", SBDeltaSky},
		{"SBDiskFuncs", SBDiskFuncs},
		{"SBAlt", SBAlt},
		{"SBTwoSkylines", SBTwoSkylines},
		{"Progressive", progressive},
	}
	for _, in := range costInstances() {
		for _, alg := range algs {
			key := in.name + "/" + alg.name
			res, err := alg.run(in.p, in.cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := costLine(res.Pairs, res.Stats); got != sbFamilyCostWant[key] {
				t.Errorf("%s:\n got  %s\n want %s", key, got, sbFamilyCostWant[key])
			}
		}
	}
}

// workspaceRepairWant pins, per instance, the hash of Pairs() (pairHash
// over the definitional order) after each Apply batch of the instance's
// script, then the final repair counters, so any change to which
// function takes a vacancy — exact ties included — fails here. I/O is
// left out: the function side has no pages to count.
//
// The mixed-3d and independent-4d constants were recorded when the
// reverse search still ran over a function R-tree (linear functions)
// plus columnar blocks (the rest). The ties-2d constants were recorded
// when the build first found each skyline object's best function with
// a FuncBlocks pass: the build then broke exact ties by (score,
// function ID, object ID), as repair does, where the TA searches it
// used before broke them in scan order. Its matching after batches 1–9
// changed to Oracle's, and the chain and search counters fell by 3.
var workspaceRepairWant = map[string]struct {
	hashes []string
	stats  string
}{
	"ties-2d": {
		hashes: []string{"646c8b58bb26e61d", "26708979753f202c", "252aa715430e68c8", "252aa715430e68c8", "a577776c0b2d9fc9", "dfa81370a345d6b3", "846f3eab3b137cda", "dae702d11bde1c83",
			"1346695d1279020a", "a8bc3f5d49733acd", "338210806f11bb1e", "663ec780a911bfd1", "7ef409a53058efa6", "3254a8f0cd66c946", "af9090c744857236", "a50867acb62684ee"},
		stats: "chain=172 searches=212 mutations=50 commits=17 units=42 skyline=6",
	},
	"mixed-3d": {
		hashes: []string{"39c8c53f43372293", "6a249571936bb4b0", "29952e05f4d9e6b4", "30578dbb60d6641c", "bc96530c12db963d", "5252c3a74a8c96b5", "68e4339c79d9c815", "37f09f705d3bf4f9",
			"c2542073c8c958e0", "4caca2d16977d5bc", "4caca2d16977d5bc", "312a014e4735adf3", "312a014e4735adf3", "312a014e4735adf3", "e0af37371fa8d4b7", "deb5f96a3a72a9c3"},
		stats: "chain=75 searches=101 mutations=36 commits=17 units=39 skyline=26",
	},
	"independent-4d": {
		hashes: []string{"6b9cd5d2a72c44a7", "080961a71225d70d", "e99fc3a4bf237a32", "7b0abe6ca5cea049", "988b18a490d08ad0", "8ecae5943c90fbf4", "8ecae5943c90fbf4", "30460cae3a5bd449",
			"50dc7447c6f9dd57", "6f08b2c2b6a242ca", "ad3ec0b8306934ad", "ad3ec0b8306934ad", "bc680cc4fbf7de02", "339c9617831a913d", "8e656bdf2a9c197f", "23b88fbdf3ac3e40"},
		stats: "chain=33 searches=51 mutations=35 commits=17 units=16 skyline=127",
	},
}

// repairScript draws a fixed mutation script against a model of the
// live IDs, so the script does not depend on the matching it tests.
type repairScript struct {
	rng         *rand.Rand
	objs, funcs []uint64 // live IDs
	next        uint64   // last ID handed out
	newObj      func(rng *rand.Rand, id uint64) Object
	newFunc     func(rng *rand.Rand, id uint64) Function
}

// batch draws n mutations: arrivals on both sides (an arriving object
// pulls a taker, which can cascade vacancies) and departures (a
// departing function's objects become vacancies).
func (s *repairScript) batch(n int) []Mutation {
	take := func(ids *[]uint64) uint64 {
		i := s.rng.Intn(len(*ids))
		id := (*ids)[i]
		(*ids)[i] = (*ids)[len(*ids)-1]
		*ids = (*ids)[:len(*ids)-1]
		return id
	}
	muts := make([]Mutation, n)
	for i := range muts {
		switch r := s.rng.Intn(10); {
		case r < 4:
			s.next++
			o := s.newObj(s.rng, s.next)
			s.objs = append(s.objs, o.ID)
			muts[i] = Mutation{Kind: MutAddObject, Object: o}
		case r < 6 && len(s.objs) > 1:
			muts[i] = Mutation{Kind: MutRemoveObject, ID: take(&s.objs)}
		case r < 8 || len(s.funcs) < 2:
			s.next++
			f := s.newFunc(s.rng, s.next)
			s.funcs = append(s.funcs, f.ID)
			muts[i] = Mutation{Kind: MutAddFunction, Function: f}
		default:
			muts[i] = Mutation{Kind: MutRemoveFunction, ID: take(&s.funcs)}
		}
	}
	return muts
}

// repairInstances are the three fixed instances of the repair lock: a
// tie-heavy 2-D instance, a 3-D instance mixing every scoring family,
// and the serve workload's 4-D independent shape, scaled down.
func repairInstances() []struct {
	name string
	p    *Problem
	s    *repairScript
} {
	// 2-D, tie-heavy: coordinates on a 1/16 grid and weights from four
	// dyadic profiles, so every score is exact. Functions sharing a
	// profile score every object identically, and on the diagonal
	// (x == y) every function of one γ does.
	profiles := [][]float64{{0.125, 0.875}, {0.375, 0.625}, {0.5, 0.5}, {0.75, 0.25}}
	tieObj := func(rng *rand.Rand, id uint64) Object {
		x, y := float64(rng.Intn(17))/16, float64(rng.Intn(17))/16
		if rng.Intn(3) == 0 {
			y = x
		}
		o := Object{ID: id, Point: geom.Point{x, y}}
		if rng.Intn(4) == 0 {
			o.Capacity = 2
		}
		return o
	}
	tieFunc := func(rng *rand.Rand, id uint64) Function {
		f := Function{ID: id, Weights: slices.Clone(profiles[rng.Intn(len(profiles))])}
		if rng.Intn(3) == 0 {
			f.Capacity = 2
		}
		if rng.Intn(4) == 0 {
			f.Gamma = 2
		}
		return f
	}

	// 3-D, mixed families: linear, OWA, minimax, Chebyshev and Lp. The
	// fixed pairs 7/8 and 20/21 put an OWA "best attribute" function next
	// to a linear (1,0,0) one (in both ID orders); the two tie on every
	// object whose first attribute is its largest.
	mixObj := func(rng *rand.Rand, id uint64) Object {
		return Object{ID: id, Point: geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}}
	}
	mixFunc := func(rng *rand.Rand, id uint64) Function {
		w := geom.Point{0.05 + rng.Float64(), 0.05 + rng.Float64(), 0.05 + rng.Float64()}
		sum := w[0] + w[1] + w[2]
		for d := range w {
			w[d] /= sum
		}
		f := Function{ID: id, Weights: w}
		switch rng.Intn(6) {
		case 1:
			f.Fam = score.Family{Kind: score.OWA}
		case 2:
			f.Fam, f.Weights = score.Family{Kind: score.OWA}, score.MinimaxWeights(3)
		case 3:
			f.Fam = score.Family{Kind: score.Chebyshev}
		case 4:
			f.Fam = score.Family{Kind: score.Lp, P: 2}
		case 5:
			f.Fam = score.Family{Kind: score.Lp, P: 3}
		}
		if rng.Intn(3) == 0 {
			f.Capacity = 2
		}
		return f
	}

	// 4-D, independent: the serve workload's shape (many more objects
	// than functions, unit capacities, weights bounded away from zero).
	indObj := func(rng *rand.Rand, id uint64) Object {
		pt := make(geom.Point, 4)
		for d := range pt {
			pt[d] = rng.Float64()
		}
		return Object{ID: id, Point: pt}
	}
	indFunc := func(rng *rand.Rand, id uint64) Function {
		w := make([]float64, 4)
		sum := 0.0
		for d := range w {
			w[d] = 0.05 + rng.Float64()
			sum += w[d]
		}
		for d := range w {
			w[d] /= sum
		}
		return Function{ID: id, Weights: w}
	}

	build := func(seed int64, dims, nf, no int, newObj func(*rand.Rand, uint64) Object, newFunc func(*rand.Rand, uint64) Function) (*Problem, *repairScript) {
		rng := rand.New(rand.NewSource(seed))
		s := &repairScript{rng: rng, newObj: newObj, newFunc: newFunc}
		p := &Problem{Dims: dims}
		for i := 0; i < nf; i++ {
			s.next++
			p.Functions = append(p.Functions, newFunc(rng, s.next))
			s.funcs = append(s.funcs, s.next)
		}
		for i := 0; i < no; i++ {
			s.next++
			p.Objects = append(p.Objects, newObj(rng, s.next))
			s.objs = append(s.objs, s.next)
		}
		return p, s
	}
	tieP, tieS := build(1801, 2, 24, 90, tieObj, tieFunc)
	mixP, mixS := build(1802, 3, 30, 120, mixObj, mixFunc)
	best := score.Family{Kind: score.OWA}
	mixP.Functions[6] = Function{ID: 7, Weights: []float64{1, 0, 0}}
	mixP.Functions[7] = Function{ID: 8, Weights: score.BestWeights(3), Fam: best}
	mixP.Functions[19] = Function{ID: 20, Weights: score.BestWeights(3), Fam: best}
	mixP.Functions[20] = Function{ID: 21, Weights: []float64{1, 0, 0}}
	indP, indS := build(1803, 4, 12, 1200, indObj, indFunc)

	return []struct {
		name string
		p    *Problem
		s    *repairScript
	}{
		{"ties-2d", tieP, tieS},
		{"mixed-3d", mixP, mixS},
		{"independent-4d", indP, indS},
	}
}

// TestWorkspaceRepairUnchanged drives three fixed instances through a
// fixed Apply script and locks the matching after every batch, and the
// repair counters at the end. After every batch the matching must also
// be Oracle's, pair for pair in the definitional order: the build and
// repair break exact ties as the definition does.
func TestWorkspaceRepairUnchanged(t *testing.T) {
	const batches = 16
	for _, in := range repairInstances() {
		w, err := NewWorkspace(in.p, testCfg())
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		want := workspaceRepairWant[in.name]
		var got []string
		for b := 0; b < batches; b++ {
			if err := w.Apply(in.s.batch(1 + in.s.rng.Intn(4))); err != nil {
				t.Fatalf("%s batch %d: %v", in.name, b, err)
			}
			pairs := w.Pairs()
			got = append(got, fmt.Sprintf("%016x", pairHash(pairs)))
			oracle, err := Oracle(w.ProblemSnapshot())
			if err != nil {
				t.Fatalf("%s batch %d: oracle: %v", in.name, b, err)
			}
			sortPairsDefinitional(oracle.Pairs)
			if !slices.Equal(pairs, oracle.Pairs) {
				t.Errorf("%s batch %d: matching differs from Oracle's\n got  %v\n want %v", in.name, b, pairs, oracle.Pairs)
			}
		}
		st := w.Stats()
		stats := fmt.Sprintf("chain=%d searches=%d mutations=%d commits=%d units=%d skyline=%d",
			st.ChainSteps, st.Searches, st.Mutations, st.Commits, st.AssignedUnits, st.SkylineSize)
		w.Close()
		if !slices.Equal(got, want.hashes) {
			t.Errorf("%s: pair hashes per batch\n got  %q\n want %q", in.name, got, want.hashes)
		}
		if stats != want.stats {
			t.Errorf("%s:\n got  %s\n want %s", in.name, stats, want.stats)
		}
	}
}
