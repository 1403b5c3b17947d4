package assign

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/metrics"
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

// costLine renders one run: the pair-sequence hash, then every Stats
// counter except CPUTime.
func costLine(pairs []Pair, s metrics.Stats) string {
	h := fnv.New64a()
	var buf [24]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint64(buf[0:], p.FuncID)
		binary.LittleEndian.PutUint64(buf[8:], p.ObjectID)
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.Score))
		h.Write(buf[:])
	}
	return fmt.Sprintf("hash=%016x io=%d/%d/%d/%d mem=%d loops=%d pairs=%d topk=%d sorted=%d random=%d nodes=%d",
		h.Sum64(), s.IO.LogicalReads, s.IO.PhysicalReads, s.IO.LogicalWrites, s.IO.PhysicalWrites,
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
