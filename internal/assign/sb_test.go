package assign

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fairassign/internal/score"
)

// TestBlockSourceMatchesTA runs Algorithm 3's loop with SB's resumable
// TA searches and with the Workspace build's FuncBlocks passes on
// tie-free instances: random attributes and weights in 2–5 dimensions,
// every scoring family, zero weights, priorities above 1 and capacities
// above 1 on both sides, with functions outnumbering objects in some
// instances. Without ties both sources find the same best function for
// every skyline object, so the two runs must emit the same pairs in the
// same order and search as many times.
func TestBlockSourceMatchesTA(t *testing.T) {
	fams := []score.Family{
		{},
		{Kind: score.OWA},
		{Kind: score.Chebyshev},
		{Kind: score.Lp, P: 1},
		{Kind: score.Lp, P: 2},
		{Kind: score.Lp, P: 3},
	}
	run := func(p *Problem, v sbVariant) *Result {
		st, err := newSolveState(p, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		defer st.release()
		res, err := st.runSB(v)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(2800 + seed))
		dims := 2 + rng.Intn(4)
		nf, no := 5+rng.Intn(60), 20+rng.Intn(300)
		if seed%4 == 0 {
			nf, no = no, nf
		}
		p := randProblem(rng, nf, no, dims)
		for i := range p.Functions {
			f := &p.Functions[i]
			f.Fam = fams[rng.Intn(len(fams))]
			if rng.Intn(3) == 0 {
				f.Weights[rng.Intn(dims)] = 0
			}
			f.Gamma = float64(1 + rng.Intn(3))
			f.Capacity = 1 + rng.Intn(3)
		}
		for i := range p.Objects {
			p.Objects[i].Capacity = 1 + rng.Intn(2)
		}
		ta, blocks := run(p, sbOptimized), run(p, sbBlocks)
		if !slices.Equal(ta.Pairs, blocks.Pairs) {
			t.Errorf("seed %d: pair sequences differ\n TA     %v\n blocks %v", seed, ta.Pairs, blocks.Pairs)
		}
		if ta.Stats.TopKRuns != blocks.Stats.TopKRuns || ta.Stats.Loops != blocks.Stats.Loops {
			t.Errorf("seed %d: TA ran %d searches in %d loops, blocks %d in %d",
				seed, ta.Stats.TopKRuns, ta.Stats.Loops, blocks.Stats.TopKRuns, blocks.Stats.Loops)
		}
	}
}

// BenchmarkWorkspaceBuild times NewWorkspace, default config, on
// independent 4-D data with normalized linear functions: at the serve
// workload's shape (100k objects × 1,000 functions) and at a
// function-heavy one (20k × 5,000).
func BenchmarkWorkspaceBuild(b *testing.B) {
	for _, sz := range []struct{ objects, funcs int }{{100_000, 1_000}, {20_000, 5_000}} {
		b.Run(fmt.Sprintf("objects=%d/functions=%d", sz.objects, sz.funcs), func(b *testing.B) {
			p := randProblem(rand.New(rand.NewSource(11)), sz.funcs, sz.objects, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := NewWorkspace(p, Config{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				w.Close()
				b.StartTimer()
			}
		})
	}
}
