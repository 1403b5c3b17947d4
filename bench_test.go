// Benchmarks regenerating every figure of the paper's evaluation
// (Section 7) plus ablations of the design choices called out in
// DESIGN.md. The per-figure benchmarks run the same harness as
// cmd/benchfig at a reduced scale (use the command for full-size runs and
// readable tables); the reported metric is wall-clock per full figure
// sweep.
package fairassign

import (
	"fmt"
	"testing"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/experiments"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/skyline"
	"fairassign/internal/ta"
)

// benchScale keeps a full figure sweep in the hundreds of milliseconds;
// shapes (who wins, by what factor) match the full-size runs recorded in
// EXPERIMENTS.md.
const benchScale = 0.01

func benchFigure(b *testing.B, id string) {
	b.Helper()
	params := experiments.Params{Scale: benchScale, Seed: 42}
	run := experiments.Registry[id]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08Optimizations(b *testing.B)  { benchFigure(b, "fig8") }
func BenchmarkFig09Dimensionality(b *testing.B) { benchFigure(b, "fig9") }
func BenchmarkFig10FunctionCount(b *testing.B)  { benchFigure(b, "fig10") }
func BenchmarkFig11ObjectCount(b *testing.B)    { benchFigure(b, "fig11") }
func BenchmarkFig12Clusters(b *testing.B)       { benchFigure(b, "fig12") }
func BenchmarkFig13BufferSize(b *testing.B)     { benchFigure(b, "fig13") }
func BenchmarkFig14Capacities(b *testing.B)     { benchFigure(b, "fig14") }
func BenchmarkFig15Priorities(b *testing.B)     { benchFigure(b, "fig15") }
func BenchmarkFig16RealData(b *testing.B)       { benchFigure(b, "fig16") }
func BenchmarkFig17DiskFunctions(b *testing.B)  { benchFigure(b, "fig17") }

// benchProblem builds a default anti-correlated instance.
func benchProblem(nf, no, dims int) *assign.Problem {
	return &assign.Problem{
		Dims:      dims,
		Objects:   datagen.Objects(datagen.AntiCorrelated, no, dims, 1),
		Functions: datagen.Functions(nf, dims, 2),
	}
}

// BenchmarkAlgorithms compares the end-to-end algorithms head to head on
// one default instance (the headline Fig. 9 comparison as a bench).
func BenchmarkAlgorithms(b *testing.B) {
	p := benchProblem(100, 2000, 4)
	for _, alg := range []struct {
		name string
		run  func(*assign.Problem, assign.Config) (*assign.Result, error)
	}{
		{"SB", assign.SB},
		{"BruteForce", assign.BruteForce},
		{"Chain", assign.Chain},
		{"SBAlt", assign.SBAlt},
		{"TwoSkylines", assign.SBTwoSkylines},
	} {
		b.Run(alg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.run(p, assign.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveBatch measures multi-tenant throughput: many independent
// problems solved sequentially vs concurrently.
func BenchmarkSolveBatch(b *testing.B) {
	items := make([]BatchItem, 8)
	for i := range items {
		seed := int64(300 + i)
		items[i] = BatchItem{
			Objects:   GenerateObjects(AntiCorrelated, 2000, 4, seed),
			Functions: GenerateFunctions(300, 4, seed+1),
		}
	}
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, r := range SolveBatch(items, BatchOptions{Parallelism: par}) {
					if r.Err != nil {
						b.Fatalf("item %d: %v", j, r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationOmega sweeps the Ω knob of the resumable TA search
// (Section 5.1): smaller queues save memory but force restarts.
func BenchmarkAblationOmega(b *testing.B) {
	p := benchProblem(400, 4000, 4)
	for _, omega := range []float64{0.001, 0.025, 1.0} {
		b.Run(fmt.Sprintf("omega=%g", omega), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := assign.SB(p, assign.Config{OmegaFrac: omega}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMultiPair isolates the Section 5.3 optimization:
// Algorithm 3 (multi-pair per loop) vs Algorithm 1 (single pair).
func BenchmarkAblationMultiPair(b *testing.B) {
	p := benchProblem(150, 2000, 4)
	b.Run("multi-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assign.SB(p, assign.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assign.SBBasic(p, assign.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSkylineMaintenance drains a skyline one object at a
// time under the two maintenance strategies (the Fig. 8 core).
func BenchmarkAblationSkylineMaintenance(b *testing.B) {
	items := make([]rtree.Item, 0, 4000)
	for _, o := range datagen.Objects(datagen.AntiCorrelated, 4000, 3, 7) {
		items = append(items, rtree.Item{ID: o.ID, Point: o.Point})
	}
	build := func() *rtree.Tree {
		store := pagestore.NewMemStore(4096)
		pool := pagestore.NewBufferPool(store, 1<<20)
		tr, err := rtree.BulkLoad(pool, 3, items, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	b.Run("UpdateSkyline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := skyline.NewMaintainer(build(), nil)
			if err != nil {
				b.Fatal(err)
			}
			for m.Size() > 0 {
				if err := m.Remove(m.Skyline()[0].ID); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("DeltaSky", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := skyline.NewDeltaSky(build(), nil)
			if err != nil {
				b.Fatal(err)
			}
			for d.Size() > 0 {
				if err := d.Remove(d.Skyline()[0].ID); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationPhysicalDelete contrasts physical R-tree deletion
// (delete + condense + reinsert) with the tombstoning the assignment
// algorithms use — the design decision documented in DESIGN.md.
func BenchmarkAblationPhysicalDelete(b *testing.B) {
	objs := datagen.Objects(datagen.Independent, 5000, 3, 9)
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{ID: o.ID, Point: o.Point}
	}
	b.Run("physical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store := pagestore.NewMemStore(4096)
			pool := pagestore.NewBufferPool(store, 1<<20)
			tr, err := rtree.BulkLoad(pool, 3, items, 0.9)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, it := range items[:2000] {
				if err := tr.Delete(it); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("tombstone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dead := make(map[uint64]bool, 2000)
			for _, it := range items[:2000] {
				dead[it.ID] = true
			}
			if len(dead) != 2000 {
				b.Fatal("unexpected")
			}
		}
	})
}

// BenchmarkRTree micro-benchmarks the index substrate.
func BenchmarkRTree(b *testing.B) {
	objs := datagen.Objects(datagen.Independent, 20000, 4, 3)
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{ID: o.ID, Point: o.Point}
	}
	b.Run("BulkLoad20k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store := pagestore.NewMemStore(4096)
			pool := pagestore.NewBufferPool(store, 1<<20)
			if _, err := rtree.BulkLoad(pool, 4, items, 0.9); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Insert", func(b *testing.B) {
		store := pagestore.NewMemStore(4096)
		pool := pagestore.NewBufferPool(store, 1<<20)
		tr, err := rtree.New(pool, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it := items[i%len(items)]
			it.ID = uint64(i + 1)
			if err := tr.Insert(it); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSkylineCompute measures initial BBS skyline computation.
func BenchmarkSkylineCompute(b *testing.B) {
	for _, kind := range []datagen.Kind{datagen.Independent, datagen.AntiCorrelated} {
		objs := datagen.Objects(kind, 20000, 4, 5)
		items := make([]rtree.Item, len(objs))
		for i, o := range objs {
			items[i] = rtree.Item{ID: o.ID, Point: o.Point}
		}
		store := pagestore.NewMemStore(4096)
		pool := pagestore.NewBufferPool(store, 1<<20)
		tr, err := rtree.BulkLoad(pool, 4, items, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := skyline.Compute(tr, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTAReverseTop1 measures the Section 5.1 search in isolation.
func BenchmarkTAReverseTop1(b *testing.B) {
	funcs := datagen.Functions(10000, 4, 11)
	taFuncs := make([]ta.Func, len(funcs))
	for i, f := range funcs {
		taFuncs[i] = ta.Func{ID: f.ID, Weights: f.Weights}
	}
	lists, err := ta.NewLists(taFuncs, 4)
	if err != nil {
		b.Fatal(err)
	}
	objs := datagen.Objects(datagen.AntiCorrelated, 256, 4, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := objs[i%len(objs)]
		s := ta.NewSearch(lists, o.Point, 250)
		if _, _, ok := s.Best(); !ok {
			b.Fatal("search failed")
		}
	}
}
