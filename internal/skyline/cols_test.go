package skyline

import (
	"math"
	"math/rand"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
)

func randPoint(rng *rand.Rand, dims int) geom.Point {
	p := make(geom.Point, dims)
	for d := range p {
		// Coarse grid: plenty of exact per-dimension ties and full
		// duplicates, the cases where dominance strictness matters.
		p[d] = float64(rng.Intn(8)) / 7
	}
	return p
}

// TestColSetDominanceMatchesRowwise: the blocked branch-free kernel must
// agree with geom.Point.Dominates member by member — same AnyDominates
// verdict, and FirstDominator returning the lowest dominating slot.
func TestColSetDominanceMatchesRowwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range []int{1, 2, 3, 5} {
		// Cross domBlock boundaries so the block loop's edges are hit.
		for _, n := range []int{0, 1, 7, domBlock - 1, domBlock, domBlock + 3, 3*domBlock + 17} {
			cs := NewColSet(dims)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = randPoint(rng, dims)
				cs.Append(uint64(i), pts[i])
			}
			for trial := 0; trial < 200; trial++ {
				q := randPoint(rng, dims)
				if trial%4 == 0 && n > 0 {
					q = pts[rng.Intn(n)] // exact member duplicate: never dominated by itself
				}
				want := -1
				for i, p := range pts {
					if p.Dominates(q) {
						want = i
						break
					}
				}
				if got := cs.FirstDominator(q); got != want {
					t.Fatalf("dims=%d n=%d: FirstDominator=%d rowwise=%d (q=%v)", dims, n, got, want, q)
				}
				if got := cs.AnyDominates(q); got != (want >= 0) {
					t.Fatalf("dims=%d n=%d: AnyDominates=%v rowwise=%v", dims, n, got, want >= 0)
				}
			}
		}
	}
}

// TestColSetSwapDelete: deleting members keeps kernel verdicts in sync
// with a row-wise mirror.
func TestColSetSwapDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dims, n = 3, 400
	cs := NewColSet(dims)
	type member struct {
		id uint64
		p  geom.Point
	}
	var rows []member
	for i := 0; i < n; i++ {
		p := randPoint(rng, dims)
		cs.Append(uint64(i), p)
		rows = append(rows, member{uint64(i), p})
	}
	for cs.Len() > 0 {
		i := rng.Intn(cs.Len())
		cs.SwapDelete(i)
		rows[i] = rows[len(rows)-1]
		rows = rows[:len(rows)-1]
		q := randPoint(rng, dims)
		want := false
		for _, m := range rows {
			if m.p.Dominates(q) {
				want = true
				break
			}
		}
		if got := cs.AnyDominates(q); got != want {
			t.Fatalf("after deletes (len=%d): AnyDominates=%v rowwise=%v", cs.Len(), got, want)
		}
		if cs.Len() != len(rows) {
			t.Fatalf("Len=%d mirror=%d", cs.Len(), len(rows))
		}
	}
}

// TestColSetBestMatchesBestUnder: the columnar Best must pick the same
// member with the same score bits as the row-wise BestUnder, for every
// scorer family and with exact score ties present.
func TestColSetBestMatchesBestUnder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fams := []score.Family{
		{Kind: score.Linear},
		{Kind: score.OWA},
		{Kind: score.Chebyshev},
		{Kind: score.Lp, P: 3},
	}
	for _, dims := range []int{2, 4} {
		cs := NewColSet(dims)
		var items []rtree.Item
		for i := 0; i < 500; i++ {
			p := randPoint(rng, dims)
			if i > 0 && rng.Intn(5) == 0 {
				p = items[rng.Intn(i)].Point // duplicate → exact score tie
			}
			it := rtree.Item{ID: uint64(3000 + i), Point: p}
			items = append(items, it)
			cs.Append(it.ID, it.Point)
		}
		for _, fam := range fams {
			w := make([]float64, dims)
			for d := range w {
				w[d] = rng.Float64()
			}
			sc := score.Scorer{Fam: fam, W: w}
			i, got, ok := cs.Best(sc)
			wantIt, want, wantOK := BestUnder(sc, items)
			if ok != wantOK || cs.ID(i) != wantIt.ID ||
				math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("fam=%v dims=%d: Best=(%d,%x) BestUnder=(%d,%x)",
					fam, dims, cs.ID(i), math.Float64bits(got), wantIt.ID, math.Float64bits(want))
			}
		}
	}
}

// TestMaintainerBestMatchesBestUnder: Maintainer.Best over the live
// columnar mirror equals BestUnder over Skyline() through a mutation
// churn (inserts, removals, discards).
func TestMaintainerBestMatchesBestUnder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const dims = 3
	var items []rtree.Item
	for i := 0; i < 300; i++ {
		items = append(items, rtree.Item{ID: uint64(i + 1), Point: randPoint(rng, dims)})
	}
	m, live := liveMaintainer(dims, items)
	w := []float64{0.2, 0.5, 0.3}
	check := func(step string) {
		t.Helper()
		for _, sc := range []score.Scorer{
			{Fam: score.Family{Kind: score.Linear}, W: w},
			{Fam: score.Family{Kind: score.OWA}, W: w},
		} {
			gotIt, got, ok := m.Best(sc)
			wantIt, want, wantOK := BestUnder(sc, m.Skyline())
			if ok != wantOK || gotIt.ID != wantIt.ID ||
				math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Best=(%d,%x,%v) BestUnder=(%d,%x,%v)", step,
					gotIt.ID, math.Float64bits(got), ok, wantIt.ID, math.Float64bits(want), wantOK)
			}
		}
	}
	check("initial")
	next := uint64(1000)
	for round := 0; round < 60; round++ {
		switch rng.Intn(3) {
		case 0:
			next++
			it := rtree.Item{ID: next, Point: randPoint(rng, dims)}
			live[it.ID] = it
			if err := m.Insert(it); err != nil {
				t.Fatal(err)
			}
		case 1:
			if sky := m.Skyline(); len(sky) > 0 {
				id := sky[rng.Intn(len(sky))].ID
				delete(live, id)
				if err := m.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			id := uint64(rng.Intn(300) + 1)
			delete(live, id)
			if err := m.Discard(id); err != nil {
				t.Fatal(err)
			}
		}
		check("churn")
	}
	_, _, ok := m.Best(score.Scorer{W: w})
	_ = ok
	// Empty-skyline contract.
	empty := NewMaintainerFromItems(dims, nil, nil, nil)
	if _, _, ok := empty.Best(score.Scorer{W: w}); ok {
		t.Fatal("Best on empty maintainer reported ok")
	}
}

// TestDominanceKernelAllocs: the kernels allocate nothing at steady
// state.
func TestDominanceKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dims = 4
	cs := NewColSet(dims)
	for i := 0; i < 2048; i++ {
		cs.Append(uint64(i), randPoint(rng, dims))
	}
	q := randPoint(rng, dims)
	if n := testing.AllocsPerRun(20, func() { cs.AnyDominates(q) }); n != 0 {
		t.Errorf("AnyDominates allocates %.1f/op, want 0", n)
	}
	sc := score.Scorer{W: []float64{0.1, 0.2, 0.3, 0.4}}
	cs.Best(sc) // warm the score scratch
	if n := testing.AllocsPerRun(20, func() { cs.Best(sc) }); n != 0 {
		t.Errorf("Best allocates %.1f/op, want 0", n)
	}
}

// BenchmarkDominanceKernel compares the blocked columnar dominance scan
// against the row-wise Point.Dominates loop over the same set. The
// query point is drawn so roughly half the probes find no dominator —
// the full-scan case where the kernel matters.
func BenchmarkDominanceKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{256, 4096} {
		const dims = 4
		cs := NewColSet(dims)
		pts := make([]geom.Point, n)
		for i := range pts {
			p := make(geom.Point, dims)
			for d := range p {
				p[d] = rng.Float64()
			}
			pts[i] = p
			cs.Append(uint64(i), p)
		}
		// High-coordinate probe: rarely dominated, forcing full scans.
		q := make(geom.Point, dims)
		for d := range q {
			q[d] = 0.95 + 0.05*rng.Float64()
		}
		b.Run(benchName("columnar", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs.AnyDominates(q)
			}
		})
		b.Run(benchName("rowwise", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				found := false
				for _, p := range pts {
					if p.Dominates(q) {
						found = true
						break
					}
				}
				_ = found
			}
		})
	}
}

// BenchmarkSkylineEntryPrune measures the dominance test as BBS uses it
// (entry pruning via rect top corners), columnar vs the retained
// row-wise oracle.
func BenchmarkSkylineEntryPrune(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	const n, dims = 1024, 4
	cs := NewColSet(dims)
	var sky []rtree.Item
	for i := 0; i < n; i++ {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64()
		}
		cs.Append(uint64(i), p)
		sky = append(sky, rtree.Item{ID: uint64(i), Point: p})
	}
	pt := make(geom.Point, dims)
	for d := range pt {
		pt[d] = 0.99
	}
	e := entry{rect: geom.RectFromPoint(pt), child: pagestore.InvalidPage, id: 1, key: topCornerSum(geom.RectFromPoint(pt))}
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cs.AnyDominates(e.rect.Max)
		}
	})
	b.Run("rowwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dominatedByAny(sky, e)
		}
	})
}

func benchName(kind string, n int) string {
	switch n {
	case 256:
		return kind + "/n256"
	case 4096:
		return kind + "/n4096"
	}
	return kind
}
