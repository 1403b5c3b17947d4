package topk

import (
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
)

// tiedItems returns n points with IDs 1..n in shuffled order, so ID
// order is unrelated to tree position. On the 0–4 integer grid nearly
// every score ties; otherwise the points are continuous and each comes
// three times under different IDs.
func tiedItems(rng *rand.Rand, n, dims int, grid bool) []rtree.Item {
	ids := rng.Perm(n)
	items := make([]rtree.Item, n)
	for i := range items {
		var p geom.Point
		if grid || i%3 == 0 {
			p = make(geom.Point, dims)
			for d := range p {
				if grid {
					p[d] = float64(rng.Intn(5))
				} else {
					p[d] = rng.Float64()
				}
			}
		} else {
			p = items[i-1].Point
		}
		items[i] = rtree.Item{ID: uint64(ids[i] + 1), Point: p}
	}
	return items
}

func intWeights(rng *rand.Rand, dims int) []float64 {
	w := make([]float64, dims)
	for d := range w {
		w[d] = float64(1 + rng.Intn(4))
	}
	return w
}

type scoredItem struct {
	id uint64
	s  float64
}

// rankAll is the reference: every non-skipped item scored and sorted by
// score descending, ties to the lower ID.
func rankAll(items []rtree.Item, sc score.Scorer, skip func(uint64) bool) []scoredItem {
	var out []scoredItem
	for _, it := range items {
		if skip == nil || !skip(it.ID) {
			out = append(out, scoredItem{it.ID, sc.Score(it.Point)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].s != out[j].s {
			return out[i].s > out[j].s
		}
		return out[i].id < out[j].id
	})
	return out
}

// TestTopKCanonicalOrder checks TopKScorer against a brute-force sort
// on integer grids and duplicated points, where most scores tie, for
// every scoring family and for k up to beyond the population: the
// answer is the exact prefix of (score desc, ID asc), bit-equal scores.
func TestTopKCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 24; trial++ {
		dims := 2 + rng.Intn(3)
		n := 200 + rng.Intn(2001)
		grid := trial%2 == 0
		items := tiedItems(rng, n, dims, grid)
		tree := buildTree(t, items, dims)
		for _, fam := range testFamilies() {
			sc := score.Scorer{Fam: fam, W: intWeights(rng, dims)}
			want := rankAll(items, sc, nil)
			for _, k := range []int{1, 5, 10, 50, n + 7} {
				got, scores, err := TopKScorer(tree, sc, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != min(k, n) || len(scores) != len(got) {
					t.Fatalf("trial %d fam %v k %d: %d results, want %d", trial, fam, k, len(got), min(k, n))
				}
				for i := range got {
					if got[i].ID != want[i].id || scores[i] != want[i].s {
						t.Fatalf("trial %d (grid %v, n %d, dims %d) fam %v k %d rank %d: got (%d, %v), want (%d, %v)",
							trial, grid, n, dims, fam, k, i, got[i].ID, scores[i], want[i].id, want[i].s)
					}
				}
			}
		}
	}
}

// TestTopKBoundedMatchesUnbounded checks that a searcher bounded by k
// returns exactly the first k results of the unbounded enumeration,
// bit-equal, after reading exactly the same nodes — on continuous and
// tie-heavy trees, with and without a skip filter. It logs the
// unbounded node reads per data kind, the cost of the canonical order.
func TestTopKBoundedMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, grid := range []bool{false, true} {
		var reads int64
		queries := 0
		for trial := 0; trial < 10; trial++ {
			dims := 2 + rng.Intn(3)
			n := 200 + rng.Intn(2001)
			var items []rtree.Item
			if grid {
				items = tiedItems(rng, n, dims, true)
			} else {
				items = randItems(rng, n, dims)
			}
			tree := buildTree(t, items, dims)
			for q := 0; q < 30; q++ {
				var skip func(uint64) bool
				if q%2 == 1 {
					skipped := make(map[uint64]bool)
					for _, it := range items {
						if rng.Intn(4) == 0 {
							skipped[it.ID] = true
						}
					}
					skip = func(id uint64) bool { return skipped[id] }
				}
				var w []float64
				if grid {
					w = intWeights(rng, dims)
				} else {
					w = randWeights(rng, dims)
				}
				sc := score.Scorer{Fam: testFamilies()[q%5], W: w}
				k := []int{1, 5, 10, 50}[q%4]

				full := NewScorerSearcher(tree, sc, skip)
				var want []scoredItem
				for len(want) < k {
					it, s, ok, err := full.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					want = append(want, scoredItem{it.ID, s})
				}
				reads += full.NodeReads
				queries++

				bounded := pooled(tree, sc, k, skip)
				var got []scoredItem
				for {
					it, s, ok, err := bounded.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					got = append(got, scoredItem{it.ID, s})
				}
				boundedReads := bounded.NodeReads
				bounded.release()
				if len(got) != len(want) || boundedReads != full.NodeReads {
					t.Fatalf("grid %v trial %d query %d: bounded %d results in %d reads, unbounded %d in %d",
						grid, trial, q, len(got), boundedReads, len(want), full.NodeReads)
				}
				for i := range got {
					if got[i].id != want[i].id || math.Float64bits(got[i].s) != math.Float64bits(want[i].s) {
						t.Fatalf("grid %v trial %d query %d rank %d: bounded (%d, %v), unbounded (%d, %v)",
							grid, trial, q, i, got[i].id, got[i].s, want[i].id, want[i].s)
					}
				}
			}
		}
		t.Logf("grid %v: %d node reads over %d unbounded queries", grid, reads, queries)
	}
}

// TestTopKAllocs checks that a warm TopKScorer on a cached tree
// allocates only its two result slices, sized min(k, Len()), however
// large k is.
func TestTopKAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rng := rand.New(rand.NewSource(24))
	items := randItems(rng, 3000, 3)
	tree := buildTree(t, items, 3)
	sc := score.Scorer{Fam: score.Family{Kind: score.Chebyshev}, W: randWeights(rng, 3)}
	for _, k := range []int{10, 1 << 40} {
		got, _, err := TopKScorer(tree, sc, k, nil) // warms the node cache and the pool
		if err != nil {
			t.Fatal(err)
		}
		if want := min(k, len(items)); len(got) != want || cap(got) != want {
			t.Fatalf("k %d: len %d cap %d, want %d", k, len(got), cap(got), want)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := TopKScorer(tree, sc, k, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Fatalf("k %d: warm TopKScorer allocates %v per call, want 2", k, allocs)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
