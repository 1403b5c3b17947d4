package topk

import (
	"math/rand"
	"sort"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
)

func buildScorerTree(t *testing.T, rng *rand.Rand, n, dims int) (*rtree.Tree, []rtree.Item) {
	t.Helper()
	items := make([]rtree.Item, n)
	for i := range items {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64()
		}
		items[i] = rtree.Item{ID: uint64(i + 1), Point: p}
	}
	pool := pagestore.NewBufferPool(pagestore.NewMemStore(512), 1<<20)
	tree, err := rtree.BulkLoad(pool, dims, items, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return tree, items
}

func testFamilies() []score.Family {
	return []score.Family{
		{},
		{Kind: score.OWA},
		{Kind: score.Chebyshev},
		{Kind: score.Lp, P: 2},
		{Kind: score.Lp, P: 3},
	}
}

// TestScorerSearcherMatchesScan differential-tests BRS over every
// scoring family against an exhaustive sort of the whole object set:
// the searcher must enumerate in non-increasing score order with the
// deterministic tie-break, for live trees and for skip filters.
func TestScorerSearcherMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, fam := range testFamilies() {
		for trial := 0; trial < 10; trial++ {
			dims := 2 + rng.Intn(3)
			n := 20 + rng.Intn(200)
			tree, items := buildScorerTree(t, rng, n, dims)
			w := make([]float64, dims)
			sum := 0.0
			for d := range w {
				w[d] = rng.Float64()
				sum += w[d]
			}
			for d := range w {
				w[d] /= sum
			}
			sc := score.Scorer{Fam: fam, W: w}

			skipped := map[uint64]bool{}
			for _, it := range items {
				if rng.Float64() < 0.2 {
					skipped[it.ID] = true
				}
			}
			type ranked struct {
				id uint64
				s  float64
			}
			var want []ranked
			for _, it := range items {
				if !skipped[it.ID] {
					want = append(want, ranked{it.ID, sc.Score(it.Point)})
				}
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].s != want[j].s {
					return want[i].s > want[j].s
				}
				return want[i].id < want[j].id
			})

			sr := NewScorerSearcher(tree, sc, func(id uint64) bool { return skipped[id] })
			for i, wr := range want {
				it, got, ok, err := sr.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("fam %v trial %d: exhausted at rank %d of %d", fam, trial, i, len(want))
				}
				if it.ID != wr.id || got != wr.s {
					t.Fatalf("fam %v trial %d rank %d: got (%d, %v), want (%d, %v)",
						fam, trial, i, it.ID, got, wr.id, wr.s)
				}
			}
			if _, _, ok, _ := sr.Next(); ok {
				t.Fatalf("fam %v trial %d: searcher returned extra results", fam, trial)
			}
		}
	}
}
