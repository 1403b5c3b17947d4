package skyline

import (
	"math/rand"
	"testing"

	"fairassign/internal/rtree"
)

// naiveSkyband: objects dominated by fewer than k others.
func naiveSkyband(items []rtree.Item, k int) []rtree.Item {
	var out []rtree.Item
	for _, a := range items {
		n := 0
		for _, b := range items {
			if b.Point.Dominates(a.Point) {
				n++
			}
		}
		if n < k {
			out = append(out, a)
		}
	}
	return out
}

func TestSkybandMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 3, 5} {
		for _, n := range []int{1, 50, 400} {
			items := randItems(rng, n, 3)
			sameIDs(t, SkybandMem(items, k), naiveSkyband(items, k), "SkybandMem")
		}
	}
}

func TestSkybandK1IsSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := antiItems(rng, 500, 3)
	band := SkybandMem(items, 1)
	sky, err := Compute(buildTree(t, items, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	sameIDs(t, band, sky, "k=1 band vs skyline")
}

func TestSkybandGrowsWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randItems(rng, 600, 2)
	prev := -1
	for _, k := range []int{1, 2, 4, 8} {
		band := SkybandMem(items, k)
		if len(band) < prev {
			t.Fatalf("k=%d: band shrank (%d < %d)", k, len(band), prev)
		}
		prev = len(band)
	}
}

func TestSkybandContainsEveryTopK(t *testing.T) {
	// The defining property: for any monotone linear function, the top-k
	// objects lie in the k-skyband.
	rng := rand.New(rand.NewSource(4))
	items := randItems(rng, 300, 3)
	k := 4
	band := map[uint64]bool{}
	for _, it := range SkybandMem(items, k) {
		band[it.ID] = true
	}
	for trial := 0; trial < 40; trial++ {
		w := make([]float64, 3)
		sum := 0.0
		for d := range w {
			w[d] = rng.Float64()
			sum += w[d]
		}
		for d := range w {
			w[d] /= sum
		}
		scores := make([]float64, len(items))
		for i, it := range items {
			for d := range w {
				scores[i] += w[d] * it.Point[d]
			}
		}
		// Find the top-k by selection.
		for rank := 0; rank < k; rank++ {
			best, bestScore := -1, -1.0
			for i := range items {
				if scores[i] > bestScore {
					best, bestScore = i, scores[i]
				}
			}
			if !band[items[best].ID] {
				t.Fatalf("trial %d: top-%d object %d missing from %d-skyband",
					trial, rank+1, items[best].ID, k)
			}
			scores[best] = -2
		}
	}
}

func TestSkybandInvalidKAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randItems(rng, 40, 2)
	sameIDs(t, SkybandMem(items, 0), naiveSkyband(items, 1), "k=0") // treated as k=1
	if got := SkybandMem(nil, 3); len(got) != 0 {
		t.Error("empty input should produce empty band")
	}
}
