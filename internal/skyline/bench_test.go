package skyline

import (
	"math/rand"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
)

// BenchmarkBBS measures a warm branch-and-bound skyline pass over 5k
// anti-correlated-ish points with the whole index resident.
func BenchmarkBBS(b *testing.B) {
	store := pagestore.NewMemStore(4096)
	pool := pagestore.NewBufferPool(store, 1<<20)
	rng := rand.New(rand.NewSource(42))
	items := make([]rtree.Item, 5000)
	for i := range items {
		// Anti-correlation: points near the plane Σx = 1 make the
		// skyline non-trivial.
		x, y := rng.Float64(), rng.Float64()
		items[i] = rtree.Item{ID: uint64(i), Point: geom.Point{x, 1 - x + 0.1*y, rng.Float64()}}
	}
	tr, err := rtree.BulkLoad(pool, 3, items, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Compute(tr, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(tr, nil); err != nil {
			b.Fatal(err)
		}
	}
}
