package rtree

import (
	"math/rand"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
)

// benchTree bulk-loads n random points into a tree whose pool holds the
// whole index (warm-cache regime) and returns it with the counters reset.
func benchTree(b *testing.B, n, dims int) *Tree {
	b.Helper()
	store := pagestore.NewMemStore(4096)
	pool := pagestore.NewBufferPool(store, 1<<20)
	rng := rand.New(rand.NewSource(42))
	items := make([]Item, n)
	for i := range items {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64()
		}
		items[i] = Item{ID: uint64(i), Point: p}
	}
	tr, err := BulkLoad(pool, dims, items, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	store.IO().Reset()
	return tr
}

// BenchmarkReadNodeWarm measures one warm node access — the single
// hottest operation of every traversal. With the decoded-node cache it is
// a pure map/LRU hit and must not allocate.
func BenchmarkReadNodeWarm(b *testing.B) {
	tr := benchTree(b, 5000, 3)
	root := tr.Root()
	if _, err := tr.ReadNode(root); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.ReadNode(root); err != nil {
			b.Fatal(err)
		}
	}
}
