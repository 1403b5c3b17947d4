package rtree

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
)

func bulkItems(rng *rand.Rand, n, dims int) []Item {
	items := make([]Item, n)
	for i := range items {
		p := make(geom.Point, dims)
		for d := range p {
			// Coarse grid: lots of equal STR centers, exercising the
			// total-order tie-breaks the parallel sort depends on.
			p[d] = float64(rng.Intn(32)) / 31
		}
		items[i] = Item{ID: uint64(i + 1), Point: p}
	}
	return items
}

// storePages flushes the pool and dumps every allocated page's bytes by
// ID. Missing IDs (the freed initial root) are recorded as nil so the
// comparison covers allocation order, not just content.
func storePages(t *testing.T, pool *pagestore.BufferPool, store *pagestore.MemStore) [][]byte {
	t.Helper()
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	pages := make([][]byte, store.NumPages()+8)
	buf := make([]byte, store.PageSize())
	for i := range pages {
		if err := store.ReadPage(pagestore.PageID(i), buf); err != nil {
			continue // freed or never-allocated ID stays nil
		}
		pages[i] = append([]byte(nil), buf...)
	}
	return pages
}

// TestBulkLoadParallelByteIdentical: the parallel STR build must leave
// the page store byte-identical to the sequential build — same page
// allocation order, same page images — across fill factors, worker
// counts, sizes, and dimensionalities, with tie-heavy coordinates.
func TestBulkLoadParallelByteIdentical(t *testing.T) {
	const pageSize, poolPages = 512, 1 << 16
	for _, dims := range []int{2, 4} {
		for _, n := range []int{100, 5000, 20000} {
			items := bulkItems(rand.New(rand.NewSource(int64(31*n+dims))), n, dims)
			var want [][]byte
			var wantReads, wantWrites int64
			for _, fill := range []float64{0.5, 0.7, 0.9, 1.0} {
				for _, workers := range []int{1, 2, 3, 4, 8} {
					store := pagestore.NewMemStore(pageSize)
					pool := pagestore.NewBufferPool(store, poolPages)
					tree, err := BulkLoadWorkers(pool, dims, items, fill, workers)
					if err != nil {
						t.Fatalf("dims=%d n=%d fill=%v workers=%d: %v", dims, n, fill, workers, err)
					}
					if tree.Len() != n {
						t.Fatalf("dims=%d n=%d fill=%v workers=%d: Len=%d", dims, n, fill, workers, tree.Len())
					}
					io := store.IO().Snapshot() // before the probe reads below
					reads, writes := io.PhysicalReads, io.PhysicalWrites
					pages := storePages(t, pool, store)
					if workers == 1 {
						want, wantReads, wantWrites = pages, reads, writes
						continue
					}
					if len(pages) != len(want) {
						t.Fatalf("dims=%d n=%d fill=%v workers=%d: %d pages, sequential %d",
							dims, n, fill, workers, len(pages), len(want))
					}
					for p := range pages {
						if !bytes.Equal(pages[p], want[p]) {
							t.Fatalf("dims=%d n=%d fill=%v workers=%d: page %d differs from sequential build",
								dims, n, fill, workers, p)
						}
					}
					if reads != wantReads || writes != wantWrites {
						t.Fatalf("dims=%d n=%d fill=%v workers=%d: io=(%d,%d), sequential (%d,%d)",
							dims, n, fill, workers, reads, writes, wantReads, wantWrites)
					}
				}
			}
		}
	}
}

// bulkLoadPagesWant pins, per dims/n, the page count and an FNV-1a hash
// over the page images in allocation order (a freed ID hashes as an
// empty marker) of a fill-0.9 build. The constants were recorded before
// the STR sort moved to packed keys: TestBulkLoadParallelByteIdentical
// compares the parallel build with the sequential one, so it cannot see
// a change to the sort order both share.
var bulkLoadPagesWant = map[string]string{
	"dims=2/n=100":   "pages=15 hash=92d15affeb2f45ee",
	"dims=2/n=5000":  "pages=332 hash=975418eb55cb40c8",
	"dims=2/n=20000": "pages=1267 hash=25ef584a596b9712",
	"dims=4/n=100":   "pages=29 hash=222a1892e81e7220",
	"dims=4/n=5000":  "pages=645 hash=8bcb8ee91db0bb25",
	"dims=4/n=20000": "pages=2568 hash=0525ee9bb59fbcdf",
	"dims=5/n=100":   "pages=29 hash=03eadc0cc6e20d3d",
	"dims=5/n=5000":  "pages=815 hash=26f1a61333c6d9ae",
	"dims=5/n=20000": "pages=3626 hash=251d2ae88da7e33b",
}

// TestBulkLoadPagesUnchanged locks the STR build's page images at both
// the sequential and the parallel sort (n = 20000 is above
// parallelSortMin), with the tie-heavy coordinates of bulkItems.
func TestBulkLoadPagesUnchanged(t *testing.T) {
	const pageSize, poolPages = 512, 1 << 16
	for _, dims := range []int{2, 4, 5} {
		for _, n := range []int{100, 5000, 20000} {
			key := fmt.Sprintf("dims=%d/n=%d", dims, n)
			items := bulkItems(rand.New(rand.NewSource(int64(31*n+dims))), n, dims)
			for _, workers := range []int{1, 4} {
				store := pagestore.NewMemStore(pageSize)
				pool := pagestore.NewBufferPool(store, poolPages)
				if _, err := BulkLoadWorkers(pool, dims, items, 0.9, workers); err != nil {
					t.Fatalf("%s workers=%d: %v", key, workers, err)
				}
				h := fnv.New64a()
				pages := storePages(t, pool, store)
				for _, p := range pages {
					if p == nil {
						h.Write([]byte{0}) // freed or never-allocated ID
						continue
					}
					h.Write([]byte{1})
					h.Write(p)
				}
				got := fmt.Sprintf("pages=%d hash=%016x", len(pages), h.Sum64())
				if got != bulkLoadPagesWant[key] {
					t.Errorf("%s workers=%d:\n got  %s\n want %s", key, workers, got, bulkLoadPagesWant[key])
				}
			}
		}
	}
}

// TestBulkLoadParallelSmallPool: with a tiny buffer pool the build
// evicts constantly; eviction-driven physical writes must still be
// identical at every worker count (the Put sequence is the same).
func TestBulkLoadParallelSmallPool(t *testing.T) {
	const pageSize = 512
	items := bulkItems(rand.New(rand.NewSource(7)), 8000, 3)
	var want [][]byte
	var wantWrites int64
	for _, workers := range []int{1, 4} {
		store := pagestore.NewMemStore(pageSize)
		pool := pagestore.NewBufferPool(store, 8)
		if _, err := BulkLoadWorkers(pool, 3, items, 0.9, workers); err != nil {
			t.Fatal(err)
		}
		writes := store.IO().Snapshot().PhysicalWrites
		pages := storePages(t, pool, store)
		if workers == 1 {
			want, wantWrites = pages, writes
			continue
		}
		if len(pages) != len(want) {
			t.Fatalf("workers=4: %d pages, sequential %d", len(pages), len(want))
		}
		for p := range pages {
			if !bytes.Equal(pages[p], want[p]) {
				t.Fatalf("workers=4: page %d differs under eviction pressure", p)
			}
		}
		if writes != wantWrites {
			t.Fatalf("workers=4: physical writes %d, sequential %d", writes, wantWrites)
		}
	}
}

// TestBulkLoadParallelQueries: sanity that a parallel-built tree answers
// the same queries as a sequential one.
func TestBulkLoadParallelQueries(t *testing.T) {
	items := bulkItems(rand.New(rand.NewSource(3)), 3000, 2)
	trees := make([]*Tree, 0, 2)
	for _, workers := range []int{1, 6} {
		store := pagestore.NewMemStore(512)
		pool := pagestore.NewBufferPool(store, 1<<14)
		tr, err := BulkLoadWorkers(pool, 2, items, 0.9, workers)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	for _, tr := range trees {
		count := 0
		if err := tr.All(func(Item) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		if count != len(items) {
			t.Fatalf("All() visited %d items, want %d", count, len(items))
		}
	}
}

// BenchmarkBulkLoadParallel measures the cold STR build at n=10⁵ and
// n=10⁶ for worker counts 1 (sequential baseline) and all-cores. On
// multi-core hardware the spread is the tentpole speedup; on one core
// the two must track each other (the parallel path's overhead is the
// regression guard).
func BenchmarkBulkLoadParallel(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		items := bulkItems(rand.New(rand.NewSource(int64(n))), n, 2)
		for _, workers := range []int{1, 0} {
			name := "seq"
			if workers == 0 {
				name = "allcores"
			}
			b.Run(benchSize(n)+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					store := pagestore.NewMemStore(4096)
					pool := pagestore.NewBufferPool(store, 1<<18)
					if _, err := BulkLoadWorkers(pool, 2, items, 0.9, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func benchSize(n int) string {
	if n == 100_000 {
		return "n1e5"
	}
	return "n1e6"
}
