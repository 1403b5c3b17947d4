package rtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
)

// verifyNoStaleNodes walks every live page and checks that the node
// served by the (possibly cached) ReadNode path is identical to a fresh
// decode of the current page bytes.
func verifyNoStaleNodes(t *testing.T, tr *Tree) {
	t.Helper()
	var walk func(id pagestore.PageID)
	walk = func(id pagestore.PageID) {
		cached, err := tr.ReadNode(id)
		if err != nil {
			t.Fatalf("ReadNode(%d): %v", id, err)
		}
		buf, err := tr.pool.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		fresh, err := decodeNode(id, buf, tr.dims)
		if err != nil {
			t.Fatalf("decodeNode(%d): %v", id, err)
		}
		if cached.Leaf != fresh.Leaf || len(cached.Entries) != len(fresh.Entries) {
			t.Fatalf("page %d stale: cached leaf=%v n=%d, fresh leaf=%v n=%d",
				id, cached.Leaf, len(cached.Entries), fresh.Leaf, len(fresh.Entries))
		}
		for i := range cached.Entries {
			c, f := cached.Entries[i], fresh.Entries[i]
			if c.ID != f.ID || c.Child != f.Child ||
				!c.Rect.Min.Equal(f.Rect.Min) || !c.Rect.Max.Equal(f.Rect.Max) {
				t.Fatalf("page %d entry %d stale: cached %+v, fresh %+v", id, i, c, f)
			}
		}
		if !cached.Leaf {
			for _, e := range cached.Entries {
				walk(e.Child)
			}
		}
	}
	walk(tr.root)
}

// TestNodeCacheNeverStale interleaves inserts, deletes, and warm reads
// (including under heavy eviction pressure from a tiny pool) and asserts
// the decoded-node cache always reflects current page bytes.
func TestNodeCacheNeverStale(t *testing.T) {
	for _, capacity := range []int{0, 2, 1 << 20} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			store := pagestore.NewMemStore(512)
			pool := pagestore.NewBufferPool(store, capacity)
			tr, err := New(pool, 2)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			var live []Item
			for step := 0; step < 400; step++ {
				switch {
				case len(live) == 0 || rng.Float64() < 0.7:
					it := Item{ID: uint64(step), Point: geom.Point{rng.Float64(), rng.Float64()}}
					if err := tr.Insert(it); err != nil {
						t.Fatalf("insert %d: %v", step, err)
					}
					live = append(live, it)
				default:
					i := rng.Intn(len(live))
					if err := tr.Delete(live[i]); err != nil {
						t.Fatalf("delete: %v", err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				// Warm the cache with a few traversals between mutations.
				q := geom.Rect{Min: geom.Point{0, 0}, Max: geom.Point{rng.Float64(), rng.Float64()}}
				if err := tr.Search(q, func(Item) bool { return true }); err != nil {
					t.Fatal(err)
				}
				if step%40 == 0 {
					verifyNoStaleNodes(t, tr)
					if err := tr.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
			}
			verifyNoStaleNodes(t, tr)
		})
	}
}

// TestSharedNodesConcurrentReaders hammers one tree from many goroutines
// doing ReadNode walks and window searches. The decoded nodes are
// shared across all of them; run with -race this verifies the cache layer
// and the immutability contract (no reader ever writes a node).
func TestSharedNodesConcurrentReaders(t *testing.T) {
	store := pagestore.NewMemStore(512)
	pool := pagestore.NewBufferPool(store, 8) // small: constant eviction traffic
	items := make([]Item, 500)
	rng := rand.New(rand.NewSource(5))
	for i := range items {
		items[i] = Item{ID: uint64(i), Point: geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}}
	}
	tr, err := BulkLoad(pool, 3, items, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				q := geom.Point{r.Float64(), r.Float64(), r.Float64()}
				for _, rect := range []geom.Rect{{Min: geom.Point{0, 0, 0}, Max: q}, {Min: q, Max: geom.Point{1, 1, 1}}} {
					if err := tr.Search(rect, func(Item) bool { return true }); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := tr.ReadNode(tr.Root()); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestLeafEntriesShareBacking pins the satellite fix: a decoded leaf
// entry's Min and Max must alias the same storage (degenerate rectangle),
// not a point plus its clone.
func TestLeafEntriesShareBacking(t *testing.T) {
	n := &Node{Leaf: true, Entries: []Entry{
		{Rect: geom.RectFromPoint(geom.Point{1, 2}), ID: 1, Child: pagestore.InvalidPage},
	}}
	buf := make([]byte, 256)
	if err := encodeNode(n, buf, 2); err != nil {
		t.Fatal(err)
	}
	dec, err := decodeNode(0, buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := dec.Entries[0]
	if &e.Rect.Min[0] != &e.Rect.Max[0] {
		t.Fatal("leaf entry Min and Max do not share a backing slice")
	}
	if !e.Rect.Min.Equal(geom.Point{1, 2}) {
		t.Fatalf("decoded point %v, want (1,2)", e.Rect.Min)
	}
}

// TestReadNodeWarmZeroAlloc asserts the headline property of the decoded
// cache: a warm node read performs no allocation at all.
func TestReadNodeWarmZeroAlloc(t *testing.T) {
	store := pagestore.NewMemStore(4096)
	pool := pagestore.NewBufferPool(store, 64)
	items := make([]Item, 300)
	rng := rand.New(rand.NewSource(3))
	for i := range items {
		items[i] = Item{ID: uint64(i), Point: geom.Point{rng.Float64(), rng.Float64()}}
	}
	tr, err := BulkLoad(pool, 2, items, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if _, err := tr.ReadNode(root); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tr.ReadNode(root); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ReadNode allocates %.1f per op, want 0", allocs)
	}
}
