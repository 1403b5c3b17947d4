package rtree

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
)

func newTestTree(t *testing.T, dims, pageSize, bufferPages int) *Tree {
	t.Helper()
	store := pagestore.NewMemStore(pageSize)
	pool := pagestore.NewBufferPool(store, bufferPages)
	tr, err := New(pool, dims)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randItems(rng *rand.Rand, n, dims int) []Item {
	items := make([]Item, n)
	for i := range items {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64()
		}
		items[i] = Item{ID: uint64(i + 1), Point: p}
	}
	return items
}

func sortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
}

func TestNodeCodecRoundTrip(t *testing.T) {
	for _, leaf := range []bool{true, false} {
		n := &Node{Page: 7, Leaf: leaf}
		for i := 0; i < 5; i++ {
			e := Entry{
				Rect: geom.Rect{
					Min: geom.Point{float64(i), float64(i) * 0.5, 0.1},
					Max: geom.Point{float64(i) + 1, float64(i)*0.5 + 1, 0.9},
				},
				Child: pagestore.PageID(100 + i),
				ID:    uint64(200 + i),
			}
			if leaf {
				e.Rect.Max = e.Rect.Min.Clone() // leaves store points
				e.Child = pagestore.InvalidPage
			}
			n.Entries = append(n.Entries, e)
		}
		buf := make([]byte, 4096)
		if err := encodeNode(n, buf, 3); err != nil {
			t.Fatal(err)
		}
		// A reused buffer's old bytes must not survive the encode.
		dirty := bytes.Repeat([]byte{0xff}, len(buf))
		if err := encodeNode(n, dirty, 3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dirty, buf) {
			t.Fatal("encoding into a used buffer differs from encoding into a fresh one")
		}
		got, err := decodeNode(7, buf, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Leaf != leaf || len(got.Entries) != 5 {
			t.Fatalf("decode mismatch: leaf=%v entries=%d", got.Leaf, len(got.Entries))
		}
		for i, e := range got.Entries {
			if !e.Rect.Min.Equal(n.Entries[i].Rect.Min) {
				t.Fatalf("entry %d min mismatch", i)
			}
			if leaf {
				if e.ID != n.Entries[i].ID {
					t.Fatalf("entry %d id mismatch", i)
				}
			} else if e.Child != n.Entries[i].Child {
				t.Fatalf("entry %d child mismatch", i)
			}
		}
	}
}

func TestNodeCodecOverflowRejected(t *testing.T) {
	n := &Node{Leaf: true}
	for i := 0; i < 1000; i++ {
		p := geom.Point{0.5, 0.5}
		n.Entries = append(n.Entries, Entry{Rect: geom.RectFromPoint(p), ID: uint64(i)})
	}
	if err := encodeNode(n, make([]byte, 512), 2); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestInsertAndSearchSmall(t *testing.T) {
	tr := newTestTree(t, 2, 4096, 64)
	pts := []geom.Point{{0.5, 0.6}, {0.2, 0.7}, {0.8, 0.2}, {0.4, 0.4}}
	for i, p := range pts {
		if err := tr.Insert(Item{ID: uint64(i + 1), Point: p}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	var found []uint64
	err := tr.Search(geom.Rect{Min: geom.Point{0.3, 0.3}, Max: geom.Point{0.9, 0.7}}, func(it Item) bool {
		found = append(found, it.ID)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(found, func(i, j int) bool { return found[i] < found[j] })
	want := []uint64{1, 4} // a=(0.5,0.6), d=(0.4,0.4)
	if len(found) != len(want) || found[0] != want[0] || found[1] != want[1] {
		t.Fatalf("search = %v, want %v", found, want)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertManyForcesSplitsAndStaysValid(t *testing.T) {
	// Small page size to force deep trees and many splits.
	tr := newTestTree(t, 2, 256, 256)
	rng := rand.New(rand.NewSource(42))
	items := randItems(rng, 500, 2)
	for i, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%97 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after insert %d: %v", i, err)
			}
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("expected multi-level tree, height = %d", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Items()
	if err != nil {
		t.Fatal(err)
	}
	sortItems(got)
	if len(got) != len(items) {
		t.Fatalf("Items = %d, want %d", len(got), len(items))
	}
	for i := range got {
		if got[i].ID != items[i].ID || !got[i].Point.Equal(items[i].Point) {
			t.Fatalf("item %d mismatch", i)
		}
	}
}

func TestSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range []int{2, 3, 5} {
		tr := newTestTree(t, dims, 512, 256)
		items := randItems(rng, 300, dims)
		for _, it := range items {
			if err := tr.Insert(it); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < 50; q++ {
			min := make(geom.Point, dims)
			max := make(geom.Point, dims)
			for d := 0; d < dims; d++ {
				a, b := rng.Float64(), rng.Float64()
				if a > b {
					a, b = b, a
				}
				min[d], max[d] = a, b
			}
			rect := geom.Rect{Min: min, Max: max}
			want := map[uint64]bool{}
			for _, it := range items {
				if rect.Contains(it.Point) {
					want[it.ID] = true
				}
			}
			got := map[uint64]bool{}
			if err := tr.Search(rect, func(it Item) bool { got[it.ID] = true; return true }); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("dims=%d query %d: got %d matches, want %d", dims, q, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("dims=%d query %d: missing id %d", dims, q, id)
				}
			}
		}
	}
}

func TestDeleteAllOneByOne(t *testing.T) {
	tr := newTestTree(t, 2, 256, 256)
	rng := rand.New(rand.NewSource(5))
	items := randItems(rng, 300, 2)
	for _, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	perm := rng.Perm(len(items))
	for i, pi := range perm {
		if err := tr.Delete(items[pi]); err != nil {
			t.Fatalf("delete %d (id %d): %v", i, items[pi].ID, err)
		}
		if i%61 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after delete %d: %v", i, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("Height = %d after deleting everything, want 1", tr.Height())
	}
}

func TestDeleteMissingReturnsErrNotFound(t *testing.T) {
	tr := newTestTree(t, 2, 4096, 16)
	if err := tr.Insert(Item{ID: 1, Point: geom.Point{0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
	err := tr.Delete(Item{ID: 2, Point: geom.Point{0.5, 0.5}})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	// Same ID, different point: also not found.
	err = tr.Delete(Item{ID: 1, Point: geom.Point{0.1, 0.1}})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestMixedInsertDeleteWorkload(t *testing.T) {
	tr := newTestTree(t, 3, 512, 256)
	rng := rand.New(rand.NewSource(11))
	live := map[uint64]geom.Point{}
	nextID := uint64(1)
	for step := 0; step < 1500; step++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			p := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
			if err := tr.Insert(Item{ID: nextID, Point: p}); err != nil {
				t.Fatal(err)
			}
			live[nextID] = p
			nextID++
		} else {
			var id uint64
			for id = range live {
				break
			}
			if err := tr.Delete(Item{ID: id, Point: live[id]}); err != nil {
				t.Fatalf("step %d: delete id %d: %v", step, id, err)
			}
			delete(live, id)
		}
		if step%211 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
	got, err := tr.Items()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(live) {
		t.Fatalf("Items = %d, want %d", len(got), len(live))
	}
	for _, it := range got {
		p, ok := live[it.ID]
		if !ok || !p.Equal(it.Point) {
			t.Fatalf("unexpected item %d %v", it.ID, it.Point)
		}
	}
}

func TestBulkLoadMatchesInserted(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 10, 500, 3000} {
		items := randItems(rng, n, 3)
		store := pagestore.NewMemStore(512)
		pool := pagestore.NewBufferPool(store, 1024)
		tr, err := BulkLoad(pool, 3, items, 0.9)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if n == 0 {
			continue
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := tr.Items()
		if err != nil {
			t.Fatal(err)
		}
		sortItems(got)
		if len(got) != n {
			t.Fatalf("n=%d: Items = %d", n, len(got))
		}
		for i := range got {
			if got[i].ID != items[i].ID {
				t.Fatalf("n=%d: item %d id mismatch", n, i)
			}
		}
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	items := randItems(rng, 800, 2)
	store := pagestore.NewMemStore(512)
	pool := pagestore.NewBufferPool(store, 1024)
	tr, err := BulkLoad(pool, 2, items, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Delete a third, insert some new.
	for i := 0; i < 250; i++ {
		if err := tr.Delete(items[i]); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		p := geom.Point{rng.Float64(), rng.Float64()}
		if err := tr.Insert(Item{ID: uint64(10000 + i), Point: p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 800-250+100 {
		t.Fatalf("Len = %d, want %d", tr.Len(), 800-250+100)
	}
}

func TestDuplicatePointsDistinctIDs(t *testing.T) {
	tr := newTestTree(t, 2, 256, 64)
	p := geom.Point{0.5, 0.5}
	for i := 1; i <= 60; i++ {
		if err := tr.Insert(Item{ID: uint64(i), Point: p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(Item{ID: 30, Point: p}); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Items()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 59 {
		t.Fatalf("Items = %d, want 59", len(got))
	}
	for _, it := range got {
		if it.ID == 30 {
			t.Fatal("deleted ID still present")
		}
	}
}

func TestInsertWrongDims(t *testing.T) {
	tr := newTestTree(t, 3, 4096, 4)
	if err := tr.Insert(Item{ID: 1, Point: geom.Point{0.5, 0.5}}); err == nil {
		t.Fatal("expected dimensionality error")
	}
}

func TestIOCountingThroughBuffer(t *testing.T) {
	// A search on a cold buffer must incur physical reads; repeating it
	// with a large, warm buffer must incur none.
	rng := rand.New(rand.NewSource(17))
	items := randItems(rng, 2000, 2)
	store := pagestore.NewMemStore(512)
	pool := pagestore.NewBufferPool(store, 4096)
	tr, err := BulkLoad(pool, 2, items, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	query := geom.Rect{Min: geom.Point{0.2, 0.2}, Max: geom.Point{0.6, 0.6}}

	// Bulk load warmed the pool; drop the cache to simulate a cold start.
	if err := pool.Clear(); err != nil {
		t.Fatal(err)
	}
	store.IO().Reset()
	if err := tr.Search(query, func(Item) bool { return true }); err != nil {
		t.Fatal(err)
	}
	cold := store.IO().PhysicalReads
	if cold == 0 {
		t.Fatal("cold search should read pages")
	}
	store.IO().Reset()
	if err := tr.Search(query, func(Item) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if warm := store.IO().PhysicalReads; warm != 0 {
		t.Fatalf("warm search incurred %d physical reads", warm)
	}
	if store.IO().LogicalReads == 0 {
		t.Fatal("warm search should still record logical reads")
	}
}

func TestTreeOnFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	store, err := pagestore.NewFileStore(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pool := pagestore.NewBufferPool(store, 64)
	tr, err := New(pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	items := randItems(rng, 200, 2)
	for _, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Items()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("Items = %d, want 200", len(got))
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	store := pagestore.NewMemStore(4096)
	pool := pagestore.NewBufferPool(store, 4096)
	rng := rand.New(rand.NewSource(61))
	items := randItems(rng, 20000, 4)
	tr, err := BulkLoad(pool, 4, items, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() > 4 {
		t.Fatalf("height %d too large for 20k items at 4 KB pages", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
