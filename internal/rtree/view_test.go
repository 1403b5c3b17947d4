package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
)

// freeze flushes the pool and returns a view of the tree as it stands.
func freeze(t *testing.T, tree *Tree, vs *pagestore.VersionedStore) (*View, *pagestore.Snapshot) {
	t.Helper()
	if err := tree.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	snap := vs.Acquire()
	return NewView(snap, tree.Dims(), tree.Meta()), snap
}

func sortedItems(items []Item) []Item {
	out := append([]Item(nil), items...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func sameItems(t *testing.T, label string, got, want []Item) {
	t.Helper()
	g, w := sortedItems(got), sortedItems(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d items, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i].ID != w[i].ID || !g[i].Point.Equal(w[i].Point) {
			t.Fatalf("%s: item %d = %v, want %v", label, i, g[i], w[i])
		}
	}
}

// A frozen view keeps answering with the tree as of its epoch — window
// search and full scan — while the live tree absorbs physical inserts,
// deletes, splits, and root changes.
func TestViewFrozenAcrossMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vs := pagestore.NewVersioned(pagestore.NewMemStore(256))
	pool := pagestore.NewBufferPool(vs, 1<<20)
	tree, err := New(pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	var live []Item
	for i := 0; i < 300; i++ {
		it := Item{ID: uint64(i + 1), Point: geom.Point{rng.Float64(), rng.Float64()}}
		if err := tree.Insert(it); err != nil {
			t.Fatal(err)
		}
		live = append(live, it)
	}
	frozen := append([]Item(nil), live...)
	view, snap := freeze(t, tree, vs)
	defer snap.Release()

	// Churn the live tree hard enough to split, shrink, and relocate
	// nodes: delete half, insert a new generation.
	for i := 0; i < 150; i++ {
		idx := rng.Intn(len(live))
		if err := tree.Delete(live[idx]); err != nil {
			t.Fatal(err)
		}
		live[idx] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	for i := 0; i < 200; i++ {
		it := Item{ID: uint64(10_000 + i), Point: geom.Point{rng.Float64(), rng.Float64()}}
		if err := tree.Insert(it); err != nil {
			t.Fatal(err)
		}
		live = append(live, it)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	gotFrozen, err := readerItems(view, view.Len())
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, "frozen view", gotFrozen, frozen)
	gotLive, err := tree.Items()
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, "live tree", gotLive, live)

	// Window search over the view sees only frozen items.
	q := geom.Rect{Min: geom.Point{0.2, 0.2}, Max: geom.Point{0.8, 0.8}}
	want := 0
	for _, it := range frozen {
		if q.Contains(it.Point) {
			want++
		}
	}
	got := 0
	if _, err := searchReader(view, view.Root(), q, func(Item) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("view window search found %d, want %d", got, want)
	}
}

// Two views at different epochs answer independently.
func TestViewMultiEpoch(t *testing.T) {
	vs := pagestore.NewVersioned(pagestore.NewMemStore(256))
	pool := pagestore.NewBufferPool(vs, 1<<20)
	tree, err := New(pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := tree.Insert(Item{ID: uint64(i), Point: geom.Point{float64(i), float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	v1, s1 := freeze(t, tree, vs)
	defer s1.Release()
	for i := 51; i <= 120; i++ {
		if err := tree.Insert(Item{ID: uint64(i), Point: geom.Point{float64(i), float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	v2, s2 := freeze(t, tree, vs)
	defer s2.Release()
	if v1.Len() != 50 || v2.Len() != 120 {
		t.Fatalf("view sizes %d/%d, want 50/120", v1.Len(), v2.Len())
	}
	i1, err := readerItems(v1, v1.Len())
	if err != nil {
		t.Fatal(err)
	}
	i2, err := readerItems(v2, v2.Len())
	if err != nil {
		t.Fatal(err)
	}
	if len(i1) != 50 || len(i2) != 120 {
		t.Fatalf("view item counts %d/%d, want 50/120", len(i1), len(i2))
	}
}
