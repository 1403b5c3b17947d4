package skyline

import (
	"math/rand"
	"testing"

	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
)

// TestMaintainerSurfacesIOErrors verifies that a buffer/store failure
// during the initial BBS propagates as an error.
func TestMaintainerSurfacesIOErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	items := randItems(rng, 300, 2)
	store := pagestore.NewMemStore(512)
	pool := pagestore.NewBufferPool(store, 1<<20)
	tr, err := rtree.BulkLoad(pool, 2, items, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Clear(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the store: free the root page.
	if err := store.Free(tr.Root()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaintainer(tr, nil); err == nil {
		t.Fatal("maintainer construction should fail on a corrupted store")
	}
	if _, err := NewDeltaSky(tr, nil); err == nil {
		t.Fatal("deltasky construction should fail on a corrupted store")
	}
	if _, err := Compute(tr, nil); err == nil {
		t.Fatal("compute should fail on a corrupted store")
	}
}
