package rtree

import (
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
)

// warmAllNodes walks the whole tree once so every live page carries a
// decoded node in the cache.
func warmAllNodes(t *testing.T, tr *Tree) []*Node {
	t.Helper()
	var nodes []*Node
	var walk func(id pagestore.PageID)
	walk = func(id pagestore.PageID) {
		n, err := tr.ReadNode(id)
		if err != nil {
			t.Fatalf("ReadNode(%d): %v", id, err)
		}
		nodes = append(nodes, n)
		if !n.Leaf {
			for _, e := range n.Entries {
				walk(e.Child)
			}
		}
	}
	walk(tr.Root())
	return nodes
}

// TestDeleteInvalidatesDecodedNodes deletes through a fully warmed
// cache and checks after every deletion that the ReadNode path serves
// exactly the current page bytes — no node decoded before the deletion
// may be served for a page the deletion rewrote.
func TestDeleteInvalidatesDecodedNodes(t *testing.T) {
	store := pagestore.NewMemStore(512)
	pool := pagestore.NewBufferPool(store, 1<<20) // everything stays resident
	rng := rand.New(rand.NewSource(21))
	items := make([]Item, 400)
	for i := range items {
		items[i] = Item{ID: uint64(i + 1), Point: geom.Point{rng.Float64(), rng.Float64()}}
	}
	tr, err := BulkLoad(pool, 2, items, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	warmAllNodes(t, tr)

	perm := rng.Perm(len(items))
	for k, pi := range perm {
		if err := tr.Delete(items[pi]); err != nil {
			t.Fatalf("delete %d: %v", items[pi].ID, err)
		}
		// The deleted item must be gone from (cache-served) searches.
		found := false
		err := tr.Search(geom.RectFromPoint(items[pi].Point), func(it Item) bool {
			if it.ID == items[pi].ID {
				found = true
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatalf("deleted item %d still served after deletion %d", items[pi].ID, k)
		}
		if k%25 == 0 {
			verifyNoStaleNodes(t, tr)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		// Keep the cache warm so the next deletion hits decoded nodes.
		warmAllNodes(t, tr)
	}
	if tr.Len() != 0 {
		t.Fatalf("tree holds %d items after deleting all", tr.Len())
	}
}

// TestDeleteUnderflowReinsertionCache forces node underflow (and the
// resulting orphan reinsertion plus root shrinking) with the decoded
// cache warm, then checks the cache against the rewritten pages.
func TestDeleteUnderflowReinsertionCache(t *testing.T) {
	store := pagestore.NewMemStore(256) // tiny pages: deep tree, easy underflow
	pool := pagestore.NewBufferPool(store, 1<<20)
	rng := rand.New(rand.NewSource(22))
	items := make([]Item, 600)
	for i := range items {
		items[i] = Item{ID: uint64(i + 1), Point: geom.Point{rng.Float64(), rng.Float64()}}
	}
	tr, err := BulkLoad(pool, 2, items, 1.0) // full nodes: first deletes underflow
	if err != nil {
		t.Fatal(err)
	}
	startHeight := tr.Height()
	if startHeight < 3 {
		t.Fatalf("test needs height >= 3, got %d", startHeight)
	}
	warmAllNodes(t, tr)

	// Delete one spatial stripe: clusters of leaf-mates go together, so
	// leaves underflow and their survivors reinsert through new paths.
	for _, it := range items {
		if it.Point[0] > 0.3 {
			continue
		}
		if err := tr.Delete(it); err != nil {
			t.Fatalf("delete %d: %v", it.ID, err)
		}
	}
	verifyNoStaleNodes(t, tr)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Keep deleting until the root collapses at least one level.
	for _, it := range items {
		if tr.Height() < startHeight {
			break
		}
		if it.Point[0] <= 0.3 {
			continue
		}
		if err := tr.Delete(it); err != nil {
			t.Fatalf("delete %d: %v", it.ID, err)
		}
	}
	if tr.Height() >= startHeight {
		t.Fatalf("root never shrank (height %d)", tr.Height())
	}
	verifyNoStaleNodes(t, tr)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteConcurrentRetainedReaders pins the immutability contract
// the Workspace relies on: decoded nodes handed out by ReadNode stay
// valid and unchanged forever, so readers may keep consuming them WHILE
// deletions rewrite the underlying pages. Run with -race this fails if
// any update path mutates a shared cached node in place instead of
// copy-on-write (readNodeForUpdate).
func TestDeleteConcurrentRetainedReaders(t *testing.T) {
	store := pagestore.NewMemStore(512)
	pool := pagestore.NewBufferPool(store, 16) // eviction traffic too
	rng := rand.New(rand.NewSource(23))
	items := make([]Item, 500)
	for i := range items {
		items[i] = Item{ID: uint64(i + 1), Point: geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}}
	}
	tr, err := BulkLoad(pool, 3, items, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	retained := warmAllNodes(t, tr)

	var stop atomic.Bool
	var wg sync.WaitGroup
	var sink atomic.Int64
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(nodes []*Node) {
			defer wg.Done()
			for !stop.Load() {
				var sum int64
				for _, n := range nodes {
					for _, e := range n.Entries {
						sum += int64(e.ID) + int64(e.Child)
						sum += int64(len(e.Rect.Min))
					}
				}
				sink.Add(sum)
			}
		}(retained)
	}

	// Concurrent writer: delete half the items (underflows included).
	for i, it := range items {
		if i%2 == 0 {
			continue
		}
		if err := tr.Delete(it); err != nil {
			t.Fatalf("delete %d: %v", it.ID, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	verifyNoStaleNodes(t, tr)
	if tr.Len() != len(items)/2 {
		t.Fatalf("tree holds %d items, want %d", tr.Len(), len(items)/2)
	}
}

// TestDeleteCopiesOnlyItsPath checks that Delete copies only the
// root-to-leaf path it edits. Every item sits at one point, so every
// MBR holds it and the search for an item in the last leaves walks the
// whole tree; a Delete that copied each node it visited would allocate
// in proportion to the tree, not to its height.
func TestDeleteCopiesOnlyItsPath(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	store := pagestore.NewMemStore(512)
	pool := pagestore.NewBufferPool(store, 1<<12)
	items := make([]Item, 3000)
	for i := range items {
		items[i] = Item{ID: uint64(i + 1), Point: geom.Point{0.5, 0.5}}
	}
	tr, err := BulkLoad(pool, 2, items, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []*Node
	for _, n := range warmAllNodes(t, tr) {
		if n.Leaf {
			leaves = append(leaves, n)
		}
	}
	const runs = 5
	if len(leaves) < 10*(runs+1) {
		t.Fatalf("%d leaves, want at least %d", len(leaves), 10*(runs+1))
	}
	next := len(leaves) - (runs + 1)
	allocs := testing.AllocsPerRun(runs, func() {
		e := leaves[next].Entries[0]
		next++
		if err := tr.Delete(Item{ID: e.ID, Point: e.Rect.Min}); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(16 * tr.Height()); allocs > limit {
		t.Fatalf("Delete allocates %.1f per call over %d leaves, want at most %.0f", allocs, len(leaves), limit)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
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
