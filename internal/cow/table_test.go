package cow

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"
)

// diffTable reports how a table differs from the map it should hold:
// All must yield every entry of want once, in its fixed order (chunk by
// chunk, ascending keys within a chunk), Get must agree with All, and
// Len with both.
func diffTable(f *Frozen[int], want map[uint64]int) error {
	n, prevChunk, prevKey := 0, -1, uint64(0)
	for k, v := range f.All() {
		c := f.index(k)
		if c < prevChunk || c == prevChunk && k <= prevKey {
			return fmt.Errorf("key %d (chunk %d) after key %d (chunk %d)", k, c, prevKey, prevChunk)
		}
		prevChunk, prevKey = c, k
		if w, ok := want[k]; !ok || w != v {
			return fmt.Errorf("All yielded %d = %d, want %d (present %v)", k, v, w, ok)
		}
		if got, ok := f.Get(k); !ok || got != v {
			return fmt.Errorf("Get(%d) = %d, %v; All yielded %d", k, got, ok, v)
		}
		n++
	}
	if n != len(want) || f.Len() != len(want) {
		return fmt.Errorf("All yielded %d entries, Len %d, want %d", n, f.Len(), len(want))
	}
	return nil
}

// chunkList returns a table's chunks in directory order.
func chunkList[V any](f *Frozen[V]) []*chunk[V] {
	var out []*chunk[V]
	for _, p := range f.root {
		for _, c := range &p.chunks {
			if c == nil {
				break
			}
			out = append(out, c)
		}
	}
	return out
}

// TestCowTableFreezeIsolation checks the copy-on-write contract: a
// frozen copy never changes under later sets, deletes or growth
// splits, the writer's table always matches a plain map, and a write
// after a freeze unshares exactly the chunk it lands in and that
// chunk's directory page.
func TestCowTableFreezeIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := New[int](0)
	ref := map[uint64]int{}
	type frozen struct {
		f    Frozen[int]
		want map[uint64]int
	}
	var frozens []frozen
	for round := 0; round < 40; round++ {
		// A burst of writes: mostly inserts (so the table grows through
		// several doublings), some overwrites and deletes, some deletes
		// of absent keys.
		for i := 0; i < 200; i++ {
			k := uint64(rng.Intn(6000))
			switch rng.Intn(4) {
			case 0:
				tab.Del(k)
				delete(ref, k)
			default:
				v := rng.Int()
				tab.Set(k, v)
				ref[k] = v
			}
		}
		if err := diffTable(&tab.Frozen, ref); err != nil {
			t.Fatalf("writer: %v", err)
		}
		f := tab.Freeze()
		frozens = append(frozens, frozen{f: f, want: maps.Clone(ref)})
		for _, fr := range frozens {
			if err := diffTable(&fr.f, fr.want); err != nil {
				t.Fatalf("frozen copy: %v", err)
			}
		}
	}
	if n := len(chunkList(&tab.Frozen)); n < 32 {
		t.Fatalf("table never grew: %d chunks for %d entries", n, tab.Len())
	}

	// One write after a freeze clones exactly one chunk and its page;
	// the rest stay pointer-shared. Deleting an absent key clones
	// nothing.
	f := tab.Freeze()
	var k uint64
	for k = range ref {
		break
	}
	tab.Set(k, -1)
	tab.Del(1 << 40)
	before, after := chunkList(&f), chunkList(&tab.Frozen)
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
			if i != tab.index(k) {
				t.Fatalf("chunk %d unshared, write landed in chunk %d", i, tab.index(k))
			}
		}
	}
	if changed != 1 {
		t.Fatalf("%d chunks unshared after one write, want 1", changed)
	}
	pages := 0
	for i := range f.root {
		if f.root[i] != tab.root[i] {
			pages++
		}
	}
	if pages > 1 {
		t.Fatalf("%d directory pages unshared after one write, want at most 1", pages)
	}
	if v, _ := f.Get(k); v != ref[k] {
		t.Fatalf("frozen copy saw the write: %d, want %d", v, ref[k])
	}
	if v, _ := tab.Get(k); v != -1 {
		t.Fatalf("writer lost its write: %d", v)
	}
}

// TestFrozenConcurrentReaders runs Get and All on frozen copies from
// four goroutines while the writer keeps setting, deleting, freezing
// and growing the table past several directory pages. Under -race it
// checks that the writer never touches a page or chunk a frozen copy
// holds; every copy must read as it stood when frozen.
func TestFrozenConcurrentReaders(t *testing.T) {
	type frozen struct {
		f    Frozen[int]
		want map[uint64]int
	}
	copies := make(chan frozen)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A reader keeps draining after its first failure, so the
			// writer never blocks on it.
			var err error
			for fr := range copies {
				if err != nil {
					continue
				}
				if err = diffTable(&fr.f, fr.want); err != nil {
					continue
				}
				for k := range fr.want {
					if _, ok := fr.f.Get(k + 1<<32); ok {
						err = fmt.Errorf("Get(%d) found a key never set", k+1<<32)
						break
					}
				}
			}
			if err != nil {
				t.Errorf("frozen copy: %v", err)
			}
		}()
	}
	rng := rand.New(rand.NewSource(26))
	tab := New[int](0)
	ref := map[uint64]int{}
	for round := 0; round < 120; round++ {
		for i := 0; i < 100; i++ {
			k := uint64(rng.Intn(12000))
			if rng.Intn(5) == 0 {
				tab.Del(k)
				delete(ref, k)
			} else {
				tab.Set(k, round)
				ref[k] = round
			}
		}
		copies <- frozen{f: tab.Freeze(), want: maps.Clone(ref)}
	}
	close(copies)
	wg.Wait()
	if len(tab.root) < 2 {
		t.Fatalf("table stayed in one directory page: %d entries", tab.Len())
	}
}

// sinkFrozen keeps frozen copies alive in the allocation tests.
var sinkFrozen Frozen[int]

// TestTableAllocs pins the cost of a capture and of the writer's first
// write after it: Freeze allocates only its root slice, the first Set
// after a freeze allocates a bounded number of objects (a page, a chunk
// and its two slices), however large the table, and a later write in
// the same generation allocates nothing.
func TestTableAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector adds allocations")
	}
	for _, n := range []int{1 << 10, 1 << 17} {
		tab := New[int](0)
		for k := range uint64(n) {
			tab.Set(k, int(k))
		}
		freeze := testing.AllocsPerRun(100, func() { sinkFrozen = tab.Freeze() })
		if freeze > 1 {
			t.Fatalf("n %d: Freeze allocates %v objects, want at most its root", n, freeze)
		}
		if n == 1<<17 && len(sinkFrozen.root) != 32 {
			t.Fatalf("n %d: root of %d pages, want 32", n, len(sinkFrozen.root))
		}
		k := uint64(0)
		both := testing.AllocsPerRun(100, func() {
			sinkFrozen = tab.Freeze()
			k = (k + 7919) % uint64(n)
			tab.Set(k, -int(k))
		})
		if set := both - freeze; set > 4 {
			t.Fatalf("n %d: first Set after a freeze allocates %v objects, want at most 4", n, set)
		}
		if again := testing.AllocsPerRun(100, func() { tab.Set(k, int(k)) }); again != 0 {
			t.Fatalf("n %d: rewriting a key in the same generation allocates %v objects, want 0", n, again)
		}
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

// BenchmarkTableWriteAfterFreeze times one capture and the writer's
// first write after it — the copy-on-write cost a served mutation pays
// per table.
func BenchmarkTableWriteAfterFreeze(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 17} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			tab := New[int](n)
			for k := range uint64(n) {
				tab.Set(k, int(k))
			}
			b.ReportAllocs()
			k := uint64(0)
			for b.Loop() {
				sinkFrozen = tab.Freeze()
				k = (k + 7919) % uint64(n)
				tab.Set(k, -int(k))
			}
		})
	}
}
