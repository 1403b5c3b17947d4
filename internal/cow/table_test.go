package cow

import (
	"math/rand"
	"reflect"
	"testing"
)

// tableContents copies a table into a plain map, checking that Len and
// Get agree with iteration.
func tableContents(t *testing.T, f *Frozen[int]) map[uint64]int {
	t.Helper()
	out := make(map[uint64]int, f.Len())
	for k, v := range f.All() {
		if _, dup := out[k]; dup {
			t.Fatalf("key %d iterated twice", k)
		}
		out[k] = v
		if got, ok := f.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d, %v; iterated %d", k, got, ok, v)
		}
	}
	if len(out) != f.Len() {
		t.Fatalf("Len() = %d, iterated %d entries", f.Len(), len(out))
	}
	return out
}

func sameContents(t *testing.T, what string, got, want map[uint64]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("%s: key %d = %d (present %v), want %d", what, k, g, ok, v)
		}
	}
}

// TestCowTableFreezeIsolation checks the copy-on-write contract: a
// frozen copy never changes under later sets, deletes or growth
// rehashes, the writer's table always matches a plain map, and a write
// after a freeze unshares exactly the chunk it lands in.
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
		sameContents(t, "writer", tableContents(t, &tab.Frozen), ref)
		f := tab.Freeze()
		want := make(map[uint64]int, len(ref))
		for k, v := range ref {
			want[k] = v
		}
		frozens = append(frozens, frozen{f: f, want: want})
		for _, fr := range frozens {
			sameContents(t, "frozen copy", tableContents(t, &fr.f), fr.want)
		}
	}
	if len(tab.chunks) < 32 {
		t.Fatalf("table never grew: %d chunks for %d entries", len(tab.chunks), tab.Len())
	}

	// One write after a freeze clones exactly one chunk; the rest stay
	// pointer-shared. Deleting an absent key clones nothing.
	f := tab.Freeze()
	var k uint64
	for k = range ref {
		break
	}
	tab.Set(k, -1)
	tab.Del(1 << 40)
	changed := 0
	for i := range f.chunks {
		if reflect.ValueOf(f.chunks[i]).Pointer() != reflect.ValueOf(tab.chunks[i]).Pointer() {
			changed++
			if i != tab.chunkOf(k) {
				t.Fatalf("chunk %d unshared, write landed in chunk %d", i, tab.chunkOf(k))
			}
		}
	}
	if changed != 1 {
		t.Fatalf("%d chunks unshared after one write, want 1", changed)
	}
	if v, _ := f.Get(k); v != ref[k] {
		t.Fatalf("frozen copy saw the write: %d, want %d", v, ref[k])
	}
	if v, _ := tab.Get(k); v != -1 {
		t.Fatalf("writer lost its write: %d", v)
	}
}
