package ta

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
)

// searchAccessWant pins, per family mix, list source and Ω, what
// replayAccessScript observes: the number of Best calls, an FNV-1a hash
// over every call's (function ID, score bits, ok), the final Counters,
// and for disk lists the store's logical/physical reads. Any change to
// the sorted or random accesses, the restarts or the answers of the
// resumable search fails here. The non-linear cases go through the
// family threshold (score.MaxBound) rather than the knapsack.
var searchAccessWant = map[string]string{
	"linear/mem/omega=1":   "calls=288 hash=d6aba06f7f1877a3 sorted=2648 random=619 restarts=62",
	"linear/disk/omega=1":  "calls=288 hash=d6aba06f7f1877a3 sorted=2648 random=1857 restarts=62 io=4505/2066",
	"linear/mem/omega=2":   "calls=288 hash=d6aba06f7f1877a3 sorted=1841 random=411 restarts=36",
	"linear/disk/omega=2":  "calls=288 hash=d6aba06f7f1877a3 sorted=1841 random=1233 restarts=36 io=3074/1347",
	"linear/mem/omega=48":  "calls=288 hash=d6aba06f7f1877a3 sorted=704 random=231 restarts=0",
	"linear/disk/omega=48": "calls=288 hash=d6aba06f7f1877a3 sorted=704 random=693 restarts=0 io=1397/697",
	"mixed/mem/omega=1":    "calls=306 hash=5de385607d4f449a sorted=11382 random=1612 restarts=83",
	"mixed/disk/omega=1":   "calls=306 hash=5de385607d4f449a sorted=11382 random=4836 restarts=83 io=16218/5931",
	"mixed/mem/omega=2":    "calls=306 hash=5de385607d4f449a sorted=7434 random=1012 restarts=45",
	"mixed/disk/omega=2":   "calls=306 hash=5de385607d4f449a sorted=7434 random=3036 restarts=45 io=10470/3762",
	"mixed/mem/omega=48":   "calls=306 hash=5de385607d4f449a sorted=2141 random=445 restarts=0",
	"mixed/disk/omega=48":  "calls=306 hash=5de385607d4f449a sorted=2141 random=1335 restarts=0 io=3476/1485",
}

// accessScriptObjects and accessScriptFuncs size the replay: enough
// functions that Ω = 2 forces restarts, few enough that the script
// drains every function.
const (
	accessScriptObjects = 9
	accessScriptFuncs   = 48
	accessScriptDims    = 4
)

// replayAccessScript runs a fixed script of Best and Remove calls: each
// round asks every live search for its best function, then removes the
// function the first live search returned plus one function drawn from
// the script's own random stream, so tombstones land both at queue
// heads and deep inside the scanned lists. Every third round one search
// is released and its object gets a fresh one, which starts over lists
// that already carry tombstones (and may reuse a pooled search that
// served the other source). The script ends when no function is live,
// with one more Best per search, which must report !ok.
func replayAccessScript(t *testing.T, newSearch func(geom.Point) *Search, remove func(uint64) error, live func() int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(2109))
	objs := make([]geom.Point, accessScriptObjects)
	for i := range objs {
		objs[i] = randPoint(rng, accessScriptDims)
	}
	searches := make([]*Search, len(objs))
	for i, o := range objs {
		searches[i] = newSearch(o)
	}
	defer func() {
		for _, s := range searches {
			s.Release()
		}
	}()
	h := fnv.New64a()
	var buf [17]byte
	calls := 0
	record := func(s *Search) (uint64, bool) {
		id, sc, ok := s.Best()
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(buf[0:], id)
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(sc))
		buf[16] = 0
		if ok {
			buf[16] = 1
		}
		h.Write(buf[:])
		calls++
		return id, ok
	}
	removed := make(map[uint64]bool)
	for round := 0; live() > 0; round++ {
		first, firstOK := uint64(0), false
		for _, s := range searches {
			if id, ok := record(s); ok && !firstOK {
				first, firstOK = id, true
			}
		}
		if !firstOK {
			t.Fatalf("round %d: %d live functions but no search found one", round, live())
		}
		for _, id := range []uint64{first, uint64(1 + rng.Intn(accessScriptFuncs))} {
			if removed[id] {
				continue
			}
			if err := remove(id); err != nil {
				t.Fatal(err)
			}
			removed[id] = true
		}
		if round%3 == 2 {
			i := rng.Intn(len(searches))
			searches[i].Release()
			searches[i] = newSearch(objs[i])
		}
	}
	for _, s := range searches {
		if _, ok := record(s); ok {
			t.Fatal("Best reported a function after every function was removed")
		}
	}
	return fmt.Sprintf("calls=%d hash=%016x", calls, h.Sum64())
}

// TestSearchAccessesUnchanged locks the resumable TA search's answers
// and access counts over in-memory and disk-resident lists, for an
// all-linear and a mixed (linear, OWA, Lp, Chebyshev) function set, at
// Ω ∈ {1, 2, |F|}. The constants were recorded before the search began
// reading the list shape once per search.
func TestSearchAccessesUnchanged(t *testing.T) {
	families := []struct {
		name  string
		funcs []Func
	}{
		{"linear", randFuncs(rand.New(rand.NewSource(2101)), accessScriptFuncs, accessScriptDims)},
		{"mixed", randScorerFuncs(rand.New(rand.NewSource(2102)), accessScriptFuncs, accessScriptDims)},
	}
	for _, fam := range families {
		for _, omega := range []int{1, 2, accessScriptFuncs} {
			key := fmt.Sprintf("%s/mem/omega=%d", fam.name, omega)
			l, err := NewLists(fam.funcs, accessScriptDims)
			if err != nil {
				t.Fatal(err)
			}
			got := replayAccessScript(t, func(o geom.Point) *Search { return NewSearch(l, o, omega) }, l.Remove, l.Live)
			got += fmt.Sprintf(" sorted=%d random=%d restarts=%d",
				l.Counters.SortedAccesses, l.Counters.RandomAccesses, l.Counters.Restarts)
			if got != searchAccessWant[key] {
				t.Errorf("%s:\n got  %s\n want %s", key, got, searchAccessWant[key])
			}

			key = fmt.Sprintf("%s/disk/omega=%d", fam.name, omega)
			store := pagestore.NewMemStore(256)
			dl, err := BuildDiskLists(pagestore.NewBufferPool(store, 4), fam.funcs, accessScriptDims)
			if err != nil {
				t.Fatal(err)
			}
			store.IO().Reset()
			got = replayAccessScript(t, func(o geom.Point) *Search { return NewDiskSearch(dl, o, omega) }, dl.Remove, dl.Live)
			io := store.IO().Snapshot()
			got += fmt.Sprintf(" sorted=%d random=%d restarts=%d io=%d/%d",
				dl.Counters.SortedAccesses, dl.Counters.RandomAccesses, dl.Counters.Restarts,
				io.LogicalReads, io.PhysicalReads)
			if got != searchAccessWant[key] {
				t.Errorf("%s:\n got  %s\n want %s", key, got, searchAccessWant[key])
			}
		}
	}
}
