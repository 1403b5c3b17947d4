package skyline

import (
	"math/rand"
	"sort"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/rtree"
)

// liveMaintainer builds a materialized maintainer over items whose live
// check is membership, at the same point, in the returned map. Tests
// delete an ID from the map before discarding it, as the workspace
// drops an object from its tables (or exhausts it) before Discard.
func liveMaintainer(dims int, items []rtree.Item) (*Maintainer, map[uint64]rtree.Item) {
	live := make(map[uint64]rtree.Item, len(items))
	for _, it := range items {
		live[it.ID] = it
	}
	m := NewMaintainerFromItems(dims, items, func(id uint64, p geom.Point) bool {
		it, ok := live[id]
		return ok && it.Point.Equal(p)
	}, nil)
	return m, live
}

func TestDiscardOnSkylineBehavesLikeRemove(t *testing.T) {
	items := []rtree.Item{
		{ID: 1, Point: geom.Point{0.5, 0.5}},
		{ID: 2, Point: geom.Point{0.2, 0.8}},
		{ID: 3, Point: geom.Point{0.4, 0.4}}, // dominated by 1
	}
	m, live := liveMaintainer(2, items)
	delete(live, 1)
	if err := m.Discard(1); err != nil {
		t.Fatal(err)
	}
	got := idsOf(m.Skyline())
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("after discarding 1: %v, want [2 3]", got)
	}
}

func TestDiscardParkedObjectNeverResurfaces(t *testing.T) {
	items := []rtree.Item{
		{ID: 1, Point: geom.Point{0.5, 0.5}},
		{ID: 3, Point: geom.Point{0.4, 0.4}}, // dominated by 1
	}
	m, live := liveMaintainer(2, items)
	// 3 is parked under 1; discard it while hidden.
	delete(live, 3)
	if err := m.Discard(3); err != nil {
		t.Fatal(err)
	}
	if m.Contains(3) {
		t.Fatal("discarded object must not be on the skyline")
	}
	// Removing its dominator must not resurrect it.
	if err := m.Remove(1); err != nil {
		t.Fatal(err)
	}
	if m.Contains(3) {
		t.Fatal("discarded object resurfaced after dominator removal")
	}
	if m.Size() != 0 {
		t.Fatalf("skyline should be empty, has %v", idsOf(m.Skyline()))
	}
}

func TestDiscardThenReinsertRevives(t *testing.T) {
	items := []rtree.Item{
		{ID: 1, Point: geom.Point{0.6, 0.6}},
		{ID: 3, Point: geom.Point{0.4, 0.4}},
	}
	m, live := liveMaintainer(2, items)
	delete(live, 3)
	if err := m.Discard(3); err != nil { // parked: left in place
		t.Fatal(err)
	}
	// The object comes back (same ID, same point): its stale entry is
	// live again.
	live[3] = items[1]
	if err := m.Insert(items[1]); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(1); err != nil {
		t.Fatal(err)
	}
	if !m.Contains(3) {
		t.Fatal("re-inserted object should resurface after dominator removal")
	}
	// Both the stale and the fresh parked copies of 3 pop during the
	// resume above; the live-slot guard must keep exactly one.
	if m.Size() != 1 {
		t.Fatalf("skyline size %d, want 1", m.Size())
	}
}

func TestDiscardWithoutLiveCheckRejectsParkedObject(t *testing.T) {
	items := []rtree.Item{
		{ID: 1, Point: geom.Point{0.5, 0.5}},
		{ID: 3, Point: geom.Point{0.4, 0.4}}, // dominated by 1
	}
	m, err := NewMaintainer(buildTree(t, items, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Discard(3); err == nil {
		t.Fatal("discarding a parked object without a live check should fail")
	}
	if err := m.Discard(1); err != nil {
		t.Fatalf("discarding a skyline object: %v", err)
	}
	if got := idsOf(m.Skyline()); len(got) != 1 || got[0] != 3 {
		t.Fatalf("after discarding 1: %v, want [3]", got)
	}
}

// TestDiscardRandomizedAgainstSFS drives a maintainer through a random
// interleaving of discards (of arbitrary live objects) and re-arrivals,
// checking the skyline against an SFS recomputation of the live set
// after every step. Some steps batch the way the workspace's frontier
// sync does: they insert several revived objects, then discard a mixed
// batch — skyline objects, parked objects and just-revived ones — in a
// single lenient Discard call.
func TestDiscardRandomizedAgainstSFS(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 120
	items := make([]rtree.Item, n)
	for i := range items {
		items[i] = rtree.Item{ID: uint64(i + 1), Point: geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}}
	}
	m, live := liveMaintainer(3, items)
	check := func(step int) {
		t.Helper()
		sameSkyline(t, m, live, step)
	}
	// revive re-inserts up to k previously discarded objects and returns
	// their IDs.
	revive := func(step, k int) []uint64 {
		var cand []rtree.Item
		for _, it := range items {
			if _, ok := live[it.ID]; !ok {
				cand = append(cand, it)
			}
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i].ID < cand[j].ID })
		var ids []uint64
		for ; k > 0 && len(cand) > 0; k-- {
			i := rng.Intn(len(cand))
			it := cand[i]
			cand = append(cand[:i], cand[i+1:]...)
			if m.Contains(it.ID) {
				continue
			}
			live[it.ID] = it
			if err := m.Insert(it); err != nil {
				t.Fatalf("step %d: insert %d: %v", step, it.ID, err)
			}
			ids = append(ids, it.ID)
		}
		return ids
	}
	check(-1)
	batches := 0
	for step := 0; step < 200 && len(live) > 0; step++ {
		switch r := rng.Intn(8); {
		case r < 2:
			revive(step, 1)
		case r == 2:
			revived := revive(step, 1+rng.Intn(4))
			fresh := make(map[uint64]bool, len(revived))
			for _, id := range revived {
				fresh[id] = true
			}
			var onSky, parked []uint64
			for _, id := range liveIDs(live) {
				switch {
				case fresh[id]:
				case m.Contains(id):
					onSky = append(onSky, id)
				default:
					parked = append(parked, id)
				}
			}
			var batch []uint64
			for _, ids := range [][]uint64{onSky, parked, revived} {
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				batch = append(batch, ids[:min(len(ids), 1+rng.Intn(2))]...)
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			for _, id := range batch {
				delete(live, id)
			}
			if err := m.Discard(batch...); err != nil {
				t.Fatalf("step %d: discard %v: %v", step, batch, err)
			}
			batches++
		default:
			ids := liveIDs(live)
			id := ids[rng.Intn(len(ids))]
			delete(live, id)
			if err := m.Discard(id); err != nil {
				t.Fatalf("step %d: discard %d: %v", step, id, err)
			}
		}
		check(step)
	}
	if batches == 0 {
		t.Fatal("the script ran no batched discard")
	}
}

// TestInsertParksDemotedObjectsWhole: an arrival that demotes k skyline
// objects holds k entries, one per demoted object, whatever their own
// pruned lists hold; removing it brings each back with its list.
func TestInsertParksDemotedObjectsWhole(t *testing.T) {
	items := []rtree.Item{
		{ID: 1, Point: geom.Point{0.3, 0.1}},
		{ID: 2, Point: geom.Point{0.2, 0.2}},
		{ID: 3, Point: geom.Point{0.1, 0.3}},
		{ID: 11, Point: geom.Point{0.29, 0.09}}, // under 1
		{ID: 12, Point: geom.Point{0.28, 0.05}}, // under 1
		{ID: 21, Point: geom.Point{0.19, 0.19}}, // under 2
		{ID: 31, Point: geom.Point{0.09, 0.29}}, // under 3
		{ID: 32, Point: geom.Point{0.05, 0.28}}, // under 3
	}
	m, _ := liveMaintainer(2, items)
	sky := []uint64{1, 2, 3}
	before := make(map[uint64]int)
	for _, id := range sky {
		if !m.Contains(id) || m.PlistLen(id) == 0 {
			t.Fatalf("setup: object %d should be on the skyline with a non-empty list", id)
		}
		before[id] = m.PlistLen(id)
	}
	if err := m.Insert(rtree.Item{ID: 99, Point: geom.Point{0.9, 0.9}}); err != nil {
		t.Fatal(err)
	}
	if got := m.PlistLen(99); got != len(sky) {
		t.Fatalf("arrival holds %d entries, want %d (one per demoted object)", got, len(sky))
	}
	if err := m.Remove(99); err != nil {
		t.Fatal(err)
	}
	for _, id := range sky {
		if !m.Contains(id) || m.PlistLen(id) != before[id] {
			t.Fatalf("object %d back with list %d, want on the skyline with %d", id, m.PlistLen(id), before[id])
		}
	}
}

// TestParkedDemotedObjectsAgainstSFS runs a random script on a
// materialized maintainer that keeps demoting skyline objects (arrivals
// near the top corner), then departs, exhausts and revives the demoted
// objects while they are parked, reuses departed IDs at new points, and
// finally drains everything. The skyline must equal SFS of the live set
// after every step.
func TestParkedDemotedObjectsAgainstSFS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dims = 3
	items := antiItems(rng, 200, dims)
	m, live := liveMaintainer(dims, items)
	all := make(map[uint64]rtree.Item) // every ID ever used, at its latest point
	for _, it := range items {
		all[it.ID] = it
	}
	demoted := make(map[uint64]bool) // parked by an arrival, maybe since gone
	exhausted := make(map[uint64]bool)
	nextID := uint64(10_000)
	step := 0
	check := func() {
		t.Helper()
		sameSkyline(t, m, live, step)
		step++
	}
	insert := func(it rtree.Item) {
		t.Helper()
		onSky := idsOf(m.Skyline())
		live[it.ID] = it
		all[it.ID] = it
		if err := m.Insert(it); err != nil {
			t.Fatalf("step %d: insert %d: %v", step, it.ID, err)
		}
		for _, id := range onSky {
			if !m.Contains(id) {
				demoted[id] = true
			}
		}
	}
	discard := func(id uint64) {
		t.Helper()
		delete(live, id)
		if err := m.Discard(id); err != nil {
			t.Fatalf("step %d: discard %d: %v", step, id, err)
		}
	}
	parkedDemoted := func() []uint64 {
		var out []uint64
		for id := range demoted {
			if _, ok := live[id]; ok && !m.Contains(id) {
				out = append(out, id)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	check()
	for i := 0; i < 600; i++ {
		switch r := rng.Intn(10); {
		case r < 3: // arrival near the top corner: it demotes
			p := make(geom.Point, dims)
			for d := range p {
				p[d] = 0.7 + 0.3*rng.Float64()
			}
			nextID++
			insert(rtree.Item{ID: nextID, Point: p})
		case r < 5: // departure or exhaustion of a parked demoted object
			ids := parkedDemoted()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if rng.Intn(2) == 0 {
				exhausted[id] = true
			}
			discard(id)
		case r < 6: // revival of an exhausted object, same ID and point
			var ids []uint64
			for id := range exhausted {
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				continue
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			id := ids[rng.Intn(len(ids))]
			delete(exhausted, id)
			insert(all[id])
		case r < 7: // an ID reused at a different point
			var ids []uint64
			for id := range all {
				if _, ok := live[id]; !ok && !exhausted[id] {
					ids = append(ids, id)
				}
			}
			if len(ids) == 0 {
				continue
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			insert(rtree.Item{ID: ids[rng.Intn(len(ids))], Point: randPoint(rng, dims)})
		case r < 9: // a skyline object is taken
			sky := m.Skyline()
			if len(sky) == 0 {
				continue
			}
			discard(sky[rng.Intn(len(sky))].ID)
		default: // any live object departs
			ids := liveIDs(live)
			if len(ids) == 0 {
				continue
			}
			discard(ids[rng.Intn(len(ids))])
		}
		check()
	}
	if len(parkedDemoted()) == 0 && len(demoted) == 0 {
		t.Fatal("script never demoted a skyline object")
	}
	for len(live) > 0 {
		sky := m.Skyline()
		if len(sky) == 0 {
			t.Fatalf("step %d: empty skyline with %d live objects", step, len(live))
		}
		discard(sky[rng.Intn(len(sky))].ID)
		check()
	}
}

// sameSkyline fails unless the maintained skyline equals SFS of the live
// set, as ID sets.
func sameSkyline(t *testing.T, m *Maintainer, live map[uint64]rtree.Item, step int) {
	t.Helper()
	want := idsOf(SFS(liveItems(live)))
	got := idsOf(m.Skyline())
	if len(got) != len(want) {
		t.Fatalf("step %d: skyline %v, want %v", step, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: skyline %v, want %v", step, got, want)
		}
	}
}

func liveItems(live map[uint64]rtree.Item) []rtree.Item {
	out := make([]rtree.Item, 0, len(live))
	for _, it := range live {
		out = append(out, it)
	}
	return out
}

func liveIDs(live map[uint64]rtree.Item) []uint64 {
	out := make([]uint64, 0, len(live))
	for id := range live {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
