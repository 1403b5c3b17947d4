package assign

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"slices"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/metrics"
	"fairassign/internal/pagestore"
	"fairassign/internal/snapshot"
	"fairassign/internal/vfs"
	"fairassign/internal/wal"
)

// tempFileStoreFactory hands out FileStores on distinct files under
// dir.
func tempFileStoreFactory(t *testing.T, dir string) func(int) (pagestore.Store, error) {
	t.Helper()
	n := 0
	return func(pageSize int) (pagestore.Store, error) {
		n++
		return pagestore.NewFileStore(path.Join(dir, fmt.Sprintf("store-%d.pages", n)), pageSize)
	}
}

func durableCfg(fs vfs.FS) Config {
	cfg := testCfg()
	cfg.WALDir = "dur"
	cfg.FS = fs
	return cfg
}

// mutationScript returns n deterministic mutation batches against a
// workspace seeded from randProblem(rng, nf, no, dims).
func mutationScript(rng *rand.Rand, dims, n int) [][]Mutation {
	var batches [][]Mutation
	nextObj, nextFunc := uint64(10000), uint64(10000)
	for i := 0; i < n; i++ {
		var batch []Mutation
		for j := 0; j < 1+rng.Intn(3); j++ {
			switch rng.Intn(4) {
			case 0:
				pt := make(geom.Point, dims)
				for d := range pt {
					pt[d] = rng.Float64()
				}
				batch = append(batch, Mutation{Kind: MutAddObject,
					Object: Object{ID: nextObj, Point: pt, Capacity: 1 + rng.Intn(2)}})
				nextObj++
			case 1:
				w := make([]float64, dims)
				sum := 0.0
				for d := range w {
					w[d] = 0.05 + rng.Float64()
					sum += w[d]
				}
				for d := range w {
					w[d] /= sum
				}
				batch = append(batch, Mutation{Kind: MutAddFunction,
					Function: Function{ID: nextFunc, Weights: w, Gamma: 0.5 + rng.Float64()}})
				nextFunc++
			case 2:
				if nextObj > 10000 {
					batch = append(batch, Mutation{Kind: MutRemoveObject, ID: 10000 + uint64(rng.Intn(int(nextObj-10000)))})
				}
			default:
				if nextFunc > 10000 {
					batch = append(batch, Mutation{Kind: MutRemoveFunction, ID: 10000 + uint64(rng.Intn(int(nextFunc-10000)))})
				}
			}
		}
		if len(batch) == 0 {
			continue
		}
		batches = append(batches, batch)
	}
	return batches
}

// applyScript applies batches, skipping ones the workspace rejects
// (removal of an already-removed ID etc. — the script is generated
// blind); rejected batches mutate nothing, so both twins skip the same
// ones.
func applyScript(t *testing.T, w *Workspace, batches [][]Mutation) int {
	t.Helper()
	applied := 0
	for _, b := range batches {
		err := w.Apply(b)
		if err == nil {
			applied++
			continue
		}
		if errors.Is(err, ErrUnknownID) || errors.Is(err, ErrDuplicateID) {
			continue
		}
		t.Fatalf("apply: %v", err)
	}
	return applied
}

// checkTwin asserts two workspaces serve identical state: matching,
// logical stats (IO excluded: a freshly recovered buffer pool is cold,
// so physical reads legitimately differ), and availability frontier.
func checkTwin(t *testing.T, label string, got, want *Workspace) {
	t.Helper()
	samePairs(t, label, got.Pairs(), want.Pairs())
	gs, ws := got.Stats(), want.Stats()
	gs.IO, ws.IO = metrics.IOCounter{}, metrics.IOCounter{}
	if gs != ws {
		t.Fatalf("%s: stats = %+v, want %+v", label, gs, ws)
	}
	gp, wp := got.ProblemSnapshot(), want.ProblemSnapshot()
	if len(gp.Objects) != len(wp.Objects) || len(gp.Functions) != len(wp.Functions) {
		t.Fatalf("%s: population mismatch", label)
	}
	if err := got.VerifyStable(); err != nil {
		t.Fatalf("%s: recovered matching unstable: %v", label, err)
	}
}

func TestDurableWarmStartIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	p := randProblem(rng, 12, 60, 3)
	fs := vfs.NewMem()

	w, err := NewWorkspace(p, durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	batches := mutationScript(rng, 3, 20)
	applyScript(t, w, batches)
	if err := w.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Twin that never went through disk.
	twin, err := NewWorkspace(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	applyScript(t, twin, batches)

	r, err := OpenWorkspace(durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := r.Recovery()
	if info == nil || info.BatchesReplayed != 0 || info.SnapshotsSkipped != 0 {
		t.Fatalf("recovery info = %+v (want pure warm-start)", info)
	}
	checkTwin(t, "warm-start", r, twin)
	if searches := r.Stats().Searches; searches != twin.Stats().Searches {
		t.Fatalf("restore issued repair searches: %d vs %d", searches, twin.Stats().Searches)
	}

	// The recovered workspace must keep behaving exactly like the twin.
	more := mutationScript(rng, 3, 8)
	applyScript(t, r, more)
	applyScript(t, twin, more)
	checkTwin(t, "post-recovery mutations", r, twin)
	checkAgainstResolve(t, r, "recovered workspace")
}

func TestDurableWALReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	p := randProblem(rng, 10, 50, 2)
	fs := vfs.NewMem()

	w, err := NewWorkspace(p, durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	batches := mutationScript(rng, 2, 15)
	applied := applyScript(t, w, batches)
	// No SaveSnapshot, no Close: simulate a hard crash — every applied
	// batch was fsynced to the WAL before it was acknowledged.

	twin, err := NewWorkspace(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	applyScript(t, twin, batches)

	r, err := OpenWorkspace(durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := r.Recovery()
	if info.BatchesReplayed != applied {
		t.Fatalf("replayed %d batches, want %d", info.BatchesReplayed, applied)
	}
	if info.SnapshotEpoch != 1 {
		t.Fatalf("snapshot epoch = %d, want 1 (initial)", info.SnapshotEpoch)
	}
	checkTwin(t, "wal replay", r, twin)
	w.Close()
}

func TestDurableSnapshotFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	p := randProblem(rng, 8, 40, 2)
	fs := vfs.NewMem()

	w, err := NewWorkspace(p, durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	batches := mutationScript(rng, 2, 10)
	applyScript(t, w, batches)
	if err := w.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	newest := w.epoch
	more := mutationScript(rng, 2, 5)
	applyScript(t, w, more)
	w.Close()

	twin, err := NewWorkspace(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	applyScript(t, twin, batches)
	applyScript(t, twin, more)

	// Corrupt the newest snapshot: recovery must fall back to the
	// initial snapshot and replay the whole WAL instead.
	name := path.Join("dur", snapshot.FileName(newest))
	raw, err := fs.ReadAll(name)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	fs.WriteAll(name, raw)

	r, err := OpenWorkspace(durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := r.Recovery()
	if info.SnapshotsSkipped != 1 {
		t.Fatalf("snapshots skipped = %d, want 1", info.SnapshotsSkipped)
	}
	if info.SnapshotEpoch != 1 {
		t.Fatalf("fallback snapshot epoch = %d, want 1", info.SnapshotEpoch)
	}
	if info.BatchesReplayed == 0 {
		t.Fatal("fallback must replay the WAL")
	}
	checkTwin(t, "fallback", r, twin)
}

func TestDurableTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	p := randProblem(rng, 8, 40, 2)
	fs := vfs.NewMem()

	w, err := NewWorkspace(p, durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	batches := mutationScript(rng, 2, 6)
	applied := applyScript(t, w, batches)
	if applied < 2 {
		t.Fatal("script too short")
	}

	// Tear the last record: chop bytes off the only segment.
	segs, err := wal.ListSegments(fs, "dur")
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	name := path.Join("dur", segs[0].Name)
	raw, _ := fs.ReadAll(name)
	fs.WriteAll(name, raw[:len(raw)-3])

	twin, err := NewWorkspace(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	// The twin applies everything except the torn final batch.
	n := 0
	for _, b := range batches {
		if twin.Apply(b) == nil {
			n++
			if n == applied-1 {
				break
			}
		}
	}

	r, err := OpenWorkspace(durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := r.Recovery()
	if !info.TornTail {
		t.Fatal("torn tail not reported")
	}
	if info.BatchesReplayed != applied-1 {
		t.Fatalf("replayed %d, want %d", info.BatchesReplayed, applied-1)
	}
	checkTwin(t, "torn tail", r, twin)
	w.Close()
}

func TestDurableWALDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	p := randProblem(rng, 6, 30, 2)
	fs := vfs.NewMem()

	w, err := NewWorkspace(p, durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, w, mutationScript(rng, 2, 6))
	if err := w.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	applyScript(t, w, mutationScript(rng, 2, 4))
	w.Close()

	// Delete every snapshot except the initial one, and the first WAL
	// segment: the surviving segment starts past epoch 1 — an epoch gap
	// recovery must refuse to bridge.
	epochs, _ := snapshot.List(fs, "dur")
	for _, e := range epochs[1:] {
		fs.Remove(path.Join("dur", snapshot.FileName(e)))
	}
	segs, _ := wal.ListSegments(fs, "dur")
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(segs))
	}
	fs.Remove(path.Join("dur", segs[0].Name))

	_, err = OpenWorkspace(durableCfg(fs))
	if !errors.Is(err, ErrWALDiverged) {
		t.Fatalf("err = %v, want ErrWALDiverged", err)
	}
}

func TestDurableTypedErrors(t *testing.T) {
	fs := vfs.NewMem()
	rng := rand.New(rand.NewSource(76))
	p := randProblem(rng, 4, 20, 2)

	// No WALDir.
	if _, err := OpenWorkspace(testCfg()); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("OpenWorkspace without WALDir: %v", err)
	}
	// Empty durability dir.
	cfg := durableCfg(fs)
	if _, err := OpenWorkspace(cfg); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("OpenWorkspace on empty dir: %v", err)
	}

	// Fresh NewWorkspace must refuse a dir that already holds a
	// workspace.
	w, err := NewWorkspace(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := NewWorkspace(p, cfg); !errors.Is(err, ErrDurableDirInUse) {
		t.Fatalf("NewWorkspace on used dir: %v", err)
	}

	// SaveSnapshot on a non-durable workspace.
	nd, err := NewWorkspace(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.SaveSnapshot(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("SaveSnapshot non-durable: %v", err)
	}

	// Every snapshot corrupt -> error mentioning the cause.
	epochs, _ := snapshot.List(fs, "dur")
	for _, e := range epochs {
		name := path.Join("dur", snapshot.FileName(e))
		raw, _ := fs.ReadAll(name)
		raw[len(raw)-1] ^= 0xFF
		fs.WriteAll(name, raw)
	}
	if _, err := OpenWorkspace(cfg); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("all snapshots corrupt: %v", err)
	}
}

func TestDurableRotationPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := randProblem(rng, 6, 30, 2)
	fs := vfs.NewMem()

	w, err := NewWorkspace(p, durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for round := 0; round < 4; round++ {
		applyScript(t, w, mutationScript(rand.New(rand.NewSource(int64(100+round))), 2, 5))
		if err := w.SaveSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	epochs, err := snapshot.List(fs, "dur")
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 {
		t.Fatalf("retained %d snapshots, want 2", len(epochs))
	}
	segs, err := wal.ListSegments(fs, "dur")
	if err != nil {
		t.Fatal(err)
	}
	// Segments from before the older retained snapshot are gone; the
	// fallback snapshot's replay window and the live segment stay.
	for _, sg := range segs {
		_, base, err := wal.ReadHeader(fs, "dur", sg.Name)
		if err != nil {
			t.Fatal(err)
		}
		if base < epochs[0]-1 && base != 0 {
			// Every surviving segment must still be useful to some
			// retained snapshot lineage.
			next := false
			for _, other := range segs {
				if other.Seq == sg.Seq+1 {
					if _, nb, _ := wal.ReadHeader(fs, "dur", other.Name); nb > epochs[0] {
						next = true
					}
				}
			}
			if !next {
				t.Fatalf("stale segment %s (base %d) survived prune; snapshots %v", sg.Name, base, epochs)
			}
		}
	}
	// And the directory must still recover.
	r, err := OpenWorkspace(durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

// Reopening a durable directory does not pile up WAL segments: every
// open starts a segment, and prunes the segment the previous open
// started if nothing was logged into it.
func TestDurableReopenPrunesEmptySegments(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	p := randProblem(rng, 6, 30, 2)
	fs := vfs.NewMem()
	cfg := durableCfg(fs)
	batches := mutationScript(rng, 2, 8)

	w, err := NewWorkspace(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	applied := applyScript(t, w, batches[:4])
	w.Close()
	var counts []int
	for cycle := 1; cycle <= 5; cycle++ {
		r, err := OpenWorkspace(cfg)
		if err != nil {
			t.Fatalf("reopen %d: %v", cycle, err)
		}
		segs, err := wal.ListSegments(fs, "dur")
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(segs))
		if cycle == 3 {
			more := applyScript(t, r, batches[4:])
			if more == 0 {
				t.Fatal("third cycle applied no batch")
			}
			applied += more
		}
		r.Close()
	}
	if want := []int{2, 2, 2, 3, 3}; !slices.Equal(counts, want) {
		t.Fatalf("segments after each reopen = %v, want %v", counts, want)
	}

	twin, err := NewWorkspace(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	applyScript(t, twin, batches)
	r, err := OpenWorkspace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info := r.Recovery(); info.BatchesReplayed != applied || info.FinalEpoch != uint64(1+applied) {
		t.Fatalf("recovery info = %+v, want %d batches replayed to epoch %d", info, applied, 1+applied)
	}
	checkTwin(t, "reopened", r, twin)
}

// A crash inside SaveSnapshot's rotation can tear the new segment's
// header before any record lands. Recovery reads that segment as an
// empty torn tail, and the reopened workspace must log into its place:
// a segment started after the torn one would leave the torn one inside
// the log, and the next recovery would fail as diverged, losing every
// batch acknowledged since.
func TestDurableTornSegmentHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	p := randProblem(rng, 6, 30, 2)
	fs := vfs.NewMem()
	cfg := durableCfg(fs)
	batches := mutationScript(rng, 2, 6)
	if len(batches) < 6 {
		t.Fatalf("script has %d batches, want 6", len(batches))
	}

	w, err := NewWorkspace(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := applyScript(t, w, batches[:3])
	if err := w.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	segs, err := wal.ListSegments(fs, "dur")
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	name := path.Join("dur", segs[len(segs)-1].Name)
	raw, _ := fs.ReadAll(name)
	fs.WriteAll(name, raw[:10])

	r, err := OpenWorkspace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Recovery().TornTail {
		t.Fatal("torn segment header not reported")
	}
	after := applyScript(t, r, batches[3:6])
	if before == 0 || after == 0 {
		t.Fatalf("applied %d batches before the tear and %d after, want some of each", before, after)
	}
	r.Close()

	twin, err := NewWorkspace(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	applyScript(t, twin, batches[:6])
	r, err = OpenWorkspace(cfg)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer r.Close()
	if info := r.Recovery(); info.BatchesReplayed != after {
		t.Fatalf("recovery info = %+v, want %d batches replayed", info, after)
	}
	checkTwin(t, "reopened after a torn segment header", r, twin)
}

func TestDurableFileStoreBacked(t *testing.T) {
	// End-to-end on the real filesystem with FileStore-backed page
	// stores: durability does not depend on the in-memory test FS.
	rng := rand.New(rand.NewSource(78))
	p := randProblem(rng, 8, 40, 2)
	dir := t.TempDir()

	cfg := testCfg()
	cfg.WALDir = path.Join(dir, "dur")
	cfg.StoreFactory = tempFileStoreFactory(t, dir)

	w, err := NewWorkspace(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := mutationScript(rng, 2, 10)
	applyScript(t, w, batches)
	w.Close() // flushes nothing extra: WAL already has every batch

	twin, err := NewWorkspace(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	applyScript(t, twin, batches)

	r, err := OpenWorkspace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkTwin(t, "filestore", r, twin)
}
