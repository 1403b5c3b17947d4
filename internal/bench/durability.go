package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"fairassign/internal/assign"
)

// runDurability measures what the durability layer costs and what
// recovery buys, for one (n, dims) at the given batch size. Two twin
// workspaces consume the identical churn stream in lockstep: one purely
// in-memory and one with the full fsync-before-ack barrier, so the
// per-mutation delta is the WAL encode, write and disk flush. Each
// Apply sample is one batch. The fsync twin then prices the recovery
// paths: a snapshot save, a reopen that replays the batches applied
// after it, and a warm-start reopen from a current snapshot (no replay,
// no re-solve). The gate checks that both reopened workspaces hold the
// in-memory twin's matching.
func runDurability(n, dims, batchSize int, o Options) (Row, error) {
	const batches = 8 // Apply samples, and batches to replay
	row := Row{Name: "durability", N: n, Dims: dims}
	dir, err := os.MkdirTemp("", "fairassign-bench-dur-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	p := incrementalProblem(n, dims, o)
	cfg := assign.Config{PageSize: 512, BufferFrac: 0.05}
	off, err := assign.NewWorkspace(p, cfg)
	if err != nil {
		return row, fmt.Errorf("durability: wal-off twin: %w", err)
	}
	defer off.Close()
	cfg.WALDir = filepath.Join(dir, "wal")
	fsync, err := assign.NewWorkspace(incrementalProblem(n, dims, o), cfg)
	if err != nil {
		return row, fmt.Errorf("durability: fsync twin: %w", err)
	}
	defer fsync.Close()
	apply := func(ws *assign.Workspace) func() error {
		gen := newChurnScript(p, o.Seed+43)
		return func() error { return ws.Apply(gen.batch(batchSize)) }
	}
	applyOff, applyFsync := apply(off), apply(fsync)
	for _, op := range []func() error{applyOff, applyFsync} {
		if err := op(); err != nil { // warm-up batch, excluded
			return row, err
		}
	}
	wApply, err := sample(0, batches, nil, applyOff, applyFsync)
	if err != nil {
		return row, fmt.Errorf("durability: apply: %w", err)
	}
	wSave, err := sample(o.window(), samples, nil, fsync.SaveSnapshot)
	if err != nil {
		return row, fmt.Errorf("durability: save snapshot: %w", err)
	}
	snapBytes := newestSnapshotSize(cfg.WALDir)
	for range batches {
		if err := applyOff(); err != nil {
			return row, err
		}
		if err := applyFsync(); err != nil {
			return row, err
		}
	}
	fsync.Close()

	// open reopens the durability directory; with check set it also
	// verifies the replayed batch count and the matching.
	row.Identical = true
	open := func(replay int, check bool) error {
		ws, err := assign.OpenWorkspace(cfg)
		if err != nil {
			return err
		}
		defer ws.Close()
		if check {
			if got := ws.Recovery().BatchesReplayed; got != replay {
				return fmt.Errorf("replayed %d batches, want %d", got, replay)
			}
			row.Identical = row.Identical && matchingEqual(ws.Pairs(), off.Pairs())
		}
		return nil
	}
	reopen := func(replay int) ([]window, error) {
		if err := open(replay, true); err != nil {
			return nil, err
		}
		w, err := sample(o.window(), samples, nil, func() error { return open(replay, false) })
		if err != nil {
			return nil, err
		}
		return w[0], nil
	}
	wRecover, err := reopen(batches)
	if err != nil {
		return row, fmt.Errorf("durability: recovery: %w", err)
	}
	// Warm start: save at the current epoch so a reopen replays nothing.
	rec, err := assign.OpenWorkspace(cfg)
	if err == nil {
		err = rec.SaveSnapshot()
		rec.Close()
	}
	if err != nil {
		return row, fmt.Errorf("durability: warm-start save: %w", err)
	}
	wWarm, err := reopen(0)
	if err != nil {
		return row, fmt.Errorf("durability: warm start: %w", err)
	}
	perMut := func(w window) float64 { return nsPerOp(w) / float64(batchSize) }
	row.Detail = fmt.Sprintf("batches of %d mutations; %d-byte snapshot; recovery replays %d batches",
		batchSize, snapBytes, batches)
	row.Metrics = map[string]Stat{
		"wal_off_ns_per_mutation":   per(wApply[0], perMut),
		"wal_fsync_ns_per_mutation": per(wApply[1], perMut),
		// Both twins apply the same batch in a round, so the per-round
		// ratio separates the WAL's cost from how much repair a batch
		// needs.
		"fsync_over_off_x":     speedup(wApply[1], wApply[0]),
		"save_ns_per_op":       per(wSave[0], nsPerOp),
		"recovery_ns_per_op":   per(wRecover, nsPerOp),
		"warm_start_ns_per_op": per(wWarm, nsPerOp),
	}
	return row, nil
}

// churnScript is a deterministic, self-contained object-churn stream:
// each batch removes batchSize/2 random live objects and adds the same
// number of fresh ones, so the population stays at n. Two instances
// with the same seed emit identical streams regardless of which
// workspace consumes them.
type churnScript struct {
	rng    *rand.Rand
	dims   int
	liveO  []uint64
	nextID uint64
}

func newChurnScript(p *assign.Problem, seed int64) *churnScript {
	s := &churnScript{
		rng:    rand.New(rand.NewSource(seed)),
		dims:   p.Dims,
		liveO:  make([]uint64, len(p.Objects)),
		nextID: uint64(1 << 41),
	}
	for i, o := range p.Objects {
		s.liveO[i] = o.ID
	}
	return s
}

func (s *churnScript) batch(size int) []assign.Mutation {
	muts := make([]assign.Mutation, 0, size)
	for len(muts) < size {
		// Alternate departure/arrival to hold the population constant.
		if len(muts)%2 == 0 && len(s.liveO) > 2 {
			i := s.rng.Intn(len(s.liveO))
			muts = append(muts, assign.Mutation{Kind: assign.MutRemoveObject, ID: s.liveO[i]})
			s.liveO = append(s.liveO[:i], s.liveO[i+1:]...)
		} else {
			s.nextID++
			pt := make([]float64, s.dims)
			for d := range pt {
				pt[d] = s.rng.Float64()
			}
			muts = append(muts, assign.Mutation{Kind: assign.MutAddObject, Object: assign.Object{ID: s.nextID, Point: pt}})
			s.liveO = append(s.liveO, s.nextID)
		}
	}
	return muts
}

// newestSnapshotSize returns the byte size of the newest snapshot file
// in dir (0 if none found — the scenario treats it as informational).
func newestSnapshotSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var newest string
	for _, e := range entries {
		if n := e.Name(); strings.HasPrefix(n, "snap-") && strings.HasSuffix(n, ".fasnap") && n > newest {
			newest = n
		}
	}
	if newest == "" {
		return 0
	}
	fi, err := os.Stat(filepath.Join(dir, newest))
	if err != nil {
		return 0
	}
	return fi.Size()
}
