package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fairassign/internal/assign"
)

// DurabilityCase measures what the durability layer costs and what
// recovery buys. Two twin workspaces consume the identical churn
// stream: one purely in-memory (the baseline the hot-path cases gate)
// and one with the full fsync-before-ack barrier — the per-mutation
// delta is the WAL encode, write and disk flush. The fsync twin then
// exercises the recovery paths: a timed snapshot save, a timed
// replay-on-open over the post-snapshot batches, and a timed
// warm-start open (snapshot only, zero replay). Identical gates the
// scenario: the recovered matching must equal the in-memory twin's.
type DurabilityCase struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	Dims      int    `json:"dims"`
	BatchSize int    `json:"batch_size"`
	// Per-mutation Apply latency over the shared measured stream.
	ApplyNsPerMutOff   int64 `json:"apply_ns_per_mut_wal_off"`
	ApplyNsPerMutFsync int64 `json:"apply_ns_per_mut_wal_fsync"`
	// SnapshotSaveNs times one SaveSnapshot (encode + write + fsync +
	// rename + log rotation); SnapshotBytes is the resulting file size.
	SnapshotSaveNs int64 `json:"snapshot_save_ns"`
	SnapshotBytes  int64 `json:"snapshot_bytes"`
	// RecoveryNs times OpenWorkspace when RecoveryBatches committed
	// batches must be replayed past the snapshot; WarmStartNs times it
	// when the snapshot alone is current (no replay, no re-solve).
	RecoveryNs      int64 `json:"recovery_ns"`
	RecoveryBatches int   `json:"recovery_batches"`
	WarmStartNs     int64 `json:"warm_start_ns"`
	Identical       bool  `json:"identical"`
}

// runDurability measures the WAL tax and the recovery times for one
// (n, dims) at the given batch size.
func runDurability(n, dims, batchSize int, opts Options) (DurabilityCase, error) {
	c := DurabilityCase{Name: "durability", N: n, Dims: dims, BatchSize: batchSize}
	const (
		measuredBatches = 8
		replayBatches   = 8
	)
	p := incrementalProblem(n, dims, opts)

	// Identical streams: one generator per twin, same seed.
	type twin struct {
		ws  *assign.Workspace
		gen *churnScript
		t   time.Duration
	}
	dir := ""
	var tmpDirs []string
	defer func() {
		for _, d := range tmpDirs {
			os.RemoveAll(d)
		}
	}()
	newTwin := func(durable bool) (*twin, error) {
		cfg := assign.Config{PageSize: 512, BufferFrac: 0.05}
		if durable {
			d, err := os.MkdirTemp("", "fairassign-bench-dur-*")
			if err != nil {
				return nil, err
			}
			tmpDirs = append(tmpDirs, d)
			cfg.Durable, cfg.WALDir = true, filepath.Join(d, "wal")
			dir = cfg.WALDir
		}
		ws, err := assign.NewWorkspace(incrementalProblem(n, dims, opts), cfg)
		if err != nil {
			return nil, err
		}
		return &twin{ws: ws, gen: newChurnScript(p, opts.Seed+43)}, nil
	}
	off, err := newTwin(false)
	if err != nil {
		return c, fmt.Errorf("%s: wal-off twin: %w", c.Name, err)
	}
	defer off.ws.Close()
	fsync, err := newTwin(true)
	if err != nil {
		return c, fmt.Errorf("%s: fsync twin: %w", c.Name, err)
	}
	defer fsync.ws.Close()
	twins := []*twin{off, fsync}

	// Warm-up batch, then the measured stream, applied in lockstep.
	for bi := 0; bi < 1+measuredBatches; bi++ {
		for _, tw := range twins {
			bb := tw.gen.batch(batchSize)
			start := time.Now()
			if err := tw.ws.Apply(bb); err != nil {
				return c, fmt.Errorf("%s: batch %d: %w", c.Name, bi, err)
			}
			if bi > 0 {
				tw.t += time.Since(start)
			}
		}
	}
	muts := int64(measuredBatches * batchSize)
	c.ApplyNsPerMutOff = off.t.Nanoseconds() / muts
	c.ApplyNsPerMutFsync = fsync.t.Nanoseconds() / muts

	// Snapshot save on the fsync twin, then replayBatches more applied
	// to every twin so the final states stay in lockstep.
	start := time.Now()
	if err := fsync.ws.SaveSnapshot(); err != nil {
		return c, fmt.Errorf("%s: save snapshot: %w", c.Name, err)
	}
	c.SnapshotSaveNs = time.Since(start).Nanoseconds()
	c.SnapshotBytes = newestSnapshotSize(dir)
	for bi := 0; bi < replayBatches; bi++ {
		for _, tw := range twins {
			if err := tw.ws.Apply(tw.gen.batch(batchSize)); err != nil {
				return c, fmt.Errorf("%s: replay batch %d: %w", c.Name, bi, err)
			}
		}
	}
	fsync.ws.Close()

	// Recovery: snapshot restore + WAL replay of the tail batches.
	cfg := assign.Config{PageSize: 512, BufferFrac: 0.05, Durable: true, WALDir: dir}
	start = time.Now()
	rec, err := assign.OpenWorkspace(cfg)
	if err != nil {
		return c, fmt.Errorf("%s: recovery open: %w", c.Name, err)
	}
	c.RecoveryNs = time.Since(start).Nanoseconds()
	c.RecoveryBatches = rec.Recovery().BatchesReplayed
	c.Identical = matchingEqual(rec.Pairs(), off.ws.Pairs())

	// Warm start: save at the current epoch, reopen — no replay at all.
	if err := rec.SaveSnapshot(); err != nil {
		rec.Close()
		return c, fmt.Errorf("%s: warm-start save: %w", c.Name, err)
	}
	rec.Close()
	start = time.Now()
	warm, err := assign.OpenWorkspace(cfg)
	if err != nil {
		return c, fmt.Errorf("%s: warm-start open: %w", c.Name, err)
	}
	c.WarmStartNs = time.Since(start).Nanoseconds()
	if br := warm.Recovery().BatchesReplayed; br != 0 {
		warm.Close()
		return c, fmt.Errorf("%s: warm start replayed %d batches, want 0", c.Name, br)
	}
	c.Identical = c.Identical && matchingEqual(warm.Pairs(), off.ws.Pairs())
	warm.Close()
	return c, nil
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
