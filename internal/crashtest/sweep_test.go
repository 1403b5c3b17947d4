package crashtest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fairassign/internal/assign"
	"fairassign/internal/geom"
	"fairassign/internal/metrics"
	"fairassign/internal/pagestore"
	"fairassign/internal/vfs"
)

// The conformance sweep: run a fixed mutation script against a durable
// workspace, crash it at every injected byte offset, reboot under both
// power-loss policies, recover with OpenWorkspace, and assert the
// recovered workspace equals a never-crashed twin at the same committed
// prefix — acked <= recovered <= issued, state-identical.

const sweepDir = "dur"

func sweepProblem() *assign.Problem {
	rng := rand.New(rand.NewSource(99))
	p := &assign.Problem{Dims: 2}
	for i := 0; i < 16; i++ {
		p.Objects = append(p.Objects, assign.Object{
			ID:    uint64(i + 1),
			Point: geom.Point{rng.Float64(), rng.Float64()},
		})
	}
	for i := 0; i < 5; i++ {
		a := 0.2 + 0.6*rng.Float64()
		p.Functions = append(p.Functions, assign.Function{
			ID:      uint64(i + 1),
			Weights: []float64{a, 1 - a},
		})
	}
	return p
}

// sweepBatches is prefix-valid: every batch only references base IDs or
// IDs added by an earlier batch, so any crash-truncated prefix replays
// cleanly.
func sweepBatches() [][]assign.Mutation {
	obj := func(id uint64, x, y float64, cap_ int) assign.Mutation {
		return assign.Mutation{Kind: assign.MutAddObject,
			Object: assign.Object{ID: id, Point: geom.Point{x, y}, Capacity: cap_}}
	}
	fun := func(id uint64, a float64) assign.Mutation {
		return assign.Mutation{Kind: assign.MutAddFunction,
			Function: assign.Function{ID: id, Weights: []float64{a, 1 - a}}}
	}
	rmObj := func(id uint64) assign.Mutation {
		return assign.Mutation{Kind: assign.MutRemoveObject, ID: id}
	}
	rmFun := func(id uint64) assign.Mutation {
		return assign.Mutation{Kind: assign.MutRemoveFunction, ID: id}
	}
	return [][]assign.Mutation{
		{obj(100, 0.91, 0.88, 2), fun(200, 0.7)},
		{obj(101, 0.15, 0.95, 1), rmObj(3)},
		{rmFun(200), fun(201, 0.35)},
		{obj(102, 0.55, 0.52, 1), obj(103, 0.8, 0.2, 1), rmObj(100)},
		{fun(202, 0.5), rmObj(1)},
		{rmFun(2), obj(104, 0.42, 0.77, 1)},
	}
}

// savePoints: SaveSnapshot after these batch indexes (1-based count of
// applied batches). Two saves exercise rotation and prune.
var savePoints = map[int]bool{2: true, 4: true}

func sweepCfg(fs *vfs.MemFS, factory func(int) (pagestore.Store, error)) assign.Config {
	return assign.Config{
		PageSize:     256,
		BufferFrac:   0.1,
		OmegaFrac:    0.05,
		WALDir:       sweepDir,
		FS:           fs,
		StoreFactory: factory,
	}
}

// twinState is the canonical serving state used for equality.
type twinState struct {
	pairs []assign.Pair
	stats assign.WorkspaceStats
	avail []uint64
}

func captureState(w *assign.Workspace) twinState {
	pairs := w.Pairs()
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].FuncID != pairs[j].FuncID {
			return pairs[i].FuncID < pairs[j].FuncID
		}
		return pairs[i].ObjectID < pairs[j].ObjectID
	})
	st := w.Stats()
	// Physical I/O legitimately diverges after recovery (a fresh buffer
	// pool is cold); everything else must be identical.
	st.IO = metrics.IOCounter{}
	return twinState{pairs: pairs, stats: st, avail: w.FrontierIDs()}
}

func sameState(a, b twinState) error {
	if len(a.pairs) != len(b.pairs) {
		return fmt.Errorf("pair count %d != %d", len(a.pairs), len(b.pairs))
	}
	for i := range a.pairs {
		if a.pairs[i] != b.pairs[i] {
			return fmt.Errorf("pair %d: %+v != %+v", i, a.pairs[i], b.pairs[i])
		}
	}
	if a.stats != b.stats {
		return fmt.Errorf("stats %+v != %+v", a.stats, b.stats)
	}
	if len(a.avail) != len(b.avail) {
		return fmt.Errorf("frontier size %d != %d", len(a.avail), len(b.avail))
	}
	for i := range a.avail {
		if a.avail[i] != b.avail[i] {
			return fmt.Errorf("frontier[%d] = %d != %d", i, a.avail[i], b.avail[i])
		}
	}
	return nil
}

// runScript drives the workspace lifecycle against fs until the crash
// point kills it. Returns the number of acknowledged batches (-1 if
// construction itself failed) and the number of batches issued.
func runScript(fs *vfs.MemFS, factory func(int) (pagestore.Store, error)) (acked, issued int) {
	p := sweepProblem()
	w, err := assign.NewWorkspace(p, sweepCfg(fs, factory))
	if err != nil {
		return -1, 0
	}
	defer w.Close()
	for i, b := range sweepBatches() {
		issued = i + 1
		if err := w.Apply(b); err != nil {
			return acked, issued
		}
		acked = i + 1
		if savePoints[acked] {
			// A failed snapshot save is not fatal — the workspace keeps
			// serving and logging.
			_ = w.SaveSnapshot()
		}
	}
	return acked, issued
}

// region is a labeled byte range of the recording run.
type region struct {
	label      string
	start, end int64
}

// recordRegions replays the script uncrashed on a recording FS and
// returns the labeled write regions plus the total bytes written.
func recordRegions(t *testing.T, factory func(int) (pagestore.Store, error)) ([]region, int64) {
	t.Helper()
	fs := vfs.NewMem()
	p := sweepProblem()
	var regs []region
	mark := func(label string, start int64) {
		regs = append(regs, region{label: label, start: start, end: fs.Written()})
	}
	c0 := fs.Written()
	w, err := assign.NewWorkspace(p, sweepCfg(fs, factory))
	if err != nil {
		t.Fatalf("recording run: %v", err)
	}
	defer w.Close()
	mark("construct", c0)
	for i, b := range sweepBatches() {
		a0 := fs.Written()
		if err := w.Apply(b); err != nil {
			t.Fatalf("recording apply %d: %v", i, err)
		}
		mark("wal-append", a0)
		if savePoints[i+1] {
			s0 := fs.Written()
			if err := w.SaveSnapshot(); err != nil {
				t.Fatalf("recording save after %d: %v", i+1, err)
			}
			mark("snapshot+rotate", s0)
		}
	}
	return regs, fs.Written()
}

// twinStates returns the canonical state after construction and after
// each batch, from a never-crashed in-memory twin.
func twinStates(t *testing.T) []twinState {
	t.Helper()
	w, err := assign.NewWorkspace(sweepProblem(), assign.Config{
		PageSize: 256, BufferFrac: 0.1, OmegaFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	states := []twinState{captureState(w)}
	for i, b := range sweepBatches() {
		if err := w.Apply(b); err != nil {
			t.Fatalf("twin apply %d: %v", i, err)
		}
		states = append(states, captureState(w))
	}
	return states
}

// sweepPoints chooses the crash offsets: every byte of every WAL append
// region; snapshot/rotation and construction regions at the given
// stride (1 under FAIRASSIGN_CRASH_FULL=1), always including each
// region's first and last byte.
func sweepPoints(regs []region, total int64, stride int64) []int64 {
	if os.Getenv("FAIRASSIGN_CRASH_FULL") == "1" {
		stride = 1
	}
	seen := make(map[int64]bool)
	var pts []int64
	add := func(k int64) {
		if k >= 0 && k <= total && !seen[k] {
			seen[k] = true
			pts = append(pts, k)
		}
	}
	for _, r := range regs {
		step := stride
		if r.label == "wal-append" {
			step = 1
		}
		for k := r.start; k < r.end; k += step {
			add(k)
		}
		add(r.start)
		add(r.end - 1)
		add(r.end)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

// sweepReport is the JSON artifact the CI crash-smoke job uploads.
type sweepReport struct {
	Backend      string         `json:"backend"`
	TotalBytes   int64          `json:"total_bytes"`
	CrashPoints  int            `json:"crash_points"`
	Recoveries   int            `json:"recoveries"`
	ByPolicy     map[string]int `json:"by_policy"`
	ByRegion     map[string]int `json:"by_region"`
	Continuation int            `json:"continuation_checks"`
}

func runSweep(t *testing.T, backend string, factory func(int) (pagestore.Store, error), stride int64) {
	t.Helper()
	regs, total := recordRegions(t, factory)
	states := twinStates(t)
	pts := sweepPoints(regs, total, stride)
	report := sweepReport{
		Backend:     backend,
		TotalBytes:  total,
		CrashPoints: len(pts),
		ByPolicy:    map[string]int{},
		ByRegion:    map[string]int{},
	}
	labelOf := func(k int64) string {
		for _, r := range regs {
			if k >= r.start && k < r.end {
				return r.label
			}
		}
		return "boundary"
	}
	for pi, k := range pts {
		fs := vfs.NewMem()
		fs.Arm(k)
		acked, issued := runScript(fs, factory)
		for _, policy := range []vfs.Policy{vfs.FlushPrefix, vfs.DropUnsynced} {
			img := fs.Reboot(policy)
			r, err := assign.OpenWorkspace(sweepCfg(img, factory))
			if err != nil {
				if acked >= 0 {
					t.Fatalf("crash@%d [%s] policy %s: construction completed but recovery failed: %v",
						k, labelOf(k), policy, err)
				}
				// Construction crashed before its initial snapshot
				// committed: failing with a typed error is a correct
				// outcome.
				if !errors.Is(err, assign.ErrNoSnapshot) && !errors.Is(err, assign.ErrBadSnapshot) {
					t.Fatalf("crash@%d [%s] policy %s: untyped recovery error: %v", k, labelOf(k), policy, err)
				}
				continue
			}
			info := r.Recovery()
			m := int(info.FinalEpoch) - 1
			lo := acked
			if lo < 0 {
				lo = 0
			}
			if m < lo || m > issued {
				r.Close()
				t.Fatalf("crash@%d [%s] policy %s: recovered %d batches, acked %d, issued %d",
					k, labelOf(k), policy, m, acked, issued)
			}
			if policy == vfs.DropUnsynced && m < acked {
				r.Close()
				t.Fatalf("crash@%d [%s]: drop-unsynced lost %d acked batches", k, labelOf(k), acked-m)
			}
			if err := sameState(captureState(r), states[m]); err != nil {
				r.Close()
				t.Fatalf("crash@%d [%s] policy %s: recovered state != twin[%d]: %v",
					k, labelOf(k), policy, m, err)
			}
			report.Recoveries++
			report.ByPolicy[policy.String()]++
			report.ByRegion[labelOf(k)]++
			// On a subset of trials, keep mutating after recovery and
			// check the workspace still tracks the twin.
			if pi%7 == 0 && policy == vfs.FlushPrefix {
				batches := sweepBatches()
				ok := true
				for _, b := range batches[m:] {
					if err := r.Apply(b); err != nil {
						r.Close()
						t.Fatalf("crash@%d: post-recovery apply: %v", k, err)
					}
				}
				if err := sameState(captureState(r), states[len(batches)]); err != nil {
					r.Close()
					t.Fatalf("crash@%d: post-recovery state diverged: %v", k, err)
				}
				_ = ok
				report.Continuation++
			}
			r.Close()
		}
	}
	if path := os.Getenv("FAIRASSIGN_CRASH_REPORT"); path != "" {
		buf, _ := json.MarshalIndent(report, "", "  ")
		name := filepath.Join(path, "crash-report-"+backend+".json")
		if err := os.MkdirAll(path, 0o755); err == nil {
			if err := os.WriteFile(name, buf, 0o644); err != nil {
				t.Logf("write report: %v", err)
			}
		}
	}
	t.Logf("%s: %d crash points over %d bytes, %d recoveries (%v by region), %d continuation checks",
		backend, report.CrashPoints, report.TotalBytes, report.Recoveries, report.ByRegion, report.Continuation)
}

func TestCrashSweepMemStore(t *testing.T) {
	runSweep(t, "memstore", nil, 61)
}

func TestCrashSweepFileStore(t *testing.T) {
	if testing.Short() {
		t.Skip("filestore sweep is slow")
	}
	dir := t.TempDir()
	n := 0
	factory := func(pageSize int) (pagestore.Store, error) {
		n++
		return pagestore.NewFileStore(filepath.Join(dir, fmt.Sprintf("s%06d.pages", n)), pageSize)
	}
	runSweep(t, "filestore", factory, 211)
}

// TestRebootPolicies pins the fault model itself.
func TestRebootPolicies(t *testing.T) {
	fs := vfs.NewMem()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("d/f")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("synced"))
	f.Sync()
	f.Write([]byte("-tail"))
	f.Close()

	img := fs.Reboot(vfs.FlushPrefix)
	if got := readAll(t, img, "d/f"); got != "synced-tail" {
		t.Fatalf("flush-prefix image = %q", got)
	}
	img = fs.Reboot(vfs.DropUnsynced)
	if got := readAll(t, img, "d/f"); got != "synced" {
		t.Fatalf("drop-unsynced image = %q", got)
	}
}

func TestArmTearsWrites(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("d")
	f, _ := fs.Create("d/f")
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	fs.Arm(5)
	if _, err := f.Write([]byte("defg")); !errors.Is(err, vfs.ErrInjectedCrash) {
		t.Fatalf("straddling write: %v", err)
	}
	if !fs.Crashed() {
		t.Fatal("crash not flagged")
	}
	if err := f.Sync(); !errors.Is(err, vfs.ErrInjectedCrash) {
		t.Fatalf("post-crash sync: %v", err)
	}
	if got := readAll(t, fs.Reboot(vfs.FlushPrefix), "d/f"); got != "abcde" {
		t.Fatalf("torn image = %q, want abcde", got)
	}
	if got := readAll(t, fs.Reboot(vfs.DropUnsynced), "d/f"); got != "" {
		t.Fatalf("unsynced image = %q, want empty", got)
	}
}

func readAll(t *testing.T, fs *vfs.MemFS, name string) string {
	t.Helper()
	data, err := fs.ReadAll(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
