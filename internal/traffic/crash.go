package traffic

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fairassign"
)

// CrashResult reports one crash-replay conformance run over a trace.
type CrashResult struct {
	// CrashAtMutation is the index in the trace's mutation stream where
	// the durable workspace was abandoned; TotalMutations is the full
	// stream length.
	CrashAtMutation int `json:"crash_at_mutation"`
	TotalMutations  int `json:"total_mutations"`
	// Recovery provenance: the snapshot generation restored and the WAL
	// records replayed past it (see fairassign.RecoveryInfo).
	SnapshotEpoch     uint64 `json:"snapshot_epoch"`
	BatchesReplayed   int    `json:"batches_replayed"`
	MutationsReplayed int    `json:"mutations_replayed"`
	TornTail          bool   `json:"torn_tail"`
	RecoveryNS        int64  `json:"recovery_ns"`
	// Identical is the conformance verdict: the recovered-and-finished
	// matching equals the uninterrupted twin's.
	Identical bool `json:"identical"`
}

// RunCrashReplay is the durability conformance mode: the trace's
// mutation stream is applied to a durable workspace that is abandoned
// mid-stream without Close — the write-ahead log's fsync barrier is all
// that preserved its acknowledged state — then recovered with
// OpenWorkspace, after which the stream is finished and the final
// matching is compared against an uninterrupted in-memory twin of the
// same trace. A snapshot is saved partway through the surviving prefix
// so recovery exercises both the snapshot restore and the WAL tail
// replay. Returns an error if any mutation is rejected or recovery
// fails; a clean run with a diverging matching reports Identical=false.
func RunCrashReplay(tr *Trace, walDir string) (*CrashResult, error) {
	muts := make([]fairassign.Mutation, 0, len(tr.Ops))
	for i := range tr.Ops {
		if tr.Ops[i].Class == ClassMutation {
			muts = append(muts, tr.Ops[i].Mut)
		}
	}
	res := &CrashResult{CrashAtMutation: len(muts) / 2, TotalMutations: len(muts)}
	if len(muts) < 4 {
		return nil, fmt.Errorf("traffic: crash replay needs >= 4 mutations in the trace, got %d", len(muts))
	}

	opts := fairassign.Options{WALDir: filepath.Join(walDir, "wal")}
	dur, err := fairassign.NewWorkspace(tr.Objects, tr.Functions, opts)
	if err != nil {
		return nil, fmt.Errorf("traffic: build durable workspace: %w", err)
	}
	defer dur.Close()
	twin, err := fairassign.NewWorkspace(tr.Objects, tr.Functions, fairassign.Options{})
	if err != nil {
		return nil, fmt.Errorf("traffic: build twin workspace: %w", err)
	}
	defer twin.Close()

	saveAt := res.CrashAtMutation / 2
	for i := 0; i < res.CrashAtMutation; i++ {
		if err := dur.Apply([]fairassign.Mutation{muts[i]}); err != nil {
			return nil, fmt.Errorf("traffic: durable mutation %d (%s): %w", i, muts[i], err)
		}
		if i == saveAt {
			if err := dur.SaveSnapshot(); err != nil {
				return nil, fmt.Errorf("traffic: snapshot at mutation %d: %w", i, err)
			}
		}
	}

	// Crash: abandon without Close, then recover from the directory.
	start := time.Now()
	rec, err := fairassign.OpenWorkspace(opts)
	if err != nil {
		return nil, fmt.Errorf("traffic: recovery: %w", err)
	}
	defer rec.Close()
	res.RecoveryNS = time.Since(start).Nanoseconds()
	if info := rec.Recovery(); info != nil {
		res.SnapshotEpoch = info.SnapshotEpoch
		res.BatchesReplayed = info.BatchesReplayed
		res.MutationsReplayed = info.MutationsReplayed
		res.TornTail = info.TornTail
	}

	// Finish the stream on the recovered side; the twin runs it
	// uninterrupted.
	for i := res.CrashAtMutation; i < len(muts); i++ {
		if err := rec.Apply([]fairassign.Mutation{muts[i]}); err != nil {
			return nil, fmt.Errorf("traffic: post-recovery mutation %d (%s): %w", i, muts[i], err)
		}
	}
	for i := range muts {
		if err := twin.Apply([]fairassign.Mutation{muts[i]}); err != nil {
			return nil, fmt.Errorf("traffic: twin mutation %d (%s): %w", i, muts[i], err)
		}
	}
	res.Identical = samePairMultiset(rec.Assignment(), twin.Assignment())
	return res, nil
}

// RunCrashReplayTemp runs RunCrashReplay in a fresh temporary
// directory, removed afterwards.
func RunCrashReplayTemp(tr *Trace) (*CrashResult, error) {
	dir, err := os.MkdirTemp("", "fairassign-loadgen-crash-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	return RunCrashReplay(tr, dir)
}

// samePairMultiset compares two assignments as multisets of
// (functionID, objectID) pairs.
func samePairMultiset(a, b []fairassign.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[[2]uint64]int, len(a))
	for _, p := range a {
		counts[[2]uint64{p.FunctionID, p.ObjectID}]++
	}
	for _, p := range b {
		k := [2]uint64{p.FunctionID, p.ObjectID}
		if counts[k] == 0 {
			return false
		}
		counts[k]--
	}
	return true
}
