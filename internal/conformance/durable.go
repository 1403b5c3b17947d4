package conformance

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
)

// VerifyCrashReplay is the conformance gate for durable recovery: the
// same mutation script runs on a durable workspace that crashes midway
// (abandoned without Close — the WAL fsync barrier is all that saved
// its state) and on an uninterrupted in-memory twin. The durable side
// takes a snapshot partway through the pre-crash prefix, so recovery
// exercises snapshot restore *and* WAL replay; after recovery it
// finishes the script and must reach a matching score-identical to the
// twin's, must equal a from-scratch solve of the final population, and
// must pass the stability audit.
func VerifyCrashReplay(spec MutationSpec) error {
	dir, err := os.MkdirTemp("", "fairassign-conf-crash-*")
	if err != nil {
		return fmt.Errorf("[%s] crash-replay tempdir: %w", spec, err)
	}
	defer os.RemoveAll(dir)

	cfg := config()
	cfg.WALDir = filepath.Join(dir, "wal")

	p, muts := generateBatchScript(spec)
	dur, err := assign.NewWorkspace(p, cfg)
	if err != nil {
		return fmt.Errorf("[%s] durable build: %w", spec, err)
	}
	defer dur.Close()
	p2, _ := generateBatchScript(spec)
	twin, err := assign.NewWorkspace(p2, config())
	if err != nil {
		return fmt.Errorf("[%s] twin build: %w", spec, err)
	}
	defer twin.Close()

	// Crash midway; snapshot partway through the surviving prefix so
	// replay has a non-trivial tail. Batch sizes are randomized like
	// VerifyBatch so group commits land in the WAL as single records.
	crashAt := len(muts) / 2
	saveAt := crashAt / 2
	brng := rand.New(rand.NewSource(spec.Seed + 555))
	apply := func(ws *assign.Workspace, muts []assign.Mutation, save bool, off int) error {
		for start := 0; start < len(muts); {
			n := 1 + brng.Intn(4)
			if start+n > len(muts) {
				n = len(muts) - start
			}
			if err := ws.Apply(muts[start : start+n]); err != nil {
				return fmt.Errorf("mutation %d: %w", off+start, err)
			}
			start += n
			if save && off+start >= saveAt {
				save = false
				if err := ws.SaveSnapshot(); err != nil {
					return fmt.Errorf("snapshot at mutation %d: %w", off+start, err)
				}
			}
		}
		return nil
	}
	if err := apply(dur, muts[:crashAt], true, 0); err != nil {
		return fmt.Errorf("[%s] durable pre-crash: %w", spec, err)
	}
	// Crash: the workspace is abandoned, never Closed. Recovery must
	// reconstruct every acknowledged mutation from the directory alone.
	rec, err := assign.OpenWorkspace(cfg)
	if err != nil {
		return fmt.Errorf("[%s] recovery: %w", spec, err)
	}
	defer rec.Close()
	info := rec.Recovery()
	if info == nil {
		return fmt.Errorf("[%s] recovered workspace reports no RecoveryInfo", spec)
	}
	// The abandoned instance is still consistent in memory — the
	// simulated crash only withholds its Close — so its pairs are the
	// ground truth recovery must reproduce.
	if err := sameMatching(rec.Pairs(), dur.Pairs()); err != nil {
		return fmt.Errorf("[%s] recovered vs crashed (replayed %d batches from epoch %d): %w",
			spec, info.BatchesReplayed, info.SnapshotEpoch, err)
	}

	// Finish the script on the recovered side and on the twin (which
	// runs it uninterrupted); use a fresh batch schedule for the twin so
	// both consume the identical mutation order regardless of batching.
	if err := apply(rec, muts[crashAt:], false, crashAt); err != nil {
		return fmt.Errorf("[%s] post-recovery: %w", spec, err)
	}
	for j := range muts {
		if err := twin.Apply(muts[j : j+1]); err != nil {
			return fmt.Errorf("[%s] twin mutation %d: %w", spec, j, err)
		}
	}
	if err := sameMatching(rec.Pairs(), twin.Pairs()); err != nil {
		return fmt.Errorf("[%s] recovered-and-finished vs uninterrupted twin: %w", spec, err)
	}
	return checkMutated(rec, spec, "final recovered")
}

// CrashReplaySweep enumerates the crash-replay conformance grid: a
// compact slice of the batch grid (both distributions, dims 2..3, with
// and without capacities/scorer mixing) with longer scripts so the
// snapshot, the replayed WAL tail, and the post-recovery mutations all
// carry several batches.
func CrashReplaySweep(scriptsPerCell int) []MutationSpec {
	var specs []MutationSpec
	seed := int64(610_000)
	for _, kind := range []datagen.Kind{datagen.Independent, datagen.AntiCorrelated} {
		for dims := 2; dims <= 3; dims++ {
			for _, extras := range []bool{false, true} {
				for s := 0; s < scriptsPerCell; s++ {
					specs = append(specs, MutationSpec{
						Seed:    seed,
						Kind:    kind,
						Dims:    dims,
						Caps:    extras,
						Gammas:  extras,
						Scorers: extras,
						Steps:   32,
					})
					seed += 31
				}
			}
		}
	}
	return specs
}
