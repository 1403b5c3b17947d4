package fairassign

import (
	"fairassign/internal/assign"
)

// Typed durability errors (match with errors.Is).
var (
	// ErrNotDurable is returned by SaveSnapshot on a workspace built
	// without Options.WALDir, and by OpenWorkspace without one.
	ErrNotDurable = assign.ErrNotDurable
	// ErrNoSnapshot is returned by OpenWorkspace when the durability
	// directory holds nothing to recover from.
	ErrNoSnapshot = assign.ErrNoSnapshot
	// ErrBadSnapshot marks a snapshot file that failed its checksums or
	// cross-validation. OpenWorkspace falls back to the previous good
	// generation and returns this only when every generation is
	// unreadable.
	ErrBadSnapshot = assign.ErrBadSnapshot
	// ErrTornWrite marks a torn or corrupt write-ahead-log tail record.
	// Recovery truncates the tail (it was never acknowledged) and
	// reports it in RecoveryInfo rather than failing.
	ErrTornWrite = assign.ErrTornWrite
	// ErrWALDiverged is returned by OpenWorkspace when the log cannot be
	// reconciled with the snapshot lineage (an epoch gap or a replayed
	// batch the snapshot state rejects) — unrecoverable divergence,
	// surfaced as a typed error rather than a guess.
	ErrWALDiverged = assign.ErrWALDiverged
	// ErrDurableDirInUse is returned by NewWorkspace when WALDir already
	// holds a workspace; recover it with OpenWorkspace instead.
	ErrDurableDirInUse = assign.ErrDurableDirInUse
)

// RecoveryInfo describes how OpenWorkspace reconstructed a workspace.
type RecoveryInfo struct {
	// SnapshotEpoch is the epoch of the snapshot the restore used;
	// SnapshotsSkipped counts newer generations that failed validation
	// and were passed over.
	SnapshotEpoch    uint64
	SnapshotsSkipped int
	// BatchesReplayed and MutationsReplayed count the committed
	// write-ahead-log records reapplied past the snapshot.
	BatchesReplayed   int
	MutationsReplayed int
	// TornTail reports that the log ended in a torn or corrupt record,
	// which was truncated; TornDetail describes it.
	TornTail   bool
	TornDetail string
	// FinalEpoch is the workspace epoch after replay — the epoch the
	// crashed process had last acknowledged (or one past it, when the
	// crash hit between making a batch durable and acknowledging it).
	FinalEpoch uint64
}

// OpenWorkspace recovers a durable Workspace from opts.WALDir: the
// newest readable snapshot is restored into a ready-to-serve workspace
// in time proportional to the file — no re-solve — and the committed
// write-ahead-log batches past its epoch are replayed. Torn log tails
// (the un-acknowledged batch a crash interrupted) are truncated;
// corrupt snapshots fall back to the previous generation with a longer
// replay. The recovered workspace continues the exact epoch lineage of
// the crashed one and resumes logging into a fresh segment.
//
// The population, weights, and capacities all come from the durable
// state; opts supplies only the runtime configuration (buffering and
// durability). opts.PageSize is ignored: the object store is rebuilt
// with the page size recorded in the snapshot. A directory whose
// snapshots were all written in the earlier format version 1 does not
// open: OpenWorkspace returns ErrBadSnapshot.
func OpenWorkspace(opts Options) (*Workspace, error) {
	ws, err := assign.OpenWorkspace(opts.assignConfig())
	if err != nil {
		return nil, err
	}
	return &Workspace{ws: ws, opts: opts}, nil
}

// SaveSnapshot persists the current epoch into Options.WALDir and
// rotates the log: recovery after this call restores from the new
// snapshot and replays only mutations applied after it. Old snapshots (beyond one fallback generation) and log
// segments no retained snapshot needs are pruned. Safe to call at any
// time; a crash at any byte of the save leaves a recoverable directory.
func (w *Workspace) SaveSnapshot() error { return w.ws.SaveSnapshot() }

// Recovery returns how this workspace was recovered by OpenWorkspace,
// or nil if it was built fresh by NewWorkspace.
func (w *Workspace) Recovery() *RecoveryInfo {
	ri := w.ws.Recovery()
	if ri == nil {
		return nil
	}
	return &RecoveryInfo{
		SnapshotEpoch:     ri.SnapshotEpoch,
		SnapshotsSkipped:  ri.SnapshotsSkipped,
		BatchesReplayed:   ri.BatchesReplayed,
		MutationsReplayed: ri.MutationsReplayed,
		TornTail:          ri.TornTail,
		TornDetail:        ri.TornDetail,
		FinalEpoch:        ri.FinalEpoch,
	}
}
