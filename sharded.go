package fairassign

import (
	"sync"

	"fairassign/internal/assign"
	"fairassign/internal/geom"
)

// ErrDurabilityUnsupported is returned by NewShardedWorkspace when the
// Options request a WAL for more than one shard: snapshots and the log
// image a single object partition. Run durable single Workspaces, or
// treat the sharded tier as a rebuildable serving layer.
var ErrDurabilityUnsupported = assign.ErrDurabilityUnsupported

// ShardedOptions configures a ShardedWorkspace: the embedded Options
// are honored exactly as in NewWorkspace (Durable/WALDir excepted — they
// are rejected above one shard), plus the shard count.
type ShardedOptions struct {
	Options
	// Shards is the number of object shards (<= 0 means 1).
	Shards int
}

// ShardedWorkspace is a Workspace whose object side is split into N
// object partitions (shards) — each with its own R-tree, availability
// frontier, page store, and epoch stream — under the same repair
// engine. The matching it maintains is byte-identical to a single
// Workspace's at every mutation boundary, for every shard count (the
// conformance suite asserts counts {1,2,4,7}); what changes is the
// serving economics:
//
//   - a mutation dirties only the shard owning its object, so the
//     commit flushes and republishes 1/N of the page state, and the
//     next Snapshot re-captures 1/N of the object table (clean shards
//     are reused by refcount);
//   - each repair proposal probes every shard's frontier and index and
//     takes the best candidate across them;
//   - global TopK lazily merges per-shard ranked streams by score
//     ceiling, so shards that cannot contribute stop after one node.
//
// ShardedWorkspace follows the same single-writer / many-readers
// contract as Workspace and satisfies Applier, so MutationQueue (or
// the shard-routing ShardedQueue) can front it.
type ShardedWorkspace struct {
	w *Workspace
}

// ShardBreakdown is one shard's slice of ShardedStats.
type ShardBreakdown struct {
	// Objects and AssignedUnits this shard owns, and the size of its
	// availability frontier.
	Objects       int
	AssignedUnits int
	Frontier      int
	// Epoch is the shard's own page-store epoch; clean shards keep
	// their epoch while dirty ones advance, which is the amortization
	// the tier exists for.
	Epoch uint64
}

// ShardedStats summarizes a sharded workspace. Objects, Functions, and
// AssignedUnits are partition-invariant (always equal to the single
// Workspace's). AvailableFrontier and the work counters are
// partition-dependent: per-shard frontiers can overlap-free union to
// more points than one global skyline, and every repair proposal
// probes all shards.
type ShardedStats struct {
	Shards            int
	Objects           int
	Functions         int
	AssignedUnits     int
	AvailableFrontier int
	Mutations         int64
	Commits           int64
	// Seq is the global commit sequence number Snapshot pins.
	Seq        uint64
	ChainSteps int64
	Searches   int64
	Resolves   int64
	IOAccesses int64
	PerShard   []ShardBreakdown
}

func shardedStatsFromInternal(s assign.PartitionedStats) ShardedStats {
	out := ShardedStats{
		Shards:            len(s.Partitions),
		Objects:           s.Objects,
		Functions:         s.Functions,
		AssignedUnits:     s.AssignedUnits,
		AvailableFrontier: s.SkylineSize,
		Mutations:         s.Mutations,
		Commits:           s.Commits,
		Seq:               s.Epoch,
		ChainSteps:        s.ChainSteps,
		Searches:          s.Searches,
		Resolves:          s.Resolves,
		IOAccesses:        s.IO.Accesses(),
		PerShard:          make([]ShardBreakdown, len(s.Partitions)),
	}
	for i, ps := range s.Partitions {
		out.PerShard[i] = ShardBreakdown(ps)
	}
	return out
}

// NewShardedWorkspace validates the inputs, computes the initial
// matching with one full SB solve, partitions the object space, and
// bulk-loads one index per shard. Input handling (dimensionality,
// weight normalization, scorer families) matches NewWorkspace exactly.
func NewShardedWorkspace(objects []Object, functions []Function, sopts ShardedOptions) (*ShardedWorkspace, error) {
	w, err := newWorkspace(objects, functions, sopts.Options, sopts.Shards)
	if err != nil {
		return nil, err
	}
	return &ShardedWorkspace{w: w}, nil
}

// Dims returns the workspace dimensionality.
func (s *ShardedWorkspace) Dims() int { return s.w.Dims() }

// Shards returns the shard count.
func (s *ShardedWorkspace) Shards() int { return s.w.ws.Partitions() }

// Partition returns the resolved partition strategy: "spatial" (ranges
// of the STR bulk-load key order cut from the initial objects), or
// "hash" when that distribution was too degenerate to cut balanced
// ranges.
func (s *ShardedWorkspace) Partition() string { return s.w.ws.PartitionKind() }

// ShardOfObject returns the shard owning a live object.
func (s *ShardedWorkspace) ShardOfObject(id uint64) (int, bool) { return s.w.ws.PartitionOf(id) }

// RouteMutation returns the shard a mutation's work lands on: the
// owning (or would-be owning) shard for object operations, and -1 for
// function operations, whose structures are global. ShardedQueue uses
// this to coalesce per-shard batches.
func (s *ShardedWorkspace) RouteMutation(m Mutation) int {
	switch m.kind {
	case assign.MutAddObject:
		return s.w.ws.RouteObject(geom.Point(m.obj.Attributes), m.obj.ID)
	case assign.MutRemoveObject:
		if sh, ok := s.ShardOfObject(m.id); ok {
			return sh
		}
		return 0 // unknown ID: validation rejects it wherever it lands
	default:
		return -1
	}
}

// Apply applies a batch of mutations as one group commit, with
// Workspace.Apply's exact semantics — but only the shards the batch
// actually dirtied flush, republish, and later re-capture.
func (s *ShardedWorkspace) Apply(muts []Mutation) error { return s.w.Apply(muts) }

// AddObject introduces a new object on its owning shard; the matching
// is repaired in place.
func (s *ShardedWorkspace) AddObject(o Object) error { return s.w.AddObject(o) }

// RemoveObject withdraws an object; functions holding it re-chain,
// possibly landing on other shards.
func (s *ShardedWorkspace) RemoveObject(id uint64) error { return s.w.RemoveObject(id) }

// AddFunction introduces a new preference function; it claims its
// stable share of the objects across all shards.
func (s *ShardedWorkspace) AddFunction(f Function) error { return s.w.AddFunction(f) }

// RemoveFunction withdraws a function; the object units it held are
// re-offered to the functions that want them most.
func (s *ShardedWorkspace) RemoveFunction(id uint64) error { return s.w.RemoveFunction(id) }

// Assignment returns the current stable matching in the definitional
// greedy order — byte-identical to the equivalent single Workspace's.
func (s *ShardedWorkspace) Assignment() []Pair { return s.w.Assignment() }

// Stats returns a point-in-time summary with per-shard breakdown.
func (s *ShardedWorkspace) Stats() ShardedStats {
	return shardedStatsFromInternal(s.w.ws.PartitionedStats())
}

// Verify checks that the current matching is stable for the current
// population.
func (s *ShardedWorkspace) Verify() error { return s.w.Verify() }

// Close releases every shard's page store. The workspace must not be
// used afterwards.
func (s *ShardedWorkspace) Close() { s.w.Close() }

// Snapshot returns a read-only view pinning every shard's latest
// published epoch atomically under one global sequence number. Only
// shards dirtied since the last snapshot are re-captured; clean shards
// are shared by refcount, so snapshot cost scales with write locality,
// not population.
func (s *ShardedWorkspace) Snapshot() (*ShardedView, error) {
	v, err := s.w.Snapshot()
	if err != nil {
		return nil, err
	}
	return &ShardedView{v: v}, nil
}

// ShardedView is a snapshot-isolated read handle on a ShardedWorkspace,
// with View's semantics: answers are immune to later mutations, safe
// for concurrent use, valid after the workspace closes, and released
// by Close.
type ShardedView struct {
	v *View
}

// Seq returns the global commit sequence number this view observes
// (one publish at construction plus one per Apply batch).
func (v *ShardedView) Seq() uint64 { return v.v.Epoch() }

// Dims returns the problem dimensionality.
func (v *ShardedView) Dims() int { return v.v.Dims() }

// Close releases the view's per-shard epoch pins. Idempotent.
func (v *ShardedView) Close() { v.v.Close() }

// Assignment returns the frozen stable matching in the definitional
// greedy order. The slice is freshly allocated and owned by the caller.
func (v *ShardedView) Assignment() []Pair { return v.v.Assignment() }

// Stats returns the workspace summary as of the view's sequence point.
func (v *ShardedView) Stats() ShardedStats {
	return shardedStatsFromInternal(v.v.v.PartitionedStats())
}

// Verify checks that the frozen matching is stable for the frozen
// population — answered entirely from the snapshot.
func (v *ShardedView) Verify() error { return v.v.Verify() }

// TopK returns the k objects the given preference function ranks
// highest among the view's frozen object set, by lazily merging one
// ranked stream per shard: the result — and its order — is identical
// to the single-index BRS scan, while cold shards stop after one node
// read.
func (v *ShardedView) TopK(f Function, k int) ([]Ranked, error) { return v.v.TopK(f, k) }

// ShardedQueue is the shard-routing group-commit front end for a
// ShardedWorkspace: one MutationQueue per shard for object operations
// (routed to the owning shard) plus one for function operations. Each
// pump's batches are shard-coherent, so a drained batch dirties one
// shard and its commit flushes and republishes 1/N of the page state —
// K producers writing to K different shards coalesce into per-shard
// group commits instead of interleaving into batches that dirty
// everything.
type ShardedQueue struct {
	sw     *ShardedWorkspace
	queues []*MutationQueue // queues[i] serves shard i; queues[n] serves function ops

	// pendingAdds maps each object whose AddObject is queued but not yet
	// applied to the lane it went to. The workspace cannot route a
	// removal of such an object (it does not know it yet), so the
	// removal follows its add into that lane and commits after it.
	mu          sync.Mutex
	pendingAdds map[uint64]int
}

// NewShardedQueue starts one pump per shard plus one for function
// operations, all committing into the workspace. maxBatch caps each
// pump's group commit (<= 0 means DefaultMaxBatch). The queue does not
// own the workspace: Close stops the pumps but leaves it open.
func NewShardedQueue(sw *ShardedWorkspace, maxBatch int) *ShardedQueue {
	n := sw.Shards()
	q := &ShardedQueue{sw: sw, queues: make([]*MutationQueue, n+1), pendingAdds: make(map[uint64]int)}
	for i := range q.queues {
		q.queues[i] = NewMutationQueue(queueLane{q: q, lane: i}, maxBatch)
	}
	return q
}

// queueLane is the Applier behind one ShardedQueue lane: it commits the
// lane's batch and then forgets the pending adds the commit settled.
type queueLane struct {
	q    *ShardedQueue
	lane int
}

func (l queueLane) Apply(muts []Mutation) error {
	err := l.q.sw.Apply(muts)
	// A failed batch is retried one mutation at a time, so only a
	// success or a single attempt settles its adds: applied, the
	// workspace routes the object; rejected, the object does not exist.
	if err == nil || len(muts) == 1 {
		l.q.mu.Lock()
		for _, m := range muts {
			if m.kind == assign.MutAddObject && l.q.pendingAdds[m.obj.ID] == l.lane {
				delete(l.q.pendingAdds, m.obj.ID)
			}
		}
		l.q.mu.Unlock()
	}
	return err
}

func (q *ShardedQueue) route(m Mutation) *MutationQueue {
	lane := len(q.queues) - 1 // function operations
	switch m.kind {
	case assign.MutAddObject:
		lane = q.sw.RouteMutation(m)
		q.mu.Lock()
		q.pendingAdds[m.obj.ID] = lane
		q.mu.Unlock()
	case assign.MutRemoveObject:
		// An entry is dropped only after its add has applied, so on a
		// miss the workspace already knows the object (or never will).
		q.mu.Lock()
		l, pending := q.pendingAdds[m.id]
		q.mu.Unlock()
		if pending {
			lane = l
		} else {
			lane = q.sw.RouteMutation(m)
		}
	}
	return q.queues[lane]
}

// Enqueue submits one mutation to its shard's pump and returns a
// 1-buffered verdict channel; see MutationQueue.Enqueue.
func (q *ShardedQueue) Enqueue(m Mutation) <-chan error { return q.route(m).Enqueue(m) }

// Close stops accepting new mutations, waits for everything already
// enqueued to commit, and stops every pump. Idempotent.
func (q *ShardedQueue) Close() {
	for _, mq := range q.queues {
		mq.Close()
	}
}

// Stats aggregates the per-pump coalescing counters.
func (q *ShardedQueue) Stats() QueueStats {
	var out QueueStats
	for _, mq := range q.queues {
		s := mq.Stats()
		out.Mutations += s.Mutations
		out.Batches += s.Batches
		out.Retries += s.Retries
		out.Dropped += s.Dropped
	}
	return out
}
