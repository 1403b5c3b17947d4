package fairassign

import (
	"sync"

	"fairassign/internal/assign"
	"fairassign/internal/geom"
)

// ShardedQueue is the partition-routing group-commit front end for a
// Workspace built with Options.Shards > 1: one MutationQueue per object
// partition for object operations (routed to the owning partition) plus
// one for function operations. Each pump's batches are
// partition-coherent, so a drained batch dirties one partition and its
// commit flushes and republishes 1/N of the page state — K producers
// writing to K different partitions coalesce into per-partition group
// commits instead of interleaving into batches that dirty everything.
type ShardedQueue struct {
	ws     *Workspace
	queues []*MutationQueue // queues[i] serves partition i; queues[n] serves function ops

	// pendingAdds maps each object whose AddObject is queued but not yet
	// applied to the lane it went to. The workspace cannot route a
	// removal of such an object (it does not know it yet), so the
	// removal follows its add into that lane and commits after it.
	mu          sync.Mutex
	pendingAdds map[uint64]int
}

// NewShardedQueue starts one pump per object partition of ws plus one
// for function operations, all committing into the workspace. maxBatch
// caps each pump's group commit (<= 0 means DefaultMaxBatch). The queue
// does not own the workspace: Close stops the pumps but leaves it open.
func NewShardedQueue(ws *Workspace, maxBatch int) *ShardedQueue {
	n := ws.ws.Partitions()
	q := &ShardedQueue{ws: ws, queues: make([]*MutationQueue, n+1), pendingAdds: make(map[uint64]int)}
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
	err := l.q.ws.Apply(muts)
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

// partitionOf returns the partition an object mutation's work lands on:
// the owning (or would-be owning) partition of its object. An unknown
// removal goes to partition 0, where validation rejects it.
func (q *ShardedQueue) partitionOf(m Mutation) int {
	if m.kind == assign.MutAddObject {
		return q.ws.ws.RouteObject(geom.Point(m.obj.Attributes), m.obj.ID)
	}
	if p, ok := q.ws.ws.PartitionOf(m.id); ok {
		return p
	}
	return 0
}

func (q *ShardedQueue) route(m Mutation) *MutationQueue {
	lane := len(q.queues) - 1 // function operations
	switch m.kind {
	case assign.MutAddObject:
		lane = q.partitionOf(m)
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
			lane = q.partitionOf(m)
		}
	}
	return q.queues[lane]
}

// Enqueue submits one mutation to its partition's pump and returns a
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
		out.Dropped += s.Dropped
	}
	return out
}
