package traffic

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fairassign"
)

// Mode selects how the driver lands the trace's mutations.
type Mode string

const (
	// ModeSequential applies each mutation as its own commit through
	// the single-mutation path — the baseline.
	ModeSequential Mode = "sequential"
	// ModeBatch routes mutations through the group-commit
	// MutationQueue, coalescing concurrent arrivals into shared epochs.
	ModeBatch Mode = "batch"
	// ModeSharded splits the workspace into Spec.Shards object
	// partitions (Options.Shards) and routes mutations through a
	// ShardedQueue — one group-commit lane per partition, so writes to
	// different partitions coalesce into partition-coherent commits.
	// Reads are global snapshots over every partition.
	ModeSharded Mode = "sharded"
	// ModeClosed is the closed-loop driver: the open-loop schedule is
	// ignored and a fixed client population issues the next operation
	// only after the previous one completes, which finds the
	// saturation throughput instead of charging queueing delay.
	ModeClosed Mode = "closed"
)

// ClassStats summarizes the latency distribution of one operation
// class. Latency is completion time minus *scheduled* arrival time, so
// when the system falls behind the open-loop schedule the queueing
// delay is charged to the operation — the honest production metric.
type ClassStats struct {
	Count  int   `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// Result is one driver run over a trace.
type Result struct {
	Mode   Mode  `json:"mode"`
	WallNS int64 `json:"wall_ns"`
	Ops    int   `json:"ops"`
	// AchievedRate is ops per second of wall time.
	AchievedRate float64 `json:"achieved_rate"`
	// Mutations/Commits come from the workspace: in batch mode Commits
	// < Mutations measures the group-commit coalescing.
	Mutations int64 `json:"mutations"`
	Commits   int64 `json:"commits"`
	// MutationErrors counts rejected mutations — zero for a well-formed
	// trace, so any non-zero value flags a harness or engine bug.
	MutationErrors int                   `json:"mutation_errors"`
	Classes        map[string]ClassStats `json:"classes"`
	// FinalPairs is the matching hash input: the assignment after the
	// full trace, used to assert mode-independence.
	FinalPairs int `json:"final_pairs"`

	// Shards is the shard count of a sharded run (0 otherwise), and
	// PerShard the per-shard mutation latency breakdown, indexed by
	// shard. Function mutations are global (they touch every shard's
	// frontier), so they appear in the global mutation class only.
	Shards   int          `json:"shards,omitempty"`
	PerShard []ClassStats `json:"per_shard,omitempty"`
	// Clients is the closed-loop client population (0 for open loop).
	// In closed loop, latencies are pure service times and
	// AchievedRate IS the saturation throughput at this concurrency.
	Clients int `json:"clients,omitempty"`
}

// recorder accumulates per-class latencies thread-safely, plus the
// per-shard mutation breakdown on sharded runs.
type recorder struct {
	mu    sync.Mutex
	lat   [3][]time.Duration
	shard map[int][]time.Duration
	errs  int
}

func (r *recorder) record(c OpClass, d time.Duration) {
	r.mu.Lock()
	r.lat[c] = append(r.lat[c], d)
	r.mu.Unlock()
}

// recordShard records a mutation latency under both the global class
// and its routing key (ignored for key < 0: global function ops).
func (r *recorder) recordShard(sh int, d time.Duration) {
	r.mu.Lock()
	r.lat[ClassMutation] = append(r.lat[ClassMutation], d)
	if sh >= 0 {
		if r.shard == nil {
			r.shard = make(map[int][]time.Duration)
		}
		r.shard[sh] = append(r.shard[sh], d)
	}
	r.mu.Unlock()
}

func (r *recorder) fail() {
	r.mu.Lock()
	r.errs++
	r.mu.Unlock()
}

// summarize computes nearest-rank percentiles.
func summarize(lat []time.Duration) ClassStats {
	if len(lat) == 0 {
		return ClassStats{}
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	rank := func(p float64) int64 {
		i := int(p*float64(len(sorted))+0.9999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return int64(sorted[i])
	}
	return ClassStats{
		Count:  len(sorted),
		MeanNS: int64(sum) / int64(len(sorted)),
		P50NS:  rank(0.50),
		P95NS:  rank(0.95),
		P99NS:  rank(0.99),
		MaxNS:  int64(sorted[len(sorted)-1]),
	}
}

// Run drives one trace open-loop against a fresh Workspace in the given
// mode and returns the latency report plus the final assignment (for
// cross-mode identity checks). ModeSharded builds the workspace with
// Options{Shards: Spec.Shards}, which must exceed 1, and also reports
// per-shard mutation latency. maxBatch caps the group-commit batch in
// ModeBatch and ModeSharded (<= 0 uses the queue default); it is
// ignored in ModeSequential.
func Run(tr *Trace, mode Mode, maxBatch int) (*Result, []fairassign.Pair, error) {
	var opts fairassign.Options
	if mode == ModeSharded {
		if tr.Spec.Shards < 2 {
			return nil, nil, fmt.Errorf("traffic: sharded run needs Spec.Shards > 1, got %d", tr.Spec.Shards)
		}
		opts.Shards = tr.Spec.Shards
	}
	ws, err := fairassign.NewWorkspace(tr.Objects, tr.Functions, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("traffic: build workspace: %w", err)
	}
	defer ws.Close()

	rec := &recorder{}
	var readers sync.WaitGroup

	// The mutation lane: a sequential writer goroutine, or a
	// group-commit queue. All preserve the trace's FIFO mutation order
	// per object, so the final matching is identical across modes.
	type timedMut struct {
		m     fairassign.Mutation
		sched time.Time
	}
	var (
		seqCh   chan timedMut
		writerD chan struct{}
		q       queue // nil in ModeSequential
	)
	switch mode {
	case ModeBatch:
		q = fairassign.NewMutationQueue(ws, maxBatch)
	case ModeSharded:
		q = fairassign.NewShardedQueue(ws, maxBatch)
	default:
		seqCh = make(chan timedMut, len(tr.Ops))
		writerD = make(chan struct{})
		go func() {
			defer close(writerD)
			for tm := range seqCh {
				if err := ws.Apply([]fairassign.Mutation{tm.m}); err != nil {
					rec.fail()
				}
				rec.record(ClassMutation, time.Since(tm.sched))
			}
		}()
	}

	start := time.Now()
	for i := range tr.Ops {
		op := &tr.Ops[i]
		sched := start.Add(op.At)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		switch op.Class {
		case ClassMutation:
			if q == nil {
				seqCh <- timedMut{m: op.Mut, sched: sched}
				break
			}
			ch := q.Enqueue(op.Mut)
			readers.Add(1)
			go func() {
				defer readers.Done()
				if err := <-ch; err != nil {
					rec.fail()
				}
				rec.recordShard(op.Shard, time.Since(sched))
			}()
		case ClassSnapshot:
			readers.Add(1)
			go func() {
				defer readers.Done()
				err := acquire(ws)
				rec.record(ClassSnapshot, time.Since(sched))
				if err != nil {
					rec.fail()
				}
			}()
		default: // ClassQuery
			readers.Add(1)
			go func() {
				defer readers.Done()
				if err := query(ws, op); err != nil {
					rec.fail()
					return
				}
				rec.record(ClassQuery, time.Since(sched))
			}()
		}
	}
	if q != nil {
		readers.Wait() // all enqueue completions observed
		q.Close()
	} else {
		close(seqCh)
		<-writerD
		readers.Wait()
	}
	res, pairs := finish(tr, mode, time.Since(start), ws, rec)
	if mode == ModeSharded {
		res.Shards = tr.Spec.Shards
		res.PerShard = perShardStats(rec, res.Shards)
	}
	return res, pairs, nil
}

// RunClosed drives the trace closed-loop: the arrival schedule is
// ignored, and a fixed client population issues each next operation
// only after the previous one completes. Latencies are therefore pure
// service times, and AchievedRate is the saturation throughput at this
// concurrency — sweeping the client count locates the knee where
// throughput stops scaling.
//
// The workspace is built with Options{Shards: Spec.Shards}. Mutations
// keep their required ordering by draining in per-lane FIFO: one
// writer client per mutation lane. Unsharded traces have a single lane
// behind a MutationQueue; sharded traces (Spec.Shards > 1) go through a
// ShardedQueue and have one lane per shard plus a global lane for
// function mutations — lanes touch disjoint entities, so any
// interleaving of in-order lanes is valid and the final matching is
// score-identical regardless of schedule. The remaining `clients`
// clients drain the read operations.
func RunClosed(tr *Trace, clients, maxBatch int) (*Result, []fairassign.Pair, error) {
	if clients < 1 {
		clients = 1
	}
	shards := tr.Spec.Shards
	ws, err := fairassign.NewWorkspace(tr.Objects, tr.Functions, fairassign.Options{Shards: shards})
	if err != nil {
		return nil, nil, fmt.Errorf("traffic: build workspace: %w", err)
	}
	defer ws.Close()

	var (
		q          queue
		writeLanes = 1
		laneOf     = func(*Op) int { return 0 }
	)
	if shards > 1 {
		q = fairassign.NewShardedQueue(ws, maxBatch)
		// Lane = routing key; global function mutations get the extra
		// last lane (mirrors ShardedQueue's internal routing).
		writeLanes = shards + 1
		laneOf = func(op *Op) int {
			if op.Shard < 0 {
				return shards
			}
			return op.Shard
		}
	} else {
		q = fairassign.NewMutationQueue(ws, maxBatch)
	}

	// Split the trace: per-lane mutation streams (order within a lane
	// preserved) and the read stream.
	lanes := make([][]*Op, writeLanes)
	var reads []*Op
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Class == ClassMutation {
			l := laneOf(op)
			lanes[l] = append(lanes[l], op)
		} else {
			reads = append(reads, op)
		}
	}

	rec := &recorder{}
	var wg sync.WaitGroup
	start := time.Now()

	// One closed-loop writer client per lane.
	for _, lane := range lanes {
		if len(lane) == 0 {
			continue
		}
		wg.Add(1)
		go func(lane []*Op) {
			defer wg.Done()
			for _, op := range lane {
				t0 := time.Now()
				if err := <-q.Enqueue(op.Mut); err != nil {
					rec.fail()
				}
				rec.recordShard(op.Shard, time.Since(t0))
			}
		}(lane)
	}

	// The read clients share one work queue.
	readCh := make(chan *Op)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range readCh {
				t0 := time.Now()
				var err error
				if op.Class == ClassSnapshot {
					err = acquire(ws)
				} else {
					err = query(ws, op)
				}
				if err != nil {
					rec.fail()
					continue
				}
				rec.record(op.Class, time.Since(t0))
			}
		}()
	}
	for _, op := range reads {
		readCh <- op
	}
	close(readCh)
	wg.Wait()

	res, pairs := finish(tr, ModeClosed, time.Since(start), ws, rec)
	q.Close()
	res.Clients = clients
	if shards > 1 {
		res.Shards = shards
		res.PerShard = perShardStats(rec, shards)
	}
	return res, pairs, nil
}

// queue is the group-commit front end a run enqueues its mutations
// through: a MutationQueue, or a ShardedQueue on a partitioned
// workspace.
type queue interface {
	Enqueue(fairassign.Mutation) <-chan error
	Close()
}

// acquire takes one snapshot of ws and releases it.
func acquire(ws *fairassign.Workspace) error {
	v, err := ws.Snapshot()
	if err != nil {
		return err
	}
	v.Close()
	return nil
}

// query runs op's top-K view query on a fresh snapshot of ws.
func query(ws *fairassign.Workspace, op *Op) error {
	v, err := ws.Snapshot()
	if err != nil {
		return err
	}
	defer v.Close()
	_, err = v.TopK(op.Query, op.K)
	return err
}

// finish assembles the report of a completed run from the workspace's
// final state and the recorded latencies, and returns the final
// matching with it.
func finish(tr *Trace, mode Mode, wall time.Duration, ws *fairassign.Workspace, rec *recorder) (*Result, []fairassign.Pair) {
	st := ws.Stats()
	pairs := ws.Assignment()
	return &Result{
		Mode:           mode,
		WallNS:         int64(wall),
		Ops:            len(tr.Ops),
		AchievedRate:   float64(len(tr.Ops)) / wall.Seconds(),
		Mutations:      st.Mutations,
		Commits:        st.Commits,
		MutationErrors: rec.errs,
		Classes: map[string]ClassStats{
			ClassMutation.String(): summarize(rec.lat[ClassMutation]),
			ClassSnapshot.String(): summarize(rec.lat[ClassSnapshot]),
			ClassQuery.String():    summarize(rec.lat[ClassQuery]),
		},
		FinalPairs: len(pairs),
	}, pairs
}

func perShardStats(rec *recorder, shards int) []ClassStats {
	out := make([]ClassStats, shards)
	for s := 0; s < shards; s++ {
		out[s] = summarize(rec.shard[s])
	}
	return out
}
