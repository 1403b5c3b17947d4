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

	// Clients is the closed-loop client population (0 for open loop).
	// In closed loop, latencies are pure service times and
	// AchievedRate IS the saturation throughput at this concurrency.
	Clients int `json:"clients,omitempty"`
}

// recorder accumulates per-class latencies thread-safely.
type recorder struct {
	mu   sync.Mutex
	lat  [3][]time.Duration
	errs int
}

func (r *recorder) record(c OpClass, d time.Duration) {
	r.mu.Lock()
	r.lat[c] = append(r.lat[c], d)
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
// cross-mode identity checks). maxBatch caps the group-commit batch in
// ModeBatch (<= 0 uses the queue default); it is ignored in
// ModeSequential.
func Run(tr *Trace, mode Mode, maxBatch int) (*Result, []fairassign.Pair, error) {
	ws, err := fairassign.NewWorkspace(tr.Objects, tr.Functions, fairassign.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("traffic: build workspace: %w", err)
	}
	defer ws.Close()

	rec := &recorder{}
	var readers sync.WaitGroup

	// The mutation lane: a sequential writer goroutine, or a
	// group-commit queue. Both preserve the trace's FIFO mutation
	// order, so the final matching is identical across modes.
	type timedMut struct {
		m     fairassign.Mutation
		sched time.Time
	}
	var (
		seqCh   chan timedMut
		writerD chan struct{}
		q       *fairassign.MutationQueue // nil in ModeSequential
	)
	if mode == ModeBatch {
		q = fairassign.NewMutationQueue(ws, maxBatch)
	} else {
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
				rec.record(ClassMutation, time.Since(sched))
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
	return res, pairs, nil
}

// RunClosed drives the trace closed-loop: the arrival schedule is
// ignored, and a fixed client population issues each next operation
// only after the previous one completes. Latencies are therefore pure
// service times, and AchievedRate is the saturation throughput at this
// concurrency — sweeping the client count locates the knee where
// throughput stops scaling.
//
// Mutations keep their trace order: one writer client drains them in
// FIFO through a MutationQueue, so the final matching is the same as
// the open-loop modes'. The `clients` read clients drain the read
// operations concurrently.
func RunClosed(tr *Trace, clients, maxBatch int) (*Result, []fairassign.Pair, error) {
	if clients < 1 {
		clients = 1
	}
	ws, err := fairassign.NewWorkspace(tr.Objects, tr.Functions, fairassign.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("traffic: build workspace: %w", err)
	}
	defer ws.Close()
	q := fairassign.NewMutationQueue(ws, maxBatch)

	// Split the trace into the mutation stream (order preserved) and
	// the read stream.
	var muts, reads []*Op
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Class == ClassMutation {
			muts = append(muts, op)
		} else {
			reads = append(reads, op)
		}
	}

	rec := &recorder{}
	var wg sync.WaitGroup
	start := time.Now()

	// The closed-loop writer client.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, op := range muts {
			t0 := time.Now()
			if err := <-q.Enqueue(op.Mut); err != nil {
				rec.fail()
			}
			rec.record(ClassMutation, time.Since(t0))
		}
	}()

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
	return res, pairs, nil
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
