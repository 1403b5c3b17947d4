package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fairassign/internal/assign"
)

// readerFailure wraps reader errors in one concrete type so concurrent
// stores into the shared atomic slot can never mismatch.
type readerFailure struct{ err error }

// runConcurrent measures the snapshot-isolated Workspace under combined
// load, at 1, 4 and 16 readers: one churn writer applies single-mutation
// updates while the reader goroutines continuously take snapshot views
// and query them. Each sample window times the writer's mutations
// (repair latency under read load, the number a serving system cares
// about) and counts the reads the readers completed meanwhile. The gate
// checks the final matching against a cold solve.
func runConcurrent(n, dims int, o Options) ([]Row, error) {
	var rows []Row
	for _, readers := range []int{1, 4, 16} {
		r, err := concurrentRow(n, dims, readers, o)
		if err != nil {
			return nil, fmt.Errorf("concurrent_read_churn (readers=%d): %w", readers, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func concurrentRow(n, dims, readers int, o Options) (Row, error) {
	base := incrementalProblem(n, dims, o)
	ws, err := assign.NewWorkspace(base, assign.Config{})
	if err != nil {
		return Row{}, err
	}
	defer ws.Close()
	churn, err := churnOp("obj_churn", ws, base)
	if err != nil {
		return Row{}, err
	}

	var (
		done      atomic.Bool
		reads     atomic.Int64
		readerErr atomic.Pointer[readerFailure]
		wg        sync.WaitGroup
	)
	topW := base.Functions[0].Effective()
	epochs := make([]map[uint64]struct{}, readers)
	for r := range readers {
		epochs[r] = make(map[uint64]struct{})
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fid := base.Functions[r%len(base.Functions)].ID
			for i := 0; !done.Load(); i++ {
				if err := readView(ws, fid, topW, i%8 == 0, epochs[r]); err != nil {
					readerErr.Store(&readerFailure{err: err})
					return
				}
				reads.Add(1)
				if i%16 == 15 {
					// Keep the scenario honest on few-core machines:
					// without an occasional yield a reader can own a
					// core for a whole scheduler quantum and the
					// "concurrency" degenerates into coarse timeslices.
					runtime.Gosched()
				}
			}
		}(r)
	}
	muts := 0
	writer := func() error {
		muts++
		if muts%4 == 0 {
			runtime.Gosched() // see the reader-side note
		}
		return churn()
	}
	w, err := sample(o.window(), samples, []func() int64{reads.Load}, writer)
	done.Store(true)
	wg.Wait()
	if err != nil {
		return Row{}, err
	}
	if f := readerErr.Load(); f != nil {
		return Row{}, fmt.Errorf("reader failed: %w", f.err)
	}
	seen := make(map[uint64]struct{})
	for _, m := range epochs {
		for e := range m {
			seen[e] = struct{}{}
		}
	}
	cold, err := assign.SB(ws.ProblemSnapshot(), assign.Config{})
	if err != nil {
		return Row{}, err
	}
	return Row{Name: fmt.Sprintf("concurrent_read_churn/readers=%d", readers), N: n, Dims: dims,
		Identical: matchingEqual(ws.Pairs(), cold.Pairs),
		Detail:    fmt.Sprintf("%d mutations, %d reads, %d distinct epochs read", muts, reads.Load(), len(seen)),
		Metrics: map[string]Stat{
			"repair_ns_per_op": per(w[0], nsPerOp),
			"ns_per_read":      per(w[0], func(w window) float64 { return float64(w.ns) / float64(max(w.counts[0], 1)) }),
		}}, nil
}

// readView takes one snapshot view, checks it is self-consistent, reads
// one function's pairs and, when ranked is set, runs a top-5 query
// against the pinned index epoch. The distinct epochs seen are evidence
// the readers interleaved with the writer rather than reading one
// frozen state.
func readView(ws *assign.Workspace, fid uint64, weights []float64, ranked bool, epochs map[uint64]struct{}) error {
	v, err := ws.Snapshot()
	if err != nil {
		return err
	}
	defer v.Close()
	epochs[v.Epoch()] = struct{}{}
	if pairs, units := len(v.Pairs()), v.Stats().AssignedUnits; pairs != units {
		return fmt.Errorf("view inconsistent: %d pairs vs %d units", pairs, units)
	}
	_ = v.PairsOf(fid)
	if ranked {
		if _, _, err := v.TopK(weights, 5); err != nil {
			return err
		}
	}
	return nil
}
