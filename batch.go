package fairassign

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// BatchItem is one independent assignment problem inside a SolveBatch
// call: its own objects, functions, and (optionally) solver options.
type BatchItem struct {
	Objects   []Object
	Functions []Function
	// Options for this item; nil inherits the batch defaults.
	Options *Options
}

// BatchOptions tunes a SolveBatch call.
type BatchOptions struct {
	// Parallelism bounds how many problems are solved concurrently.
	// 0 (or negative) uses one worker per available CPU; 1 solves
	// sequentially. Each solve searches on one goroutine; only its STR
	// index build fans out over all cores.
	Parallelism int
	// Defaults are the solver options applied to items whose Options
	// field is nil.
	Defaults Options
}

// BatchResult is the outcome of one batch item: exactly one of Result
// and Err is set.
type BatchResult struct {
	Result *Result
	Err    error
}

// SolveBatch solves many independent assignment problems concurrently —
// the multi-tenant serving path, where separate query sets (tenants,
// regions, time slices) share a machine. Every problem is fully isolated:
// it gets its own index, buffer pool, and counters, so items never
// contend on state and a failing item (invalid input) reports its error
// in its own slot without disturbing the others.
//
// Results are returned in input order. Each item is solved by the same
// code path as Solver.Solve, so per-item results are byte-identical to a
// standalone solve regardless of Parallelism.
func SolveBatch(items []BatchItem, opts BatchOptions) []BatchResult {
	out := make([]BatchResult, len(items))
	if len(items) == 0 {
		return out
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parallelFor(len(items), workers, func(i int) {
		item := items[i]
		o := opts.Defaults
		if item.Options != nil {
			o = *item.Options
		}
		solver, err := NewSolver(item.Objects, item.Functions, o)
		if err != nil {
			out[i] = BatchResult{Err: err}
			return
		}
		res, err := solver.Solve()
		if err != nil {
			out[i] = BatchResult{Err: err}
			return
		}
		out[i] = BatchResult{Result: res}
	})
	return out
}

// parallelFor runs fn(0..n-1) over min(workers, n) goroutines. Work is
// claimed by atomic index, so uneven items balance across workers. It
// returns once every index has been processed.
func parallelFor(n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
