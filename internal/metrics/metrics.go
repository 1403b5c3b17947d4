// Package metrics collects the three evaluation axes used throughout the
// paper's experiments: I/O accesses (buffer misses on the simulated disk),
// CPU time, and the peak memory held by algorithm-owned search structures
// (priority queues, pruned lists, TA states).
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// IOCounter tallies page-level activity. Logical counts every page
// request; Physical counts only the requests that missed the buffer pool
// and therefore hit the (simulated) disk. The paper's "I/O accesses"
// metric corresponds to Physical reads plus writes.
//
// Increments go through the Inc methods, which are atomic, so one counter
// may be shared by concurrent readers of a store (the View queries of a
// Workspace). Aggregate reads (Accesses, Snapshot, String)
// are likewise atomic; direct field access remains valid for
// single-threaded code and existing tests.
type IOCounter struct {
	LogicalReads   int64
	PhysicalReads  int64
	LogicalWrites  int64
	PhysicalWrites int64
}

// IncLogicalRead atomically counts one logical page read.
func (c *IOCounter) IncLogicalRead() { atomic.AddInt64(&c.LogicalReads, 1) }

// IncPhysicalRead atomically counts one physical page read.
func (c *IOCounter) IncPhysicalRead() { atomic.AddInt64(&c.PhysicalReads, 1) }

// IncLogicalWrite atomically counts one logical page write.
func (c *IOCounter) IncLogicalWrite() { atomic.AddInt64(&c.LogicalWrites, 1) }

// IncPhysicalWrite atomically counts one physical page write.
func (c *IOCounter) IncPhysicalWrite() { atomic.AddInt64(&c.PhysicalWrites, 1) }

// Reset zeroes all counters.
func (c *IOCounter) Reset() {
	atomic.StoreInt64(&c.LogicalReads, 0)
	atomic.StoreInt64(&c.PhysicalReads, 0)
	atomic.StoreInt64(&c.LogicalWrites, 0)
	atomic.StoreInt64(&c.PhysicalWrites, 0)
}

// Snapshot returns an atomically read copy, safe while writers are live.
func (c *IOCounter) Snapshot() IOCounter {
	return IOCounter{
		LogicalReads:   atomic.LoadInt64(&c.LogicalReads),
		PhysicalReads:  atomic.LoadInt64(&c.PhysicalReads),
		LogicalWrites:  atomic.LoadInt64(&c.LogicalWrites),
		PhysicalWrites: atomic.LoadInt64(&c.PhysicalWrites),
	}
}

// Accesses returns the paper's I/O metric: physical reads + writes.
func (c *IOCounter) Accesses() int64 {
	return atomic.LoadInt64(&c.PhysicalReads) + atomic.LoadInt64(&c.PhysicalWrites)
}

// Add accumulates another counter into c.
func (c *IOCounter) Add(o IOCounter) {
	atomic.AddInt64(&c.LogicalReads, o.LogicalReads)
	atomic.AddInt64(&c.PhysicalReads, o.PhysicalReads)
	atomic.AddInt64(&c.LogicalWrites, o.LogicalWrites)
	atomic.AddInt64(&c.PhysicalWrites, o.PhysicalWrites)
}

func (c *IOCounter) String() string {
	s := c.Snapshot()
	return fmt.Sprintf("io{phys=%d logical=%d}", s.PhysicalReads+s.PhysicalWrites, s.LogicalReads+s.LogicalWrites)
}

// MemTracker records the current and peak number of bytes held in search
// structures. Algorithms report growth/shrink analytically (entry count ×
// entry size), mirroring how the paper measures "maximum memory consumed
// by search structures during execution".
type MemTracker struct {
	Current int64
	Peak    int64
}

// Grow adds n bytes to the current footprint and updates the peak.
func (m *MemTracker) Grow(n int64) {
	m.Current += n
	if m.Current > m.Peak {
		m.Peak = m.Current
	}
}

// Shrink removes n bytes from the current footprint.
func (m *MemTracker) Shrink(n int64) {
	m.Current -= n
	if m.Current < 0 {
		m.Current = 0
	}
}

// Reset zeroes the tracker.
func (m *MemTracker) Reset() { *m = MemTracker{} }

// Stats aggregates everything a single algorithm run produces.
type Stats struct {
	IO        IOCounter
	CPUTime   time.Duration
	PeakMem   int64 // bytes, high-water mark of search structures
	Loops     int64 // outer iterations (SB loops, chain steps, ...)
	Pairs     int64 // stable pairs emitted
	TopKRuns  int64 // number of top-1 / TA searches issued
	TASorted  int64 // sorted accesses performed by TA
	TARandom  int64 // random accesses performed by TA
	NodeReads int64 // R-tree nodes visited (logical)
}

func (s *Stats) String() string {
	return fmt.Sprintf("stats{io=%d cpu=%v mem=%dB loops=%d pairs=%d}",
		s.IO.Accesses(), s.CPUTime, s.PeakMem, s.Loops, s.Pairs)
}

// Timer measures wall-clock CPU time of a run. Use Start/Stop around the
// measured region; nested Stop calls accumulate.
type Timer struct {
	start   time.Time
	running bool
	Total   time.Duration
}

// Start begins (or resumes) timing.
func (t *Timer) Start() {
	if !t.running {
		t.start = time.Now()
		t.running = true
	}
}

// Stop pauses timing and accumulates the elapsed interval.
func (t *Timer) Stop() {
	if t.running {
		t.Total += time.Since(t.start)
		t.running = false
	}
}
