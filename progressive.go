package fairassign

import (
	"fairassign/internal/assign"
	"fairassign/internal/geom"
)

// ProgressiveMatcher emits stable pairs on demand and accepts new objects
// between pulls — the dynamic setting the paper sketches as future work
// (Section 8): a system where objects are released over time (new housing
// stock, newly posted positions) while the matching is being served.
//
// Every emitted pair was stable with respect to the participants present
// when it was discovered; an arrival influences only pairs discovered
// after it. After the matching completes (Next returns ok == false), a
// further AddObject makes additional pairs available again.
type ProgressiveMatcher struct {
	inner *assign.Progressive
}

// NewProgressiveMatcher prepares a progressive matcher. The options are
// interpreted as for NewSolver; the algorithm is always SB.
func NewProgressiveMatcher(objects []Object, functions []Function, opts Options) (*ProgressiveMatcher, error) {
	opts.Algorithm = SB
	solver, err := NewSolver(objects, functions, opts)
	if err != nil {
		return nil, err
	}
	inner, err := assign.NewProgressive(solver.problem, opts.assignConfig())
	if err != nil {
		return nil, err
	}
	return &ProgressiveMatcher{inner: inner}, nil
}

// AddObject introduces a newly released object.
func (m *ProgressiveMatcher) AddObject(o Object) error {
	return m.inner.AddObject(assign.Object{
		ID:       o.ID,
		Point:    geom.Point(o.Attributes).Clone(),
		Capacity: o.Capacity,
	})
}

// Next returns the next stable pair; ok is false when the matching is
// complete for the current participants.
func (m *ProgressiveMatcher) Next() (Pair, bool, error) {
	p, ok, err := m.inner.Next()
	if err != nil || !ok {
		return Pair{}, false, err
	}
	return Pair{FunctionID: p.FuncID, ObjectID: p.ObjectID, Score: p.Score}, true, nil
}

// Stats reports the work performed so far.
func (m *ProgressiveMatcher) Stats() Stats {
	s := m.inner.Stats()
	return Stats{
		IOAccesses:      s.IO.Accesses(),
		CPUTime:         s.CPUTime,
		PeakMemoryBytes: s.PeakMem,
		Loops:           s.Loops,
		TopKSearches:    s.TopKRuns,
	}
}
