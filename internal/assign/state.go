package assign

import (
	"fairassign/internal/metrics"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/skyline"
	"fairassign/internal/ta"
)

// solveState is the shared problem state behind every solver: the
// disk-resident object index, the TA coefficient lists, the capacity
// tables, and the skyline maintenance structures. One-shot solvers build
// it, run, and release it; the long-lived Workspace keeps it alive and
// mutates it in place across arrivals and departures.
//
// Lifecycle: newSolveState (build) → ensureLists / buildMaintainer /
// buildDeltaSky (query-side structures, on demand) → algorithm loops
// (query + mutate) → release.
type solveState struct {
	p   *Problem
	cfg Config

	// Object index: a disk-resident R-tree over O behind an LRU buffer
	// pool, built through the configured store factory.
	store pagestore.Store
	pool  *pagestore.BufferPool
	tree  *rtree.Tree

	// Search-side structures, built on demand inside the timed region.
	lists    *ta.Lists
	maint    *skyline.Maintainer
	delta    *skyline.DeltaSky
	funcCaps *capTable
	objCaps  *capTable

	mem metrics.MemTracker
}

// newStore builds one physical page store through the configured
// factory (an in-memory simulated disk by default). Every store a
// solver creates — the object index and any function-side structure —
// goes through here, so a FileStore-substituting test exercises all of
// them.
func (c Config) newStore() (pagestore.Store, error) {
	if c.StoreFactory != nil {
		return c.StoreFactory(c.pageSize())
	}
	return pagestore.NewMemStore(c.pageSize()), nil
}

// newBuildPool wraps a store with a construction-sized buffer pool,
// honoring the decoded-node-cache knob. Callers that simulate a small
// buffer shrink it to the experiment's fraction after building.
func (c Config) newBuildPool(store pagestore.Store) *pagestore.BufferPool {
	pool := pagestore.NewBufferPool(store, 1<<20)
	if c.DisableNodeCache {
		pool.SetDecodedCache(false)
	}
	return pool
}

// newFuncStore builds a function-side store + pool pair (Chain's weight
// R-tree, SBAlt's coefficient lists, BruteForce's paged states) through
// the same factory and knobs as the object index.
func (c Config) newFuncStore() (pagestore.Store, *pagestore.BufferPool, error) {
	store, err := c.newStore()
	if err != nil {
		return nil, nil, err
	}
	return store, c.newBuildPool(store), nil
}

// versioned returns the config with its store factory wrapped so every
// store it builds is a pagestore.VersionedStore whose snapshots a
// Workspace can pin. Acquire is serialized: the workspace writer lock
// orders snapshots with mutations, so page versions no live view
// observes are recycled in place.
func (c Config) versioned() Config {
	base := c
	c.StoreFactory = func(int) (pagestore.Store, error) {
		inner, err := base.newStore()
		if err != nil {
			return nil, err
		}
		vs := pagestore.NewVersioned(inner)
		vs.SetSerializedAcquire(true)
		return vs, nil
	}
	return c
}

// newSolveState validates the problem and bulk-loads the object R-tree
// into a fresh store. The buffer is then shrunk to the experiment's
// fraction, cleared, and the I/O counters reset so that runs start cold
// and index construction is not charged to the algorithm — matching the
// paper's setup where O is a persistent indexed dataset.
func newSolveState(p *Problem, cfg Config) (*solveState, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	store, err := cfg.newStore()
	if err != nil {
		return nil, err
	}
	pool := cfg.newBuildPool(store)
	items := make([]rtree.Item, len(p.Objects))
	for i, o := range p.Objects {
		items[i] = rtree.Item{ID: o.ID, Point: o.Point}
	}
	fail := func(err error) (*solveState, error) {
		store.Close()
		return nil, err
	}
	tree, err := rtree.BulkLoad(pool, p.Dims, items, treeFill)
	if err != nil {
		return fail(err)
	}
	if err := pool.Flush(); err != nil {
		return fail(err)
	}
	if err := pool.Resize(pagestore.CapacityFromFraction(tree.NumPages(), cfg.bufferFrac())); err != nil {
		return fail(err)
	}
	if err := pool.Clear(); err != nil {
		return fail(err)
	}
	store.IO().Reset()
	return &solveState{p: p, cfg: cfg, store: store, pool: pool, tree: tree}, nil
}

// buildCaps initializes the two capacity tables.
func (s *solveState) buildCaps() {
	s.funcCaps = newFuncCaps(s.p.Functions)
	s.objCaps = newObjectCaps(s.p.Objects)
}

// ensureLists builds the TA coefficient lists on first use.
func (s *solveState) ensureLists() error {
	if s.lists != nil {
		return nil
	}
	lists, err := ta.NewLists(taFuncs(s.p.Functions), s.p.Dims)
	if err != nil {
		return err
	}
	s.lists = lists
	return nil
}

// buildMaintainer computes the initial skyline with the plist-tracking
// BBS and retains the maintainer on the state.
func (s *solveState) buildMaintainer() (*skyline.Maintainer, error) {
	m, err := skyline.NewMaintainer(s.tree, &s.mem)
	if err != nil {
		return nil, err
	}
	s.maint = m
	return m, nil
}

// buildDeltaSky computes the initial skyline with plain BBS for the
// DeltaSky comparison baseline.
func (s *solveState) buildDeltaSky() (*skyline.DeltaSky, error) {
	d, err := skyline.NewDeltaSky(s.tree, &s.mem)
	if err != nil {
		return nil, err
	}
	s.delta = d
	return d, nil
}

// release closes the object-index store. Results must be copied out
// (they are: Stats.IO is a value copy) before releasing.
func (s *solveState) release() {
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
}
