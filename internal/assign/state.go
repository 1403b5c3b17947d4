package assign

import (
	"fairassign/internal/metrics"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/skyline"
	"fairassign/internal/ta"
)

// solveState is the shared problem state behind every solver: the
// disk-resident object index, the capacity tables, and the skyline
// maintainer. One-shot solvers build
// it, run, and release it; the long-lived Workspace keeps it alive and
// mutates it in place across arrivals and departures.
//
// Lifecycle: newSolveState (build) → the skyline structure, capacity
// tables and search structures (inside the timed region) → algorithm
// loops (query + mutate) → release.
type solveState struct {
	p   *Problem
	cfg Config

	// Object index: a disk-resident R-tree over O behind an LRU buffer
	// pool, built through the configured store factory.
	store pagestore.Store
	pool  *pagestore.BufferPool
	tree  *rtree.Tree

	// fstore holds the function coefficient lists of the disk-resident
	// setting (Section 7.6), when the solver builds them.
	fstore pagestore.Store

	// Search-side structures, built inside the timed region.
	maint    *skyline.Maintainer // UpdateSkyline variants only
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

// newBuildPool wraps a store with a construction-sized buffer pool.
// Callers that simulate a small buffer shrink it to the experiment's
// fraction after building.
func newBuildPool(store pagestore.Store) *pagestore.BufferPool {
	return pagestore.NewBufferPool(store, 1<<20)
}

// newFuncStore builds a function-side store + pool pair (Chain's weight
// R-tree, SBAlt's coefficient lists, BruteForce's paged states) through
// the same factory as the object index.
func (c Config) newFuncStore() (pagestore.Store, *pagestore.BufferPool, error) {
	store, err := c.newStore()
	if err != nil {
		return nil, nil, err
	}
	return store, newBuildPool(store), nil
}

// versioned returns the config with its store factory wrapped so every
// store it builds is a pagestore.VersionedStore whose snapshots a
// Workspace can pin.
func (c Config) versioned() Config {
	base := c
	c.StoreFactory = func(int) (pagestore.Store, error) {
		inner, err := base.newStore()
		if err != nil {
			return nil, err
		}
		return pagestore.NewVersioned(inner), nil
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
	pool := newBuildPool(store)
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
	if err := coldBuffer(pool, tree.NumPages(), cfg.bufferFrac()); err != nil {
		return fail(err)
	}
	return &solveState{p: p, cfg: cfg, store: store, pool: pool, tree: tree}, nil
}

// coldBuffer shrinks a freshly built index's buffer to frac of its
// numPages pages, empties it and zeroes its store's I/O counters, so
// that a run starts cold and the build is not charged to it.
func coldBuffer(pool *pagestore.BufferPool, numPages int, frac float64) error {
	if err := pool.Resize(pagestore.CapacityFromFraction(numPages, frac)); err != nil {
		return err
	}
	if err := pool.Clear(); err != nil {
		return err
	}
	pool.Store().IO().Reset()
	return nil
}

// buildDiskLists materializes the function coefficient lists on their
// own simulated disk behind a cold buffer at the function fraction
// (Section 7.6). Like index construction, the build is not charged;
// release closes the lists' store.
func (s *solveState) buildDiskLists() (*ta.DiskLists, error) {
	store, pool, err := s.cfg.newFuncStore()
	if err != nil {
		return nil, err
	}
	s.fstore = store
	dl, err := ta.BuildDiskLists(pool, taFuncs(s.p.Functions), s.p.Dims)
	if err != nil {
		return nil, err
	}
	return dl, coldBuffer(pool, dl.NumPages(), s.cfg.funcBufferFrac())
}

// buildCaps initializes the two capacity tables.
func (s *solveState) buildCaps() {
	s.funcCaps = newFuncCaps(s.p.Functions)
	s.objCaps = newObjectCaps(s.p.Objects)
}

// release closes the object-index store and the function lists' store.
// Results must be copied out (they are: Stats.IO is a value copy) before
// releasing.
func (s *solveState) release() {
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
	if s.fstore != nil {
		s.fstore.Close()
		s.fstore = nil
	}
}
