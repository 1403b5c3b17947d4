package assign

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path"
	"sort"

	"fairassign/internal/cow"
	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/snapshot"
	"fairassign/internal/vfs"
	"fairassign/internal/wal"
)

// Typed durability errors (match with errors.Is). ErrBadSnapshot and
// ErrTornWrite re-export the codec sentinels so callers need only this
// package.
var (
	// ErrBadSnapshot marks an unreadable snapshot file; OpenWorkspace
	// falls back to the previous good snapshot when one exists and
	// returns this only when none does.
	ErrBadSnapshot = snapshot.ErrBadSnapshot
	// ErrTornWrite marks a torn or corrupt WAL tail record, truncated
	// during recovery (reported in RecoveryInfo, not returned: the torn
	// batch was never acknowledged).
	ErrTornWrite = wal.ErrTornWrite
	// ErrNoSnapshot is returned by OpenWorkspace when the durability
	// directory holds no snapshot file at all — there is nothing to
	// recover from (e.g. the workspace creation itself crashed before
	// its initial snapshot committed).
	ErrNoSnapshot = errors.New("assign: no snapshot in durability directory")
	// ErrNotDurable is returned by SaveSnapshot on a workspace built
	// without a WALDir.
	ErrNotDurable = errors.New("assign: workspace has no durability directory")
	// ErrDurableDirInUse is returned by NewWorkspace when the durability
	// directory already holds a workspace — recover it with
	// OpenWorkspace instead of clobbering it.
	ErrDurableDirInUse = errors.New("assign: durability directory already holds a workspace")
	// ErrWALDiverged is returned by OpenWorkspace when the log cannot be
	// reconciled with the snapshot lineage: an epoch gap after a
	// mid-log corruption, a record batch that fails validation against
	// the state it claims to extend, or a bad segment header followed by
	// records recovery still needs. The unrecoverable-divergence error —
	// never a panic.
	ErrWALDiverged = errors.New("assign: wal diverged from snapshot lineage")
)

// retainSnapshots is how many snapshot generations rotation keeps: the
// newest plus one fallback (a corrupt newest snapshot degrades to the
// previous good one + longer replay).
const retainSnapshots = 2

// durableState carries a workspace's durability plumbing.
type durableState struct {
	fs  vfs.FS
	dir string
	log *wal.Writer
}

// RecoveryInfo describes how OpenWorkspace reconstructed a workspace.
type RecoveryInfo struct {
	// SnapshotEpoch is the epoch of the snapshot the restore used.
	SnapshotEpoch uint64
	// SnapshotsSkipped counts newer snapshot files that failed their
	// checksums or validation and were passed over (fallback).
	SnapshotsSkipped int
	// BatchesReplayed and MutationsReplayed count the WAL records
	// reapplied past the snapshot.
	BatchesReplayed   int
	MutationsReplayed int
	// TornTail is set when a segment ended in a torn or corrupt record;
	// the tail was truncated (it was never acknowledged) and TornDetail
	// describes it (the ErrTornWrite text).
	TornTail   bool
	TornDetail string
	// FinalEpoch is the workspace epoch after replay.
	FinalEpoch uint64
}

// Recovery returns how this workspace was recovered, or nil if it was
// built fresh by NewWorkspace.
func (w *Workspace) Recovery() *RecoveryInfo { return w.recovery }

func (c Config) fsOrOS() vfs.FS {
	if c.FS != nil {
		return c.FS
	}
	return vfs.OS()
}

// initDurable sets up the durability directory of a freshly built
// workspace: an initial snapshot at the first published epoch (the WAL
// cannot bootstrap an empty directory — the initial population is not
// logged) and the first WAL segment. Runs at the tail of NewWorkspace,
// before the workspace is handed out.
func (w *Workspace) initDurable() error {
	cfg := w.cfg
	fs := cfg.fsOrOS()
	if err := fs.MkdirAll(cfg.WALDir); err != nil {
		return fmt.Errorf("assign: create durability dir: %w", err)
	}
	if epochs, err := snapshot.List(fs, cfg.WALDir); err != nil {
		return fmt.Errorf("assign: scan durability dir: %w", err)
	} else if len(epochs) > 0 {
		return fmt.Errorf("%w: %s (use OpenWorkspace)", ErrDurableDirInUse, cfg.WALDir)
	}
	d, err := w.captureDataLocked()
	if err != nil {
		return err
	}
	if _, err := snapshot.WriteFile(fs, cfg.WALDir, d); err != nil {
		return err
	}
	log, err := wal.Create(fs, cfg.WALDir, 1, w.epoch)
	if err != nil {
		return err
	}
	w.dur = &durableState{fs: fs, dir: cfg.WALDir, log: log}
	return nil
}

// SaveSnapshot persists the current epoch into the durability directory
// and rotates the log: a fresh segment based at the snapshot epoch is
// started and files no retained snapshot needs are pruned (the newest
// retainSnapshots generations stay, so a corrupt newest snapshot can
// still fall back). Crash-safe at every
// byte: the snapshot commits atomically via rename, the new segment is
// durable before the old one closes, and recovery tolerates every
// intermediate file layout.
func (w *Workspace) SaveSnapshot() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.liveLocked(); err != nil {
		return err
	}
	if w.dur == nil {
		return ErrNotDurable
	}
	d, err := w.captureDataLocked()
	if err != nil {
		return w.corruptLocked(err)
	}
	if _, err := snapshot.WriteFile(w.dur.fs, w.dur.dir, d); err != nil {
		// A failed snapshot write leaves the workspace fully consistent —
		// the old snapshot + WAL still recover everything.
		return err
	}
	next, err := wal.Create(w.dur.fs, w.dur.dir, w.dur.log.Seq()+1, w.epoch)
	if err != nil {
		return err
	}
	w.dur.log.Close()
	w.dur.log = next
	w.pruneDurableFiles()
	return nil
}

// pruneDurableFiles removes snapshots older than the retained window,
// WAL segments entirely covered by the oldest retained snapshot, and
// segments that can hold no record (a reopen that committed nothing
// before the next one leaves such a segment). Best-effort: stray files
// never endanger recovery, missing space does.
func (w *Workspace) pruneDurableFiles() {
	fs, dir := w.dur.fs, w.dur.dir
	epochs, err := snapshot.List(fs, dir)
	if err != nil || len(epochs) == 0 {
		return
	}
	keepFrom := 0
	if len(epochs) > retainSnapshots {
		keepFrom = len(epochs) - retainSnapshots
	}
	for _, e := range epochs[:keepFrom] {
		_ = fs.Remove(path.Join(dir, snapshot.FileName(e)))
	}
	oldest := epochs[keepFrom]
	segs, err := wal.ListSegments(fs, dir)
	if err != nil {
		return
	}
	// Segment i holds records in (base_i, base_{i+1}]; it is dead once
	// that range is empty or the oldest retained snapshot is at or past
	// everything it can hold.
	bases := make([]uint64, len(segs))
	for i, sg := range segs {
		if _, base, err := wal.ReadHeader(fs, dir, sg.Name); err == nil {
			bases[i] = base
		} else {
			return // unreadable header: prune nothing beyond this point
		}
	}
	for i := 0; i+1 < len(segs); i++ {
		if bases[i+1] <= oldest || bases[i+1] == bases[i] {
			_ = fs.Remove(path.Join(dir, segs[i].Name))
		}
	}
}

// captureDataLocked freezes the workspace into a snapshot.Data: sorted
// entity tables, the matching, capacity tables, the frontier ID set,
// and page images of the object store (taken from the in-memory page
// table — no physical reads). The object pool is flushed first so the
// table holds the final bytes; that flush is the only I/O the capture
// performs. Caller holds w.mu.
func (w *Workspace) captureDataLocked() (*snapshot.Data, error) {
	pt := w.obj
	if err := pt.pool.Flush(); err != nil {
		return nil, err
	}
	d := &snapshot.Data{
		Epoch: w.epoch,
		Dims:  w.Dims(),
		Counters: snapshot.Counters{
			Mutations:  uint64(w.mutations),
			Commits:    uint64(w.commits),
			ChainSteps: uint64(w.chainLen),
			Searches:   uint64(w.searches),
			Resolves:   uint64(w.resolves),
		},
	}
	d.Objects = make([]snapshot.ObjectRec, 0, pt.objs.Len())
	for _, o := range pt.objs.All() {
		d.Objects = append(d.Objects, snapshot.ObjectRec{ID: o.ID, Capacity: int64(o.Capacity), Point: o.Point})
	}
	sort.Slice(d.Objects, func(i, j int) bool { return d.Objects[i].ID < d.Objects[j].ID })
	d.Functions = make([]snapshot.FunctionRec, 0, w.funcs.Len())
	for _, f := range w.funcs.All() {
		d.Functions = append(d.Functions, functionRec(f))
	}
	sort.Slice(d.Functions, func(i, j int) bool { return d.Functions[i].ID < d.Functions[j].ID })
	pairs := w.pairsLocked()
	sortPairsDefinitional(pairs)
	d.Pairs = make([]snapshot.Pair, len(pairs))
	for i, p := range pairs {
		d.Pairs[i] = snapshot.Pair{FuncID: p.FuncID, ObjID: p.ObjectID, Score: p.Score}
	}
	d.ObjCaps = capEntries(pt.caps)
	d.FuncCaps = capEntries(w.funcCaps)
	d.Avail = pt.frontierIDs()
	var err error
	if d.ObjStore, err = storeImage(pt.vstore, pt.tree.Meta()); err != nil {
		return nil, err
	}
	return d, nil
}

func functionRec(f Function) snapshot.FunctionRec {
	return snapshot.FunctionRec{
		ID:       f.ID,
		Capacity: int64(f.Capacity),
		Gamma:    f.Gamma,
		FamKind:  uint32(f.Fam.Kind),
		FamP:     f.Fam.P,
		Weights:  f.Weights,
	}
}

func recFunction(r *snapshot.FunctionRec) Function {
	return Function{
		ID:       r.ID,
		Weights:  r.Weights,
		Gamma:    r.Gamma,
		Capacity: int(r.Capacity),
		Fam:      score.Family{Kind: score.Kind(r.FamKind), P: r.FamP},
	}
}

func capEntries(t *capTable) []snapshot.CapEntry {
	out := make([]snapshot.CapEntry, 0, len(t.remaining))
	for id, r := range t.remaining {
		out = append(out, snapshot.CapEntry{ID: id, Remaining: int64(r)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func capsFromEntries(entries []snapshot.CapEntry) *capTable {
	t := &capTable{remaining: make(map[uint64]int, len(entries))}
	for _, e := range entries {
		t.remaining[e.ID] = int(e.Remaining)
		t.units += int(e.Remaining)
	}
	return t
}

// storeImage freezes one versioned store plus its tree header. Page
// bytes come off the page table (CurrentPages), so the capture leaves
// the physical I/O counters — the paper's metric — untouched.
func storeImage(vs *pagestore.VersionedStore, meta rtree.Meta) (snapshot.StoreImage, error) {
	si := snapshot.StoreImage{
		PageSize: vs.PageSize(),
		Root:     int64(meta.Root),
		Height:   meta.Height,
		Size:     meta.Size,
	}
	err := vs.CurrentPages(func(id pagestore.PageID, data []byte) error {
		n := len(data)
		for n > 0 && data[n-1] == 0 {
			n--
		}
		img := make([]byte, n)
		copy(img, data[:n])
		si.Pages = append(si.Pages, snapshot.PageImage{ID: int64(id), Data: img})
		if int64(id) >= si.Next {
			si.Next = int64(id) + 1
		}
		return nil
	})
	return si, err
}

// mutationRecs converts an Apply batch to its WAL wire form.
func mutationRecs(muts []Mutation) []snapshot.MutationRec {
	out := make([]snapshot.MutationRec, len(muts))
	for i := range muts {
		m := &muts[i]
		r := &out[i]
		r.Kind = uint8(m.Kind)
		switch m.Kind {
		case MutAddObject:
			r.Object = snapshot.ObjectRec{ID: m.Object.ID, Capacity: int64(m.Object.Capacity), Point: m.Object.Point}
		case MutAddFunction:
			r.Function = functionRec(m.Function)
		default:
			r.ID = m.ID
		}
	}
	return out
}

// recMutations is the replay-side inverse.
func recMutations(recs []snapshot.MutationRec) []Mutation {
	out := make([]Mutation, len(recs))
	for i := range recs {
		r := &recs[i]
		m := &out[i]
		m.Kind = MutationKind(r.Kind)
		switch m.Kind {
		case MutAddObject:
			m.Object = Object{ID: r.Object.ID, Point: geom.Point(r.Object.Point), Capacity: int(r.Object.Capacity)}
		case MutAddFunction:
			m.Function = recFunction(&r.Function)
		default:
			m.ID = r.ID
		}
	}
	return out
}

// OpenWorkspace recovers a workspace from cfg.WALDir: load the newest
// snapshot that passes its checksums and cross-validation (falling back
// to older generations), rebuild the serving state from it with no
// re-solve, replay the committed WAL batches past its epoch, truncate
// any torn tail (ErrTornWrite — those bytes were never acknowledged),
// start a fresh segment so the workspace continues logging (in place of
// a newest segment whose header is torn), and prune what the directory
// no longer needs. The recovered workspace continues the exact epoch
// lineage of the one that crashed.
func OpenWorkspace(cfg Config) (*Workspace, error) {
	if cfg.WALDir == "" {
		return nil, ErrNotDurable
	}
	fs := cfg.fsOrOS()
	epochs, err := snapshot.List(fs, cfg.WALDir)
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, cfg.WALDir)
	}
	if err != nil {
		return nil, fmt.Errorf("assign: scan durability dir: %w", err)
	}
	if len(epochs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, cfg.WALDir)
	}
	info := &RecoveryInfo{}
	var w *Workspace
	var lastErr error
	for i := len(epochs) - 1; i >= 0; i-- {
		d, rerr := snapshot.ReadFile(fs, cfg.WALDir, epochs[i])
		if rerr == nil {
			w, rerr = restoreWorkspace(d, cfg)
		}
		if rerr != nil {
			if errors.Is(rerr, ErrBadSnapshot) {
				// Fall back to the previous generation + longer replay.
				info.SnapshotsSkipped++
				lastErr = rerr
				continue
			}
			return nil, rerr
		}
		info.SnapshotEpoch = d.Epoch
		break
	}
	if w == nil {
		return nil, fmt.Errorf("assign: every snapshot unreadable: %w", lastErr)
	}
	seq, err := w.replayWAL(fs, cfg.WALDir, info)
	if err != nil {
		w.Close()
		return nil, err
	}
	log, err := wal.Create(fs, cfg.WALDir, seq, w.epoch)
	if err != nil {
		w.Close()
		return nil, err
	}
	w.dur = &durableState{fs: fs, dir: cfg.WALDir, log: log}
	if info.SnapshotsSkipped == 0 {
		// After a fallback the window could drop the snapshot the
		// restore used; the next SaveSnapshot prunes instead.
		w.pruneDurableFiles()
	}
	info.FinalEpoch = w.epoch
	w.recovery = info
	return w, nil
}

// replayWAL reapplies every committed batch past the restored epoch, in
// segment order. Records at or before the current epoch are skipped
// (segments overlap snapshots after rotation); a record that does not
// extend the lineage contiguously means the log and the snapshot
// diverged — typed ErrWALDiverged, never a guess. It returns the
// sequence number of the segment the workspace logs into next: one past
// the newest segment, or the newest segment's own when its header is
// torn, so the new segment replaces it (a torn segment followed by a
// live one would read as a diverged log).
func (w *Workspace) replayWAL(fs vfs.FS, dir string, info *RecoveryInfo) (uint64, error) {
	segs, err := wal.ListSegments(fs, dir)
	if err != nil {
		return 0, err
	}
	for i, sg := range segs {
		sd, err := wal.ReadSegment(fs, dir, sg.Name)
		if err != nil {
			if errors.Is(err, wal.ErrBadSegment) && i == len(segs)-1 {
				// A crash during rotation can tear the newest segment's
				// header before any record lands; treat it as an empty torn
				// tail.
				info.TornTail = true
				info.TornDetail = err.Error()
				return sg.Seq, nil
			}
			return 0, fmt.Errorf("%w: %w", ErrWALDiverged, err)
		}
		if sd.TornError != nil {
			info.TornTail = true
			info.TornDetail = sd.TornError.Error()
		}
		for _, rec := range sd.Records {
			switch {
			case rec.Epoch <= w.epoch:
				continue // already covered by the snapshot
			case rec.Epoch != w.epoch+1:
				return 0, fmt.Errorf("%w: record epoch %d after workspace epoch %d (segment %s)",
					ErrWALDiverged, rec.Epoch, w.epoch, sg.Name)
			}
			recs, err := snapshot.DecodeBatch(rec.Payload)
			if err != nil {
				return 0, fmt.Errorf("%w: %w", ErrWALDiverged, err)
			}
			muts := recMutations(recs)
			w.mu.Lock()
			err = w.applyLocked(muts)
			w.mu.Unlock()
			if err != nil {
				return 0, fmt.Errorf("%w: replaying epoch %d: %w", ErrWALDiverged, rec.Epoch, err)
			}
			info.BatchesReplayed++
			info.MutationsReplayed += len(muts)
		}
	}
	if len(segs) == 0 {
		return 1, nil
	}
	return segs[len(segs)-1].Seq + 1, nil
}

// restoreWorkspace rebuilds a serving workspace from one decoded
// snapshot: the object page store is re-imaged (preserving page IDs and
// the allocation watermark), the R-tree reattaches via its persisted
// Meta, the function blocks are rebuilt from the function table, the
// matching and capacity tables load directly, and the availability
// frontier is recomputed from the capacity tables and cross-checked
// against the persisted skyline ID set. O(file) — no solve, no bulk
// load. Internal inconsistency returns ErrBadSnapshot so OpenWorkspace
// can fall back a generation.
func restoreWorkspace(d *snapshot.Data, cfg Config) (*Workspace, error) {
	if d.Epoch < 1 {
		return nil, fmt.Errorf("%w: epoch 0", ErrBadSnapshot)
	}
	p := &Problem{Dims: d.Dims}
	for i := range d.Objects {
		o := &d.Objects[i]
		p.Objects = append(p.Objects, Object{ID: o.ID, Point: geom.Point(o.Point), Capacity: int(o.Capacity)})
	}
	for i := range d.Functions {
		p.Functions = append(p.Functions, recFunction(&d.Functions[i]))
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if d.ObjStore.Size != len(p.Objects) {
		return nil, fmt.Errorf("%w: object tree size %d != %d objects", ErrBadSnapshot, d.ObjStore.Size, len(p.Objects))
	}

	vstore, pool, tree, err := restoreStore(cfg, &d.ObjStore, d.Dims)
	if err != nil {
		return nil, err
	}
	pt := newObjPart(vstore, pool, tree, len(p.Objects))
	pt.caps = capsFromEntries(d.ObjCaps)
	w := &Workspace{
		cfg:      cfg,
		dims:     d.Dims,
		obj:      pt,
		epoch:    d.Epoch - 1, // the commit sealing the restored state publishes d.Epoch
		funcs:    cow.New[Function](len(p.Functions)),
		eff:      make(map[uint64]score.Scorer, len(p.Functions)),
		allFuncs: score.NewFuncBlocks(p.Dims),
		funcCaps: capsFromEntries(d.FuncCaps),
		byFunc:   cow.New[[]wsPair](len(p.Functions)),
	}
	fail := func(format string, args ...any) (*Workspace, error) {
		w.Close()
		return nil, fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
	for _, o := range p.Objects {
		pt.objs.Set(o.ID, o)
	}
	for _, f := range p.Functions {
		w.addFunc(f)
	}
	for _, pr := range d.Pairs {
		if _, ok := w.eff[pr.FuncID]; !ok {
			return fail("pair references unknown function %d", pr.FuncID)
		}
		if _, ok := pt.objs.Get(pr.ObjID); !ok {
			return fail("pair references unknown object %d", pr.ObjID)
		}
		w.link(wsPair{fid: pr.FuncID, oid: pr.ObjID, score: pr.Score})
	}
	// Cross-validate the capacity tables against capacity − assignment:
	// the tables must be derivable, so a bit-rotted (yet
	// checksum-passing — e.g. truncated by a buggy tool) state cannot
	// serve.
	if err := checkCaps(pt.caps, pt.objs.Len(), func(id uint64) (int, int, bool) {
		o, ok := pt.objs.Get(id)
		return o.capacity(), len(pt.byObj[id]), ok
	}); err != nil {
		return fail("object capacity table: %v", err)
	}
	if err := checkCaps(w.funcCaps, w.funcs.Len(), func(id uint64) (int, int, bool) {
		f, ok := w.funcs.Get(id)
		ps, _ := w.byFunc.Get(id)
		return f.capacity(), len(ps), ok
	}); err != nil {
		return fail("function capacity table: %v", err)
	}

	// The frontier is rebuilt, not deserialized: the skyline of the
	// available objects is unique, so recomputing it from the restored
	// capacity table and comparing ID sets doubles as an end-to-end
	// consistency check of pairs, capacities, and points.
	pt.buildFrontier(d.Dims)
	sky := pt.avail.Skyline()
	if len(sky) != len(d.Avail) {
		return fail("frontier has %d entries, snapshot recorded %d", len(sky), len(d.Avail))
	}
	persisted := make(map[uint64]bool, len(d.Avail))
	for _, id := range d.Avail {
		persisted[id] = true
	}
	for _, it := range sky {
		if !persisted[it.ID] {
			return fail("frontier object %d not in persisted skyline", it.ID)
		}
	}

	// Seal the restored state as epoch d.Epoch, then overwrite the
	// counters with the persisted lifetime values — the restore itself
	// is not a commit.
	if err := w.commitLocked(); err != nil {
		w.Close()
		return nil, err
	}
	w.mutations = int64(d.Counters.Mutations)
	w.commits = int64(d.Counters.Commits)
	w.chainLen = int64(d.Counters.ChainSteps)
	w.searches = int64(d.Counters.Searches)
	w.resolves = int64(d.Counters.Resolves)
	return w, nil
}

// checkCaps verifies one capacity table equals capacity − assigned for
// every live entity, exactly.
func checkCaps(t *capTable, population int, lookup func(id uint64) (capacity, assigned int, ok bool)) error {
	if len(t.remaining) != population {
		return fmt.Errorf("%d entries for %d entities", len(t.remaining), population)
	}
	for id, rem := range t.remaining {
		capacity, assigned, ok := lookup(id)
		if !ok {
			return fmt.Errorf("entry for unknown id %d", id)
		}
		if rem != capacity-assigned {
			return fmt.Errorf("id %d: remaining %d, want %d-%d", id, rem, capacity, assigned)
		}
	}
	return nil
}

// restoreStore re-images the object page store from a snapshot: pages
// are allocated up to the persisted watermark, live images written at
// their exact IDs, holes freed — so the restored ID space matches the
// saved one — and the R-tree reattaches via FromMeta. The pool is
// resized to the experiment fraction and cleared, and the I/O counters
// reset — restore, like construction, is not charged to the algorithm.
func restoreStore(cfg Config, si *snapshot.StoreImage, dims int) (*pagestore.VersionedStore, *pagestore.BufferPool, *rtree.Tree, error) {
	scfg := cfg
	scfg.PageSize = si.PageSize
	store, err := scfg.versioned().newStore()
	if err != nil {
		return nil, nil, nil, err
	}
	vs := store.(*pagestore.VersionedStore)
	if vs.PageSize() != si.PageSize {
		vs.Close()
		return nil, nil, nil, fmt.Errorf("assign: store factory page size %d, snapshot has %d", vs.PageSize(), si.PageSize)
	}
	bad := func(format string, args ...any) (*pagestore.VersionedStore, *pagestore.BufferPool, *rtree.Tree, error) {
		vs.Close()
		return nil, nil, nil, fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
	for id := int64(0); id < si.Next; id++ {
		got, err := vs.Allocate()
		if err != nil {
			vs.Close()
			return nil, nil, nil, err
		}
		if int64(got) != id {
			vs.Close()
			return nil, nil, nil, fmt.Errorf("assign: restore store allocated page %d, want %d (non-sequential factory store)", got, id)
		}
	}
	rootSeen := false
	next := int64(0)
	for i := range si.Pages {
		pg := &si.Pages[i]
		// Free the hole between the previous image and this one.
		for ; next < pg.ID; next++ {
			if err := vs.Free(pagestore.PageID(next)); err != nil {
				vs.Close()
				return nil, nil, nil, err
			}
		}
		if err := vs.WritePage(pagestore.PageID(pg.ID), pg.Data); err != nil {
			vs.Close()
			return nil, nil, nil, err
		}
		if pg.ID == si.Root {
			rootSeen = true
		}
		next = pg.ID + 1
	}
	for ; next < si.Next; next++ {
		if err := vs.Free(pagestore.PageID(next)); err != nil {
			vs.Close()
			return nil, nil, nil, err
		}
	}
	if !rootSeen {
		return bad("tree root page %d not in image", si.Root)
	}
	pool := newBuildPool(vs)
	if err := coldBuffer(pool, vs.NumPages(), cfg.bufferFrac()); err != nil {
		vs.Close()
		return nil, nil, nil, err
	}
	tree, err := rtree.FromMeta(pool, dims, rtree.Meta{
		Root:   pagestore.PageID(si.Root),
		Height: si.Height,
		Size:   si.Size,
	})
	if err != nil {
		return bad("%v", err)
	}
	return vs, pool, tree, nil
}
