// Package snapshot persists a pinned workspace epoch — page images of
// the object index's versioned store and its R-tree header, the entity
// tables, the matching, the capacity tables, the availability frontier,
// and the solver counters — to a compact, versioned, CRC-checksummed
// file, and decodes it back. The assign layer turns a decoded Data into
// a ready-to-serve workspace in O(file) time with no re-solve
// (warm-start); together with the WAL (internal/wal) the snapshot is
// the durable source of truth — the workspace's live page files are
// scratch and are never read during recovery.
//
// # File format
//
// Little-endian throughout.
//
//	header:   magic "FASNAP01" (8) | version u32 | dims u32 |
//	          epoch u64 | reserved u32 | crc u32 (over version..reserved)
//	section:  kind u32 | reserved u32 | payloadLen u64 | crc u32 (payload)
//	footer:   a section with kind 0 whose payload is the section count
//
// Every section payload carries its own CRC-32 (Castagnoli); a missing
// footer means the file was truncated. Decoding is fully bounds-checked
// against the input length before any count-sized allocation, so
// arbitrary input returns ErrBadSnapshot — never a panic or an
// unbounded allocation.
//
// This is format version 2. Version-1 files, which also imaged a
// function store, are rejected as an unsupported format version.
//
// Snapshot files are written atomically: encode to "<name>.tmp", fsync,
// rename over the final name, fsync the directory. A crash at any byte
// of that sequence leaves either no snapshot or a complete one.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path"
	"sort"
	"strconv"
	"strings"

	"fairassign/internal/vfs"
)

// ErrBadSnapshot marks a snapshot file that cannot be trusted:
// truncated, checksum-corrupt, structurally invalid, or written by an
// unsupported format version. Recovery falls back to the previous good
// snapshot when one exists.
var ErrBadSnapshot = errors.New("snapshot: bad snapshot")

const (
	magic         = "FASNAP01"
	formatVersion = 2
	headerSize    = 8 + 4 + 4 + 8 + 4 + 4
	secHdrSize    = 4 + 4 + 8 + 4

	// maxDims bounds the dimensionality a decoder will accept; real
	// workspaces use a handful of dimensions.
	maxDims = 4096
	// maxPageSize bounds a store image's page size.
	maxPageSize = 1 << 24
)

// Section kinds.
const (
	secFooter    = 0
	secCounters  = 1
	secObjects   = 2
	secFunctions = 3
	secPairs     = 4
	secObjCaps   = 5
	secFuncCaps  = 6
	secAvail     = 7
	secObjStore  = 8
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ObjectRec is one persisted object.
type ObjectRec struct {
	ID       uint64
	Capacity int64
	Point    []float64
}

// FunctionRec is one persisted preference function, with its scoring
// family so non-linear workspaces restore exactly.
type FunctionRec struct {
	ID       uint64
	Capacity int64
	Gamma    float64
	FamKind  uint32
	FamP     float64
	Weights  []float64
}

// Pair is one persisted assignment unit.
type Pair struct {
	FuncID uint64
	ObjID  uint64
	Score  float64
}

// CapEntry is one capacity-table row: remaining units for an ID.
type CapEntry struct {
	ID        uint64
	Remaining int64
}

// PageImage is one live page's current bytes (trailing zeros trimmed).
type PageImage struct {
	ID   int64
	Data []byte
}

// StoreImage freezes one page store plus the R-tree rooted in it: the
// live pages pin the node contents, the root/height/size header pins
// the entry point (the Meta idea from internal/rtree, serialized).
type StoreImage struct {
	PageSize int
	// Next is the allocation watermark: restore allocates IDs 0..Next-1
	// and frees the holes, reproducing the store's ID space.
	Next   int64
	Root   int64
	Height int
	Size   int
	Pages  []PageImage
}

// Counters carries the workspace's lifetime solver counters so a
// recovered workspace reports the same Stats as the one that saved.
type Counters struct {
	Mutations  uint64
	Commits    uint64
	ChainSteps uint64
	Searches   uint64
	Resolves   uint64
}

// Data is one decoded (or to-be-encoded) snapshot: everything needed to
// rebuild a serving workspace at the captured epoch.
type Data struct {
	Epoch     uint64
	Dims      int
	Counters  Counters
	Objects   []ObjectRec
	Functions []FunctionRec
	Pairs     []Pair
	ObjCaps   []CapEntry
	FuncCaps  []CapEntry
	// Avail is the sorted ID set of the availability frontier (the
	// skyline of objects with remaining capacity) — a logical checksum:
	// restore recomputes the frontier from the capacity tables and
	// rejects the snapshot if the sets differ.
	Avail    []uint64
	ObjStore StoreImage
}

// FileName returns the snapshot file name for an epoch:
// "snap-<epoch as 16 hex digits>.fasnap".
func FileName(epoch uint64) string {
	return fmt.Sprintf("snap-%016x.fasnap", epoch)
}

// ParseFileName inverts FileName; ok is false for other files
// (including in-flight ".tmp" writes).
func ParseFileName(name string) (epoch uint64, ok bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".fasnap") {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".fasnap")
	if len(hexpart) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// List returns the epochs of the well-named snapshot files in dir,
// ascending. Name-level only: a listed snapshot may still fail its
// checksums when read.
func List(fs vfs.FS, dir string) ([]uint64, error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: list %s: %w", dir, err)
	}
	var epochs []uint64
	for _, n := range names {
		if e, ok := ParseFileName(n); ok {
			epochs = append(epochs, e)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}

// Encode serializes the snapshot.
func Encode(d *Data) []byte {
	var buf bytes.Buffer

	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(d.Dims))
	binary.LittleEndian.PutUint64(hdr[16:], d.Epoch)
	binary.LittleEndian.PutUint32(hdr[28:], crc32.Checksum(hdr[8:28], crcTable))
	buf.Write(hdr[:])

	sections := 0
	writeSection := func(kind uint32, payload []byte) {
		var sh [secHdrSize]byte
		binary.LittleEndian.PutUint32(sh[0:], kind)
		binary.LittleEndian.PutUint64(sh[8:], uint64(len(payload)))
		binary.LittleEndian.PutUint32(sh[16:], crc32.Checksum(payload, crcTable))
		buf.Write(sh[:])
		buf.Write(payload)
		sections++
	}

	var e enc
	e.u64(d.Counters.Mutations).u64(d.Counters.Commits).u64(d.Counters.ChainSteps)
	e.u64(d.Counters.Searches).u64(d.Counters.Resolves)
	writeSection(secCounters, e.take())

	e.u64(uint64(len(d.Objects)))
	for _, o := range d.Objects {
		e.u64(o.ID).i64(o.Capacity)
		for _, v := range o.Point {
			e.f64(v)
		}
	}
	writeSection(secObjects, e.take())

	e.u64(uint64(len(d.Functions)))
	for _, f := range d.Functions {
		e.u64(f.ID).i64(f.Capacity).f64(f.Gamma).u32(f.FamKind).f64(f.FamP)
		for _, v := range f.Weights {
			e.f64(v)
		}
	}
	writeSection(secFunctions, e.take())

	e.u64(uint64(len(d.Pairs)))
	for _, p := range d.Pairs {
		e.u64(p.FuncID).u64(p.ObjID).f64(p.Score)
	}
	writeSection(secPairs, e.take())

	encCaps := func(caps []CapEntry) []byte {
		e.u64(uint64(len(caps)))
		for _, c := range caps {
			e.u64(c.ID).i64(c.Remaining)
		}
		return e.take()
	}
	writeSection(secObjCaps, encCaps(d.ObjCaps))
	writeSection(secFuncCaps, encCaps(d.FuncCaps))

	e.u64(uint64(len(d.Avail)))
	for _, id := range d.Avail {
		e.u64(id)
	}
	writeSection(secAvail, e.take())

	si := &d.ObjStore
	e.u32(uint32(si.PageSize)).u32(0).i64(si.Next).i64(si.Root)
	e.u32(uint32(si.Height)).u32(0).u64(uint64(si.Size)).u64(uint64(len(si.Pages)))
	for _, p := range si.Pages {
		e.i64(p.ID).u32(uint32(len(p.Data)))
		e.bytes(p.Data)
	}
	writeSection(secObjStore, e.take())

	e.u64(uint64(sections + 1))
	writeSection(secFooter, e.take())

	return buf.Bytes()
}

// Decode parses a snapshot image. Any malformation — short input, bad
// magic, checksum mismatch, implausible counts, missing footer —
// returns an error wrapping ErrBadSnapshot; Decode never panics and
// never allocates more than O(len(data)).
func Decode(data []byte) (*Data, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: short header", ErrBadSnapshot)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if crc := binary.LittleEndian.Uint32(data[28:]); crc != crc32.Checksum(data[8:28], crcTable) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrBadSnapshot)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrBadSnapshot, v)
	}
	d := &Data{
		Dims:  int(binary.LittleEndian.Uint32(data[12:])),
		Epoch: binary.LittleEndian.Uint64(data[16:]),
	}
	if d.Dims < 1 || d.Dims > maxDims {
		return nil, fmt.Errorf("%w: implausible dims %d", ErrBadSnapshot, d.Dims)
	}

	rest := data[headerSize:]
	seen := make(map[uint32]bool)
	sections := 0
	footer := false
	for len(rest) > 0 {
		if len(rest) < secHdrSize {
			return nil, fmt.Errorf("%w: truncated section header", ErrBadSnapshot)
		}
		kind := binary.LittleEndian.Uint32(rest[0:])
		if rsvd := binary.LittleEndian.Uint32(rest[4:]); rsvd != 0 {
			return nil, fmt.Errorf("%w: section %d reserved field %d", ErrBadSnapshot, kind, rsvd)
		}
		plen := binary.LittleEndian.Uint64(rest[8:])
		crc := binary.LittleEndian.Uint32(rest[16:])
		rest = rest[secHdrSize:]
		if plen > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: truncated section %d", ErrBadSnapshot, kind)
		}
		payload := rest[:plen]
		rest = rest[plen:]
		if crc32.Checksum(payload, crcTable) != crc {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrBadSnapshot, kind)
		}
		if seen[kind] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrBadSnapshot, kind)
		}
		seen[kind] = true
		sections++
		r := dec{b: payload}
		var err error
		switch kind {
		case secFooter:
			want := r.u64()
			if r.err != nil || r.len() != 0 || want != uint64(sections) {
				return nil, fmt.Errorf("%w: bad footer", ErrBadSnapshot)
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("%w: trailing bytes after footer", ErrBadSnapshot)
			}
			footer = true
		case secCounters:
			d.Counters = Counters{
				Mutations: r.u64(), Commits: r.u64(), ChainSteps: r.u64(),
				Searches: r.u64(), Resolves: r.u64(),
			}
			err = r.done("counters")
		case secObjects:
			err = decodeObjects(&r, d)
		case secFunctions:
			err = decodeFunctions(&r, d)
		case secPairs:
			err = decodePairs(&r, d)
		case secObjCaps:
			d.ObjCaps, err = decodeCaps(&r)
		case secFuncCaps:
			d.FuncCaps, err = decodeCaps(&r)
		case secAvail:
			err = decodeAvail(&r, d)
		case secObjStore:
			err = decodeStore(&r, &d.ObjStore)
		default:
			return nil, fmt.Errorf("%w: unknown section %d", ErrBadSnapshot, kind)
		}
		if err != nil {
			return nil, err
		}
		if footer {
			break
		}
	}
	if !footer {
		return nil, fmt.Errorf("%w: missing footer (truncated file)", ErrBadSnapshot)
	}
	for k := uint32(secCounters); k <= secObjStore; k++ {
		if !seen[k] {
			return nil, fmt.Errorf("%w: missing section %d", ErrBadSnapshot, k)
		}
	}
	return d, nil
}

func decodeObjects(r *dec, d *Data) error {
	n := r.u64()
	recSize := uint64(8 + 8 + 8*d.Dims)
	if r.err != nil || n > uint64(r.len())/recSize {
		return fmt.Errorf("%w: implausible object count", ErrBadSnapshot)
	}
	d.Objects = make([]ObjectRec, n)
	for i := range d.Objects {
		o := &d.Objects[i]
		o.ID, o.Capacity = r.u64(), r.i64()
		o.Point = r.f64s(d.Dims)
	}
	return r.done("objects")
}

func decodeFunctions(r *dec, d *Data) error {
	n := r.u64()
	recSize := uint64(8 + 8 + 8 + 4 + 8 + 8*d.Dims)
	if r.err != nil || n > uint64(r.len())/recSize {
		return fmt.Errorf("%w: implausible function count", ErrBadSnapshot)
	}
	d.Functions = make([]FunctionRec, n)
	for i := range d.Functions {
		f := &d.Functions[i]
		f.ID, f.Capacity, f.Gamma = r.u64(), r.i64(), r.f64()
		f.FamKind, f.FamP = r.u32(), r.f64()
		f.Weights = r.f64s(d.Dims)
	}
	return r.done("functions")
}

func decodePairs(r *dec, d *Data) error {
	n := r.u64()
	if r.err != nil || n > uint64(r.len())/24 {
		return fmt.Errorf("%w: implausible pair count", ErrBadSnapshot)
	}
	d.Pairs = make([]Pair, n)
	for i := range d.Pairs {
		p := &d.Pairs[i]
		p.FuncID, p.ObjID, p.Score = r.u64(), r.u64(), r.f64()
	}
	return r.done("pairs")
}

func decodeCaps(r *dec) ([]CapEntry, error) {
	n := r.u64()
	if r.err != nil || n > uint64(r.len())/16 {
		return nil, fmt.Errorf("%w: implausible capacity count", ErrBadSnapshot)
	}
	caps := make([]CapEntry, n)
	for i := range caps {
		caps[i].ID, caps[i].Remaining = r.u64(), r.i64()
	}
	return caps, r.done("caps")
}

func decodeAvail(r *dec, d *Data) error {
	n := r.u64()
	if r.err != nil || n > uint64(r.len())/8 {
		return fmt.Errorf("%w: implausible frontier count", ErrBadSnapshot)
	}
	d.Avail = make([]uint64, n)
	for i := range d.Avail {
		d.Avail[i] = r.u64()
	}
	return r.done("avail")
}

func decodeStore(r *dec, si *StoreImage) error {
	si.PageSize = int(r.u32())
	r.u32()
	si.Next = r.i64()
	si.Root = r.i64()
	si.Height = int(r.u32())
	r.u32()
	size := r.u64()
	n := r.u64()
	if r.err != nil {
		return fmt.Errorf("%w: truncated store image", ErrBadSnapshot)
	}
	if si.PageSize < 32 || si.PageSize > maxPageSize {
		return fmt.Errorf("%w: implausible page size %d", ErrBadSnapshot, si.PageSize)
	}
	if size > math.MaxInt32 || si.Next < 0 {
		return fmt.Errorf("%w: implausible store image", ErrBadSnapshot)
	}
	si.Size = int(size)
	if n > uint64(r.len())/12 {
		return fmt.Errorf("%w: implausible page count", ErrBadSnapshot)
	}
	si.Pages = make([]PageImage, n)
	for i := range si.Pages {
		p := &si.Pages[i]
		p.ID = r.i64()
		dlen := r.u32()
		if r.err != nil || int(dlen) > si.PageSize {
			return fmt.Errorf("%w: bad page image length", ErrBadSnapshot)
		}
		p.Data = r.raw(int(dlen))
		if p.ID < 0 || p.ID >= si.Next {
			return fmt.Errorf("%w: page id %d outside watermark %d", ErrBadSnapshot, p.ID, si.Next)
		}
		if i > 0 && p.ID <= si.Pages[i-1].ID {
			return fmt.Errorf("%w: page ids not strictly ascending", ErrBadSnapshot)
		}
	}
	return r.done("store image")
}

// WriteFile atomically persists the snapshot into dir and returns its
// file name: encode, write "<name>.tmp", fsync, rename over the final
// name, fsync the directory. The rename is the commit point.
func WriteFile(fs vfs.FS, dir string, d *Data) (string, error) {
	name := FileName(d.Epoch)
	tmp := path.Join(dir, name+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("snapshot: create %s: %w", tmp, err)
	}
	if _, err := f.Write(Encode(d)); err != nil {
		f.Close()
		return "", fmt.Errorf("snapshot: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("snapshot: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("snapshot: close %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, path.Join(dir, name)); err != nil {
		return "", fmt.Errorf("snapshot: rename %s: %w", tmp, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return "", fmt.Errorf("snapshot: sync dir %s: %w", dir, err)
	}
	return name, nil
}

// ReadFile loads and decodes one snapshot file; decode failures wrap
// ErrBadSnapshot.
func ReadFile(fs vfs.FS, dir string, epoch uint64) (*Data, error) {
	f, err := fs.Open(path.Join(dir, FileName(epoch)))
	if err != nil {
		return nil, fmt.Errorf("snapshot: open %s: %w", FileName(epoch), err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read %s: %w", FileName(epoch), err)
	}
	d, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", FileName(epoch), err)
	}
	if d.Epoch != epoch {
		return nil, fmt.Errorf("%w: %s: header epoch %d does not match name", ErrBadSnapshot, FileName(epoch), d.Epoch)
	}
	return d, nil
}

// enc is a little-endian append-only encoder.
type enc struct{ b []byte }

func (e *enc) u32(v uint32) *enc {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
	return e
}
func (e *enc) u64(v uint64) *enc {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
	return e
}
func (e *enc) i64(v int64) *enc    { return e.u64(uint64(v)) }
func (e *enc) f64(v float64) *enc  { return e.u64(math.Float64bits(v)) }
func (e *enc) bytes(p []byte) *enc { e.b = append(e.b, p...); return e }

// take returns the accumulated bytes and resets the encoder.
func (e *enc) take() []byte {
	out := e.b
	e.b = nil
	return out
}

// dec is a bounds-checked little-endian reader over one section
// payload; the first short read latches err and every later read
// returns zero.
type dec struct {
	b   []byte
	err error
}

func (r *dec) len() int { return len(r.b) }

func (r *dec) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *dec) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *dec) i64() int64   { return int64(r.u64()) }
func (r *dec) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *dec) f64s(n int) []float64 {
	if r.err != nil || len(r.b) < 8*n {
		r.fail()
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*n:]
	return out
}

func (r *dec) raw(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.fail()
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b)
	r.b = r.b[n:]
	return out
}

func (r *dec) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated payload", ErrBadSnapshot)
	}
}

// done asserts the payload was consumed exactly.
func (r *dec) done(what string) error {
	if r.err != nil {
		return fmt.Errorf("%w: truncated %s section", ErrBadSnapshot, what)
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %s section", ErrBadSnapshot, len(r.b), what)
	}
	return nil
}
