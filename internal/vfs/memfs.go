package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"
)

// MemFS is the in-memory FS of the durability tests. Unarmed it never
// fails; armed, it models power loss at a chosen byte offset, which is
// how the crash sweep in internal/crashtest kills the write stream.
//
// # Fault model
//
// Every byte written through the FS consumes one tick of a global
// monotone counter. Arm(k) makes the k-th byte — and everything after
// it, including Sync, Create, Rename, and Remove — fail with
// ErrInjectedCrash; a Write straddling k persists its pre-k prefix and
// fails, which is how torn records happen. Reboot then builds the
// durable image under one of two power-loss policies:
//
//   - FlushPrefix: every byte accepted before the crash survives, even
//     if never synced (the kernel happened to flush everything). The
//     generous extreme: recovery may see acknowledged-plus-torn tails.
//   - DropUnsynced: only bytes covered by a completed Sync survive; the
//     unsynced tail of every file vanishes. The adversarial extreme:
//     recovery sees the bare fsync barrier.
//
// Namespace operations (Create, Rename, Remove) that returned success
// are durable under both policies. The production sequences justify
// this: the snapshot writer syncs file bytes before renaming and syncs
// the directory after, and the WAL syncs its header before the segment
// is used, so metadata-vs-data reordering beyond these two extremes
// cannot produce states the real OS filesystem could but the model
// could not.
type MemFS struct {
	mu      sync.Mutex
	dirs    map[string]struct{}
	files   map[string]*memFile
	written int64
	limit   int64 // crash at this global byte position; <0 = unlimited
	crashed bool
}

// ErrInjectedCrash marks every operation refused after the armed crash
// point. The durability layer treats it like any other I/O error.
var ErrInjectedCrash = errors.New("vfs: injected crash")

// Policy selects how Reboot treats bytes written but not synced before
// the crash.
type Policy int

const (
	// FlushPrefix keeps every byte accepted before the crash point.
	FlushPrefix Policy = iota
	// DropUnsynced keeps only bytes covered by a completed Sync.
	DropUnsynced
)

func (p Policy) String() string {
	if p == FlushPrefix {
		return "flush-prefix"
	}
	return "drop-unsynced"
}

// memFile is one simulated file: current (volatile) content plus the
// length its last completed Sync made durable.
type memFile struct {
	data   []byte
	synced int
}

// NewMem returns an empty, unarmed in-memory filesystem with only the
// root directory present.
func NewMem() *MemFS {
	return &MemFS{
		dirs:  map[string]struct{}{".": {}},
		files: make(map[string]*memFile),
		limit: -1,
	}
}

// Written returns the total bytes accepted so far — the sweep space.
func (m *MemFS) Written() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.written
}

// Arm sets the crash point: the limit-th written byte and every
// operation after it fail with ErrInjectedCrash.
func (m *MemFS) Arm(limit int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.limit = limit
}

// Crashed reports whether the crash point was reached.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// downLocked is the post-crash-point check every operation starts with.
func (m *MemFS) downLocked() bool {
	if m.limit >= 0 && m.written >= m.limit {
		m.crashed = true
		return true
	}
	return false
}

// Reboot materializes the durable disk image under the policy as a
// fresh unarmed MemFS: what a process restarting after power loss would
// find.
func (m *MemFS) Reboot(p Policy) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMem()
	for d := range m.dirs {
		out.dirs[d] = struct{}{}
	}
	for name, fl := range m.files {
		n := len(fl.data)
		if p == DropUnsynced {
			n = fl.synced
		}
		out.files[name] = &memFile{data: append([]byte(nil), fl.data[:n]...), synced: n}
	}
	return out
}

// ReadAll returns a copy of a file's bytes (test helper).
func (m *MemFS) ReadAll(name string) ([]byte, error) {
	name = memClean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	fl, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), fl.data...), nil
}

// WriteAll replaces a file's bytes wholesale, durably (test helper for
// corruption injection).
func (m *MemFS) WriteAll(name string, data []byte) {
	name = memClean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &memFile{data: append([]byte(nil), data...), synced: len(data)}
}

func memClean(name string) string { return path.Clean(strings.TrimPrefix(name, "/")) }

func (m *MemFS) Create(name string) (File, error) {
	name = memClean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.downLocked() {
		return nil, fmt.Errorf("%w: create %s", ErrInjectedCrash, name)
	}
	if _, ok := m.dirs[path.Dir(name)]; !ok {
		return nil, &fs.PathError{Op: "create", Path: name, Err: fs.ErrNotExist}
	}
	m.files[name] = &memFile{}
	return &memWFile{fs: m, name: name}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	data, err := m.ReadAll(name)
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: memClean(name), Err: fs.ErrNotExist}
	}
	return &memRFile{data: data}, nil
}

func (m *MemFS) List(dir string) ([]string, error) {
	dir = memClean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.dirs[dir]; !ok {
		return nil, &fs.PathError{Op: "open", Path: dir, Err: fs.ErrNotExist}
	}
	var names []string
	for name := range m.files {
		if path.Dir(name) == dir {
			names = append(names, path.Base(name))
		}
	}
	for d := range m.dirs {
		if d != "." && path.Dir(d) == dir {
			names = append(names, path.Base(d))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	oldname, newname = memClean(oldname), memClean(newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.downLocked() {
		return fmt.Errorf("%w: rename %s", ErrInjectedCrash, oldname)
	}
	fl, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	m.files[newname] = fl
	delete(m.files, oldname)
	return nil
}

func (m *MemFS) Remove(name string) error {
	name = memClean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.downLocked() {
		return fmt.Errorf("%w: remove %s", ErrInjectedCrash, name)
	}
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) MkdirAll(dir string) error {
	dir = memClean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.downLocked() {
		return fmt.Errorf("%w: mkdir %s", ErrInjectedCrash, dir)
	}
	for d := dir; ; d = path.Dir(d) {
		m.dirs[d] = struct{}{}
		if d == "." || d == "/" {
			break
		}
	}
	return nil
}

func (m *MemFS) SyncDir(dir string) error {
	dir = memClean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.downLocked() {
		return fmt.Errorf("%w: syncdir %s", ErrInjectedCrash, dir)
	}
	if _, ok := m.dirs[dir]; !ok {
		return &fs.PathError{Op: "syncdir", Path: dir, Err: fs.ErrNotExist}
	}
	return nil
}

type memWFile struct {
	fs     *MemFS
	name   string
	closed bool
}

func (w *memWFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("vfs: write to closed file %s", w.name)
	}
	fl, ok := w.fs.files[w.name]
	if !ok {
		return 0, &fs.PathError{Op: "write", Path: w.name, Err: fs.ErrNotExist}
	}
	accept := len(p)
	if w.fs.limit >= 0 {
		if room := w.fs.limit - w.fs.written; int64(accept) > room {
			accept = int(max(room, 0)) // torn write: the pre-crash prefix lands
		}
	}
	fl.data = append(fl.data, p[:accept]...)
	w.fs.written += int64(accept)
	if accept < len(p) {
		w.fs.crashed = true
		return accept, fmt.Errorf("%w: write %s", ErrInjectedCrash, w.name)
	}
	return accept, nil
}

func (w *memWFile) Read([]byte) (int, error) {
	return 0, fmt.Errorf("vfs: file %s is write-only", w.name)
}

func (w *memWFile) Sync() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.fs.downLocked() {
		return fmt.Errorf("%w: sync %s", ErrInjectedCrash, w.name)
	}
	if fl, ok := w.fs.files[w.name]; ok {
		fl.synced = len(fl.data)
	}
	return nil
}

func (w *memWFile) Close() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.closed = true
	return nil
}

type memRFile struct {
	data []byte
	off  int
}

func (f *memRFile) Read(p []byte) (int, error) {
	if f.off >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

func (f *memRFile) Write([]byte) (int, error) { return 0, fmt.Errorf("vfs: file is read-only") }

func (f *memRFile) Sync() error { return nil }

func (f *memRFile) Close() error { return nil }
