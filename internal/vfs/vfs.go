// Package vfs is the small filesystem seam under the durability layer:
// the snapshot writer and the write-ahead log perform every file
// operation through the FS interface. Production uses the real OS
// filesystem; tests use MemFS, whose armed mode kills the write stream
// at any byte offset for the crash sweep in internal/crashtest.
//
// Durability contract the OS implementation provides (and MemFS's
// fault model mirrors):
//
//   - File.Sync makes every byte written so far durable before it
//     returns — data written after the last Sync may be lost, torn at
//     any byte boundary, on power loss;
//   - Rename atomically replaces the destination and is durable once
//     SyncDir on the parent returns (the snapshot commit point);
//   - Create truncates; callers make new files durable with
//     Sync + SyncDir.
package vfs

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is one open file. Files opened with Create are write-only in
// practice (the durability layer never reads a file it is writing);
// files opened with Open are read-only.
type File interface {
	io.Reader
	io.Writer
	// Sync forces everything written so far to stable storage.
	Sync() error
	// Close releases the handle. Closing does not imply Sync.
	Close() error
}

// FS is the filesystem surface the durability layer uses. All paths are
// slash-joined by the caller (filepath.Join for the OS implementation's
// inputs works too: the in-memory implementation treats the path as an
// opaque key under a directory prefix).
type FS interface {
	// Create creates (truncating) a file for writing.
	Create(name string) (File, error)
	// Open opens a file for reading.
	Open(name string) (File, error)
	// List returns the entry names (not full paths) in a directory,
	// sorted ascending.
	List(dir string) ([]string, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(dir string) error
	// SyncDir makes prior namespace operations (Create, Rename, Remove)
	// in the directory durable.
	SyncDir(dir string) error
}

// OS returns the real-filesystem implementation.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	// Some platforms cannot fsync a directory handle; treat that as
	// best-effort (the metadata journal covers it there).
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
