// Package storefault is the storage seam of the fault-injection story:
// every on-disk artifact writer and reader in the platform (campaign
// journal, flow store, livemon ring, provenance traces, pcap and health
// dumps) performs its I/O through the FS interface defined here instead
// of calling the os package directly. The passthrough implementation
// (Disk) adds nothing but a virtual call; the chaos implementation
// (NewChaos) injects torn writes, short writes, bit flips, ENOSPC,
// fsync failures, rename failures, and read errors from a seeded,
// JSON-serializable plan — the storage sibling of internal/faults.
//
// Like the dataplane fault engine, the chaos layer is deterministic:
// every injection decision flows through a child of one seeded
// rng.Source keyed by matching-operation order, so the same
// (plan, seed) pair replays the same injections at the same operations.
package storefault

import (
	"io"
	"io/fs"
	"os"
)

// File is the subset of *os.File the platform's artifact writers and
// readers use. *os.File satisfies it directly.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Seeker
	io.Closer
	// WriteString writes a string. The platform's writers all use
	// Write; wrappers that forward both, like pwbench's timing seam,
	// still call it.
	WriteString(s string) (int, error)
	// Truncate cuts the file to size (torn-tail repair on open).
	Truncate(size int64) error
	// Sync flushes the file to stable storage.
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem seam. Implementations: osFS (the real disk,
// exposed as Disk) and Chaos (fault-injecting wrapper).
type FS interface {
	// Create truncates/creates the file at path for writing.
	Create(path string) (File, error)
	// Open opens the file at path read-only.
	Open(path string) (File, error)
	// OpenFile is the general open (os.OpenFile semantics).
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads the whole file.
	ReadFile(path string) ([]byte, error)
	// WriteFile writes data to path, creating or truncating it.
	WriteFile(path string, data []byte, perm os.FileMode) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the file at path.
	Remove(path string) error
	// MkdirAll creates the directory path and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// Truncate cuts the file at path to size.
	Truncate(path string, size int64) error
	// Stat describes the file at path.
	Stat(path string) (fs.FileInfo, error)
	// ReadDir lists the directory at path.
	ReadDir(path string) ([]fs.DirEntry, error)
}

// Disk is the passthrough FS: every call forwards to the os package.
// It is the default seam everywhere — the chaos layer is opt-in.
var Disk FS = osFS{}

// osFS forwards to the os package.
type osFS struct{}

func (osFS) Create(path string) (File, error) { return os.Create(path) }
func (osFS) Open(path string) (File, error)   { return os.Open(path) }
func (osFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}
func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }
func (osFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Truncate(path string, size int64) error       { return os.Truncate(path, size) }
func (osFS) Stat(path string) (fs.FileInfo, error)        { return os.Stat(path) }
func (osFS) ReadDir(path string) ([]fs.DirEntry, error)   { return os.ReadDir(path) }

// Or returns fsys when non-nil and Disk otherwise — the idiom every
// FS-parameterized constructor uses to default its seam.
func Or(fsys FS) FS {
	if fsys == nil {
		return Disk
	}
	return fsys
}
