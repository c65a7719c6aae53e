// Package vfs is the storage plane's seam: a small filesystem
// abstraction every durable-write site in the repository goes through,
// so the deterministic fault injector (internal/fault) can sit under
// the real I/O exactly the way it already sits under the simulated
// hardware. The design follows errorfs-style wrappers (Pebble, CockroachDB):
// a passthrough OS implementation for production and an InjectFS
// decorator that consults armed fault points on every write, fsync,
// rename, and read — including an ENOSPC mode and deterministic bit-rot
// on reads, the two storage failures digest-verified formats must
// survive without panicking or silently trusting rotted bytes.
//
// The package-level default FS (Active/SetDefault) exists because the
// durable-write discipline is invoked from deep inside call chains
// (fleet checkpoint writers, telemetry exporters) whose signatures
// should not all grow an FS parameter; a daemon or test installs an
// InjectFS once at startup and every write site in the process is under
// injection. Production never touches it and pays one atomic load.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
)

// File is the handle surface the durable-write discipline needs:
// stream in, fsync, close. Reads go through FS.Open for verification
// paths that stream-decode.
type File interface {
	io.Reader
	io.Writer
	// Sync flushes the file's bytes to stable storage.
	Sync() error
	Close() error
	// Name returns the path the handle was opened or created at.
	Name() string
}

// FS is the filesystem operation set the storage plane uses. Every
// method matches the os package's semantics; implementations must be
// safe for concurrent use.
type FS interface {
	// Open opens path for reading.
	Open(path string) (File, error)
	// CreateTemp creates a new temp file in dir (os.CreateTemp pattern
	// semantics).
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile returns the whole contents of path.
	ReadFile(path string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// MkdirAll creates path and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists path, sorted by filename.
	ReadDir(path string) ([]fs.DirEntry, error)
	// Stat describes path.
	Stat(path string) (fs.FileInfo, error)
	// SyncDir fsyncs the directory at dir so previously completed
	// renames inside it are durable. Filesystems that cannot fsync a
	// directory handle (EINVAL/ENOTSUP) must be treated as success —
	// the rename is still atomic, the power-loss guarantee was never
	// offered there.
	SyncDir(dir string) error
}

// OS is the passthrough production filesystem. Its ReadFile is the
// lean whole-file read every sealed-record load goes through (see
// readFile): os.ReadFile's bytes and errors in fewer system calls.
type OS struct{}

func (OS) Open(path string) (File, error)          { return os.Open(path) }
func (OS) CreateTemp(d, p string) (File, error)    { return os.CreateTemp(d, p) }
func (OS) ReadFile(path string) ([]byte, error)    { return readFile(path) }
func (OS) Rename(o, n string) error                { return os.Rename(o, n) }
func (OS) Remove(path string) error                { return os.Remove(path) }
func (OS) MkdirAll(p string, m fs.FileMode) error  { return os.MkdirAll(p, m) }
func (OS) ReadDir(p string) ([]fs.DirEntry, error) { return os.ReadDir(p) }
func (OS) Stat(p string) (fs.FileInfo, error)      { return os.Stat(p) }

func (OS) SyncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil && !errors.Is(serr, syscall.EINVAL) && !errors.Is(serr, syscall.ENOTSUP) {
		return fmt.Errorf("vfs: fsync dir %s: %w", dir, serr)
	}
	return cerr
}

// active is the process-wide default FS. It starts as the passthrough
// OS and is swapped by chaos harnesses and tests.
var active atomic.Pointer[FS]

func init() {
	var f FS = OS{}
	active.Store(&f)
}

// Active returns the process-wide default FS.
func Active() FS { return *active.Load() }

// SetDefault installs f as the process-wide default FS and returns a
// restore function reinstating the previous one — shaped for
// `defer vfs.SetDefault(inj)()` in tests.
func SetDefault(f FS) (restore func()) {
	prev := active.Swap(&f)
	return func() { active.Store(prev) }
}

// WriteDurable streams fill into path with the full crash-durability
// discipline on fsys: create the parent directory, write a
// same-directory temp file, fsync it, rename it over path, fsync the
// parent directory. A failure at any step removes the temp file and
// leaves the previous complete version of path (or nothing) in place —
// never a torn target.
func WriteDurable(fsys FS, path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if dir != "." && dir != "" {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := fill(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

// WriteFileDurable writes data to path with the durable-write
// discipline on fsys.
func WriteFileDurable(fsys FS, path string, data []byte) error {
	return WriteDurable(fsys, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
