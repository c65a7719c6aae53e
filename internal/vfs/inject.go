// InjectFS: the fault-injecting FS decorator. Every write, fsync,
// rename, and read crossing consults an armed fault point
// (fault.PointFSWrite/Fsync/Rename/Read); the injector's seeded RNG
// streams make the whole failure schedule a deterministic function of
// the spec, so a chaos run that found a bug is a chaos run that
// reproduces it.
//
// Two failure shapes beyond plain EIO:
//
//   - ENOSPC mode turns write faults into wrapped syscall.ENOSPC — the
//     "disk full" path callers are most tempted to treat as impossible;
//   - bit-rot mode turns read faults into *silent* corruption: the read
//     succeeds and returns data with exactly one deterministically
//     chosen bit flipped. Nothing in the error channel announces it;
//     only digest verification can. This is the adversary the CTGSNAP /
//     CTGSHRD / CTGCAMP / CTGCACH envelopes exist for.
//
// The injector's virtual clock is bound to the total op count, so
// window triggers (From/Until) express "the disk goes bad between op N
// and op M, then heals" — the script-level scenario behind the
// degraded-mode probe-and-recover gate.
package vfs

import (
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"strings"
	"sync"
	"syscall"

	"contiguitas/internal/fault"
)

// ErrInjected is the base sentinel every injected storage fault wraps;
// errors.Is(err, ErrInjected) distinguishes injected failures from real
// ones in soak logs and tests.
var ErrInjected = fmt.Errorf("vfs: injected storage fault")

// InjectConfig selects the failure shapes of an InjectFS.
type InjectConfig struct {
	// ENOSPC makes write faults wrap syscall.ENOSPC instead of
	// syscall.EIO.
	ENOSPC bool
	// BitRot makes read faults return successfully with one
	// deterministically chosen bit flipped instead of failing.
	BitRot bool
	// PathFilter, when non-empty, restricts injection to operations
	// whose path contains the substring; everything else passes
	// through untouched. This scopes a chaos scenario to one format
	// (e.g. ".bin" hits only the service store's cell/result journal).
	PathFilter string
}

// InjectFS wraps an inner FS with deterministic fault injection. Safe
// for concurrent use (the underlying fault.Injector is not; InjectFS
// serialises crossings).
type InjectFS struct {
	inner FS
	cfg   InjectConfig

	mu  sync.Mutex
	in  *fault.Injector
	ops uint64 // total injectable crossings; doubles as the fault clock
}

// NewInjectFS wraps inner with the armed injector. The injector's
// clock is bound to the InjectFS op count so window triggers work; do
// not share one injector across filesystems.
func NewInjectFS(inner FS, in *fault.Injector, cfg InjectConfig) *InjectFS {
	f := &InjectFS{inner: inner, in: in, cfg: cfg}
	in.SetClock(func() uint64 { return f.ops })
	return f
}

// Injector exposes the underlying injector for accounting (hits/fired
// per point) in reports and tests.
func (f *InjectFS) Injector() *fault.Injector { return f.in }

// Ops returns the total injectable operation crossings so far.
func (f *InjectFS) Ops() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// should records one crossing of point for path and reports whether
// the fault fires.
func (f *InjectFS) should(point, path string) bool {
	if f.cfg.PathFilter != "" && !strings.Contains(path, f.cfg.PathFilter) {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	return f.in.Should(point)
}

// errWrite is the injected write failure (ENOSPC mode honoured).
func (f *InjectFS) errWrite(path string) error {
	if f.cfg.ENOSPC {
		return fmt.Errorf("write %s: %w: %w", path, ErrInjected, syscall.ENOSPC)
	}
	return fmt.Errorf("write %s: %w: %w", path, ErrInjected, syscall.EIO)
}

func errInjected(op, path string) error {
	return fmt.Errorf("%s %s: %w: %w", op, path, ErrInjected, syscall.EIO)
}

// rotBit returns the bit position to flip in a file of n bytes,
// deterministic per path.
func rotBit(path string, n int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64() % uint64(n*8)
}

// Rot flips the deterministic rot bit in data (a copy is returned; the
// input is not mutated). Exposed so offline bit-rot in tests and the
// scrub gate corrupt files exactly the way the injected read path does.
func Rot(path string, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	bit := rotBit(path, len(out))
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

func (f *InjectFS) Open(path string) (File, error) {
	if f.should(fault.PointFSRead, path) {
		if f.cfg.BitRot {
			// Serve the whole file through an in-memory handle with the
			// rot bit flipped: the reader sees a clean successful read
			// of subtly wrong bytes.
			data, err := f.inner.ReadFile(path)
			if err != nil {
				return nil, err
			}
			return &memFile{name: path, data: Rot(path, data)}, nil
		}
		return nil, errInjected("open", path)
	}
	return f.inner.Open(path)
}

func (f *InjectFS) ReadFile(path string) ([]byte, error) {
	if f.should(fault.PointFSRead, path) {
		if f.cfg.BitRot {
			data, err := f.inner.ReadFile(path)
			if err != nil {
				return nil, err
			}
			return Rot(path, data), nil
		}
		return nil, errInjected("read", path)
	}
	return f.inner.ReadFile(path)
}

func (f *InjectFS) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{File: file, fs: f}, nil
}

func (f *InjectFS) Rename(oldpath, newpath string) error {
	if f.should(fault.PointFSRename, newpath) {
		return errInjected("rename", newpath)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *InjectFS) SyncDir(dir string) error {
	if f.should(fault.PointFSFsync, dir) {
		return errInjected("fsync dir", dir)
	}
	return f.inner.SyncDir(dir)
}

func (f *InjectFS) Remove(path string) error                { return f.inner.Remove(path) }
func (f *InjectFS) MkdirAll(p string, m fs.FileMode) error  { return f.inner.MkdirAll(p, m) }
func (f *InjectFS) ReadDir(p string) ([]fs.DirEntry, error) { return f.inner.ReadDir(p) }
func (f *InjectFS) Stat(p string) (fs.FileInfo, error)      { return f.inner.Stat(p) }

// DeadFS is an InjectFS for crash models. A process that died at a
// storage operation runs no cleanup after it, so once a write, fsync or
// rename fault has fired, Remove fails too: a torn file that a writer
// would delete on its error path stays on disk, as after a real crash.
type DeadFS struct{ *InjectFS }

// deathPoints are the faults that stand for the process dying.
var deathPoints = []string{fault.PointFSWrite, fault.PointFSFsync, fault.PointFSRename}

// Remove fails once the process is dead.
func (d DeadFS) Remove(path string) error {
	d.mu.Lock()
	dead := false
	for _, p := range deathPoints {
		dead = dead || d.in.Fired(p) > 0
	}
	d.mu.Unlock()
	if dead {
		return errInjected("remove", path)
	}
	return d.InjectFS.Remove(path)
}

// Kill makes every write, fsync and rename fail from the next operation
// on: the process dies now. It is safe to call while other goroutines
// use the filesystem.
func (d DeadFS) Kill() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range deathPoints {
		d.in.Arm(p, fault.Trigger{EveryN: 1, From: d.ops + 1})
	}
}

// injFile intercepts the write-side crossings of a temp file.
type injFile struct {
	File
	fs *InjectFS
}

func (f *injFile) Write(p []byte) (int, error) {
	if f.fs.should(fault.PointFSWrite, f.Name()) {
		return 0, f.fs.errWrite(f.Name())
	}
	return f.File.Write(p)
}

func (f *injFile) Sync() error {
	if f.fs.should(fault.PointFSFsync, f.Name()) {
		return errInjected("fsync", f.Name())
	}
	return f.File.Sync()
}

// memFile is a read-only in-memory File, used to serve bit-rotted
// contents through the streaming Open path.
type memFile struct {
	name string
	data []byte
	off  int
}

func (m *memFile) Read(p []byte) (int, error) {
	if m.off >= len(m.data) {
		return 0, io.EOF
	}
	n := copy(p, m.data[m.off:])
	m.off += n
	return n, nil
}

func (m *memFile) Write([]byte) (int, error) { return 0, fs.ErrInvalid }
func (m *memFile) Sync() error               { return nil }
func (m *memFile) Close() error              { return nil }
func (m *memFile) Name() string              { return m.name }
