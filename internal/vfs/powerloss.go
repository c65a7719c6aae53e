// PowerLossFS: the power-loss model. It runs a program on an inner FS
// unchanged and logs every operation that decides what the disk may
// show after a power loss — temp-file creation, writes, file fsyncs,
// renames, removes and directory fsyncs. Crash(k) replays the first k
// logged operations and returns, for every path the run touched, each
// state the disk is allowed to show there after a power loss at that
// point:
//
//   - bytes written to a file since its last fsync may be lost: the
//     file holds its synced prefix (empty if it was never fsynced), a
//     longer prefix, the full length with a zero-filled tail, or
//     everything written;
//   - a name created, renamed or removed since its directory's last
//     fsync may revert: the path shows its last directory-synced
//     binding (absent, or the previous file) or its current one.
//
// Bytes that were fsynced under a name whose directory was then
// fsynced are the only state with a single outcome. That is the
// guarantee WriteDurable buys, and the only one a reader of
// WriteFileAtomic output may not assume.
//
// The model over-approximates: outcomes are given per path, and a
// caller may combine them freely even where one file shows under two
// names, or where a real filesystem orders its metadata. Directories
// made by MkdirAll are taken to be durable.
package vfs

import (
	"bytes"
	"errors"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
)

// OpKind names one logged storage operation.
type OpKind uint8

const (
	OpCreate  OpKind = iota // a temp file was created
	OpWrite                 // bytes were appended to an open file
	OpSync                  // an open file was fsynced
	OpRename                // a file was renamed
	OpRemove                // a file was removed
	OpSyncDir               // a directory was fsynced
)

// op is one logged operation.
type op struct {
	kind OpKind
	// path is the file (create, remove), the new name (rename) or the
	// directory (fsync-dir).
	path string
	from string // a rename's old name
	data []byte // a write's bytes
	file int    // the file a create, write or fsync acts on
}

// PowerLossFS wraps an inner FS and logs, in the order they took
// effect, the operations that decide what a power loss leaves behind.
// Reads pass through unlogged. Safe for concurrent use.
type PowerLossFS struct {
	inner FS

	mu    sync.Mutex
	log   []op
	files int                  // files known so far; ids index them
	prior map[string]priorFile // pre-existing files a logged op replaced
	seen  map[string]bool      // every path an op or prior entry names
}

// priorFile is a file that existed before the run first touched its
// path; the model takes it to be durable.
type priorFile struct {
	file int
	data []byte
}

// NewPowerLossFS starts an empty log over inner.
func NewPowerLossFS(inner FS) *PowerLossFS {
	return &PowerLossFS{inner: inner, prior: map[string]priorFile{}, seen: map[string]bool{}}
}

// Ops returns the number of logged operations: the crash points are
// 0 through Ops().
func (p *PowerLossFS) Ops() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.log)
}

// Count returns how many logged operations are of kind k.
func (p *PowerLossFS) Count(k OpKind) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, o := range p.log {
		if o.kind == k {
			n++
		}
	}
	return n
}

// touch records the contents of a path the run has not named before,
// so replacing or removing it can revert to them. Called with p.mu
// held, before the operation runs.
func (p *PowerLossFS) touch(path string) error {
	if p.seen[path] {
		return nil
	}
	data, err := p.inner.ReadFile(path)
	switch {
	case err == nil:
		p.prior[path] = priorFile{file: p.files, data: data}
		p.files++
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	p.seen[path] = true
	return nil
}

func (p *PowerLossFS) CreateTemp(dir, pattern string) (File, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	id := p.files
	p.files++
	p.seen[f.Name()] = true
	p.log = append(p.log, op{kind: OpCreate, path: f.Name(), file: id})
	return &powerLossFile{File: f, fs: p, id: id}, nil
}

func (p *PowerLossFS) Rename(oldpath, newpath string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.touch(oldpath); err != nil {
		return err
	}
	if err := p.touch(newpath); err != nil {
		return err
	}
	if err := p.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	p.log = append(p.log, op{kind: OpRename, path: newpath, from: oldpath})
	return nil
}

func (p *PowerLossFS) Remove(path string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.touch(path); err != nil {
		return err
	}
	if err := p.inner.Remove(path); err != nil {
		return err
	}
	p.log = append(p.log, op{kind: OpRemove, path: path})
	return nil
}

func (p *PowerLossFS) SyncDir(dir string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.inner.SyncDir(dir); err != nil {
		return err
	}
	p.log = append(p.log, op{kind: OpSyncDir, path: cleanDir(dir)})
	return nil
}

func (p *PowerLossFS) Open(path string) (File, error)          { return p.inner.Open(path) }
func (p *PowerLossFS) ReadFile(path string) ([]byte, error)    { return p.inner.ReadFile(path) }
func (p *PowerLossFS) MkdirAll(d string, m fs.FileMode) error  { return p.inner.MkdirAll(d, m) }
func (p *PowerLossFS) ReadDir(d string) ([]fs.DirEntry, error) { return p.inner.ReadDir(d) }
func (p *PowerLossFS) Stat(path string) (fs.FileInfo, error)   { return p.inner.Stat(path) }

func cleanDir(dir string) string {
	if dir == "" {
		return "."
	}
	return filepath.Clean(dir)
}

// powerLossFile logs the writes and fsyncs of one created file.
type powerLossFile struct {
	File
	fs *PowerLossFS
	id int
}

func (f *powerLossFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	if n > 0 {
		f.fs.mu.Lock()
		f.fs.log = append(f.fs.log, op{kind: OpWrite, data: bytes.Clone(b[:n]), file: f.id})
		f.fs.mu.Unlock()
	}
	return n, err
}

func (f *powerLossFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.fs.log = append(f.fs.log, op{kind: OpSync, file: f.id})
	f.fs.mu.Unlock()
	return nil
}

// OutcomeKind classifies what a path shows after a power loss.
type OutcomeKind uint8

const (
	Absent   OutcomeKind = iota // no file at the path
	Empty                       // a zero-length file
	Prefix                      // a strict prefix of the bytes written
	ZeroTail                    // full length, bytes from some offset on zeroed
	Complete                    // everything written
)

var outcomeNames = [...]string{"absent", "empty", "prefix", "zero-tail", "complete"}

func (k OutcomeKind) String() string { return outcomeNames[k] }

// Outcome is one state a path may show after a power loss.
type Outcome struct {
	Kind OutcomeKind
	Data []byte // nil when Absent
}

// Show makes path on fsys hold o: remove it when o is Absent, write o's
// bytes over it otherwise.
func (o Outcome) Show(fsys FS, path string) error {
	if o.Kind == Absent {
		if err := fsys.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return nil
	}
	return WriteFileAtomic(fsys, path, o.Data)
}

// Entry is one touched path and every outcome a power loss may leave
// there.
type Entry struct {
	Path     string
	Outcomes []Outcome
}

// Crash returns, sorted by path, every path the run touched with the
// outcomes a power loss after the first k logged operations may leave
// there. Paths touched only after op k are included and show what they
// held before the run.
func (p *PowerLossFS) Crash(k int) []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	type file struct {
		data   []byte
		synced int // bytes certain to survive
	}
	files := make([]*file, p.files)
	current := map[string]int{} // the bindings the running system saw
	durable := map[string]int{} // the bindings a power loss keeps
	for path, pf := range p.prior {
		files[pf.file] = &file{data: pf.data, synced: len(pf.data)}
		current[path], durable[path] = pf.file, pf.file
	}
	for _, o := range p.log[:k] {
		switch o.kind {
		case OpCreate:
			files[o.file] = &file{}
			current[o.path] = o.file
		case OpWrite:
			files[o.file].data = append(files[o.file].data, o.data...)
		case OpSync:
			files[o.file].synced = len(files[o.file].data)
		case OpRename:
			current[o.path] = current[o.from]
			delete(current, o.from)
		case OpRemove:
			delete(current, o.path)
		case OpSyncDir:
			for path := range p.seen {
				if filepath.Dir(path) != o.path {
					continue
				}
				if id, ok := current[path]; ok {
					durable[path] = id
				} else {
					delete(durable, path)
				}
			}
		}
	}
	paths := make([]string, 0, len(p.seen))
	for path := range p.seen {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]Entry, 0, len(paths))
	for _, path := range paths {
		var outs []Outcome
		add := func(id int, ok bool) {
			if !ok {
				outs = append(outs, Outcome{Kind: Absent})
				return
			}
			f := files[id]
			outs = append(outs, dataOutcomes(f.data, f.synced)...)
		}
		c, cok := current[path]
		d, dok := durable[path]
		add(d, dok)
		if cok != dok || c != d {
			add(c, cok)
		}
		out = append(out, Entry{Path: path, Outcomes: dedupe(outs)})
	}
	return out
}

// dataOutcomes lists what a file holding data, of which the first
// synced bytes were fsynced, may show after a power loss: the synced
// prefix, longer prefixes, zero-filled tails from the synced length and
// from each longer cut, and everything. Cuts are one byte past the
// synced prefix, halfway, and one byte short of the end: a lost header,
// a torn body, a lost trailer.
func dataOutcomes(data []byte, synced int) []Outcome {
	n := len(data)
	if synced >= n {
		return []Outcome{{Kind: Complete, Data: data}}
	}
	var cuts []int
	for _, c := range []int{synced + 1, (synced + n) / 2, n - 1} {
		if c > synced && c < n && (len(cuts) == 0 || c > cuts[len(cuts)-1]) {
			cuts = append(cuts, c)
		}
	}
	kind := Prefix
	if synced == 0 {
		kind = Empty
	}
	outs := []Outcome{{Kind: kind, Data: data[:synced:synced]}}
	for _, c := range cuts {
		outs = append(outs, Outcome{Kind: Prefix, Data: data[:c:c]})
	}
	for _, c := range append([]int{synced}, cuts...) {
		z := make([]byte, n)
		copy(z, data[:c])
		outs = append(outs, Outcome{Kind: ZeroTail, Data: z})
	}
	return append(outs, Outcome{Kind: Complete, Data: data})
}

// dedupe drops outcomes that show the same thing as an earlier one.
func dedupe(outs []Outcome) []Outcome {
	var kept []Outcome
next:
	for _, o := range outs {
		for _, k := range kept {
			if (k.Kind == Absent) == (o.Kind == Absent) && bytes.Equal(k.Data, o.Data) {
				continue next
			}
		}
		kept = append(kept, o)
	}
	return kept
}
