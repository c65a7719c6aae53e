package vfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"contiguitas/internal/fault"
)

func TestOSWriteFileDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "target.bin")
	want := []byte("durable payload")
	if err := WriteFileDurable(OS{}, path, want); err != nil {
		t.Fatal(err)
	}
	got, err := OS{}.ReadFile(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	// No stray temp files after a clean write.
	ents, _ := os.ReadDir(filepath.Dir(path))
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries after durable write, want 1", len(ents))
	}
}

func TestWriteDurableFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target.bin")
	if err := WriteFileDurable(OS{}, path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	err := WriteDurable(OS{}, path, func(io.Writer) error {
		return errors.New("fill failed")
	})
	if err == nil {
		t.Fatal("fill failure not propagated")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries after failed write, want 1 (no temp litter)", len(ents))
	}
	got, _ := OS{}.ReadFile(path)
	if string(got) != "v1" {
		t.Fatalf("previous version clobbered: %q", got)
	}
}

// newInject arms a spec over a temp-dir-backed OS and fails the test on
// parse errors.
func newInject(t *testing.T, spec string) *InjectFS {
	t.Helper()
	f, err := NewInjectFromSpec(OS{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestInjectWriteENOSPC(t *testing.T) {
	f := newInject(t, "seed=3,write_every=1,enospc")
	err := WriteFileDurable(f, filepath.Join(t.TempDir(), "x.bin"), []byte("data"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want wrapped ENOSPC", err)
	}
}

func TestInjectFsyncAndRename(t *testing.T) {
	dir := t.TempDir()
	f := newInject(t, "fsync_every=1")
	if err := WriteFileDurable(f, filepath.Join(dir, "a.bin"), []byte("d")); !errors.Is(err, ErrInjected) {
		t.Fatalf("fsync fault: err = %v, want ErrInjected", err)
	}
	f = newInject(t, "rename_every=1")
	err := WriteFileDurable(f, filepath.Join(dir, "b.bin"), []byte("d"))
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("rename fault: err = %v, want ErrInjected+EIO", err)
	}
	// The failed rename removed its temp file and never published b.bin.
	if _, err := os.Stat(filepath.Join(dir, "b.bin")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("b.bin exists after failed rename: %v", err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp litter after injected rename failure: %s", e.Name())
		}
	}
}

func TestInjectReadFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.bin")
	if err := WriteFileDurable(OS{}, path, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	f := newInject(t, "read_every=1")
	if _, err := f.ReadFile(path); !errors.Is(err, ErrInjected) {
		t.Fatalf("ReadFile = %v, want ErrInjected", err)
	}
	if _, err := f.Open(path); !errors.Is(err, ErrInjected) {
		t.Fatalf("Open = %v, want ErrInjected", err)
	}
}

func TestInjectBitRotSilentAndDeterministic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rot.bin")
	clean := []byte("integrity-protected payload bytes")
	if err := WriteFileDurable(OS{}, path, clean); err != nil {
		t.Fatal(err)
	}

	f := newInject(t, "read_every=1,rot")
	got, err := f.ReadFile(path)
	if err != nil {
		t.Fatalf("bit-rot read must succeed silently, got %v", err)
	}
	if bytes.Equal(got, clean) {
		t.Fatal("bit-rot read returned clean bytes")
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^clean[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("bit-rot flipped %d bits, want exactly 1", diff)
	}
	// Deterministic: a second rotted read and the streaming Open path
	// return the same corrupted bytes.
	again, err := f.ReadFile(path)
	if err != nil || !bytes.Equal(again, got) {
		t.Fatalf("rot not deterministic: %v", err)
	}
	h, err := f.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	streamed, _ := io.ReadAll(h)
	h.Close()
	if !bytes.Equal(streamed, got) {
		t.Fatal("Open path rot differs from ReadFile path rot")
	}
	// On-disk file untouched: rot is a read-side phenomenon.
	disk, _ := os.ReadFile(path)
	if !bytes.Equal(disk, clean) {
		t.Fatal("bit-rot mutated the file on disk")
	}
}

func TestInjectPathFilter(t *testing.T) {
	dir := t.TempDir()
	f := newInject(t, "write_every=1,path=.bin")
	if err := WriteFileDurable(f, filepath.Join(dir, "hit.bin"), []byte("d")); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching path: err = %v, want ErrInjected", err)
	}
	if err := WriteFileDurable(f, filepath.Join(dir, "miss.txt"), []byte("d")); err != nil {
		t.Fatalf("non-matching path injected: %v", err)
	}
}

func TestInjectDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		f := newInject(t, "seed=42,write=0.5")
		var fires []bool
		for i := 0; i < 64; i++ {
			fires = append(fires, f.should(fault.PointFSWrite, "p"))
		}
		return fires
	}
	a, b := run(), c2b(run())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at crossing %d", i)
		}
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("degenerate schedule: %d/%d fired", fired, len(a))
	}
}

func c2b(b []bool) []bool { return b }

func TestInjectWindowHeals(t *testing.T) {
	// Faults fire only between op 3 and op 6; before and after, writes
	// succeed — the probe-and-recover scenario.
	f := newInject(t, "write=1,from=3,until=6")
	dir := t.TempDir()
	write := func() error {
		return WriteFileDurable(f, filepath.Join(dir, "w.bin"), []byte("d"))
	}
	if err := write(); err != nil { // ops 1..4 (write hits op 2 area)
		// The first durable write may already cross into the window
		// depending on op layout; tolerate either, the loop below is
		// the real assertion.
		if !errors.Is(err, ErrInjected) {
			t.Fatal(err)
		}
	}
	sawFail := false
	var lastErr error
	for i := 0; i < 10; i++ {
		lastErr = write()
		if lastErr != nil {
			if !errors.Is(lastErr, ErrInjected) {
				t.Fatal(lastErr)
			}
			sawFail = true
		}
	}
	if !sawFail {
		t.Fatal("window never fired")
	}
	if lastErr != nil {
		t.Fatalf("writes still failing after the window closed: %v", lastErr)
	}
}

func TestParseInjectSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",                 // arms nothing
		"seed=7",           // arms nothing
		"bogus=1",          // unknown key
		"write=2",          // probability out of range
		"write_every=abc",  // not a number
		"teleport_every=2", // unknown point
	} {
		if _, _, err := ParseInjectSpec(spec); err == nil {
			t.Errorf("ParseInjectSpec(%q) accepted", spec)
		}
	}
	in, cfg, err := ParseInjectSpec("seed=9,write=0.25,fsync_every=3,read=0.1,rot,enospc,path=cell-")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.BitRot || !cfg.ENOSPC || cfg.PathFilter != "cell-" {
		t.Fatalf("cfg = %+v", cfg)
	}
	if in == nil {
		t.Fatal("nil injector")
	}
}

func TestSetDefaultRestore(t *testing.T) {
	if _, ok := Active().(OS); !ok {
		t.Fatalf("default FS is %T, want OS", Active())
	}
	inj := newInject(t, "write=0.1")
	restore := SetDefault(inj)
	if Active() != FS(inj) {
		t.Fatal("SetDefault did not install")
	}
	restore()
	if _, ok := Active().(OS); !ok {
		t.Fatalf("restore left %T", Active())
	}
}

func TestRotHelperMatchesReadPath(t *testing.T) {
	data := []byte("0123456789abcdef")
	r1 := Rot("some/path", data)
	r2 := Rot("some/path", data)
	if !bytes.Equal(r1, r2) {
		t.Fatal("Rot not deterministic")
	}
	if bytes.Equal(r1, data) {
		t.Fatal("Rot did not flip a bit")
	}
	if !bytes.Equal(data, []byte("0123456789abcdef")) {
		t.Fatal("Rot mutated its input")
	}
}

// renameFirst is WriteDurable with its rename moved ahead of the write:
// the target is replaced by an empty file that the write then fills.
// On an error it removes the target it tore, which is only possible in
// a process that survived the failure.
func renameFirst(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := fsys.Rename(f.Name(), path); err != nil {
		f.Close()
		fsys.Remove(f.Name())
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// tornAt kills write at every storage operation it makes, on inject or
// on a DeadFS over it, and returns the crash points after which path
// holds neither nothing nor the full payload.
func tornAt(t *testing.T, dead bool, write func(FS, string, []byte) error) []uint64 {
	t.Helper()
	payload := []byte("the durable payload")
	var torn []uint64
	for k := uint64(1); k <= 4; k++ {
		path := filepath.Join(t.TempDir(), "rec.bin")
		in := fault.New(k)
		for _, p := range []string{fault.PointFSWrite, fault.PointFSFsync, fault.PointFSRename} {
			in.Arm(p, fault.Trigger{EveryN: 1, From: k})
		}
		inj := NewInjectFS(OS{}, in, InjectConfig{})
		var fsys FS = inj
		if dead {
			fsys = DeadFS{inj}
		}
		write(fsys, path, payload)
		got, err := OS{}.ReadFile(path)
		if err == nil && !bytes.Equal(got, payload) {
			torn = append(torn, k)
		}
	}
	return torn
}

// TestDeadFSCatchesRenameBeforeWrite: enumerating every crash point of
// a durable write over a DeadFS catches a writer that renames before it
// writes, which a plain InjectFS misses because the writer's own
// error-path cleanup deletes the torn file after the simulated death.
// WriteDurable itself leaves the target absent or whole at every point.
func TestDeadFSCatchesRenameBeforeWrite(t *testing.T) {
	if torn := tornAt(t, true, WriteFileDurable); len(torn) > 0 {
		t.Fatalf("WriteFileDurable tore its target at crash points %v", torn)
	}
	if torn := tornAt(t, false, renameFirst); len(torn) > 0 {
		t.Fatalf("InjectFS alone caught rename-before-write at %v; the cleanup should hide it", torn)
	}
	if torn := tornAt(t, true, renameFirst); len(torn) == 0 {
		t.Fatal("DeadFS missed a writer that renames before it writes")
	}
}

// TestDeadFSKill: after Kill every write, fsync, rename and remove
// fails, and nothing before it did.
func TestDeadFSKill(t *testing.T) {
	dir := t.TempDir()
	d := DeadFS{NewInjectFS(OS{}, fault.New(1), InjectConfig{})}
	path := filepath.Join(dir, "a")
	if err := WriteFileDurable(d, path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	d.Kill()
	if err := WriteFileDurable(d, filepath.Join(dir, "b"), []byte("v2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after Kill: %v, want ErrInjected", err)
	}
	if err := d.Remove(path); !errors.Is(err, ErrInjected) {
		t.Fatalf("remove after Kill: %v, want ErrInjected", err)
	}
	got, err := OS{}.ReadFile(path)
	if err != nil || string(got) != "v1" {
		t.Fatalf("file written before Kill: %q, %v", got, err)
	}
}
