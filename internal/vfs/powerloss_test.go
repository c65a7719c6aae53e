package vfs

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// entryAt returns the outcomes Crash(k) gives for path.
func entryAt(t *testing.T, p *PowerLossFS, k int, path string) []Outcome {
	t.Helper()
	for _, e := range p.Crash(k) {
		if e.Path == path {
			return e.Outcomes
		}
	}
	t.Fatalf("crash at op %d: %s not among the touched paths", k, path)
	return nil
}

func kinds(outs []Outcome) []OutcomeKind {
	var ks []OutcomeKind
	for _, o := range outs {
		ks = append(ks, o.Kind)
	}
	return ks
}

// TestPowerLossDurableWriteSettles: a durable write logs create, write,
// fsync, rename and directory fsync, in that order; until the directory
// fsync the target may still be absent, and after it only the complete
// bytes can show.
func TestPowerLossDurableWriteSettles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.bin")
	p := NewPowerLossFS(OS{})
	want := []byte("certified complete")
	if err := WriteFileDurable(p, path, want); err != nil {
		t.Fatal(err)
	}
	var got []int
	for k := OpCreate; k <= OpSyncDir; k++ {
		got = append(got, p.Count(k))
	}
	if want := []int{1, 1, 1, 1, 0, 1}; p.Ops() != 5 || !reflect.DeepEqual(got, want) {
		t.Fatalf("%d ops, counts per kind %v; want 5 ops, one each of create, write, fsync, rename, fsync-dir", p.Ops(), got)
	}
	for k := 0; k < p.Ops(); k++ {
		outs := entryAt(t, p, k, path)
		if k < 4 && !reflect.DeepEqual(kinds(outs), []OutcomeKind{Absent}) {
			t.Fatalf("before the rename (op %d) the target shows %v, want only absent", k, kinds(outs))
		}
		if k == 4 && !reflect.DeepEqual(kinds(outs), []OutcomeKind{Absent, Complete}) {
			t.Fatalf("between rename and directory fsync the target shows %v, want absent or complete", kinds(outs))
		}
	}
	outs := entryAt(t, p, p.Ops(), path)
	if len(outs) != 1 || outs[0].Kind != Complete || !bytes.Equal(outs[0].Data, want) {
		t.Fatalf("after the directory fsync the target shows %v, want only the complete bytes", kinds(outs))
	}
	for _, e := range p.Crash(p.Ops()) {
		if e.Path != path && !reflect.DeepEqual(kinds(e.Outcomes), []OutcomeKind{Absent}) {
			t.Fatalf("temp file %s shows %v after the write, want absent", e.Path, kinds(e.Outcomes))
		}
	}
}

// TestPowerLossAtomicWriteOutcomes: an atomic write leaves every
// outcome a power loss may produce: absent, empty, three prefixes, four
// zero-filled tails and complete — each of the shape its kind names.
func TestPowerLossAtomicWriteOutcomes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "entry.bin")
	p := NewPowerLossFS(OS{})
	want := bytes.Repeat([]byte("0123456789abcdef"), 4)
	if err := WriteFileAtomic(p, path, want); err != nil {
		t.Fatal(err)
	}
	if p.Count(OpSync) != 0 || p.Count(OpSyncDir) != 0 || p.Count(OpRename) != 1 {
		t.Fatalf("atomic write: %d fsyncs, %d directory fsyncs, %d renames; want 0, 0, 1",
			p.Count(OpSync), p.Count(OpSyncDir), p.Count(OpRename))
	}
	outs := entryAt(t, p, p.Ops(), path)
	wantKinds := []OutcomeKind{Absent, Empty, Prefix, Prefix, Prefix, ZeroTail, ZeroTail, ZeroTail, ZeroTail, Complete}
	if !reflect.DeepEqual(kinds(outs), wantKinds) {
		t.Fatalf("outcomes %v, want %v", kinds(outs), wantKinds)
	}
	for _, o := range outs {
		switch o.Kind {
		case Empty, Prefix:
			if len(o.Data) >= len(want) || !bytes.HasPrefix(want, o.Data) {
				t.Fatalf("%s outcome of %d bytes is not a strict prefix", o.Kind, len(o.Data))
			}
		case ZeroTail:
			cut := len(bytes.TrimRight(o.Data, "\x00"))
			if len(o.Data) != len(want) || cut == len(want) || !bytes.HasPrefix(want, o.Data[:cut]) {
				t.Fatalf("zero-tail outcome %q is not a prefix padded with zeros", o.Data)
			}
		case Complete:
			if !bytes.Equal(o.Data, want) {
				t.Fatalf("complete outcome %q", o.Data)
			}
		}
	}
	// Show makes the disk hold each outcome.
	for _, o := range outs {
		if err := o.Show(OS{}, path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if o.Kind == Absent {
			if !os.IsNotExist(err) {
				t.Fatalf("absent outcome left %q, %v", got, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, o.Data) {
			t.Fatalf("%s outcome shows %q, %v", o.Kind, got, err)
		}
	}
}

// TestPowerLossPriorVersion: a file the run replaces or removes without
// a directory fsync may come back with its bytes from before the run,
// which the model reads when the run first touches the path.
func TestPowerLossPriorVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.bin")
	if err := os.WriteFile(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := NewPowerLossFS(OS{})
	if err := WriteFileAtomic(p, path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	renamed := p.Ops()
	if err := p.Remove(path); err != nil {
		t.Fatal(err)
	}
	show := func(k int) []string {
		var s []string
		for _, o := range entryAt(t, p, k, path) {
			s = append(s, o.Kind.String()+":"+string(o.Data))
		}
		return s
	}
	if got, want := show(0), []string{"complete:v1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("before the run: %v, want %v", got, want)
	}
	if got, want := show(renamed), []string{"complete:v1", "empty:", "prefix:v", "zero-tail:\x00\x00", "zero-tail:v\x00", "complete:v2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the unsynced replace: %v, want %v", got, want)
	}
	if got, want := show(p.Ops()), []string{"complete:v1", "absent:"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the unsynced remove: %v, want %v", got, want)
	}
	if err := p.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if got, want := show(p.Ops()), []string{"absent:"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the directory fsync: %v, want %v", got, want)
	}
}
