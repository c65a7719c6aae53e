package service

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contiguitas/internal/vfs"
)

// runToDone drives one campaign to completion on a fresh disk store and
// returns the store root, the campaign ID, and the merged result bytes.
func runToDone(t *testing.T, key string) (string, string, []byte) {
	t.Helper()
	root := t.TempDir()
	st, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	s := fastSched(st)
	s.Start()
	c, _, err := s.Submit(tinySpec(), key)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, c.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign %s: %s", fin.State, fin.Error)
	}
	want, err := s.Result(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	return root, c.ID, append([]byte(nil), want...)
}

// rotFile flips one bit of the file at path, the way the injected
// bit-rot read path would — offline media rot.
func rotFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, vfs.Rot(path, data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScrubQuarantinesRottedCellAndHeals: rot a done campaign's cell
// journal at rest; the scrubber must quarantine the file (typed
// finding, preserved bytes), requeue the campaign, and the recompute
// must converge on the byte-identical result.
func TestScrubQuarantinesRottedCellAndHeals(t *testing.T) {
	root, id, want := runToDone(t, "scrub-heal")
	cell := filepath.Join(root, "campaigns", id, "cell-000.bin")
	rotFile(t, cell)

	st, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	s := fastSched(st)
	rep, err := Scrub(ScrubConfig{Disk: st, Sched: s})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined %d files, want 1: %+v", len(rep.Quarantined), rep)
	}
	f := rep.Quarantined[0]
	if !errors.Is(f.Err, ErrScrubQuarantine) {
		t.Fatalf("finding error %v, want ErrScrubQuarantine", f.Err)
	}
	if !strings.Contains(f.Rel, "cell-000.bin") {
		t.Fatalf("quarantined %q, want the rotted cell", f.Rel)
	}
	// The corrupt bytes are preserved in quarantine, gone from the live
	// tree.
	if _, err := os.Stat(filepath.Join(root, QuarantineDir, f.Rel)); err != nil {
		t.Fatalf("quarantine copy missing: %v", err)
	}
	if _, err := os.Stat(cell); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("rotted cell still in live tree: %v", err)
	}
	if len(rep.Requeued) != 1 || rep.Requeued[0] != id {
		t.Fatalf("requeued = %v, want [%s]", rep.Requeued, id)
	}
	if st2 := s.Stats(); st2.ScrubQuarantined != 1 || st2.ScrubRequeued != 1 || st2.ScrubScanned == 0 {
		t.Fatalf("scrub counters: %+v", st2)
	}

	// The heal: the requeued campaign recomputes the quarantined cell
	// and lands on byte-identical merged results.
	s.Start()
	defer s.Drain()
	fin := waitTerminal(t, s, id)
	if fin.State != StateDone {
		t.Fatalf("healed campaign %s: %s", fin.State, fin.Error)
	}
	got, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("healed result differs: %d bytes vs %d", len(got), len(want))
	}
}

// TestScrubQuarantinesRottedResult: rot the merged result file; the
// scrubber catches it against ResultDigest and the requeued campaign
// rewrites it byte-identically from the intact cell journal.
func TestScrubQuarantinesRottedResult(t *testing.T) {
	root, id, want := runToDone(t, "scrub-result")
	rotFile(t, filepath.Join(root, "campaigns", id, resultFile))

	st, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	s := fastSched(st)
	rep, err := Scrub(ScrubConfig{Disk: st, Sched: s})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || !strings.Contains(rep.Quarantined[0].Rel, resultFile) {
		t.Fatalf("report: %+v", rep)
	}
	s.Start()
	defer s.Drain()
	fin := waitTerminal(t, s, id)
	if fin.State != StateDone {
		t.Fatalf("healed campaign %s: %s", fin.State, fin.Error)
	}
	got, err := s.Result(id)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("healed result differs (err=%v)", err)
	}
}

// TestScrubCorruptRecordIsLostNotTrusted: a rotted CTGCAMP record
// cannot be healed — the scrubber must quarantine it and report the
// campaign lost, and recovery must see a clean (empty) store rather
// than corrupt bytes.
func TestScrubCorruptRecordIsLostNotTrusted(t *testing.T) {
	root, id, _ := runToDone(t, "scrub-record")
	rotFile(t, filepath.Join(root, "campaigns", id, recordFile))

	st, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	// Before the scrub, recovery refuses the store loudly.
	if _, err := st.List(); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("List over rotted record: %v, want ErrCorruptRecord", err)
	}
	rep, err := Scrub(ScrubConfig{Disk: st})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lost) != 1 || rep.Lost[0] != id {
		t.Fatalf("lost = %v, want [%s]", rep.Lost, id)
	}
	if len(rep.Requeued) != 0 {
		t.Fatalf("requeued a campaign with no trustworthy record: %v", rep.Requeued)
	}
	// After the scrub the store is readable again.
	if _, err := st.List(); err != nil {
		t.Fatalf("List after scrub: %v", err)
	}
}

// TestMergeTimeDigestCheckHealsWithoutScrub: even with no scrub pass, a
// requeued campaign whose journaled cell rotted must not merge the bad
// bytes — the scheduler's own digest check drops and recomputes it.
func TestMergeTimeDigestCheckHealsWithoutScrub(t *testing.T) {
	root, id, want := runToDone(t, "merge-check")
	rotFile(t, filepath.Join(root, "campaigns", id, "cell-000.bin"))

	st, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	// Force a re-run with no scrub: mark the record queued again.
	c, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	c.State = StateQueued
	if err := st.Put(c); err != nil {
		t.Fatal(err)
	}
	s := fastSched(st)
	s.Start()
	defer s.Drain()
	if n, err := s.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	fin := waitTerminal(t, s, id)
	if fin.State != StateDone {
		t.Fatalf("campaign %s: %s", fin.State, fin.Error)
	}
	got, err := s.Result(id)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("merged result differs after in-line heal (err=%v)", err)
	}
	if st2 := s.Stats(); st2.CellsHealed != 1 {
		t.Fatalf("cells_healed = %d, want 1", st2.CellsHealed)
	}
}
