package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/seal"
	"contiguitas/internal/stats"
)

func testKernel(mode kernel.Mode) *kernel.Kernel {
	cfg := kernel.DefaultConfig(mode)
	cfg.MemBytes = 128 << 20
	cfg.InitialUnmovableBytes = 16 << 20
	cfg.MinUnmovableBytes = 8 << 20
	cfg.MaxUnmovableBytes = 64 << 20
	return kernel.New(cfg)
}

func TestRoundTripEncoding(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Kind: KindAlloc, ID: 1, Order: 9, MT: mem.MigrateMovable, Src: mem.SrcUser},
		{Kind: KindPin, ID: 1},
		{Kind: KindTick},
		{Kind: KindUnpin, ID: 1},
		{Kind: KindFree, ID: 1},
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Events() != uint64(len(events)) {
		t.Fatal("event count")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace"))); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream must fail")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Event{Kind: KindTick})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil {
		t.Fatal("truncated record must error")
	}
}

func TestRecordReplayEquivalence(t *testing.T) {
	// Record a random workload on one machine (through the event sink),
	// replay on a fresh machine of the same design: the physical-memory
	// state must match in aggregate (same design, same decisions).
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	k1 := testKernel(kernel.ModeContiguitas)
	rec := Attach(k1, w)
	rng := stats.NewRNG(5)
	var live []kernel.Page
	for step := 0; step < 3000; step++ {
		switch {
		case rng.Bool(0.5) || len(live) == 0:
			mt := mem.MigrateMovable
			src := mem.SrcUser
			if rng.Bool(0.3) {
				mt = mem.MigrateUnmovable
				src = mem.SrcSlab
			}
			if p, err := k1.Alloc(rng.Intn(3), mt, src); err == nil {
				live = append(live, p)
				if mt == mem.MigrateMovable && rng.Bool(0.2) {
					k1.Pin(p)
				}
			}
		case rng.Bool(0.1):
			k1.AllocPageCache(0, mem.SrcFilesystem)
		case rng.Bool(0.05):
			k1.EndTick()
		default:
			i := rng.Intn(len(live))
			p := live[i]
			k1.Unpin(p)
			k1.Free(p)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	w.Flush()

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	k2 := testKernel(kernel.ModeContiguitas)
	st, err := Replay(k2, r)
	if err != nil {
		t.Fatal(err)
	}
	if st.AllocFailed != 0 {
		t.Fatalf("replay failed %d allocations on an identical machine", st.AllocFailed)
	}
	s1 := k1.PM().Scan([]int{mem.Order2M})
	s2 := k2.PM().Scan([]int{mem.Order2M})
	if s1.FreePages != s2.FreePages {
		t.Fatalf("free pages differ: %d vs %d", s1.FreePages, s2.FreePages)
	}
	if s1.UnmovableFrames != s2.UnmovableFrames {
		t.Fatalf("unmovable frames differ: %d vs %d", s1.UnmovableFrames, s2.UnmovableFrames)
	}
	if s1.UnmovableBlocks[mem.Order2M] != s2.UnmovableBlocks[mem.Order2M] {
		t.Fatalf("unmovable blocks differ")
	}
}

func TestReplayAcrossDesigns(t *testing.T) {
	// A trace captured on a Linux-layout machine replays on a
	// Contiguitas machine: this is the cross-design experiment the
	// trace format exists for.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	k1 := testKernel(kernel.ModeLinux)
	rec := Attach(k1, w)
	for i := 0; i < 500; i++ {
		mt := mem.MigrateMovable
		src := mem.SrcUser
		if i%5 == 0 {
			mt = mem.MigrateUnmovable
			src = mem.SrcNetworking
		}
		if _, err := k1.Alloc(0, mt, src); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			k1.EndTick()
		}
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	w.Flush()
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	k2 := testKernel(kernel.ModeContiguitas)
	st, err := Replay(k2, r)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 5 {
		t.Fatalf("ticks = %d", st.Ticks)
	}
	// Confinement: the unmovable allocations must be below the boundary.
	scan := k2.PM().Scan([]int{mem.Order2M})
	limit := k2.Boundary() / mem.PageblockPages
	if scan.UnmovableBlocks[mem.Order2M] > limit {
		t.Fatal("replayed unmovable allocations escaped the region")
	}
}

func TestKindString(t *testing.T) {
	for k := KindAlloc; k <= KindTick; k++ {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must stringify")
	}
}

func TestQuickEventRoundTrip(t *testing.T) {
	f := func(kind uint8, id uint64, order uint8, mt, src uint8) bool {
		e := Event{
			Kind:  Kind(kind % 6),
			ID:    id,
			Order: order % 19,
			MT:    mem.MigrateType(mt % 3),
			Src:   mem.Source(src % 7),
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if w.Write(e) != nil || w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Read()
		return err == nil && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderForgetsReclaimedPages: reclaim drops page-cache handles
// without an OnFree, and the recorder must not keep their ids for the
// rest of the recording: its id table is indexed by page-table slot, so
// it never outgrows one entry per frame. The trace itself must not
// change: its length and digest are pinned to what the recorder wrote
// when it kept ids in a map it pruned.
func TestRecorderForgetsReclaimedPages(t *testing.T) {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 32 << 20
	cfg.InitialUnmovableBytes, cfg.MinUnmovableBytes, cfg.MaxUnmovableBytes = 4<<20, 2<<20, 16<<20
	k := kernel.New(cfg)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	rec := Attach(k, w)
	rng := stats.NewRNG(3)
	var user []kernel.Page
	for tick := 0; tick < 50; tick++ {
		for i := 0; i < 2000; i++ {
			k.AllocPageCache(0, mem.SrcFilesystem)
		}
		for i := 0; i < 100; i++ {
			if p, err := k.Alloc(rng.Intn(2), mem.MigrateMovable, mem.SrcUser); err == nil {
				user = append(user, p)
			}
			if len(user) > 1500 {
				j := rng.Intn(len(user))
				k.Free(user[j])
				user[j] = user[len(user)-1]
				user = user[:len(user)-1]
			}
		}
		k.EndTick()
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	w.Flush()

	live := 0
	for pfn := uint64(0); pfn < k.PM().NPages; pfn++ {
		if _, ok := k.PageAt(pfn); ok {
			live++
		}
	}
	if k.ReclaimedPages < 10*uint64(live) {
		t.Fatalf("only %d pages reclaimed for %d live handles: the run does not exercise the leak", k.ReclaimedPages, live)
	}
	// Every live allocation holds a frame, so the slots in use never
	// outnumber the frames (slot 0 is never handed out).
	if limit := int(k.PM().NPages) + 1; len(rec.ids) > limit {
		t.Fatalf("recorder holds %d ids for %d frames (limit %d)", len(rec.ids), k.PM().NPages, limit)
	}
	if n, d := buf.Len(), seal.Sum64(buf.Bytes()); n != 1302510 || d != 0x5ac17ac49385ee26 {
		t.Fatalf("trace is %d bytes with digest %#016x, pinned 1302510 and 0x5ac17ac49385ee26", n, d)
	}
}
