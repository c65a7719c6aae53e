package trace

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/seal"
	"contiguitas/internal/stats"
	"contiguitas/internal/telemetry"
)

func testKernel(mode kernel.Mode) *kernel.Kernel {
	cfg := kernel.DefaultConfig(mode)
	cfg.MemBytes = 128 << 20
	cfg.InitialUnmovableBytes = 16 << 20
	cfg.MinUnmovableBytes = 8 << 20
	cfg.MaxUnmovableBytes = 64 << 20
	return kernel.New(cfg)
}

// roundTrip writes t as a trace file and reads it back.
func roundTrip(tb testing.TB, t *Trace) *Trace {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "t.ctgtrac")
	if err := t.WriteFile(path); err != nil {
		tb.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return got
}

func TestRoundTripEncoding(t *testing.T) {
	want := &Trace{Profile: "web", MemBytes: 128 << 20, Seed: 9, Ticks: 1, Events: []Event{
		{Kind: KindAlloc, ID: 1<<32 | 1, PFN: 512, Order: 9, MT: mem.MigrateMovable, Src: mem.SrcUser},
		{Kind: KindPin, ID: 1<<32 | 1, PFN: 7},
		{Kind: KindTick},
		{Kind: KindUnpin, ID: 1<<32 | 1, PFN: 7},
		{Kind: KindFree, ID: 1<<32 | 1, PFN: 7, Order: 9, MT: mem.MigrateUnmovable, Src: mem.SrcUser},
	}}
	if got := roundTrip(t, want); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
}

// TestBadHeaderRejected: bytes that are not a trace, another sealed
// format's frame and an empty file are refused with ErrCorrupt.
func TestBadHeaderRejected(t *testing.T) {
	other := seal.Format{Magic: "CTGSNAP", Version: 1, Err: ErrCorrupt}
	for name, data := range map[string][]byte{
		"not a trace":  []byte("not a trace, not even close"),
		"other magic":  other.Seal((&Trace{}).body()),
		"newer format": seal.Format{Magic: format.Magic, Version: format.Version + 1}.Seal((&Trace{}).body()),
		"empty":        nil,
	} {
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestTruncatedRecord: a trace file cut anywhere inside its last event
// record, or anywhere before it, is refused with ErrCorrupt.
func TestTruncatedRecord(t *testing.T) {
	tr := &Trace{Ticks: 1, Events: []Event{{Kind: KindAlloc, ID: 1 << 32, Order: 3}, {Kind: KindTick}}}
	data := format.Seal(tr.body())
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut to %d of %d bytes: got %v, want ErrCorrupt", n, len(data), err)
		}
	}
}

// TestDecodeRefusesBadBodies: a correctly sealed body whose counts the
// events do not bear out, or whose event no recording writes, is
// refused with ErrCorrupt before anything could replay it.
func TestDecodeRefusesBadBodies(t *testing.T) {
	valid := &Trace{Ticks: 1, Events: []Event{{Kind: KindAlloc, ID: 1 << 32}, {Kind: KindTick}}}
	if _, err := Decode(format.Seal(valid.body())); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(tr *Trace) []byte{
		"tick count": func(tr *Trace) []byte { tr.Ticks = 2; return tr.body() },
		"event count": func(tr *Trace) []byte {
			b := tr.body()
			b[8+3*8]++ // the count after the empty profile and three words
			return b
		},
		"kind":        func(tr *Trace) []byte { tr.Events[0].Kind = KindTick + 1; return tr.body() },
		"order":       func(tr *Trace) []byte { tr.Events[0].Order = mem.MaxOrder + 1; return tr.body() },
		"migratetype": func(tr *Trace) []byte { tr.Events[0].MT = mem.NumMigrateTypes; return tr.body() },
		"source":      func(tr *Trace) []byte { tr.Events[0].Src = mem.NumSources; return tr.body() },
	} {
		tr := *valid
		tr.Events = append([]Event(nil), valid.Events...)
		if _, err := Decode(format.Seal(edit(&tr))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

func TestRecordReplayEquivalence(t *testing.T) {
	// Record a random workload on one machine (through its tracepoints),
	// replay on a fresh machine of the same design: the physical-memory
	// state must match in aggregate (same design, same decisions).
	k1 := testKernel(kernel.ModeContiguitas)
	rec := Attach(k1)
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
	k2 := testKernel(kernel.ModeContiguitas)
	if failed := Replay(k2, roundTrip(t, rec.Trace())); failed != 0 {
		t.Fatalf("replay failed %d allocations on an identical machine", failed)
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
	k1 := testKernel(kernel.ModeLinux)
	rec := Attach(k1)
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
	k2 := testKernel(kernel.ModeContiguitas)
	Replay(k2, roundTrip(t, rec.Trace()))
	if k2.Tick() != 5 {
		t.Fatalf("ticks = %d", k2.Tick())
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
	f := func(kind uint8, id, pfn uint64, order uint8, mt, src uint8) bool {
		e := Event{
			Kind:  Kind(kind % 6),
			ID:    id,
			PFN:   pfn,
			Order: order % 19,
			MT:    mem.MigrateType(mt % 3),
			Src:   mem.Source(src % 7),
		}
		tr := &Trace{Events: []Event{e}}
		if e.Kind == KindTick {
			tr.Ticks = 1
		}
		got, err := Decode(format.Seal(tr.body()))
		return err == nil && reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// encodeV1 re-encodes events in the first, unsealed trace layout: a
// header (magic 0xC0471AB5, version 1) and 12-byte records of kind, an
// ID numbering allocations in order (0 for a block allocated before
// recording), and an alloc's order, migratetype and source.
func encodeV1(events []Event) []byte {
	out := binary.LittleEndian.AppendUint32(nil, 0xC0471AB5)
	out = binary.LittleEndian.AppendUint16(out, 1)
	ordinal := map[uint64]uint64{}
	for _, e := range events {
		var id uint64
		var order, mt, src byte
		switch e.Kind {
		case KindAlloc, KindAllocCache:
			id = uint64(len(ordinal)) + 1
			ordinal[e.ID] = id
			order, mt, src = e.Order, byte(e.MT), byte(e.Src)
		case KindFree, KindPin, KindUnpin:
			id = ordinal[e.ID]
		}
		out = append(out, byte(e.Kind))
		out = binary.LittleEndian.AppendUint64(out, id)
		out = append(out, order, mt, src)
	}
	return out
}

// TestRecorderForgetsReclaimedPages: reclaim drops page-cache handles
// without a free, and the trace must still name every block by what
// the kernel said when it allocated it. The stream is pinned: re-encoded
// in the first trace layout, it is byte for byte what the recorder wrote
// when it numbered allocations itself.
func TestRecorderForgetsReclaimedPages(t *testing.T) {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 32 << 20
	cfg.InitialUnmovableBytes, cfg.MinUnmovableBytes, cfg.MaxUnmovableBytes = 4<<20, 2<<20, 16<<20
	k := kernel.New(cfg)
	rec := Attach(k)
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

	live := 0
	for pfn := uint64(0); pfn < k.PM().NPages; pfn++ {
		if _, ok := k.PageAt(pfn); ok {
			live++
		}
	}
	if k.ReclaimedPages < 10*uint64(live) {
		t.Fatalf("only %d pages reclaimed for %d live handles: the run does not exercise the leak", k.ReclaimedPages, live)
	}
	v1 := encodeV1(roundTrip(t, rec.Trace()).Events)
	if n, d := len(v1), seal.Sum64(v1); n != 1302510 || d != 0x5ac17ac49385ee26 {
		t.Fatalf("trace is %d bytes with digest %#016x, pinned 1302510 and 0x5ac17ac49385ee26", n, d)
	}
}

// TestTapKeepsExistingTap: a recorder attached to an instrumented
// kernel leaves the ring in place and forwards every record to the tap
// the ring already had (the -serve event bus), including the internal
// events it does not record itself.
func TestTapKeepsExistingTap(t *testing.T) {
	k := testKernel(kernel.ModeContiguitas)
	ring := telemetry.NewRing(0)
	var seen []telemetry.Record
	ring.SetSink(func(r telemetry.Record) { seen = append(seen, r) })
	k.SetTracer(ring)
	rec := Attach(k)
	if k.Tracer() != ring {
		t.Fatal("recorder replaced the kernel's ring")
	}
	var pages []kernel.Page
	for i := 0; i < 20000; i++ {
		if p, err := k.Alloc(0, mem.MigrateMovable, mem.SrcUser); err == nil {
			pages = append(pages, p)
		}
		if i%1000 == 999 {
			k.EndTick()
		}
	}
	k.Pin(pages[0])
	k.Unpin(pages[0])
	public := 0
	for _, r := range seen {
		switch r.ID {
		case telemetry.EvAlloc, telemetry.EvFree, telemetry.EvPin, telemetry.EvUnpin:
			public++
		}
	}
	tr := rec.Trace()
	if public == len(seen) || len(tr.Events) != public+int(tr.Ticks) {
		t.Fatalf("existing tap saw %d records (%d public); trace holds %d events over %d ticks",
			len(seen), public, len(tr.Events), tr.Ticks)
	}
}
