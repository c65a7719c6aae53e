package kernel

import (
	"errors"
	"testing"

	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/stats"
)

// snapDriver churns a kernel deterministically through the public API,
// tracking its pool as head PFNs so it can be cloned across a restore
// (handle values do not survive; PFNs do).
type snapDriver struct {
	k    *Kernel
	rng  *stats.RNG
	pfns []uint64
}

func (d *snapDriver) clone(k *Kernel) *snapDriver {
	s0, s1 := d.rng.State()
	r := stats.NewRNG(1)
	r.SetState(s0, s1)
	return &snapDriver{k: k, rng: r, pfns: append([]uint64(nil), d.pfns...)}
}

func (d *snapDriver) step(t *testing.T) {
	t.Helper()
	// Free a random quarter of the pool (page-cache entries may have
	// been reclaimed behind our back — skip dead handles).
	for i := 0; i < len(d.pfns)/4 && len(d.pfns) > 0; i++ {
		j := d.rng.Intn(len(d.pfns))
		if p, ok := d.k.PageAt(d.pfns[j]); ok {
			if d.k.Info(p).Pinned {
				d.k.Unpin(p)
			}
			if err := d.k.Free(p); err != nil {
				t.Fatalf("free pfn %d: %v", d.pfns[j], err)
			}
		}
		d.pfns[j] = d.pfns[len(d.pfns)-1]
		d.pfns = d.pfns[:len(d.pfns)-1]
	}
	// Allocate a mixed batch.
	orders := []int{0, 0, 0, 1, 2, mem.Order2M}
	for i := 0; i < 48; i++ {
		order := orders[d.rng.Intn(len(orders))]
		var p Page
		var err error
		switch d.rng.Intn(4) {
		case 0:
			p, err = d.k.Alloc(order, mem.MigrateUnmovable, mem.SrcSlab)
		case 1:
			p, err = d.k.AllocPageCache(0, mem.SrcFilesystem)
		case 2:
			p, err = d.k.Alloc(order, mem.MigrateMovable, mem.SrcUser)
			if err == nil && d.rng.Bool(0.2) {
				if perr := d.k.Pin(p); perr != nil {
					// Pin can fail under pressure; the page stays movable.
					_ = perr
				}
			}
		default:
			p, err = d.k.Alloc(order, mem.MigrateMovable, mem.SrcUser)
		}
		if err == nil {
			d.pfns = append(d.pfns, d.k.PFN(p))
		}
	}
	// Periodic contiguity demand keeps compaction's cross-tick state
	// (cursors, deferral, retries) populated.
	if d.rng.Bool(0.1) {
		huge := d.k.AllocHugeTLB(mem.Order2M, 1)
		d.k.FreeHugeTLB(&huge)
	}
	d.k.EndTick()
}

func snapTestConfig(mode Mode) Config {
	cfg := DefaultConfig(mode)
	cfg.MemBytes = 128 << 20
	cfg.InitialUnmovableBytes = 16 << 20
	cfg.MinUnmovableBytes = 4 << 20
	cfg.MaxUnmovableBytes = 64 << 20
	cfg.Seed = 7
	return cfg
}

func testSnapshotRoundTrip(t *testing.T, mode Mode, withFaults bool) {
	cfg := snapTestConfig(mode)
	if mode == ModeContiguitas {
		cfg.HWMover = NewAnalyticMover()
	}
	if withFaults {
		inj := fault.New(99)
		inj.Arm(fault.PointSWMigrate, fault.Trigger{Prob: 0.05})
		inj.Arm(fault.PointCompactCarve, fault.Trigger{Prob: 0.05})
		if mode == ModeContiguitas {
			inj.Arm(fault.PointHWMover, fault.Trigger{Prob: 0.1})
			inj.Arm(fault.PointRegionResize, fault.Trigger{Prob: 0.1})
		}
		cfg.Faults = inj
	}
	k := New(cfg)
	d := &snapDriver{k: k, rng: stats.NewRNG(42)}
	for i := 0; i < 120; i++ {
		d.step(t)
	}

	st := k.ExportState()
	h := st.Hash()

	rcfg := cfg
	if withFaults {
		// The restored machine gets its own injector rebuilt from the
		// serialized stream positions.
		rcfg.Faults = fault.FromState(cfg.Faults.State())
	}
	k2, err := Restore(rcfg, st)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := k2.StateHash(); got != h {
		t.Fatalf("restored state hash %016x, exported %016x", got, h)
	}
	if k2.Tick() != k.Tick() || k2.Boundary() != k.Boundary() {
		t.Fatalf("tick/boundary drifted: %d/%d vs %d/%d", k2.Tick(), k2.Boundary(), k.Tick(), k.Boundary())
	}

	// Divergence check: drive both machines through the identical
	// scripted future and require bit-equal state at every boundary.
	d2 := d.clone(k2)
	for i := 0; i < 60; i++ {
		d.step(t)
		d2.step(t)
		if i%20 == 19 {
			if h1, h2 := k.StateHash(), k2.StateHash(); h1 != h2 {
				t.Fatalf("state diverged %d ticks after restore: %016x vs %016x", i+1, h1, h2)
			}
		}
	}
	if err := k2.CheckInvariants(); err != nil {
		t.Fatalf("restored kernel invariants after continuation: %v", err)
	}
}

func TestSnapshotRoundTripLinux(t *testing.T)       { testSnapshotRoundTrip(t, ModeLinux, false) }
func TestSnapshotRoundTripContiguitas(t *testing.T) { testSnapshotRoundTrip(t, ModeContiguitas, false) }
func TestSnapshotRoundTripWithFaults(t *testing.T)  { testSnapshotRoundTrip(t, ModeContiguitas, true) }

func TestRestoreRejectsFingerprintMismatch(t *testing.T) {
	cfg := snapTestConfig(ModeLinux)
	k := New(cfg)
	k.RunTicks(3)
	st := k.ExportState()

	bad := cfg
	bad.Seed++
	if _, err := Restore(bad, st); err == nil {
		t.Fatal("restore accepted a mismatched seed")
	}
	bad = cfg
	bad.MemBytes *= 2
	if _, err := Restore(bad, st); err == nil {
		t.Fatal("restore accepted a mismatched memory size")
	}
}

func TestRestoreRejectsCorruptedState(t *testing.T) {
	cfg := snapTestConfig(ModeContiguitas)
	k := New(cfg)
	d := &snapDriver{k: k, rng: stats.NewRNG(5)}
	for i := 0; i < 30; i++ {
		d.step(t)
	}
	st := k.ExportState()

	// A frame flipped free in the meta array must be caught by one of
	// the re-derivation cross-checks.
	if len(st.Live) == 0 {
		t.Fatal("no live allocations to corrupt")
	}
	st.Phys.Meta[st.Live[0].PFN] ^= 1 // flagFree
	if _, err := Restore(cfg, st); err == nil {
		t.Fatal("restore accepted a corrupted frame table")
	}
	st.Phys.Meta[st.Live[0].PFN] ^= 1

	// A reclaimable-FIFO entry past the last frame is refused, not
	// looked up.
	if len(st.Reclaimable) == 0 {
		t.Fatal("no reclaimable entries to corrupt")
	}
	st.Reclaimable[len(st.Reclaimable)-1] = uint32(st.Phys.NPages) + 5
	if _, err := Restore(cfg, st); err == nil {
		t.Fatal("restore accepted a reclaimable entry past the last frame")
	}
}

func TestStateHashSensitivity(t *testing.T) {
	cfg := snapTestConfig(ModeLinux)
	k := New(cfg)
	d := &snapDriver{k: k, rng: stats.NewRNG(11)}
	for i := 0; i < 20; i++ {
		d.step(t)
	}
	st := k.ExportState()
	h := st.Hash()
	st.Counters.AllocOK++
	if st.Hash() == h {
		t.Fatal("hash ignores counter changes")
	}
	st.Counters.AllocOK--
	if st.Hash() != h {
		t.Fatal("hash not deterministic")
	}
	st.Phys.Meta[0] ^= 0x80000000
	if st.Hash() == h {
		t.Fatal("hash ignores frame metadata changes")
	}
}

// setListForTest returns the serialized PFN-set list of the Contiguitas
// state with the most heads (the movable region's busiest class).
func setListForTest(t *testing.T, st *State) (region, order, mt int) {
	t.Helper()
	best := -1
	for r, bs := range st.Regions {
		if mem.AllocPolicy(bs.Policy) == mem.PolicyLIFO {
			t.Fatalf("region %d is LIFO; want PFN-ordered regions", r)
		}
		for o := range bs.Lists {
			for m, l := range bs.Lists[o] {
				if len(l) > best {
					best, region, order, mt = len(l), r, o, m
				}
			}
		}
	}
	if best < 3 {
		t.Fatalf("busiest PFN set holds %d heads; the test needs at least 3", best)
	}
	return region, order, mt
}

func churnedContiguitasState(t *testing.T) (Config, *State) {
	t.Helper()
	cfg := snapTestConfig(ModeContiguitas)
	k := New(cfg)
	d := &snapDriver{k: k, rng: stats.NewRNG(13)}
	for i := 0; i < 40; i++ {
		d.step(t)
	}
	return cfg, k.ExportState()
}

// TestRestoreAcceptsAnySetOrder: PFN-ordered lists restore as sets. A
// list serialized in another order (snapshots from before the sets held
// binary heaps, whose heads were listed in heap order, with the heap
// index as flIdx witness) restores to the same machine.
func TestRestoreAcceptsAnySetOrder(t *testing.T) {
	cfg, st := churnedContiguitasState(t)
	want := st.Hash()
	r, o, mt := setListForTest(t, st)
	l := st.Regions[r].Lists[o][mt]
	for i, j := 0, len(l)-1; i < j; i, j = i+1, j-1 {
		l[i], l[j] = l[j], l[i]
	}
	for i, pfn := range l {
		st.Phys.FlIdx[pfn] = int32(i)
	}
	k, err := Restore(cfg, st)
	if err != nil {
		t.Fatalf("restore of a reordered set: %v", err)
	}
	if got := k.StateHash(); got != want {
		t.Fatalf("reordered set restored to state %016x, want %016x", got, want)
	}
}

// TestRestoreRejectsDuplicateSetHead: a head listed twice on one PFN
// set is a typed error, not a silently merged set.
func TestRestoreRejectsDuplicateSetHead(t *testing.T) {
	cfg, st := churnedContiguitasState(t)
	r, o, mt := setListForTest(t, st)
	l := st.Regions[r].Lists[o][mt]
	st.Regions[r].Lists[o][mt] = append(l, l[1])
	if _, err := Restore(cfg, st); !errors.Is(err, mem.ErrDuplicateHead) {
		t.Fatalf("restore with a duplicated head: %v, want ErrDuplicateHead", err)
	}
}

// TestRestoreChecksSetWitness: the flIdx witness covers PFN-set heads
// too; a witness that disagrees with a head's list position is refused.
func TestRestoreChecksSetWitness(t *testing.T) {
	cfg, st := churnedContiguitasState(t)
	r, o, mt := setListForTest(t, st)
	st.Phys.FlIdx[st.Regions[r].Lists[o][mt][2]]++
	if _, err := Restore(cfg, st); err == nil {
		t.Fatal("restore accepted a PFN-set head with a wrong flIdx witness")
	}
}
