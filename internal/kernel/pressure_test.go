package kernel

import (
	"errors"
	"strings"
	"testing"

	"contiguitas/internal/mem"
	"contiguitas/internal/pressure"
	"contiguitas/internal/psi"
)

// pressuredConfig is a small Contiguitas machine with the full ladder
// enabled and the hardware mover attached.
func pressuredConfig(memBytes uint64) Config {
	cfg := testConfig(ModeContiguitas, memBytes)
	cfg.HWMover = NewAnalyticMover()
	cfg.Pressure = pressure.DefaultConfig()
	return cfg
}

// TestEmergencyShrinkBelowFloorRejected: a boundary already at the
// resizer floor must not move, however desperate the request.
func TestEmergencyShrinkBelowFloorRejected(t *testing.T) {
	cfg := pressuredConfig(256 * mb)
	cfg.MinUnmovableBytes = cfg.InitialUnmovableBytes // boot at the floor
	k := New(cfg)
	if moved := k.EmergencyShrink(mem.PageblockPages); moved != 0 {
		t.Fatalf("shrink below floor moved %d pages", moved)
	}
	if k.EmergencyShrinks != 0 || k.EmergencyShrinkPages != 0 {
		t.Fatalf("below-floor shrink bumped counters: %d shrinks, %d pages",
			k.EmergencyShrinks, k.EmergencyShrinkPages)
	}
}

// TestEmergencyShrinkDefersDuringMigration: a shrink requested while a
// migration copy is in flight must defer — the boundary cannot move
// under an active copy — and succeed once the copy drains.
func TestEmergencyShrinkDefersDuringMigration(t *testing.T) {
	k := New(pressuredConfig(256 * mb))
	k.migInFlight = 1
	if moved := k.EmergencyShrink(mem.PageblockPages); moved != 0 {
		t.Fatalf("shrink during migration moved %d pages", moved)
	}
	if k.EmergencyShrinkDeferred != 1 {
		t.Fatalf("EmergencyShrinkDeferred = %d, want 1", k.EmergencyShrinkDeferred)
	}
	k.migInFlight = 0
	if moved := k.EmergencyShrink(mem.PageblockPages); moved == 0 {
		t.Fatal("shrink after migration drained moved nothing")
	}
	if k.EmergencyShrinks != 1 {
		t.Fatalf("EmergencyShrinks = %d, want 1", k.EmergencyShrinks)
	}
}

// TestEmergencyShrinkDrainsPinnedPageblock: a pinned allocation at the
// top of the unmovable region blocks a software-only shrink at its
// pageblock, but the hardware mover relocates it and drains the region
// to the floor — with the pinned handle still live and pinned after.
func TestEmergencyShrinkDrainsPinnedPageblock(t *testing.T) {
	build := func(withMover bool) (*Kernel, Page) {
		cfg := testConfig(ModeContiguitas, 128*mb)
		cfg.MaxUnmovableBytes = cfg.InitialUnmovableBytes // no expansion escape
		if withMover {
			cfg.HWMover = NewAnalyticMover()
		}
		k := New(cfg)
		var pages []Page
		for {
			p, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab)
			if err != nil {
				break
			}
			pages = append(pages, p)
		}
		// Pin the topmost frame, free everything else: one pinned page
		// stands between the shrink and an empty region.
		top := pages[0]
		for _, p := range pages[1:] {
			if k.Info(p).PFN > k.Info(top).PFN {
				top = p
			}
		}
		if err := k.Pin(top); err != nil {
			t.Fatalf("pin: %v", err)
		}
		for _, p := range pages {
			if p != top {
				if err := k.Free(p); err != nil {
					t.Fatalf("free: %v", err)
				}
			}
		}
		if k.Info(top).PFN < k.Boundary()-mem.PageblockPages {
			t.Fatalf("pinned page %d not in the top pageblock (boundary %d)", k.Info(top).PFN, k.Boundary())
		}
		return k, top
	}

	k, top := build(false)
	floor := k.Boundary() // region is full height before the shrink
	if moved := k.EmergencyShrink(floor); moved != 0 {
		t.Fatalf("software-only shrink moved %d pages past a pinned block", moved)
	}
	if k.ShrinkFails == 0 {
		t.Fatal("software-only shrink did not record the failure")
	}

	k, top = build(true)
	before := k.Boundary()
	if moved := k.EmergencyShrink(before); moved == 0 {
		t.Fatal("hardware-assisted shrink drained nothing")
	}
	if k.Boundary() >= before {
		t.Fatalf("boundary did not move: %d", k.Boundary())
	}
	if !k.Live(top) || !k.Info(top).Pinned {
		t.Fatal("pinned allocation lost across the drain")
	}
	if k.Info(top).PFN >= k.Boundary() {
		t.Fatalf("pinned page %d left outside the shrunk region (boundary %d)", k.Info(top).PFN, k.Boundary())
	}
	if k.EmergencyShrinks == 0 || k.EmergencyShrinkPages == 0 {
		t.Fatal("drain did not record emergency-shrink counters")
	}
}

// TestPressureErrFormat pins the enriched failure error: it must wrap
// ErrNoMemory always, ErrOOMKill exactly when a kill fired, and carry
// the ladder diagnostics in the string.
func TestPressureErrFormat(t *testing.T) {
	k := New(pressuredConfig(128 * mb))

	lt := ladderTrace{rung: pressure.RungOOM, reclaimed: 12, compacted: 3,
		shrunk: 512, kills: 1, stallCycles: 99}
	err := k.pressureErr(mem.Order2M, mem.MigrateMovable, &lt)
	if !errors.Is(err, ErrNoMemory) || !errors.Is(err, ErrOOMKill) {
		t.Fatalf("kill error sentinels wrong: %v", err)
	}
	for _, want := range []string{"rung=oom", "reclaimed=12", "compacted=3", "shrunk=512", "kills=1", "stall_cycles=99"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}

	lt = ladderTrace{rung: pressure.RungThrottle, reclaimed: 7, stallCycles: 42}
	err = k.pressureErr(mem.Order4K, mem.MigrateMovable, &lt)
	if !errors.Is(err, ErrNoMemory) || errors.Is(err, ErrOOMKill) {
		t.Fatalf("no-kill error sentinels wrong: %v", err)
	}
	if !strings.Contains(err.Error(), "rung=throttle") || strings.Contains(err.Error(), "kills=") {
		t.Errorf("no-kill error %q has the wrong fields", err)
	}
}

// TestPressureLadderErrEndToEnd exhausts a pressured machine with no
// registered victims and checks the real failure carries the ladder
// diagnostics.
func TestPressureLadderErrEndToEnd(t *testing.T) {
	k := New(pressuredConfig(64 * mb))
	for {
		_, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrNoMemory) {
			t.Fatalf("exhaustion error is not ErrNoMemory: %v", err)
		}
		if !strings.Contains(err.Error(), "rung=") {
			t.Fatalf("exhaustion error lacks ladder diagnostics: %v", err)
		}
		break
	}
	if k.AllocThrottled == 0 || k.ThrottleStallCycles == 0 {
		t.Fatalf("exhaustion never throttled: %d allocs, %d cycles",
			k.AllocThrottled, k.ThrottleStallCycles)
	}
}

// fakeVictim is a minimal killable pool for kill-log tests.
type fakeVictim struct {
	name  string
	pages uint64
	adj   int64
}

func (v *fakeVictim) OOMName() string    { return v.name }
func (v *fakeVictim) OOMPages() uint64   { return v.pages }
func (v *fakeVictim) OOMScoreAdj() int64 { return v.adj }
func (v *fakeVictim) OOMKill(uint64) uint64 {
	f := v.pages
	v.pages = 0
	return f
}

// TestPressureSnapshotRoundTrip: gate state, the short-half-life gate
// tracker, the escalation profile, and the OOM-kill log must all
// survive export/restore bit-exactly (witnessed by the state hash), and
// a pressure-enabled snapshot must refuse a pressure-less config (and
// vice versa).
func TestPressureSnapshotRoundTrip(t *testing.T) {
	cfg := pressuredConfig(64 * mb)
	k := New(cfg)
	k.RegisterOOMVictim(&fakeVictim{name: "fake", pages: 1 << 10})

	// Exhaust to light up every rung and log a kill, then hammer the
	// movable PSI until the admission gate trips.
	for {
		if _, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser); err != nil {
			break
		}
	}
	for i := 0; i < 200 && !k.Shedding(); i++ {
		k.psi.AddStall(psi.RegionMovable, 1.0)
		k.EndTick()
	}
	if !k.Shedding() {
		t.Fatal("gate never tripped under saturated stall")
	}
	if len(k.OOMHistory()) == 0 {
		t.Fatal("no kill logged before the round trip")
	}

	st := k.ExportState()
	h := st.Hash()
	k2, err := Restore(cfg, st)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := k2.StateHash(); got != h {
		t.Fatalf("state hash diverged across restore: %016x vs %016x", got, h)
	}
	if k2.Shedding() != k.Shedding() {
		t.Fatal("gate state lost across restore")
	}
	if k2.Escalation() != k.Escalation() {
		t.Fatalf("escalation profile diverged: %+v vs %+v", k2.Escalation(), k.Escalation())
	}
	ha, hb := k.OOMHistory(), k2.OOMHistory()
	if len(ha) != len(hb) {
		t.Fatalf("kill log length diverged: %d vs %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("kill %d diverged: %+v vs %+v", i, ha[i], hb[i])
		}
	}

	// Fingerprint mismatches both ways.
	noP := cfg
	noP.Pressure = nil
	if _, err := Restore(noP, st); err == nil {
		t.Fatal("pressure-enabled snapshot restored into a pressure-less config")
	}
	plain := New(noP)
	if _, err := Restore(cfg, plain.ExportState()); err == nil {
		t.Fatal("pressure-less snapshot restored into a pressure-enabled config")
	}
}

// TestAdmissionGateSheds: while the gate is shedding, movable
// allocations fail fast with ErrAllocShed; unmovable allocations and
// explicit HugeTLB reservations bypass the gate.
func TestAdmissionGateSheds(t *testing.T) {
	k := New(pressuredConfig(256 * mb))
	for i := 0; i < 200 && !k.Shedding(); i++ {
		k.psi.AddStall(psi.RegionMovable, 1.0)
		k.EndTick()
	}
	if !k.Shedding() {
		t.Fatal("gate never tripped")
	}
	if _, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser); !errors.Is(err, ErrAllocShed) {
		t.Fatalf("movable alloc under shedding: %v", err)
	}
	if k.AllocShed == 0 {
		t.Fatal("shed not counted")
	}
	if _, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab); err != nil {
		t.Fatalf("unmovable alloc should bypass the gate: %v", err)
	}
	huge := k.AllocHugeTLB(mem.Order2M, 1)
	if huge.Allocated != 1 {
		t.Fatal("HugeTLB reservation should bypass the gate")
	}
	k.FreeHugeTLB(&huge)

	// Starve the tracker back below the exit threshold: the gate must
	// reopen (hysteresis heals).
	for i := 0; i < 500 && k.Shedding(); i++ {
		k.EndTick()
	}
	if k.Shedding() {
		t.Fatal("gate never reopened after pressure subsided")
	}
	if _, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser); err != nil {
		t.Fatalf("movable alloc after reopen: %v", err)
	}
}
