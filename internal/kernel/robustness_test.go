package kernel

import (
	"errors"
	"testing"

	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/stats"
)

// faultyConfig is testConfig plus an injector whose points are armed by
// the caller.
func faultyConfig(mode Mode, memBytes uint64, seed uint64) (Config, *fault.Injector) {
	cfg := testConfig(mode, memBytes)
	inj := fault.New(seed)
	cfg.Faults = inj
	return cfg, inj
}

// TestHWFaultFallsBackToSoftware drives a region expansion whose movable
// evacuees would normally ride the hardware mover; with the mover failing
// deterministically, every migration must degrade to the software path
// and the expansion must still succeed.
func TestHWFaultFallsBackToSoftware(t *testing.T) {
	cfg, inj := faultyConfig(ModeContiguitas, 256*mb, 42)
	cfg.HWMover = NewAnalyticMover()
	inj.Arm(fault.PointHWMover, fault.Trigger{Prob: 1})
	k := New(cfg)

	// Movable allocations are highest-first: grab everything, then free
	// 75% so live pages remain just above the boundary.
	var pages []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		pages = append(pages, p)
	}
	for i, p := range pages {
		if i%4 != 3 {
			k.Free(p)
			pages[i] = Page{}
		}
	}
	moved := k.ExpandUnmovable(16 * mb / mem.PageSize)
	if moved == 0 {
		t.Fatal("expansion failed despite the software fallback")
	}
	if k.SWFallbacks == 0 {
		t.Fatal("hardware faults must degrade to software migration")
	}
	if k.HWMigrations != 0 {
		t.Fatalf("no hardware migration can succeed under Prob=1 faults, got %d", k.HWMigrations)
	}
	if k.SWMigrations == 0 {
		t.Fatal("fallback migrations must be accounted as software")
	}
	if k.MigrationRetries == 0 || k.MigrationFailures == 0 {
		t.Fatalf("retry accounting missing: retries=%d failures=%d",
			k.MigrationRetries, k.MigrationFailures)
	}
	for _, p := range pages {
		if p == (Page{}) {
			continue
		}
		if k.Info(p).PFN < k.Boundary() || !k.Live(p) {
			t.Fatalf("handle at %d lost or below boundary %d", k.Info(p).PFN, k.Boundary())
		}
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHWFaultDefersPinnedShrink pins a page near the top of the unmovable
// region and shrinks past it: pinned pages have no software fallback, so
// a failing mover must defer the migration and fail the shrink without
// corrupting anything — and the same shrink must succeed once the fault
// is lifted.
func TestHWFaultDefersPinnedShrink(t *testing.T) {
	cfg, inj := faultyConfig(ModeContiguitas, 128*mb, 7)
	cfg.HWMover = NewAnalyticMover()
	inj.Arm(fault.PointHWMover, fault.Trigger{Prob: 1})
	k := New(cfg)

	var pages []Page
	for i := 0; i < 2000; i++ {
		p, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcNetworking)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	var top Page
	for _, p := range pages {
		if top == (Page{}) || k.Info(p).PFN > k.Info(top).PFN {
			top = p
		}
	}
	for _, p := range pages {
		if p != top {
			k.Free(p)
		}
	}
	if err := k.Pin(top); err != nil {
		t.Fatal(err)
	}

	before := k.Boundary()
	pfnBefore := k.Info(top).PFN
	if moved := k.ShrinkUnmovable(before); moved != 0 {
		t.Fatalf("shrink must fail while the mover is down, moved %d", moved)
	}
	if k.Boundary() != before {
		t.Fatal("failed shrink moved the boundary")
	}
	if k.MigrationDeferred == 0 || k.ShrinkFails == 0 {
		t.Fatalf("deferral accounting missing: deferred=%d shrinkfails=%d",
			k.MigrationDeferred, k.ShrinkFails)
	}
	if k.Info(top).PFN != pfnBefore || !k.Info(top).Pinned || !k.Live(top) {
		t.Fatal("pinned page disturbed by a failed shrink")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatalf("after failed shrink: %v", err)
	}

	// Fault lifted: the deferred work completes on retry.
	inj.DisarmAll()
	if moved := k.ShrinkUnmovable(before); moved == 0 {
		t.Fatal("shrink must succeed once the mover recovers")
	}
	if k.Info(top).PFN >= k.Boundary() || !k.Info(top).Pinned {
		t.Fatal("pinned page not relocated below the new boundary")
	}
	if k.HWMigrations == 0 {
		t.Fatal("recovery shrink must use the hardware mover")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatalf("after recovery shrink: %v", err)
	}
}

// TestSWMigrateRetriesThenSucceeds aborts exactly the first software
// migration attempt (a racing re-fault); the retry must complete the pin
// migration with one retry accounted and no failure.
func TestSWMigrateRetriesThenSucceeds(t *testing.T) {
	cfg, inj := faultyConfig(ModeContiguitas, 128*mb, 3)
	inj.Arm(fault.PointSWMigrate, fault.Trigger{OnHits: []uint64{1}})
	k := New(cfg)

	p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Pin(p); err != nil {
		t.Fatalf("pin must survive one aborted migration attempt: %v", err)
	}
	if k.Info(p).PFN >= k.Boundary() {
		t.Fatal("pinned page not migrated into the unmovable region")
	}
	if k.MigrationRetries != 1 {
		t.Fatalf("retries = %d, want 1", k.MigrationRetries)
	}
	if k.MigrationFailures != 0 {
		t.Fatalf("failures = %d, want 0", k.MigrationFailures)
	}
	if k.BackoffCycles == 0 {
		t.Fatal("retry must charge backoff cycles")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSWMigrateExhaustsRetryBudget makes every software migration attempt
// abort: the pin must fail with ErrMigrationFailed and leave the page
// exactly where it was, unpinned and live.
func TestSWMigrateExhaustsRetryBudget(t *testing.T) {
	cfg, inj := faultyConfig(ModeContiguitas, 128*mb, 3)
	inj.Arm(fault.PointSWMigrate, fault.Trigger{Prob: 1})
	k := New(cfg)

	p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
	if err != nil {
		t.Fatal(err)
	}
	pfn := k.Info(p).PFN
	err = k.Pin(p)
	if !errors.Is(err, ErrMigrationFailed) {
		t.Fatalf("pin error = %v, want ErrMigrationFailed", err)
	}
	if k.Info(p).PFN != pfn || k.Info(p).Pinned || !k.Live(p) {
		t.Fatal("failed pin migration must leave the page untouched")
	}
	if k.Info(p).MT != mem.MigrateMovable {
		t.Fatal("failed pin migration must not restamp the migratetype")
	}
	if k.MigrationFailures == 0 {
		t.Fatal("exhausted retry budget must be accounted as a failure")
	}
	if err := k.Free(p); err != nil {
		t.Fatalf("page must still be freeable: %v", err)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCarveFaultRequeuesCompactionTarget fragments a Linux zone, fails
// compaction with an injected carve fault, and verifies the candidate is
// requeued and claimed successfully once the fault clears.
func TestCarveFaultRequeuesCompactionTarget(t *testing.T) {
	cfg, inj := faultyConfig(ModeLinux, 64*mb, 11)
	cfg.CompactBudgetPerTick = 4096
	inj.Arm(fault.PointCompactCarve, fault.Trigger{Prob: 1})
	k := New(cfg)

	// Fragment: fill the zone with base pages, then free three of four so
	// no free 2 MB block exists but every block is cheap to evacuate.
	var pages []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		pages = append(pages, p)
	}
	for i, p := range pages {
		if i%4 != 0 {
			k.Free(p)
			pages[i] = Page{}
		}
	}

	// The 2 MB slow path runs compaction; the injected carve fault must
	// fail it without corrupting state.
	if _, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser); err == nil {
		t.Fatal("2 MB alloc must fail while carves are faulted")
	}
	if k.CarveFails == 0 {
		t.Fatal("carve fault not accounted")
	}
	if k.CompactRequeues == 0 {
		t.Fatal("failed candidate must be requeued")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatalf("after faulted compaction: %v", err)
	}

	// Fault lifted: the requeued target satisfies the next request.
	inj.DisarmAll()
	huge, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser)
	if err != nil {
		t.Fatalf("2 MB alloc must succeed after the fault clears: %v", err)
	}
	if k.Info(huge).Order != mem.Order2M {
		t.Fatalf("order = %d", k.Info(huge).Order)
	}
	if k.CompactSuccess == 0 {
		t.Fatal("recovery allocation must come from compaction")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatalf("after recovery compaction: %v", err)
	}
}

// TestCheckInvariantsDetectsCorruption sanity-checks the validator itself:
// a handle deleted behind the kernel's back must be reported.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	k := New(testConfig(ModeLinux, 64*mb))
	p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatalf("clean kernel reported: %v", err)
	}
	pfn := k.PFN(p)
	k.pt.heads[pfn] = 0
	if err := k.CheckInvariants(); err == nil {
		t.Fatal("validator missed a vanished handle")
	}
	k.pt.heads[pfn] = p.slot
	if err := k.CheckInvariants(); err != nil {
		t.Fatalf("restored kernel reported: %v", err)
	}
}

// TestRandomisedWorkloadUnderFaults soaks both modes with a randomized
// alloc/free/pin mix while every fault point misfires with moderate
// probability; the full invariant validator must stay clean throughout.
func TestRandomisedWorkloadUnderFaults(t *testing.T) {
	for _, mode := range []Mode{ModeLinux, ModeContiguitas} {
		cfg, inj := faultyConfig(mode, 128*mb, 99)
		cfg.HWMover = NewAnalyticMover()
		inj.Arm(fault.PointHWMover, fault.Trigger{Prob: 0.2})
		inj.Arm(fault.PointSWMigrate, fault.Trigger{Prob: 0.05})
		inj.Arm(fault.PointCompactCarve, fault.Trigger{Prob: 0.1})
		inj.Arm(fault.PointRegionResize, fault.Trigger{Prob: 0.1})
		k := New(cfg)

		rng := stats.NewRNG(2024)
		var live []Page
		var pinned []Page
		for step := 0; step < 12000; step++ {
			switch r := rng.Float64(); {
			case r < 0.45:
				order := mem.Order4K
				if rng.Float64() < 0.1 {
					order = mem.Order2M
				}
				mt := mem.MigrateMovable
				if rng.Float64() < 0.3 {
					mt = mem.MigrateUnmovable
				}
				if p, err := k.Alloc(order, mt, mem.SrcUser); err == nil {
					live = append(live, p)
				}
			case r < 0.80 && len(live) > 0:
				i := int(rng.Uint64() % uint64(len(live)))
				p := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := k.Free(p); err != nil {
					t.Fatalf("%v: free: %v", mode, err)
				}
			case r < 0.9 && len(live) > 0:
				i := int(rng.Uint64() % uint64(len(live)))
				p := live[i]
				if err := k.Pin(p); err == nil {
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					pinned = append(pinned, p)
				}
			case len(pinned) > 0:
				i := int(rng.Uint64() % uint64(len(pinned)))
				p := pinned[i]
				pinned[i] = pinned[len(pinned)-1]
				pinned = pinned[:len(pinned)-1]
				k.Unpin(p)
				if err := k.Free(p); err != nil {
					t.Fatalf("%v: free after unpin: %v", mode, err)
				}
			}
			if step%100 == 0 {
				k.EndTick()
			}
			if step%2000 == 1999 {
				if err := k.CheckInvariants(); err != nil {
					t.Fatalf("%v: step %d: %v", mode, step, err)
				}
			}
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("%v: final: %v", mode, err)
		}
		// Linux mode crosses fault points only under memory pressure this
		// mix does not generate; Contiguitas pins and resizes constantly.
		if mode == ModeContiguitas && inj.TotalFired() == 0 {
			t.Fatalf("%v: soak never injected a fault", mode)
		}
	}
}
