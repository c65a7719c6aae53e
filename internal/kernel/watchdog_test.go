package kernel

import (
	"errors"
	"testing"

	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/telemetry"
)

// TestWatchdogTripsOnPerpetualRetry forces the software-migration retry
// ladder into a livelock (every attempt aborted, an effectively
// unbounded retry budget) and requires the watchdog to abandon it: a
// typed ErrLivelock within the configured cycle deadline, a counted
// trip, and an EvLivelock tracepoint on the recovery track.
func TestWatchdogTripsOnPerpetualRetry(t *testing.T) {
	cfg := DefaultConfig(ModeContiguitas)
	cfg.MemBytes = 64 << 20
	cfg.InitialUnmovableBytes = 8 << 20
	cfg.MinUnmovableBytes = 4 << 20
	cfg.MaxUnmovableBytes = 32 << 20
	// A retry budget the test would never exhaust: without the
	// watchdog, the ladder below would retry 1<<20 times.
	cfg.MigrateRetryLimit = 1 << 20
	cfg.MigrateBackoffCycles = 2000
	cfg.LivelockCycleDeadline = 50_000

	inj := fault.New(3)
	inj.Arm(fault.PointSWMigrate, fault.Trigger{Prob: 1.0})
	cfg.Faults = inj

	k := New(cfg)
	ring := telemetry.NewRing(1024)
	k.SetTracer(ring)

	// Pin of a movable page software-migrates it into the unmovable
	// region — the migration that will now never succeed.
	p, err := k.Alloc(0, mem.MigrateMovable, mem.SrcUser)
	if err != nil {
		t.Fatal(err)
	}
	err = k.Pin(p)
	if err == nil {
		t.Fatal("pin succeeded despite a 100% migration fault rate")
	}
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("pin failed with %v, want ErrLivelock", err)
	}
	if k.LivelockTrips == 0 {
		t.Fatal("watchdog tripped but LivelockTrips is zero")
	}
	// The ladder must have been cut off near the deadline, not run to
	// the retry limit: total backoff burned stays within one deadline
	// plus the final (largest) backoff step.
	if k.MigrationRetries >= uint64(cfg.MigrateRetryLimit) {
		t.Fatalf("retry ladder ran to its limit (%d retries); watchdog did not bound it", k.MigrationRetries)
	}
	if k.BackoffCycles > 2*cfg.LivelockCycleDeadline {
		t.Fatalf("burned %d backoff cycles, deadline %d — not cut off within a deadline",
			k.BackoffCycles, cfg.LivelockCycleDeadline)
	}

	found := false
	for _, rec := range ring.Snapshot(nil) {
		if rec.ID == telemetry.EvLivelock {
			found = true
			if rec.B < cfg.LivelockCycleDeadline {
				t.Fatalf("EvLivelock reports %d stalled cycles, below the %d deadline", rec.B, cfg.LivelockCycleDeadline)
			}
			if rec.C != cfg.LivelockCycleDeadline {
				t.Fatalf("EvLivelock reports deadline %d, configured %d", rec.C, cfg.LivelockCycleDeadline)
			}
		}
	}
	if !found {
		t.Fatal("no EvLivelock tracepoint emitted")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatalf("invariants after livelock escalation: %v", err)
	}
}

// TestWatchdogEscalatesCompaction drives the compaction requeue loop
// with carve faults firing every time: requeue churn must trip the
// watchdog, drop the retry queue, and slam the defer window shut
// instead of bouncing targets forever.
func TestWatchdogEscalatesCompaction(t *testing.T) {
	cfg := DefaultConfig(ModeLinux)
	cfg.MemBytes = 64 << 20
	cfg.LivelockCycleDeadline = 100_000
	inj := fault.New(5)
	inj.Arm(fault.PointCompactCarve, fault.Trigger{Prob: 1.0})
	cfg.Faults = inj

	k := New(cfg)
	ring := telemetry.NewRing(4096)
	k.SetTracer(ring)

	// Fragment movable memory so compaction has real work: fill with
	// base pages, free every other one.
	var pages []Page
	for {
		p, err := k.Alloc(0, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		pages = append(pages, p)
	}
	for i := 0; i < len(pages); i += 2 {
		if err := k.Free(pages[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Direct compaction requests: every successful evacuation ends in a
	// faulted carve, requeueing the target. The watchdog must cut the
	// loop instead of letting the queue churn forever.
	for i := 0; i < 40 && k.LivelockTrips == 0; i++ {
		huge := k.AllocHugeTLB(mem.Order2M, 1)
		k.FreeHugeTLB(&huge)
		k.EndTick()
	}
	if k.LivelockTrips == 0 {
		t.Fatal("compaction requeue churn never tripped the watchdog")
	}
	if k.CompactRequeues == 0 {
		t.Fatal("test exercised no requeues — scenario broken")
	}
	found := false
	for _, rec := range ring.Snapshot(nil) {
		if rec.ID == telemetry.EvLivelock {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no EvLivelock tracepoint emitted")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatalf("invariants after compaction escalation: %v", err)
	}
}
