package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"contiguitas/internal/fault"
	"contiguitas/internal/kernel"
	"contiguitas/internal/trace"
)

// traceRun drives a fixed workload against a Contiguitas kernel and
// returns the recorded trace bytes plus the kernel for counter checks.
// The frames the events name are left out: placement is internal, and
// faults may move it. With faulty set, the mover and the software
// migrator misfire; the machine is sized so no allocation outcome
// depends on it.
func traceRun(t *testing.T, seed uint64, faulty bool) ([]byte, *kernel.Kernel) {
	t.Helper()
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 128 * mb
	cfg.InitialUnmovableBytes = 16 * mb
	cfg.MinUnmovableBytes = 4 * mb
	cfg.MaxUnmovableBytes = 64 * mb
	cfg.HWMover = kernel.NewAnalyticMover()
	inj := fault.New(seed)
	if faulty {
		inj.Arm(fault.PointHWMover, fault.Trigger{Prob: 0.3})
		inj.Arm(fault.PointSWMigrate, fault.Trigger{Prob: 0.05})
		inj.Arm(fault.PointRegionResize, fault.Trigger{Prob: 0.1})
	}
	cfg.Faults = inj
	k := kernel.New(cfg)

	rec := trace.Attach(k)

	// A light profile: ample headroom on both sides of the boundary, so
	// every allocation succeeds whether or not migrations misfire.
	p := Web()
	p.UserFrac = 0.30
	p.SmallUserFrac = 0.08
	p.PageCacheFrac = 0.04
	p.UnmovableFrac = 0.04
	r := NewRunner(k, p, seed)
	r.Run(150)

	// The byte-identity guarantee holds only while allocation outcomes
	// are fault-independent; a failed allocation would invalidate the
	// premise, not the property.
	if k.AllocFail != 0 || r.UnmovableAllocFailures != 0 {
		t.Fatalf("machine too small for the determinism premise: allocfail=%d unmovfail=%d",
			k.AllocFail, r.UnmovableAllocFailures)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	for i := range tr.Events {
		tr.Events[i].PFN = 0
	}
	path := filepath.Join(t.TempDir(), "t.ctgtrac")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, k
}

// TestTraceDeterministicUnderFaults is the determinism regression: the
// trace records the workload's public behaviour, so the same seed must
// produce byte-identical traces with faults off, with faults on, and
// across repeated faulty runs — fault handling may change internal
// placement, never externally visible behaviour.
func TestTraceDeterministicUnderFaults(t *testing.T) {
	clean, _ := traceRun(t, 42, false)
	faulty1, k1 := traceRun(t, 42, true)
	faulty2, _ := traceRun(t, 42, true)

	if !bytes.Equal(faulty1, faulty2) {
		t.Fatal("same seed, same faults: traces differ")
	}
	if !bytes.Equal(clean, faulty1) {
		t.Fatal("injected faults leaked into the public event stream")
	}
	// The faulty run must actually have exercised the failure paths —
	// otherwise the comparison is vacuous.
	if k1.MigrationRetries == 0 && k1.SWFallbacks == 0 && k1.ResizeAborts == 0 {
		t.Fatal("faulty run never hit a fault point")
	}
	// And a different seed must change the trace (the format is not
	// degenerate).
	other, _ := traceRun(t, 43, false)
	if bytes.Equal(clean, other) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestRunChaosSoak is a scaled-down acceptance soak: faults at a few
// percent, invariants clean at every checkpoint, failure paths exercised,
// and contiguity recoverable after the faults lift.
func TestRunChaosSoak(t *testing.T) {
	opts := DefaultChaosOptions()
	opts.MemBytes = 128 * mb
	opts.Ticks = 200
	opts.RecoveryTicks = 50
	opts.CheckEvery = 25
	var checkpoints int
	opts.Checkpoint = func(ck ChaosCheckpoint) { checkpoints++ }

	rep, err := RunChaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations: %v", rep.Violations)
	}
	if rep.TotalInjected == 0 {
		t.Fatal("soak injected no faults")
	}
	if rep.Robustness.Value("migration_retries") == 0 {
		t.Fatal("soak never exercised the retry path")
	}
	if !rep.Recovered {
		t.Fatalf("kernel did not recover: huge2m=%d violations=%d",
			rep.Huge2MAfterRecovery, len(rep.Violations))
	}
	if rep.Events == 0 {
		t.Fatal("event accounting missing")
	}
	if checkpoints != rep.Checkpoints || checkpoints == 0 {
		t.Fatalf("checkpoint callback mismatch: %d vs %d", checkpoints, rep.Checkpoints)
	}
}

// TestRunChaosDeterministic: the same options reproduce the same soak.
func TestRunChaosDeterministic(t *testing.T) {
	opts := DefaultChaosOptions()
	opts.MemBytes = 128 * mb
	opts.Ticks = 120
	opts.RecoveryTicks = 30
	a, err := RunChaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events || a.TotalInjected != b.TotalInjected ||
		!a.Robustness.Equal(b.Robustness) {
		t.Fatalf("soak not reproducible:\n  a: events=%d injected=%d %v\n  b: events=%d injected=%d %v",
			a.Events, a.TotalInjected, a.Robustness,
			b.Events, b.TotalInjected, b.Robustness)
	}
}
