package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contiguitas/internal/fault"
	"contiguitas/internal/kernel"
	"contiguitas/internal/stats"
	"contiguitas/internal/workload"
)

// propConfig is the small machine the property tests drive: big enough
// for real compaction/resize traffic, small enough to checkpoint in
// milliseconds.
func propConfig(withFaults bool, seed uint64) (kernel.Config, *fault.Injector) {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 128 << 20
	cfg.InitialUnmovableBytes = 16 << 20
	cfg.MinUnmovableBytes = 4 << 20
	cfg.MaxUnmovableBytes = 64 << 20
	cfg.HWMover = kernel.NewAnalyticMover()
	cfg.MigrateRetryLimit = 1
	cfg.LivelockCycleDeadline = 1 << 20
	cfg.Seed = seed
	inj := fault.New(seed)
	if withFaults {
		inj.Arm(fault.PointHWMover, fault.Trigger{Prob: 0.05})
		inj.Arm(fault.PointCompactCarve, fault.Trigger{Prob: 0.03})
		inj.Arm(fault.PointSWMigrate, fault.Trigger{Prob: 0.02})
		inj.Arm(fault.PointRegionResize, fault.Trigger{Prob: 0.03})
	}
	cfg.Faults = inj
	return cfg, inj
}

func propProfile() workload.Profile {
	p := workload.Web()
	p.UserFrac = 0.70
	p.PageCacheFrac = 0.08
	return p
}

func machineHash(k *kernel.Kernel, r *workload.Runner, inj *fault.Injector) uint64 {
	return HashMachine(&Machine{Kernel: k.ExportState(), Runner: r.ExportState(), Faults: inj.State()})
}

// TestEnvelopeRoundTrip proves a sealed envelope survives the disk:
// write, read, verify, restore, and land on the identical machine hash.
func TestEnvelopeRoundTrip(t *testing.T) {
	cfg, inj := propConfig(true, 21)
	k := kernel.New(cfg)
	r := workload.NewRunner(k, propProfile(), cfg.Seed+1)
	r.Run(40)

	path := filepath.Join(t.TempDir(), "snap.bin")
	cp := &Checkpointer{Path: path}
	e, err := cp.Take(k.Tick(), k, r, inj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.StateHash != e.StateHash || got.ChainHash != e.ChainHash || got.Seq != e.Seq {
		t.Fatalf("read-back envelope differs: %+v vs %+v", got, e)
	}

	k2, r2, inj2, err := restoreProp(cfg, got)
	if err != nil {
		t.Fatal(err)
	}
	if h := machineHash(k2, r2, inj2); h != e.StateHash {
		t.Fatalf("restored machine hash %016x, checkpoint %016x", h, e.StateHash)
	}
}

// restoreProp rebuilds the property-test machine from an envelope.
func restoreProp(cfg kernel.Config, e *Envelope) (*kernel.Kernel, *workload.Runner, *fault.Injector, error) {
	inj := fault.FromState(e.Machine.Faults)
	rcfg := cfg
	rcfg.Faults = inj
	k, err := kernel.Restore(rcfg, e.Machine.Kernel)
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := workload.RestoreRunner(k, propProfile(), cfg.Seed+1, e.Machine.Runner)
	if err != nil {
		return nil, nil, nil, err
	}
	return k, r, inj, nil
}

// TestCheckpointRestoreProperty is the satellite property test: for
// random workload prefixes, checkpoint → restore → run N ticks is
// state-hash-identical to the uninterrupted run, with fault injection
// active across the checkpoint boundary (and without).
func TestCheckpointRestoreProperty(t *testing.T) {
	rng := stats.NewRNG(2026)
	for trial := 0; trial < 4; trial++ {
		withFaults := trial%2 == 0
		seed := uint64(100 + trial)
		prefix := 10 + rng.Intn(40)
		suffix := uint64(25)

		cfg, inj := propConfig(withFaults, seed)
		k := kernel.New(cfg)
		r := workload.NewRunner(k, propProfile(), cfg.Seed+1)
		r.Run(uint64(prefix))

		cp := &Checkpointer{}
		e, err := cp.Take(k.Tick(), k, r, inj)
		if err != nil {
			t.Fatalf("trial %d: checkpoint: %v", trial, err)
		}

		// Golden: the same machine keeps running uninterrupted.
		r.Run(suffix)
		golden := machineHash(k, r, inj)

		// Restored: rebuilt from the checkpoint, runs the same suffix.
		k2, r2, inj2, err := restoreProp(cfg, e)
		if err != nil {
			t.Fatalf("trial %d (faults=%v, prefix=%d): restore: %v", trial, withFaults, prefix, err)
		}
		r2.Run(suffix)
		resumed := machineHash(k2, r2, inj2)

		if golden != resumed {
			t.Fatalf("trial %d (faults=%v, prefix=%d): golden %016x, resumed %016x",
				trial, withFaults, prefix, golden, resumed)
		}
	}
}

// TestChainHashLinksCheckpoints proves the chain digest depends on the
// whole checkpoint history, not just the newest state.
func TestChainHashLinksCheckpoints(t *testing.T) {
	cfg, inj := propConfig(false, 9)
	k := kernel.New(cfg)
	r := workload.NewRunner(k, propProfile(), cfg.Seed+1)

	cp := &Checkpointer{}
	var chains []uint64
	for i := 0; i < 3; i++ {
		r.Run(10)
		e, err := cp.Take(k.Tick(), k, r, inj)
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, e.ChainHash)
	}
	if chains[0] == chains[1] || chains[1] == chains[2] {
		t.Fatal("chain digest did not advance across checkpoints")
	}
	// A chain seeded differently diverges even over identical state.
	alt := &Checkpointer{}
	alt.SetChain(7, 0xdeadbeef)
	e, err := alt.Take(k.Tick(), k, r, inj)
	if err != nil {
		t.Fatal(err)
	}
	if e.ChainHash == chains[2] {
		t.Fatal("chain digest ignores its history")
	}
}

// TestReadRejectsTampering covers the decode-side validation: bad
// magic, unsupported version, and any state edit after sealing must all
// be refused.
func TestReadRejectsTampering(t *testing.T) {
	cfg, inj := propConfig(false, 13)
	k := kernel.New(cfg)
	r := workload.NewRunner(k, propProfile(), cfg.Seed+1)
	r.Run(15)

	dir := t.TempDir()
	seal := func() *Envelope {
		e := &Envelope{Seq: 0, Tick: k.Tick(), Machine: Machine{
			Kernel: k.ExportState(), Runner: r.ExportState(), Faults: inj.State(),
		}}
		e.Seal(0)
		return e
	}

	good := filepath.Join(dir, "good.bin")
	if err := Write(good, seal()); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(good); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}

	// Header edits on disk: the frame refuses them with the typed kinds.
	orig, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(b []byte)
		want error
	}{
		{"bad magic", func(b []byte) { copy(b, "NOTSNAP") }, ErrBadMagic},
		{"bad version", func(b []byte) { b[7] = 99 }, ErrBadVersion},
	} {
		b := append([]byte(nil), orig...)
		tc.edit(b)
		p := filepath.Join(dir, tc.name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(p); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v", tc.name, err)
		}
	}

	e := seal()
	e.Machine.Kernel.Tick++ // state edited after sealing
	p := filepath.Join(dir, "state.bin")
	if err := Write(p, e); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(p); !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("tampered state: got %v", err)
	}

	e = seal()
	e.ChainHash ^= 1
	p = filepath.Join(dir, "chain.bin")
	if err := Write(p, e); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(p); !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("tampered chain: got %v", err)
	}
}

// killResumeOpts is the scaled-down chaos soak the equivalence tests
// run three times each (golden, killed, resumed).
func killResumeOpts(withFaults bool) workload.ChaosOptions {
	opts := workload.DefaultChaosOptions()
	opts.MemBytes = 128 << 20
	opts.Ticks = 120
	opts.RecoveryTicks = 30
	opts.CheckEvery = 40
	if !withFaults {
		opts.MoverFaultRate = 0
		opts.CarveFaultRate = 0
		opts.SWFaultRate = 0
		opts.ResizeFaultRate = 0
	}
	return opts
}

// TestKillAndResumeEquivalence is the acceptance experiment: kill a
// fault-injected soak mid-run, resume from its last checkpoint, and
// require the final state hash and full counter set to equal an
// uninterrupted golden run's.
func TestKillAndResumeEquivalence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.snap")
	res, err := KillAndResume(killResumeOpts(true), 25, 75, path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed.Killed {
		t.Fatal("killed run did not report Killed")
	}
	if res.Checkpoint.Tick != 75 {
		t.Fatalf("resumed from tick %d, want the tick-75 checkpoint", res.Checkpoint.Tick)
	}
	if !res.Match {
		t.Fatalf("resumed run diverged: golden hash %016x counters %+v, resumed hash %016x counters %+v",
			res.Golden.FinalStateHash, res.Golden.FinalCounters,
			res.Resumed.FinalStateHash, res.Resumed.FinalCounters)
	}
}

// TestKillAndResumeEquivalenceNoFaults runs the same experiment with
// every fault point disarmed.
func TestKillAndResumeEquivalenceNoFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.snap")
	res, err := KillAndResume(killResumeOpts(false), 30, 60, path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Fatalf("faultless resumed run diverged: golden %016x, resumed %016x",
			res.Golden.FinalStateHash, res.Resumed.FinalStateHash)
	}
}

// TestKillResumeSurfacesViolations is the regression test for the
// invariant-violation exit path: a deterministic mid-soak corruption
// (a live frame pinned behind the live table's back) must surface in
// KillResumeResult.Violations so the chaos driver can exit non-zero —
// even when golden and resumed runs corrupt identically and Match
// still holds.
func TestKillResumeSurfacesViolations(t *testing.T) {
	opts := killResumeOpts(false)
	// Corrupt after the kill point: a corruption the checkpoint itself
	// captures is already refused at restore time (the envelope's state
	// fails CheckInvariants), which is a different guarantee than the
	// one under test here.
	opts.Hook = func(tick uint64, k *kernel.Kernel) {
		if tick < 70 {
			return
		}
		// Deterministic corruption: pin a live unpinned movable head
		// directly in page metadata. The live table still says unpinned,
		// so CheckInvariants must trip at the next checkpoint. Re-applied
		// each tick because workload churn can free or migrate the frame
		// (both of which restamp the metadata and erase the corruption).
		pm := k.PM()
		for pfn := k.Boundary(); pfn < pm.NPages; pfn++ {
			if pm.IsHead(pfn) && !pm.IsFree(pfn) && !pm.IsPinned(pfn) {
				pm.SetPinned(pfn, true)
				return
			}
		}
		t.Fatalf("no live movable head to corrupt at tick %d", tick)
	}
	path := filepath.Join(t.TempDir(), "chaos.snap")
	res, err := KillAndResume(opts, 30, 60, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("mid-soak corruption did not surface any violation")
	}
	for _, v := range res.Violations {
		if !strings.Contains(v, "pinned") {
			t.Fatalf("unexpected violation kind: %s", v)
		}
	}
	if len(res.Golden.Violations) == 0 || len(res.Resumed.Violations) == 0 {
		t.Fatalf("corruption must trip both completed runs: golden %d, resumed %d",
			len(res.Golden.Violations), len(res.Resumed.Violations))
	}
}
