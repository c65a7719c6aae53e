package workload

import (
	"fmt"
	"reflect"

	"contiguitas/internal/fault"
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/pressure"
	"contiguitas/internal/telemetry"
	"contiguitas/internal/trace"
)

// ChaosOptions configures a chaos soak: a service profile driven against
// a kernel whose fault points misfire at the given rates, with periodic
// invariant checkpoints and a post-fault recovery phase.
type ChaosOptions struct {
	Mode     kernel.Mode
	MemBytes uint64
	Profile  Profile
	// Seed drives both the fault schedule and the workload; the same seed
	// reproduces the same soak exactly.
	Seed uint64
	// Ticks is the faulted phase length; RecoveryTicks runs after every
	// fault point is disarmed.
	Ticks         uint64
	RecoveryTicks uint64
	// CheckEvery is the invariant-checkpoint cadence in ticks.
	CheckEvery uint64

	// Per-point fault probabilities (0 disarms the point).
	MoverFaultRate  float64
	CarveFaultRate  float64
	SWFaultRate     float64
	ResizeFaultRate float64
	// ReclaimFaultRate misfires the reclaim-makes-no-progress point,
	// which starves the throttle rung and drives allocations deeper into
	// the pressure ladder.
	ReclaimFaultRate float64

	// Pressure enables the kernel's exhaustion ladder (admission control,
	// throttling, emergency shrink, OOM killer). Nil keeps the legacy
	// fail-fast slow path.
	Pressure *pressure.Config

	// Hook, when set, runs after each tick's pulse in both the faulted
	// and recovery phases — test instrumentation (e.g. the injected
	// invariant-break regression) that must fire identically in golden
	// and resumed runs.
	Hook func(tick uint64, k *kernel.Kernel)

	// DefragEvery runs a hardware defrag pass of the unmovable region
	// every N ticks (0 disables): steady mover traffic, so mover faults
	// have something to hit. ProbeEvery requests and releases a 2 MB
	// HugeTLB pair every N ticks (0 disables), forcing direct compaction
	// — and with it the carve fault point — under fragmentation.
	DefragEvery uint64
	ProbeEvery  uint64
	// WobbleEvery alternately expands and shrinks the unmovable region by
	// one pageblock every N ticks (0 disables; ModeContiguitas only):
	// every move evacuates a range, crossing the carve fault point and
	// migrating whatever lives there.
	WobbleEvery uint64

	// Checkpoint, when set, observes every invariant checkpoint as it
	// happens (the CLI uses it for live progress lines).
	Checkpoint func(ChaosCheckpoint)

	// OnKernel, when set, is called with the freshly booted kernel before
	// the soak starts — the hook the CLI uses to attach telemetry
	// (tracer, sampler) to a kernel RunChaos creates internally. On a
	// resumed soak it receives the restored kernel instead, so telemetry
	// is re-attached fresh (rings and samplers are not checkpointed).
	OnKernel func(*kernel.Kernel)

	// SnapshotEvery, when >0, invokes OnSnapshot at the end of every
	// N-th tick — the EndTick quiesce boundary, where migrations have
	// drained and compaction's cross-tick state is serializable.
	SnapshotEvery uint64
	// OnSnapshot observes the quiesced machine at each snapshot point.
	OnSnapshot func(tick uint64, k *kernel.Kernel, r *Runner, inj *fault.Injector)

	// KillAtTick, when >0, terminates the soak right after completing
	// that tick (and its snapshot, if aligned), simulating a crash
	// mid-run. The returned report has Killed set and is partial.
	KillAtTick uint64

	// Resume, when set, continues a previous soak from restored state
	// instead of booting fresh: ticks 1..StartTick are skipped and the
	// machinery picks up at StartTick+1.
	Resume *ChaosResume
}

// ChaosResume carries the restored machine a resumed soak continues
// from. The injector must be the one wired into the kernel's config
// (kernel.Restore re-binds its clock); StartTick is how many ticks of
// the faulted phase had completed at the checkpoint.
type ChaosResume struct {
	K         *kernel.Kernel
	Runner    *Runner
	Injector  *fault.Injector
	StartTick uint64
}

// DefaultChaosOptions is the acceptance soak: a Contiguitas kernel under
// the Web profile with every fault point misfiring at a few percent.
func DefaultChaosOptions() ChaosOptions {
	// An overcommitted Web profile: demand exceeds the movable region, so
	// the free space fragments, compaction probes must evacuate live
	// movable pages, and the hardware-to-software degradation ladder sees
	// real traffic. Allocation failures under overcommit are expected and
	// reported, not errors.
	p := Web()
	p.UserFrac = 0.79
	p.PageCacheFrac = 0.09
	return ChaosOptions{
		Mode:             kernel.ModeContiguitas,
		MemBytes:         512 << 20,
		Profile:          p,
		Seed:             1,
		Ticks:            600,
		RecoveryTicks:    100,
		CheckEvery:       50,
		MoverFaultRate:   0.05,
		CarveFaultRate:   0.02,
		SWFaultRate:      0.01,
		ResizeFaultRate:  0.02,
		ReclaimFaultRate: 0.01,
		Pressure:         pressure.DefaultConfig(),
		DefragEvery:      10,
		ProbeEvery:       25,
		WobbleEvery:      15,
	}
}

// ChaosCheckpoint is one periodic invariant check during the soak.
type ChaosCheckpoint struct {
	Tick       uint64
	Events     uint64
	Robustness telemetry.Robustness
	Violation  error
}

// ChaosReport summarises a completed soak.
type ChaosReport struct {
	Ticks       uint64
	Events      uint64
	Checkpoints int
	// Violations holds every invariant failure observed (empty on a
	// healthy kernel).
	Violations []string
	// Faults is the per-point injection accounting; TotalInjected sums
	// the fired counts.
	Faults        []fault.PointStats
	TotalInjected uint64
	Robustness    telemetry.Robustness

	UnmovableAllocFailures uint64

	// Recovery evidence: with faults disarmed the kernel must still be
	// able to manufacture contiguity.
	Recovered           bool
	Huge2MAfterRecovery int
	FreeContig2MAfter   float64

	// Killed marks a soak terminated early by KillAtTick; every field
	// past the kill point is unset.
	Killed bool
	// FinalStateHash is the kernel's canonical state digest at the end
	// of the run (zero when killed) — the kill-and-resume equivalence
	// witness. FinalCounters is the full counter set at the same point,
	// compared field-by-field by the recovery CI job. OOMHistory is the
	// kernel's kill log, a third equivalence witness when the pressure
	// ladder is active.
	FinalStateHash uint64
	FinalCounters  kernel.Counters
	OOMHistory     []pressure.Kill
}

// maxViolations bounds the report; a corrupted kernel would otherwise
// fail every remaining checkpoint identically.
const maxViolations = 10

// scanEquivalence checks that the incremental Scan matches a fresh full
// scan exactly — the correctness witness for the event-driven contiguity
// accounting under chaos.
func scanEquivalence(k *kernel.Kernel) error {
	inc := k.PM().Scan(mem.ScanOrders)
	full := k.PM().ScanFull(mem.ScanOrders)
	if !reflect.DeepEqual(inc, full) {
		return fmt.Errorf("incremental scan diverged from full scan: incremental %+v, full %+v", inc, full)
	}
	return nil
}

// ChaosKernelConfig is the machine configuration RunChaos boots for the
// given options. It is exported so resume paths can rebuild the same
// machine around restored state: the snapshot fingerprint (size, mode,
// seed, HW mover) must match what the original soak booted.
func ChaosKernelConfig(opts ChaosOptions) kernel.Config {
	cfg := kernel.DefaultConfig(opts.Mode)
	cfg.MemBytes = opts.MemBytes
	cfg.InitialUnmovableBytes = opts.MemBytes / 8
	cfg.MinUnmovableBytes = 4 << 20
	cfg.MaxUnmovableBytes = opts.MemBytes / 2
	cfg.HWMover = kernel.NewAnalyticMover()
	// Chaos runs with a tight retry budget: exhaustion — and with it the
	// fallback and deferral ladders — must actually occur at realistic
	// fault rates, not only in the p^4 tail.
	cfg.MigrateRetryLimit = 1
	cfg.Seed = opts.Seed
	cfg.Pressure = opts.Pressure
	return cfg
}

// ArmChaosFaults arms the soak's fault points on an injector at the
// configured rates.
func ArmChaosFaults(inj *fault.Injector, opts ChaosOptions) {
	arm := func(point string, rate float64) {
		if rate > 0 {
			inj.Arm(point, fault.Trigger{Prob: rate})
		}
	}
	arm(fault.PointHWMover, opts.MoverFaultRate)
	arm(fault.PointCompactCarve, opts.CarveFaultRate)
	arm(fault.PointSWMigrate, opts.SWFaultRate)
	arm(fault.PointRegionResize, opts.ResizeFaultRate)
	arm(fault.PointReclaimProgress, opts.ReclaimFaultRate)
}

// RunChaos drives one full chaos soak and reports the outcome. The soak
// is deterministic in ChaosOptions: fault schedules and workload churn
// both derive from the seed. A resumed soak (opts.Resume) continues a
// checkpointed one and reaches the same final kernel state hash as an
// uninterrupted run; only event counts differ (the count restarts at
// resume).
func RunChaos(opts ChaosOptions) (*ChaosReport, error) {
	if opts.Ticks == 0 {
		return nil, fmt.Errorf("chaos: zero-tick soak")
	}
	if opts.CheckEvery == 0 {
		opts.CheckEvery = 50
	}

	var (
		k         *kernel.Kernel
		inj       *fault.Injector
		startTick uint64
	)
	if opts.Resume != nil {
		if opts.Resume.K == nil || opts.Resume.Runner == nil || opts.Resume.Injector == nil {
			return nil, fmt.Errorf("chaos: resume requires kernel, runner, and injector")
		}
		k, inj, startTick = opts.Resume.K, opts.Resume.Injector, opts.Resume.StartTick
	} else {
		cfg := ChaosKernelConfig(opts)
		inj = fault.New(opts.Seed)
		ArmChaosFaults(inj, opts)
		cfg.Faults = inj
		k = kernel.New(cfg)
	}
	if opts.OnKernel != nil {
		opts.OnKernel(k)
	}

	// Count every event a recorded trace would hold: the public
	// records on the kernel's tracepoint tap, plus the ticks elapsed.
	var public uint64
	trace.Tap(k, func(trace.Event, uint64) { public++ })
	tick0 := k.Tick()
	events := func() uint64 { return public + k.Tick() - tick0 }

	var r *Runner
	if opts.Resume != nil {
		r = opts.Resume.Runner
	} else {
		r = NewRunner(k, opts.Profile, opts.Seed+1)
	}
	rep := &ChaosReport{}

	checkpoint := func(tick uint64) {
		rep.Checkpoints++
		var verr error
		if len(rep.Violations) < maxViolations {
			verr = k.CheckInvariants()
			if verr == nil {
				// Scan-equivalence oracle: the incremental contiguity
				// accounting must agree exactly with a from-scratch sweep,
				// including in whatever state the injected faults left.
				verr = scanEquivalence(k)
			}
			if verr != nil {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("tick %d: %v", tick, verr))
			}
		}
		if opts.Checkpoint != nil {
			opts.Checkpoint(ChaosCheckpoint{
				Tick:       tick,
				Events:     events(),
				Robustness: telemetry.SnapshotRobustness(k.Metrics()),
				Violation:  verr,
			})
		}
	}

	// pulse injects deterministic mover and compaction traffic on top of
	// the profile, so every armed fault point sees regular crossings.
	pulse := func(tick uint64) {
		if opts.DefragEvery > 0 && tick%opts.DefragEvery == 0 {
			k.DefragUnmovable()
		}
		if opts.ProbeEvery > 0 && tick%opts.ProbeEvery == 0 {
			huge := k.AllocHugeTLB(mem.Order2M, 2)
			k.FreeHugeTLB(&huge)
		}
		if opts.WobbleEvery > 0 && opts.Mode == kernel.ModeContiguitas &&
			tick%opts.WobbleEvery == 0 {
			if (tick/opts.WobbleEvery)%2 == 0 {
				k.ShrinkUnmovable(mem.PageblockPages)
			} else {
				k.ExpandUnmovable(mem.PageblockPages)
			}
		}
	}

	for tick := startTick + 1; tick <= opts.Ticks; tick++ {
		r.Step()
		pulse(tick)
		if opts.Hook != nil {
			opts.Hook(tick, k)
		}
		if tick%opts.CheckEvery == 0 || tick == opts.Ticks {
			checkpoint(tick)
		}
		// Snapshots and the simulated crash both happen at the end of
		// the tick body — the EndTick quiesce boundary — so a resumed
		// run re-enters the loop at exactly the state the golden run
		// carried into the next iteration.
		if opts.SnapshotEvery > 0 && opts.OnSnapshot != nil && tick%opts.SnapshotEvery == 0 {
			opts.OnSnapshot(tick, k, r, inj)
		}
		if opts.KillAtTick > 0 && tick >= opts.KillAtTick {
			rep.Killed = true
			rep.Ticks = tick
			rep.Events = events()
			return rep, nil
		}
	}

	// Recovery phase: lift every fault and let the deferred work drain.
	inj.DisarmAll()
	for tick := uint64(1); tick <= opts.RecoveryTicks; tick++ {
		r.Step()
		pulse(opts.Ticks + tick)
		if opts.Hook != nil {
			opts.Hook(opts.Ticks+tick, k)
		}
	}
	checkpoint(opts.Ticks + opts.RecoveryTicks)

	// The recovered kernel must still manufacture contiguity on demand.
	huge := k.AllocHugeTLB(mem.Order2M, 4)
	rep.Huge2MAfterRecovery = huge.Allocated
	k.FreeHugeTLB(&huge)

	scan := k.PM().Scan([]int{mem.Order2M})
	rep.FreeContig2MAfter = scan.FreeContigFraction(mem.Order2M)

	rep.Ticks = opts.Ticks + opts.RecoveryTicks
	rep.Events = events()
	rep.Faults = inj.Snapshot()
	rep.TotalInjected = inj.TotalFired()
	rep.Robustness = telemetry.SnapshotRobustness(k.Metrics())
	rep.UnmovableAllocFailures = r.UnmovableAllocFailures
	rep.Recovered = len(rep.Violations) == 0 && rep.Huge2MAfterRecovery > 0
	rep.FinalStateHash = k.StateHash()
	rep.FinalCounters = k.Counters
	rep.OOMHistory = k.OOMHistory()
	return rep, nil
}
