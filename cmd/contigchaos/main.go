// Command contigchaos soaks the simulated kernel under deterministic
// fault injection: a service profile runs while the hardware mover, the
// software migrator, compaction carves, and the resizer misfire at the
// given rates. The kernel must absorb every fault — retrying, degrading
// to software migration, deferring, requeueing — with its full invariant
// set holding at every checkpoint, and must still manufacture 2 MB
// contiguity once the faults lift.
//
//	contigchaos                              # default acceptance soak
//	contigchaos -mem 1024 -ticks 2000        # bigger machine, longer soak
//	contigchaos -fault-rate 0.10 -seed 7     # harsher schedule
//	contigchaos -trace                       # + Chrome trace & metrics JSONL
//	contigchaos -checkpoint-every 50 \
//	            -checkpoint-out results/chaos.snap   # rolling checkpoints
//	contigchaos -resume results/chaos.snap   # continue a killed soak
//	contigchaos -kill-resume -kill-at 300    # kill/resume equivalence proof
//
// -kill-resume runs its own soaks from tick 0 and traces none of them,
// so it refuses -resume, -trace, -trace-out and -metrics-out (exit 1).
// The process exits non-zero if any invariant checkpoint fails, the
// kernel cannot recover contiguity after the faults are disarmed, or (in
// -kill-resume mode) the resumed run does not land on exactly the golden
// run's final state hash and counters.
package main

import (
	"flag"
	"fmt"
	"os"

	"contiguitas/internal/cli"
	"contiguitas/internal/core"
	"contiguitas/internal/kernel"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/workload"
)

func main() {
	memMB := flag.Uint64("mem", 512, "simulated machine memory in MiB")
	mode := flag.String("mode", "contiguitas", "kernel mode (linux|contiguitas)")
	profile := flag.String("profile", "web", "service profile (web|cachea|cacheb|ci)")
	ticks := flag.Uint64("ticks", 600, "faulted soak length in ticks")
	recovery := flag.Uint64("recovery", 100, "post-fault recovery ticks (the overcommitted web profile needs ~120 to drain; shorter runs may fail the recovery gate)")
	checkEvery := flag.Uint64("check-every", 50, "invariant checkpoint cadence in ticks")
	faultRate := flag.Float64("fault-rate", 0.20, "mover fault probability; other points scale from it")
	seed := flag.Uint64("seed", 1, "soak seed (faults and workload)")
	trace := flag.Bool("trace", false, "attach telemetry to the soaked kernel and export it on exit")
	tr := cli.TraceRunFlags(flag.CommandLine, "results/chaos-trace.json", "results/chaos-metrics.jsonl", "results/chaos.snap")
	killResume := flag.Bool("kill-resume", false, "run the kill-and-resume equivalence experiment instead of a single soak")
	killAt := flag.Uint64("kill-at", 0, "tick to kill the soak at in -kill-resume mode (0 = mid-soak)")
	pressureOn := flag.Bool("pressure", true, "enable the memory-pressure ladder (admission control, throttling, emergency shrink, OOM killer)")
	observe := cli.ObserveFlags(flag.CommandLine, false)
	cli.Parse(flag.CommandLine, os.Args[1:])
	if *killResume {
		// The experiment runs its own three soaks from tick 0 and traces
		// none of them: an ignored -resume reads as "resumed fine", an
		// ignored -trace-out as a trace that was written.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "resume", "trace", "trace-out", "metrics-out":
				cli.Usagef("contigchaos: -%s cannot be combined with -kill-resume", f.Name)
			}
		})
	}

	handle, stop := observe.Start()
	defer stop()

	opts := workload.DefaultChaosOptions()
	opts.MemBytes = *memMB << 20
	opts.Ticks = *ticks
	opts.RecoveryTicks = *recovery
	opts.CheckEvery = *checkEvery
	opts.Seed = *seed
	opts.MoverFaultRate = *faultRate
	opts.CarveFaultRate = *faultRate / 2
	opts.SWFaultRate = *faultRate / 4
	opts.ResizeFaultRate = *faultRate / 2
	opts.ReclaimFaultRate = *faultRate / 4
	if !*pressureOn {
		opts.Pressure = nil
		opts.ReclaimFaultRate = 0
	}

	design, err := core.ParseDesign(*mode)
	if err != nil {
		cli.Usagef("contigchaos: -mode: %v", err)
	}
	opts.Mode = design.Mode()
	p, err := workload.ProfileByName(*profile)
	if err != nil {
		cli.Usagef("contigchaos: %v", err)
	}
	if *profile != "web" {
		// DefaultChaosOptions already carries the pressured Web profile.
		opts.Profile = p
	}
	if err := workload.ChaosKernelConfig(opts).Validate(); err != nil {
		cli.Usagef("contigchaos: -mem %d: %v", *memMB, err)
	}

	if *killResume {
		runKillResume(opts, tr.CheckpointEvery, *killAt, tr.CheckpointOut)
		return
	}

	fmt.Printf("chaos soak: mode=%s profile=%s mem=%dMiB ticks=%d+%d seed=%d mover-fault=%.2f%%\n",
		*mode, opts.Profile.Name, *memMB, opts.Ticks, opts.RecoveryTicks,
		opts.Seed, opts.MoverFaultRate*100)

	// -serve alone streams the soaked kernel's ring without writing the
	// artifacts.
	if !*trace {
		tr.TraceOut, tr.MetricsOut = "", ""
	}
	run := tr.Start("contigchaos", handle)

	// The writer-side pump: the checkpoint callback runs on the soak's
	// driving goroutine every -check-every ticks, which is exactly the
	// boundary a /metrics scrape may publish at.
	opts.Checkpoint = func(ck workload.ChaosCheckpoint) {
		run.Pump(ck.Tick)
		status := "ok"
		if ck.Violation != nil {
			status = "VIOLATION: " + ck.Violation.Error()
		}
		fmt.Printf("  tick %6d  events %9d  %s  [%s]\n",
			ck.Tick, ck.Events, ck.Robustness, status)
	}
	// With -trace or -serve, instrument the soak's kernel via the
	// OnKernel hook (on resume the hook sees the restored kernel).
	if *trace || handle != nil {
		opts.OnKernel = func(k *kernel.Kernel) {
			run.Instrument(k, 1<<16, int(opts.Ticks+opts.RecoveryTicks)+1)
		}
	}
	// Rolling checkpoints: every -checkpoint-every ticks the full machine
	// (kernel, runner, injector) is sealed into the hash chain and the
	// file at -checkpoint-out is atomically replaced.
	opts.SnapshotEvery, opts.OnSnapshot = tr.CheckpointEvery, run.Checkpoint

	var rep *workload.ChaosReport
	if run.Resumed != nil {
		rep, err = snapshot.ResumeChaos(opts, run.Resumed)
	} else {
		rep, err = workload.RunChaos(opts)
	}
	if err != nil {
		cli.Runtimef("contigchaos: %v", err)
	}
	if err := run.Finish(rep.Ticks); err != nil {
		cli.Runtimef("contigchaos: %v", err)
	}

	fmt.Printf("\nsoak complete: %d ticks, %d events, %d checkpoints\n",
		rep.Ticks, rep.Events, rep.Checkpoints)
	fmt.Printf("final state hash: %016x\n", rep.FinalStateHash)
	fmt.Println("injected faults:")
	for _, ps := range rep.Faults {
		fmt.Printf("  %-24s hits=%-8d fired=%d\n", ps.Name, ps.Hits, ps.Fired)
	}
	fmt.Printf("failure handling: %s\n", rep.Robustness)
	fmt.Printf("unmovable alloc failures: %d\n", rep.UnmovableAllocFailures)
	fmt.Printf("recovery: 2MB HugeTLB allocated=%d free-2MB-contig=%.1f%%\n",
		rep.Huge2MAfterRecovery, rep.FreeContig2MAfter*100)

	if len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "contigchaos: %d invariant violation(s):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		cli.Exit(cli.CodeVerify)
	}
	if !rep.Recovered {
		cli.Verifyf("contigchaos: kernel failed to recover contiguity after faults lifted")
	}
	fmt.Println("PASS: invariants held at every checkpoint; contiguity recovered")
}

// runKillResume drives the three-run equivalence experiment: golden
// (uninterrupted, no checkpoints), killed (checkpointing, crashed at
// -kill-at), and resumed (restored from the killed run's last on-disk
// checkpoint). The resumed run must finish on exactly the golden run's
// final state hash and counters.
func runKillResume(opts workload.ChaosOptions, every, killAt uint64, path string) {
	if every == 0 {
		every = 50
	}
	if killAt == 0 {
		killAt = opts.Ticks / 2
	}
	fmt.Printf("kill-and-resume: profile=%s mem=%dMiB ticks=%d+%d seed=%d checkpoint-every=%d kill-at=%d\n",
		opts.Profile.Name, opts.MemBytes>>20, opts.Ticks, opts.RecoveryTicks, opts.Seed, every, killAt)

	res, err := snapshot.KillAndResume(opts, every, killAt, path)
	if err != nil {
		cli.Runtimef("contigchaos: kill-resume: %v", err)
	}
	fmt.Printf("  golden : %d ticks, final state %016x\n", res.Golden.Ticks, res.Golden.FinalStateHash)
	fmt.Printf("  killed : %d ticks (killed=%v), last checkpoint seq=%d tick=%d\n",
		res.Killed.Ticks, res.Killed.Killed, res.Checkpoint.Seq, res.Checkpoint.Tick)
	fmt.Printf("  resumed: %d ticks, final state %016x\n", res.Resumed.Ticks, res.Resumed.FinalStateHash)
	if !res.Match {
		fmt.Fprintf(os.Stderr, "contigchaos: FAIL: resumed run diverged from golden\n")
		fmt.Fprintf(os.Stderr, "  golden counters : %+v\n", res.Golden.FinalCounters)
		fmt.Fprintf(os.Stderr, "  resumed counters: %+v\n", res.Resumed.FinalCounters)
		cli.Exit(cli.CodeVerify)
	}
	// Equivalence proven but the state itself may be bad: a mid-soak
	// invariant break reproduces identically in golden and resumed runs,
	// and identical corruption is still corruption.
	if len(res.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "contigchaos: FAIL: %d invariant violation(s) during kill-resume:\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		cli.Exit(cli.CodeVerify)
	}
	if n := len(res.Golden.OOMHistory); n > 0 {
		fmt.Printf("  oom kills reproduced: %d\n", n)
	}
	fmt.Println("PASS: resumed state hash and counters identical to uninterrupted golden run")
}
