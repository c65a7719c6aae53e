package cli

import (
	"errors"
	"flag"
	"fmt"

	"contiguitas/internal/fault"
	"contiguitas/internal/kernel"
	"contiguitas/internal/obsv"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/telemetry"
	"contiguitas/internal/workload"
)

// TraceRun is the traced-run flag group: -trace-out and -metrics-out
// on every command that exports a traced kernel's telemetry, plus
// -checkpoint-every, -checkpoint-out and -resume on the ones that
// checkpoint it.
type TraceRun struct {
	TraceOut, MetricsOut  string
	CheckpointEvery       uint64
	CheckpointOut, Resume string
}

// TraceRunFlags registers the group on fs with the command's default
// output paths. An empty checkpointOut leaves the checkpoint flags off.
func TraceRunFlags(fs *flag.FlagSet, traceOut, metricsOut, checkpointOut string) *TraceRun {
	f := &TraceRun{}
	fs.StringVar(&f.TraceOut, "trace-out", traceOut, "Chrome trace_event output path of the traced kernel (empty disables)")
	fs.StringVar(&f.MetricsOut, "metrics-out", metricsOut, "per-tick metrics JSONL output path of the traced kernel (empty disables)")
	if checkpointOut != "" {
		fs.Uint64Var(&f.CheckpointEvery, "checkpoint-every", 0, "take a crash-consistent checkpoint of the machine every N ticks (0 disables)")
		fs.StringVar(&f.CheckpointOut, "checkpoint-out", checkpointOut, "rolling checkpoint path (with -checkpoint-every)")
		fs.StringVar(&f.Resume, "resume", "", "resume the run from this checkpoint file")
	}
	return f
}

// Untraced exits CodeUsage when a checkpoint flag is set on a run that
// steps no traced kernel: the flag would be ignored, and an ignored
// -resume reads as "resumed fine".
func (f *TraceRun) Untraced(cmd string) {
	if f.CheckpointEvery > 0 {
		Usagef("%s: -checkpoint-every needs -trace", cmd)
	}
	if f.Resume != "" {
		Usagef("%s: -resume needs -trace", cmd)
	}
}

// Run is one traced kernel run: the -resume checkpoint it continues
// from, the checkpoint chain it extends, and once Instrument has run,
// the kernel's tracepoint ring, sampler and -serve publisher.
type Run struct {
	flags  *TraceRun
	handle *obsv.Handle
	// Resumed is the -resume checkpoint (nil for a fresh run).
	Resumed *snapshot.Envelope
	// Timeline, when set, is a text timeline artifact Finish also writes.
	Timeline string

	cp      snapshot.Checkpointer
	cpErr   error
	ring    *telemetry.Ring
	sampler *telemetry.Sampler
	pub     *telemetry.Publisher
}

// Start begins a run whose publisher goes to h (nil without -serve). It
// reads the -resume checkpoint, if any, seeds the checkpoint chain from
// it so later checkpoints extend the original chain, and prints the
// resume line. A missing or unreadable file exits CodeRuntime; a file
// that fails any integrity check (seal frame, state hash or chain)
// exits CodeVerify.
func (f *TraceRun) Start(cmd string, h *obsv.Handle) *Run {
	run := &Run{flags: f, handle: h, cp: snapshot.Checkpointer{Path: f.CheckpointOut}}
	if f.Resume == "" {
		return run
	}
	e, err := snapshot.Read(f.Resume)
	switch {
	case errors.Is(err, snapshot.ErrHashMismatch):
		Verifyf("%s: %v", cmd, err)
	case err != nil:
		Runtimef("%s: %v", cmd, err)
	}
	run.cp.SetChain(e.Seq+1, e.ChainHash)
	run.Resumed = e
	fmt.Printf("resumed from %s: seq=%d tick=%d state=%016x chain=%016x\n",
		f.Resume, e.Seq, e.Tick, e.StateHash, e.ChainHash)
	return run
}

// startTick is the tick the run continues from: the resumed
// checkpoint's, else 0.
func (run *Run) startTick() uint64 {
	if run.Resumed == nil {
		return 0
	}
	return run.Resumed.Tick
}

// Boot returns the run's kernel and workload runner: restored from the
// -resume checkpoint when there is one (cfg, p and seed must describe
// the machine it was taken on; kernel.Restore checks the fingerprint),
// booted fresh from cfg otherwise.
func (run *Run) Boot(cfg kernel.Config, p workload.Profile, seed uint64) (*kernel.Kernel, *workload.Runner, error) {
	e := run.Resumed
	if e == nil {
		k := kernel.New(cfg)
		return k, workload.NewRunner(k, p, seed), nil
	}
	k, err := kernel.Restore(cfg, e.Machine.Kernel)
	if err != nil {
		return nil, nil, fmt.Errorf("resume: %w", err)
	}
	r, err := workload.RestoreRunner(k, p, seed, e.Machine.Runner)
	if err != nil {
		return nil, nil, fmt.Errorf("resume: %w", err)
	}
	return k, r, nil
}

// Instrument attaches a tracepoint ring of ringCap records, a sampler
// of rows rows and the -serve publisher to k, and publishes a baseline
// snapshot at the start tick.
func (run *Run) Instrument(k *kernel.Kernel, ringCap, rows int) {
	run.ring = telemetry.NewRing(ringCap)
	k.SetTracer(run.ring)
	run.sampler = k.AttachSampler(rows)
	run.pub = run.handle.Attach(k.Metrics(), run.ring)
	run.pub.Publish(run.startTick())
}

// Pump publishes a /metrics snapshot at tick if a scrape asked for one.
// The kernel's driving goroutine calls it at tick boundaries.
func (run *Run) Pump(tick uint64) { run.pub.Pump(tick) }

// Checkpoint seals the machine as of tick into the run's chain and
// replaces the -checkpoint-out file. r and inj may be nil. The first
// failure is kept: Loop stops on it, Finish reports it.
func (run *Run) Checkpoint(tick uint64, k *kernel.Kernel, r *workload.Runner, inj *fault.Injector) {
	if _, err := run.cp.Take(tick, k, r, inj); err != nil && run.cpErr == nil {
		run.cpErr = fmt.Errorf("checkpoint: %w", err)
	}
}

// Loop steps r from the start tick to end. Each tick steps the
// workload, pumps the publisher, runs pulse (nil for none) and, every
// -checkpoint-every ticks, checkpoints the machine at the end-of-tick
// quiesce boundary (as tick+1).
func (run *Run) Loop(k *kernel.Kernel, r *workload.Runner, end uint64, pulse func(tick uint64)) error {
	every := run.flags.CheckpointEvery
	for tick := run.startTick(); tick < end; tick++ {
		r.Step()
		run.Pump(tick)
		if pulse != nil {
			pulse(tick)
		}
		if every > 0 && (tick+1)%every == 0 {
			run.Checkpoint(tick+1, k, r, nil)
			if run.cpErr != nil {
				return run.cpErr
			}
		}
	}
	return nil
}

// Finish publishes the final snapshot at tick, writes the -trace-out,
// -metrics-out and Timeline artifacts (each attempted even when a
// sibling fails; an empty path skips one), and prints a line per
// artifact written and one for the last checkpoint taken.
func (run *Run) Finish(tick uint64) error {
	run.pub.Publish(tick)
	f := run.flags
	if err := telemetry.ExportAll(
		telemetry.ChromeTraceArtifact(f.TraceOut, run.ring, run.sampler),
		telemetry.MetricsJSONLArtifact(f.MetricsOut, run.sampler),
		telemetry.TimelineArtifact(run.Timeline, run.ring),
	); err != nil {
		return fmt.Errorf("telemetry export: %w", err)
	}
	if f.TraceOut != "" {
		fmt.Printf("trace:    %s (%d events, %d overwritten, ring cap %d)\n",
			f.TraceOut, run.ring.Len(), run.ring.Overwritten(), run.ring.Cap())
	}
	if f.MetricsOut != "" {
		fmt.Printf("metrics:  %s (%d rows)\n", f.MetricsOut, run.sampler.Len())
	}
	if run.Timeline != "" {
		fmt.Printf("timeline: %s\n", run.Timeline)
	}
	if run.cpErr != nil {
		return run.cpErr
	}
	if last := run.cp.Last(); last != nil {
		fmt.Printf("last snapshot: %s seq=%d tick=%d state=%016x chain=%016x\n",
			f.CheckpointOut, last.Seq, last.Tick, last.StateHash, last.ChainHash)
	}
	return nil
}
