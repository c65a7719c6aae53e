// Command contigtrace records allocation traces from the workload
// generators and replays them against either memory-management design.
// A trace captured once replays bit-identically, which makes cross-
// design comparisons exact: the same allocation stream, two layouts.
//
//	contigtrace -record trace.bin -profile web -ticks 200  # capture
//	contigtrace -replay trace.bin -design linux            # replay
//	contigtrace -replay trace.bin -design contiguitas
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"contiguitas/internal/cli"
	"contiguitas/internal/core"
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/trace"
	"contiguitas/internal/workload"
)

func main() {
	record := flag.String("record", "", "record a trace to this file")
	replay := flag.String("replay", "", "replay a trace from this file")
	profile := flag.String("profile", "web", "profile to record (web|cachea|cacheb|ci)")
	design := flag.String("design", "contiguitas", "design to replay against (linux|contiguitas)")
	memMB := flag.Uint64("mem", 512, "machine memory in MiB")
	ticks := flag.Uint64("ticks", 200, "ticks to record")
	seed := flag.Uint64("seed", 1, "seed")
	tr := cli.TraceRunFlags(flag.CommandLine, "", "", "")
	observe := cli.ObserveFlags(flag.CommandLine, false)
	cli.Parse(flag.CommandLine, os.Args[1:])

	handle, stop := observe.Start()
	defer stop()

	switch {
	case *record != "" && *replay != "":
		cli.Usagef("contigtrace: -record and -replay cannot be combined")
	case *record != "":
		// A recording kernel exports no telemetry: an ignored
		// -trace-out reads as a trace that was written.
		if tr.TraceOut != "" || tr.MetricsOut != "" {
			cli.Usagef("contigtrace: -trace-out and -metrics-out need -replay")
		}
		name := strings.ToLower(*profile)
		p, err := workload.ProfileByName(name)
		if err != nil {
			cli.Usagef("contigtrace: %v", err)
		}
		k := newKernel(core.DesignContiguitas, *memMB)
		if err := doRecord(k, *record, name, p, *ticks, *seed); err != nil {
			cli.Runtimef("contigtrace: %v", err)
		}
	case *replay != "":
		d, err := core.ParseDesign(strings.ToLower(*design))
		if err != nil {
			cli.Usagef("contigtrace: %v", err)
		}
		k := newKernel(d, *memMB)
		// The trace is verified whole before the kernel sees any of it,
		// with the rule -resume applies to a snapshot.
		t, err := trace.ReadFile(*replay)
		switch {
		case errors.Is(err, trace.ErrCorrupt):
			cli.Verifyf("contigtrace: %v", err)
		case err != nil:
			cli.Runtimef("contigtrace: %v", err)
		}
		instrument := tr.TraceOut != "" || tr.MetricsOut != "" || handle != nil
		if err := doReplay(tr.Start("contigtrace", handle), instrument, t, k, *design); err != nil {
			cli.Runtimef("contigtrace: %v", err)
		}
	default:
		flag.Usage()
		cli.Exit(cli.CodeUsage)
	}
}

// newKernel boots a d machine of memMB MiB, exiting CodeUsage when the
// kernel cannot boot one that size.
func newKernel(d core.Design, memMB uint64) *kernel.Kernel {
	mc := core.DefaultMachineConfig(d)
	mc.MemBytes = memMB << 20
	if err := mc.KernelConfig().Validate(); err != nil {
		cli.Usagef("contigtrace: -mem %d on %s: %v", memMB, d, err)
	}
	return core.NewMachine(mc).K
}

// doRecord taps k's tracepoints with a trace recorder and runs the real
// workload generator against it, so the captured trace is the authentic
// allocation stream of the profile.
func doRecord(k *kernel.Kernel, path, name string, p workload.Profile, ticks, seed uint64) error {
	rec := trace.Attach(k)
	workload.NewRunner(k, p, seed).Run(ticks)
	t := rec.Trace()
	t.Profile, t.Seed = name, seed
	if err := t.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("recorded %d events over %d ticks of %s to %s\n",
		len(t.Events), ticks, p.Name, path)
	return nil
}

// doReplay replays t on the fresh machine k; name is the design as the
// user spelled it, for the summary line.
func doReplay(run *cli.Run, instrument bool, t *trace.Trace, k *kernel.Kernel, name string) error {
	// Instrument the replayed kernel on request: the same recorded
	// allocation stream then yields a per-design timeline and metric
	// series, making cross-design comparisons visual. -serve forces the
	// instrumentation on so the plane has something to stream.
	if instrument {
		run.Instrument(k, 1<<15, 1<<12)
	}
	failed := trace.Replay(k, t)
	if err := run.Finish(t.Ticks); err != nil {
		return err
	}
	scan := k.PM().Scan(mem.ScanOrders)
	fmt.Printf("replayed %d events (%d ticks, %d failed allocations) on %s\n",
		len(t.Events), t.Ticks, failed, name)
	fmt.Printf("unmovable 2MB blocks: %.1f%% of memory\n",
		scan.UnmovableBlockFraction(mem.Order2M)*100)
	fmt.Printf("free 2MB contiguity:  %.1f%% of free memory\n",
		scan.FreeContigFraction(mem.Order2M)*100)
	fmt.Printf("potential 32MB:       %.1f%% of memory\n",
		scan.PotentialFraction(mem.Order32M)*100)
	return nil
}
