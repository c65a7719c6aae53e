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
	case *record != "":
		p, err := workload.ProfileByName(strings.ToLower(*profile))
		if err != nil {
			cli.Usagef("contigtrace: %v", err)
		}
		if err := doRecord(*record, p, *memMB<<20, *ticks, *seed); err != nil {
			cli.Runtimef("contigtrace: %v", err)
		}
	case *replay != "":
		d, err := core.ParseDesign(strings.ToLower(*design))
		if err != nil {
			cli.Usagef("contigtrace: %v", err)
		}
		instrument := tr.TraceOut != "" || tr.MetricsOut != "" || handle != nil
		if err := doReplay(tr.Start("contigtrace", handle), instrument, *replay, d, *design, *memMB<<20); err != nil {
			cli.Runtimef("contigtrace: %v", err)
		}
	default:
		flag.Usage()
		os.Exit(cli.CodeUsage)
	}
}

func newKernel(d core.Design, memBytes uint64) *kernel.Kernel {
	mc := core.DefaultMachineConfig(d)
	mc.MemBytes = memBytes
	return core.NewMachine(mc).K
}

// doRecord attaches a trace recorder to a kernel's event sink and runs
// the real workload generator against it, so the captured trace is the
// authentic allocation stream of the profile.
func doRecord(path string, p workload.Profile, memBytes, ticks, seed uint64) error {
	k := newKernel(core.DesignContiguitas, memBytes)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	rec := trace.Attach(k, w)
	r := workload.NewRunner(k, p, seed)
	r.Run(ticks)
	if rec.Err() != nil {
		return rec.Err()
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %d events over %d ticks of %s to %s\n",
		w.Events(), ticks, p.Name, path)
	return nil
}

// doReplay replays the trace at path on a fresh d machine; name is the
// design as the user spelled it, for the summary line.
func doReplay(run *cli.Run, instrument bool, path string, d core.Design, name string, memBytes uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	k := newKernel(d, memBytes)
	// Instrument the replayed kernel on request: the same recorded
	// allocation stream then yields a per-design timeline and metric
	// series, making cross-design comparisons visual. -serve forces the
	// instrumentation on so the plane has something to stream.
	if instrument {
		run.Instrument(k, 1<<15, 1<<12)
	}
	st, err := trace.Replay(k, r)
	if err != nil {
		return err
	}
	if err := run.Finish(st.Ticks); err != nil {
		return err
	}
	scan := k.PM().Scan(mem.ScanOrders)
	fmt.Printf("replayed %d events (%d ticks, %d failed allocations) on %s\n",
		st.Events, st.Ticks, st.AllocFailed, name)
	fmt.Printf("unmovable 2MB blocks: %.1f%% of memory\n",
		scan.UnmovableBlockFraction(mem.Order2M)*100)
	fmt.Printf("free 2MB contiguity:  %.1f%% of free memory\n",
		scan.FreeContigFraction(mem.Order2M)*100)
	fmt.Printf("potential 32MB:       %.1f%% of memory\n",
		scan.PotentialFraction(mem.Order32M)*100)
	return nil
}
