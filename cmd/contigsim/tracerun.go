package main

import (
	"fmt"
	"os"

	"contiguitas/internal/cli"
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/psi"
	"contiguitas/internal/telemetry"
	"contiguitas/internal/workload"
)

// traceRun drives one fully instrumented kernel (restored from -resume
// when set) to the end tick, checkpointing it every -checkpoint-every
// ticks, and exports every telemetry artifact: a Perfetto-loadable
// Chrome trace with distinct migration/compaction/resize tracks, the
// per-tick metrics JSONL, an optional greppable text timeline, and the
// Fig. 13-style migration latency histograms printed to stdout. The
// telemetry ring restarts on resume; only simulator state is
// checkpointed.
func traceRun(run *cli.Run, mode kernel.Mode, memBytes, ticks, seed uint64) error {
	cfg := kernel.DefaultConfig(mode)
	cfg.MemBytes = memBytes
	cfg.InitialUnmovableBytes = memBytes / 8
	cfg.MinUnmovableBytes = memBytes / 32
	cfg.MaxUnmovableBytes = memBytes / 2
	cfg.HWMover = kernel.NewAnalyticMover()
	cfg.Seed = seed
	if err := cfg.Validate(); err != nil {
		cli.Usagef("contigsim: -mem %d: %v", memBytes>>30, err)
	}

	// The chaos soak's overcommitted Web profile: enough pressure that
	// reclaim, compaction, and the migration ladder all see traffic.
	p := workload.Web()
	p.UserFrac = 0.79
	p.PageCacheFrac = 0.09

	k, r, err := run.Boot(cfg, p, seed)
	if err != nil {
		return err
	}
	run.Instrument(k, 1<<16, int(ticks)+1)
	// Deterministic pulses keep every timeline track populated: the
	// HugeTLB probe forces direct compaction, the defrag pass drives the
	// hardware mover.
	err = run.Loop(k, r, ticks, func(tick uint64) {
		if tick%25 == 0 {
			huge := k.AllocHugeTLB(mem.Order2M, 2)
			k.FreeHugeTLB(&huge)
		}
		if mode == kernel.ModeContiguitas && tick%50 == 49 {
			k.DefragUnmovable()
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("== traced run: %s, %d MiB, %d ticks ==\n", mode, memBytes>>20, ticks)
	if err := run.Finish(ticks); err != nil {
		return err
	}

	fmt.Println("\n-- per-tick stall/latency breakdown --")
	w := table()
	c := k.Counters
	fmt.Fprintf(w, "ticks\t%d\n", k.Tick())
	fmt.Fprintf(w, "allocations\t%d ok, %d failed\n", c.AllocOK, c.AllocFail)
	fmt.Fprintf(w, "direct reclaims\t%d (%.3f/tick)\n", c.DirectReclaim, float64(c.DirectReclaim)/float64(k.Tick()))
	fmt.Fprintf(w, "compaction\t%d runs, %d success, %d deferred\n", c.CompactRuns, c.CompactSuccess, c.CompactDeferred)
	fmt.Fprintf(w, "sw migrations\t%d (%d cycles total)\n", c.SWMigrations, c.SWMigrationCycles)
	fmt.Fprintf(w, "hw migrations\t%d (%d cycles total)\n", c.HWMigrations, c.HWMigrationCycles)
	fmt.Fprintf(w, "psi unmovable\t%.2f%% (lifetime stall %.1f ticks)\n",
		k.PSI().Pressure(psi.RegionUnmovable), k.PSI().Snapshot(psi.RegionUnmovable).TotalStall)
	fmt.Fprintf(w, "psi movable\t%.2f%% (lifetime stall %.1f ticks)\n",
		k.PSI().Pressure(psi.RegionMovable), k.PSI().Snapshot(psi.RegionMovable).TotalStall)
	w.Flush()

	fmt.Println("\n-- migration latency histograms (Fig. 13 style) --")
	return telemetry.WriteHistograms(os.Stdout, k.Metrics(), "cycles")
}
