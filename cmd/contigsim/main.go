// Command contigsim regenerates the paper's evaluation figures and
// tables from the simulators. Each experiment is addressed by the id
// the paper uses:
//
//	contigsim -exp fig2            # memory capacity vs TLB coverage
//	contigsim -exp fig3            # page-walk cycle percentages
//	contigsim -exp fig10           # end-to-end performance
//	contigsim -exp fig11           # unmovable 2MB blocks
//	contigsim -exp fig12           # potential contiguity
//	contigsim -exp fig13           # page-unavailable cycles
//	contigsim -exp sec52           # unmovable-region internal fragmentation
//	contigsim -exp sec53           # migration-rate impact + sizing
//	contigsim -exp tab1            # architectural parameters
//	contigsim -exp all             # everything
//
// Scale flags (-mem, -ticks, -seed) trade fidelity for runtime; the
// defaults are the simulation scale recorded in EXPERIMENTS.md.
//
// -trace replaces the experiment run with one fully instrumented kernel
// run and exports its telemetry:
//
//	contigsim -trace -trace-out results/run.json   # Perfetto-loadable
//
// alongside a per-tick metrics JSONL (-metrics-out), an optional text
// timeline (-timeline-out), and the Fig. 13-style migration-latency
// histograms on stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"contiguitas"
	"contiguitas/internal/cli"
	"contiguitas/internal/core"
	"contiguitas/internal/hw"
	"contiguitas/internal/mem"
	"contiguitas/internal/resize"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig2|fig3|fig10|fig11|fig12|fig13|sec52|sec53|tab1|ablations|all)")
	memGB := flag.Uint64("mem", 8, "simulated machine memory in GiB")
	ticks := flag.Uint64("ticks", 400, "workload warmup ticks")
	seed := flag.Uint64("seed", 42, "simulation seed")
	trace := flag.Bool("trace", false, "run one instrumented kernel and export telemetry instead of -exp")
	tr := cli.TraceRunFlags(flag.CommandLine, "results/trace.json", "results/metrics.jsonl", "results/trace.snap")
	timelineOut := flag.String("timeline-out", "", "greppable text timeline output path (with -trace; empty disables)")
	traceMode := flag.String("trace-mode", "contiguitas", "kernel mode for the traced run (linux|contiguitas)")
	sweep := flag.Bool("pressure-sweep", false, "ramp footprint past machine capacity and verify graceful degradation instead of -exp")
	sweepMemMB := flag.Uint64("sweep-mem", 512, "pressure-sweep machine memory in MiB")
	sweepTicks := flag.Uint64("sweep-ticks", 600, "pressure-sweep length in ticks")
	sweepPeak := flag.Float64("sweep-peak", 2.0, "pressure-sweep peak demand as a multiple of machine memory")
	observe := cli.ObserveFlags(flag.CommandLine, true)
	cli.Parse(flag.CommandLine, os.Args[1:])
	if !*trace {
		tr.Untraced("contigsim")
	}

	handle, stop := observe.Start()
	defer stop()

	if *sweep {
		// The sweep is a verification run: its error means the pressure
		// ladder failed to degrade gracefully.
		if err := pressureSweep(*sweepMemMB<<20, *sweepTicks, *sweepPeak, *seed); err != nil {
			cli.Verifyf("contigsim: %v", err)
		}
		return
	}

	if *trace {
		design, err := core.ParseDesign(*traceMode)
		if err != nil {
			cli.Usagef("contigsim: -trace-mode: %v", err)
		}
		run := tr.Start("contigsim", handle)
		run.Timeline = *timelineOut
		if err := traceRun(run, design.Mode(), *memGB<<30, *ticks, *seed); err != nil {
			cli.Runtimef("contigsim: %v", err)
		}
		return
	}

	cfg := contiguitas.DefaultExpConfig()
	cfg.MemBytes = *memGB << 30
	// The experiments boot both designs; Contiguitas' machine is the
	// stricter of the two.
	if err := (core.MachineConfig{Design: core.DesignContiguitas, MemBytes: cfg.MemBytes}).KernelConfig().Validate(); err != nil {
		cli.Usagef("contigsim: -mem %d: %v", *memGB, err)
	}
	cfg.WarmupTicks = *ticks
	cfg.Seed = *seed

	run := map[string]func(){
		"fig2":      fig2,
		"fig3":      fig3,
		"fig10":     func() { fig10(cfg) },
		"fig11":     func() { fig11(cfg) },
		"fig12":     func() { fig12(cfg) },
		"fig13":     fig13,
		"sec52":     func() { fig11(cfg) }, // §5.2 is printed with Figure 11
		"sec53":     sec53,
		"tab1":      tab1,
		"ablations": func() { ablations(cfg) },
	}
	if *exp == "all" {
		for _, id := range []string{"tab1", "fig2", "fig3", "fig13", "sec53", "fig11", "fig12", "fig10", "ablations"} {
			run[id]()
		}
		return
	}
	f, ok := run[*exp]
	if !ok {
		cli.Usagef("contigsim: unknown experiment %q", *exp)
	}
	f()
}

func table() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func fig2() {
	fmt.Println("\n== Figure 2: memory capacity vs TLB coverage across generations ==")
	w := table()
	fmt.Fprintln(w, "gen\trel capacity\tTLB 4KB\tTLB 2MB\tTLB 1GB")
	for _, r := range contiguitas.Fig2() {
		fmt.Fprintf(w, "%s\t%.0fx\t%.3f%%\t%.1f%%\t%.0f%%\n",
			r.Name, r.RelCapacity, r.Coverage4K*100, r.Coverage2M*100, r.Coverage1G*100)
	}
	w.Flush()
}

func fig3() {
	fmt.Println("\n== Figure 3: page-walk cycles (% of total cycles) ==")
	w := table()
	fmt.Fprintln(w, "service\tpages\tdata%\tinstr%\ttotal%")
	for _, r := range contiguitas.Fig3() {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.1f\n",
			r.Service, r.PageSize, r.DataPct, r.InstrPct, r.DataPct+r.InstrPct)
	}
	w.Flush()
}

func fig10(cfg contiguitas.ExpConfig) {
	fmt.Println("\n== Figure 10: end-to-end performance (relative to Linux-Full) ==")
	w := table()
	fmt.Fprintln(w, "service\tlinux-full\tlinux-partial\tcontiguitas\tgain vs full\tgain vs partial\t1GB share\t1GB pages")
	for _, r := range contiguitas.Fig10(cfg) {
		full := 1.0
		partial := r.GainOverFull / r.GainOverPartial
		cont := r.GainOverFull
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t+%.1f%%\t+%.1f%%\t+%.1f%%\t%d\n",
			r.Service, full, partial, cont,
			(r.GainOverFull-1)*100, (r.GainOverPartial-1)*100, (r.Gain1G-1)*100,
			r.Huge1GPages)
	}
	w.Flush()
	fmt.Println("paper: Web +18% (full) / +9% (partial), 7.5% from 1GB pages; gains of 2-9% partial and 7-18% full across services")
}

func fig11(cfg contiguitas.ExpConfig) {
	fmt.Println("\n== Figure 11: unmovable 2MB pages (% of memory) + §5.2 internal fragmentation ==")
	w := table()
	fmt.Fprintln(w, "service\tlinux\tcontiguitas\tfree inside unmovable 2MB blocks")
	var lSum, cSum float64
	rows := contiguitas.Fig11(cfg)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.1f%%\n", r.Service, r.LinuxPct, r.ContiguitasPct, r.InternalFragFree*100)
		lSum += r.LinuxPct
		cSum += r.ContiguitasPct
	}
	w.Flush()
	fmt.Printf("average: linux %.1f%% vs contiguitas %.1f%% (paper: 31%% vs 7%%; §5.2 free-inside ~22%%)\n",
		lSum/float64(len(rows)), cSum/float64(len(rows)))
}

func fig12(cfg contiguitas.ExpConfig) {
	fmt.Println("\n== Figure 12: potential contiguity after perfect compaction (% of memory) ==")
	w := table()
	fmt.Fprintln(w, "service\torder\tlinux\tcontiguitas")
	name := map[int]string{mem.Order2M: "2M", mem.Order32M: "32M", mem.Order1G: "1G"}
	for _, r := range contiguitas.Fig12(cfg) {
		fmt.Fprintf(w, "%s\t%s\t%.1f%%\t%.1f%%\n", r.Service, name[r.Order], r.Linux, r.Contig)
	}
	w.Flush()
}

func fig13() {
	fmt.Println("\n== Figure 13: page-unavailable cycles during migration ==")
	w := table()
	fmt.Fprintln(w, "victim cores\tlinux-real\tlinux-sim\tsim/real\tcontiguitas")
	for _, p := range contiguitas.Fig13() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%+.1f%%\t%d\n",
			p.Victims, p.LinuxReal, p.LinuxSim,
			(float64(p.LinuxSim)/float64(p.LinuxReal)-1)*100, p.Contiguitas)
	}
	w.Flush()
	fmt.Println("paper: linear scaling for Linux, ~constant local invalidation for Contiguitas; sim within -6%..+10% of real")
}

func sec53() {
	fmt.Println("\n== §5.3: migration-rate impact on request serving ==")
	w := table()
	fmt.Fprintln(w, "app\tmode\trate/s\trequests\tthroughput loss")
	for _, r := range contiguitas.Sec53(4_000_000) {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%d\t%.2f%%\n", r.App, r.Mode, r.Rate, r.Requests, r.LossPct)
	}
	w.Flush()
	fmt.Printf("memcached gain with 2MB pages: +%.1f%% (paper: ~7%%)\n",
		(contiguitas.MemcachedHugePageGain()-1)*100)

	s := contiguitas.Sizing()
	fmt.Println("\n== §5.3: Contiguitas-HW sizing & hardware cost ==")
	fmt.Printf("invalidation window: %.0f us; 4KB copy: %.0f us; per-entry rate: %.0f migrations/s\n",
		s.InvalidationWindowUs, s.CopyUs, s.MigrationsPerSecPerEntry)
	fmt.Printf("metadata table: %d entries/slice; area %.4f mm^2; %.4f nJ/access; leakage %.2f mW; %.3f%% of core\n",
		s.Entries, s.Area.AreaMM2(), s.Area.EnergyNJPerAccess(), s.Area.LeakageMW(),
		s.Area.FractionOfCore()*100)
}

func tab1() {
	p := hw.DefaultParams()
	fmt.Println("== Table 1: architectural parameters ==")
	w := table()
	fmt.Fprintf(w, "multicore chip\t%d 4-issue OoO cores, %d-entry ROB, %.0fGHz\n", p.Cores, p.ROBSize, p.ClockGHz)
	fmt.Fprintf(w, "L1 cache\t%dKB, %d-way, %d cycles RT\n", p.L1SizeKB, p.L1Ways, p.L1Latency)
	fmt.Fprintf(w, "L1 TLB\t%d entries, %d-way, %d cycles RT\n", p.L1TLBEntries, p.L1TLBWays, p.L1TLBLatency)
	fmt.Fprintf(w, "L2 TLB\t%d entries, %d-way, %d cycles RT\n", p.L2TLBEntries, p.L2TLBWays, p.L2TLBLatency)
	fmt.Fprintf(w, "page walk cache\t%d levels, %d entries/level, FA, %d cycles\n", p.PWCLevels, p.PWCEntries, p.PWCLatency)
	fmt.Fprintf(w, "L2 cache\t%dKB, %d-way, %d cycles RT\n", p.L2SizeKB, p.L2Ways, p.L2Latency)
	fmt.Fprintf(w, "L3 cache\t%dMB slice, %d-way, %d cycles RT\n", p.L3SliceKB/1024, p.L3Ways, p.L3Latency)
	fmt.Fprintf(w, "Contiguitas-HW\t%d entries, FA, %d cycle\n", p.ContigEntries, p.ContigLatency)
	fmt.Fprintf(w, "main memory\t%dGB, DDR4 3200, %d banks\n", p.MemGB, p.DRAMBanks)
	fmt.Fprintf(w, "INVLPG cost\t%d cycles (pipeline flush)\n", p.INVLPGCycles)
	w.Flush()
}

func ablations(cfg contiguitas.ExpConfig) {
	fmt.Println("\n== Ablations (DESIGN.md §5) ==")

	fmt.Println("\n-- placement bias (§3.2): long-lived allocations away from the boundary --")
	w := table()
	fmt.Fprintln(w, "bias\tshrinks\tshrink failures\tfinal unmovable region")
	for _, r := range core.AblationPlacementBias(cfg) {
		fmt.Fprintf(w, "%v\t%d\t%d\t%d MiB\n", r.Bias, r.Shrinks, r.ShrinkFails, r.FinalUnmovBytes>>20)
	}
	w.Flush()

	fmt.Println("\n-- fallback stealing: the Linux scatter mechanism --")
	w = table()
	fmt.Fprintln(w, "stealing\tunmovable 2MB blocks\tunmov alloc failures\tsteals (convert/pollute)")
	for _, r := range core.AblationFallbackStealing(cfg) {
		fmt.Fprintf(w, "%v\t%.1f%%\t%d\t%d/%d\n", r.Stealing, r.UnmovBlockPct, r.AllocFailures, r.StealsConvert, r.StealsPollute)
	}
	w.Flush()

	fmt.Println("\n-- Algorithm 1 coefficients: waste vs pressure --")
	coeffs := []resize.Coefficients{
		resize.DefaultCoefficients,
		{UnmovExpand: 0.5, MovExpand: 0.1, UnmovShrink: 0.001, MovShrink: 0.002},
		{UnmovExpand: 0.02, MovExpand: 0.005, UnmovShrink: 0.1, MovShrink: 0.2},
	}
	w = table()
	fmt.Fprintln(w, "c_ue/c_me/c_us/c_ms\tmean unmovable region\tunmov alloc failures\tmovable pressure")
	for _, r := range core.AblationResizeCoefficients(cfg, coeffs) {
		fmt.Fprintf(w, "%.3f/%.3f/%.3f/%.3f\t%d MiB\t%d\t%.2f%%\n",
			r.Coeff.UnmovExpand, r.Coeff.MovExpand, r.Coeff.UnmovShrink, r.Coeff.MovShrink,
			r.MeanUnmovBytes>>20, r.UnmovFailures, r.MovPressure)
	}
	w.Flush()

	fmt.Println("\n-- metadata-table capacity: concurrent migrations admitted (burst of 32) --")
	w = table()
	fmt.Fprintln(w, "entries/slice\taccepted\trejected (table full)")
	for _, r := range core.AblationTableEntries([]int{1, 4, 8, 16, 32, 64}, 32) {
		fmt.Fprintf(w, "%d\t%d\t%d\n", r.Entries, r.Accepted, r.RejectedFull)
	}
	w.Flush()

	fmt.Println("\n-- copy orchestration across LLC slices --")
	w = table()
	fmt.Fprintln(w, "orchestration\t4KB copy cycles")
	for _, r := range core.AblationSliceParallelism() {
		name := "chained handoff (paper)"
		if r.Parallel {
			name = "parallel slices"
		}
		fmt.Fprintf(w, "%s\t%d\n", name, r.Cycles)
	}
	w.Flush()
}
