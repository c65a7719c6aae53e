// Command fleetscan runs the paper's §2 fleet study: it samples many
// simulated servers running randomized workload mixes for randomized
// uptimes, scans each server's physical memory, and prints
//
//   - Figure 4: the CDF of free-memory contiguity at 2MB/4MB/32MB/1GB,
//   - Figure 5: the CDF of unmovable blocks at the same granularities,
//   - Figure 6: the breakdown of unmovable allocations by source, and
//   - the §2.4 uptime-versus-contiguity correlation.
//
// The study runs as a supervised sharded campaign (internal/supervise):
//
//	fleetscan -soak -kill-every 3            # kill-heavy determinism gate
//	fleetscan -soak -state-dir d -kill-after 5   # die mid-campaign...
//	fleetscan -soak -resume d                    # ...and finish from disk
//
// -soak injects shard kills and checkpoint-write failures, then fails
// (exit 2) unless the supervised study is byte-identical to an unfaulted
// same-seed run with zero quarantined shards.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"text/tabwriter"

	"contiguitas"
	"contiguitas/internal/cli"
	"contiguitas/internal/core"
	"contiguitas/internal/fleet"
	"contiguitas/internal/mem"
	"contiguitas/internal/obsv"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
	"contiguitas/internal/supervise"
	"contiguitas/internal/telemetry"
	"contiguitas/internal/workload"
)

func main() {
	servers := flag.Int("servers", 200, "number of servers to sample")
	memMB := flag.Uint64("mem", 1024, "server memory in MiB")
	minTicks := flag.Uint64("min-uptime", 60, "minimum uptime in ticks")
	maxTicks := flag.Uint64("max-uptime", 600, "maximum uptime in ticks")
	seed := flag.Uint64("seed", 1, "study seed")
	design := flag.String("design", "linux", "memory-management design (linux|contiguitas)")
	shards := flag.Int("shards", 0, "supervised campaign shards (0 picks the default for -servers)")
	trace := flag.Bool("trace", false, "also run one instrumented representative server and export its telemetry")
	tr := cli.TraceRunFlags(flag.CommandLine, "results/fleet-trace.json", "results/fleet-metrics.jsonl", "results/fleet.snap")
	flag.Lookup("resume").Usage = "resume path: a representative-server snapshot with -trace, or a campaign state directory with -soak"
	soak := flag.Bool("soak", false, "run the kill-heavy supervision soak instead of printing the study")
	stateDir := flag.String("state-dir", "", "campaign state directory for -soak (manifest + shard checkpoints; empty keeps state in memory)")
	killEvery := flag.Uint64("kill-every", 3, "with -soak, kill a shard on every Nth server it completes (>= 2; 0 disables)")
	ckptFailProb := flag.Float64("ckpt-fail-prob", 0.2, "with -soak, probability an injected fault fails a shard checkpoint write")
	killAfter := flag.Uint64("kill-after", 0, "with -soak, exit the whole process after this many shard crashes (0 disables; resume with -soak -resume <dir>)")
	minKills := flag.Uint64("min-kills", 5, "with -soak, fail unless at least this many shard kills were injected")
	sweep := flag.Bool("sweep", false, "run the design/mem/jitter cross-product grid instead of one study")
	sweepDesigns := flag.String("sweep-designs", "linux,contiguitas", "comma-separated designs for -sweep")
	sweepMems := flag.String("sweep-mems", "512,1024", "comma-separated server memory sizes in MiB for -sweep")
	sweepJitters := flag.String("sweep-jitters", "0,0.2", "comma-separated jitter fractions for -sweep")
	sweepOut := flag.String("sweep-out", "", "write the canonical sweep results file here (byte-identical across warm/cold runs)")
	cacheDir := flag.String("cache-dir", "", "content-addressed shard result cache directory (empty disables)")
	noCache := flag.Bool("no-cache", false, "ignore -cache-dir and run uncached")
	observe := cli.ObserveFlags(flag.CommandLine, true)
	cli.Parse(flag.CommandLine, os.Args[1:])

	// Each mode replaces the others' output, so asking for two is a
	// mistake, not a priority order to resolve silently.
	var modes []string
	if *sweep {
		modes = append(modes, "-sweep")
	}
	if *soak {
		modes = append(modes, "-soak")
	}
	if *trace {
		modes = append(modes, "-trace")
	}
	if len(modes) > 1 {
		cli.Usagef("fleetscan: %s and %s cannot be combined", modes[0], modes[1])
	}
	if tr.Resume != "" && !*soak && !*trace {
		// A -resume with nothing to resume into must not silently run a
		// fresh study — that reads as "resumed fine" to the caller.
		cli.Usagef("fleetscan: -resume needs -soak (campaign state directory) or -trace (representative-server snapshot)")
	}
	// Under -soak, -resume names a campaign state directory, not a
	// snapshot of the traced server.
	var soakResume string
	if *soak {
		soakResume, tr.Resume = tr.Resume, ""
	}
	if !*trace {
		tr.Untraced("fleetscan")
	}

	// A sweep runs -sweep-designs, but -design is still a named flag: a
	// name no design answers to is refused under every mode.
	if _, err := core.ParseDesign(*design); err != nil {
		cli.Usagef("fleetscan: %v", err)
	}

	// Every mode is a campaign spec, held to contigd's admission rules:
	// the study and the soak are one cell, a sweep is the grid. The spec
	// is not normalized, so -seed 0 and -min-uptime 0 mean what they say.
	spec := service.Spec{
		Servers:  *servers,
		Designs:  []string{*design},
		MemsMiB:  []uint64{*memMB},
		Jitters:  []float64{fleet.DefaultConfig().JitterFrac},
		TicksMin: *minTicks,
		TicksMax: *maxTicks,
		Seed:     *seed,
		Shards:   *shards,
	}
	if *sweep {
		spec.Designs = splitCSV(*sweepDesigns, "-sweep-designs")
		spec.MemsMiB = parseMems(*sweepMems)
		spec.Jitters = parseJitters(*sweepJitters)
	}
	if err := spec.Validate(); err != nil {
		cli.Usagef("fleetscan: %v", err)
	}
	if *soak && *killEvery == 1 {
		cli.Usagef("fleetscan: -kill-every must be >= 2 (a shard killed on every server can never progress)")
	}

	var stop func()
	obsvHandle, stop = observe.Start()
	defer stop()
	obsvReg = telemetry.NewRegistry()
	obsvPub = obsvHandle.Attach(obsvReg, nil)
	// Baseline snapshot so /metrics answers before the first campaign
	// event (the registry is still owned by this goroutine here).
	obsvPub.Publish(0)
	// Read a -resume snapshot before the study runs, so a bad one fails
	// fast.
	var run *cli.Run
	if *trace {
		run = tr.Start("fleetscan", obsvHandle)
	}

	// The shard result cache: plain runs and sweeps share it; -no-cache
	// wins over -cache-dir so scripts can flip one switch for A/B runs.
	var cache resultcache.Cache
	if *cacheDir != "" && !*noCache {
		cache = resultcache.NewDir(*cacheDir, fleet.CacheSchemaVersion)
	}

	if *sweep {
		runSweep(spec, *sweepOut, cache)
		return
	}
	cfg, err := spec.FleetConfig(spec.Cells()[0])
	if err != nil {
		cli.Usagef("fleetscan: %v", err)
	}
	if *soak {
		runSoak(cfg, soakOptions{
			dir:          *stateDir,
			resumeDir:    soakResume,
			killEvery:    *killEvery,
			ckptFailProb: *ckptFailProb,
			killAfter:    *killAfter,
			minKills:     *minKills,
		})
		return
	}

	fmt.Printf("scanning %d servers of %d MiB (%s design)...\n", cfg.Servers, *memMB, *design)
	res := runCampaign("study", cfg, cache)
	s := res.Study
	if cache != nil {
		fmt.Println(cacheSummary(res.CacheHits, res.CacheMisses, res.CacheRejects))
	} else {
		// State the cache mode explicitly so a -no-cache run is
		// unambiguous next to a cached run's hits/misses line.
		fmt.Println("cache: disabled")
	}

	if run != nil {
		if err := traceRepresentative(run, cfg, *maxTicks); err != nil {
			cli.Runtimef("fleetscan: %v", err)
		}
	}

	orders := []int{mem.Order2M, mem.Order4M, mem.Order32M, mem.Order1G}
	names := map[int]string{mem.Order2M: "2MB", mem.Order4M: "4MB", mem.Order32M: "32MB", mem.Order1G: "1GB"}

	fmt.Println("\n== Figure 4: CDF of servers vs contiguity (fraction of free memory) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "contig >=\t")
	for _, o := range orders {
		fmt.Fprintf(w, "%s\t", names[o])
	}
	fmt.Fprintln(w)
	for _, x := range []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30} {
		fmt.Fprintf(w, "%.0f%%\t", x*100)
		for _, o := range orders {
			// CDF of servers whose contiguity is at most x.
			fmt.Fprintf(w, "%.2f\t", s.ContigCDF(o).At(x))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Printf("servers with zero 2MB contiguity: %.0f%% (paper: 23%%)\n", s.NoContigFraction(mem.Order2M)*100)
	fmt.Printf("servers with zero 1GB contiguity: %.0f%% (paper: ~100%%)\n", s.NoContigFraction(mem.Order1G)*100)

	fmt.Println("\n== Figure 5: CDF of servers vs unmovable blocks (fraction of memory) ==")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "unmovable <=\t")
	for _, o := range orders {
		fmt.Fprintf(w, "%s\t", names[o])
	}
	fmt.Fprintln(w)
	for _, x := range []float64{0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0} {
		fmt.Fprintf(w, "%.0f%%\t", x*100)
		for _, o := range orders {
			fmt.Fprintf(w, "%.2f\t", s.UnmovCDF(o).At(x))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Printf("median unmovable 2MB blocks: %.0f%% of memory (paper: 34%%)\n",
		s.MedianUnmovBlockFrac(mem.Order2M)*100)
	fmt.Printf("median unmovable 4KB frames: %.1f%% of memory (paper: 7.6%%)\n",
		s.MedianUnmovFrameFrac()*100)

	fmt.Println("\n== Figure 6: sources of unmovable allocations ==")
	src := s.SourceBreakdown()
	for _, c := range []mem.Source{mem.SrcNetworking, mem.SrcSlab, mem.SrcFilesystem, mem.SrcPageTable, mem.SrcOther} {
		fmt.Printf("  %-12s %5.1f%%\n", c, src[c]*100)
	}
	fmt.Println("paper: networking 73%, slab 12%, filesystems, page tables, others ~4%")

	fmt.Printf("\n== §2.4: uptime vs free 2MB blocks: Pearson r = %+.4f (paper: 0.00286) ==\n",
		s.UptimeCorrelation())

	fmt.Println("\n== §2.4: a young server's first 'hour' (fresh boot, Cache A) ==")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ticks\tfree 2MB contiguity\tunmovable 2MB blocks")
	tsCfg := cfg
	tsCfg.Seed = cfg.Seed + 99
	for _, pt := range contiguitas.YoungServerSeries(tsCfg, contiguitas.CacheA(), 6, 20) {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\n", pt.Tick, pt.FreeContig2M, pt.UnmovBlock2M)
	}
	w.Flush()
	fmt.Println("paper: servers can get highly fragmented within the first hour of running workloads")
}

// traceRepresentative boots one server with the study's design and
// memory size (restored from -resume when set), runs it for the study's
// maximum uptime under the Web profile with full telemetry attached and
// exports its Chrome trace and per-tick metrics JSONL. The fleet study
// itself stays uninstrumented — its servers are too many and too
// short-lived for a per-server timeline to mean anything.
func traceRepresentative(run *cli.Run, cfg contiguitas.FleetConfig, ticks uint64) error {
	mc := core.DefaultMachineConfig(cfg.Design)
	mc.MemBytes = cfg.MemBytes
	mc.Seed = cfg.Seed
	k, r, err := run.Boot(mc.KernelConfig(), workload.Web(), cfg.Seed)
	if err != nil {
		return err
	}
	run.Instrument(k, 1<<15, int(ticks)+1)
	if err := run.Loop(k, r, ticks, nil); err != nil {
		return err
	}
	return run.Finish(ticks)
}

// The -serve plane (nil when the flag is off). Every campaign records
// its supervision metrics into obsvReg, which /metrics publishes through
// obsvPub; obsvSeq stamps the snapshots, since fleet campaigns have no
// global tick.
var (
	obsvHandle *obsv.Handle
	obsvReg    *telemetry.Registry
	obsvPub    *telemetry.Publisher
	obsvSeq    atomic.Uint64
)

// onPlane puts a supervised campaign on the -serve plane under name:
// progress on the board, supervision metrics into the plane's registry,
// the tracepoint ring on /events, and a /metrics pump on every
// supervision event — delivered by the supervisor goroutine, which is
// the registry's writer while the campaign runs. A no-op without -serve.
func onPlane(scfg *fleet.SupervisedConfig, name string) {
	if obsvHandle == nil {
		return
	}
	scfg.Progress = obsvHandle.Board.Register(name)
	scfg.Metrics = obsvReg
	if scfg.Trace == nil {
		scfg.Trace = telemetry.NewRing(1 << 12)
	}
	obsvHandle.Attach(nil, scfg.Trace)
	next := scfg.OnEvent
	scfg.OnEvent = func(ev supervise.Event) {
		obsvPub.Pump(obsvSeq.Add(1))
		if next != nil {
			next(ev)
		}
	}
}

// publishCampaign force-publishes a /metrics snapshot once a campaign's
// supervisor has returned and the registry is this goroutine's again.
func publishCampaign() { obsvPub.Publish(obsvSeq.Add(1)) }
