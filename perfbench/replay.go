package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"contiguitas/internal/core"
	"contiguitas/internal/fleet"
	"contiguitas/internal/hw"
	"contiguitas/internal/hw/contighw"
	"contiguitas/internal/hw/platform"
	"contiguitas/internal/mem"
	"contiguitas/internal/obsv"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/stats"
	"contiguitas/internal/vfs"
	"contiguitas/internal/workload"
)

// The traced run replays every workload's operations in-process, small,
// with timing decorators on the layers' public seams, so each per-layer
// metric is measured on the workload it belongs to whatever -workload
// names. -workload selects the operation whose tracing overhead is
// measured for the rest of the window.

// layerUnits lists every per-layer metric and its unit.
var layerUnits = map[string]string{
	"mem.buddy_alloc_free_ns":         "ns",
	"mem.scan_ms":                     "ms",
	"mem.cpu_share":                   "ratio",
	"kernel.cpu_share":                "ratio",
	"kernel.allocs_per_tick":          "count",
	"kernel.direct_reclaims_per_tick": "count",
	"kernel.reclaimed_pages_per_tick": "count",
	"kernel.compact_success_ratio":    "ratio",
	"kernel.migrations_per_tick":      "count",
	"kernel.resizes":                  "count",
	"slab.cpu_share":                  "ratio",
	"workload.tick_us":                "us",
	"workload.cpu_share":              "ratio",
	"core.machine_setup_ms":           "ms",
	"fleet.shard_s":                   "s",
	"fleet.sample_encode_us":          "us",
	"fleet.canonical_us":              "us",
	"supervise.attempts_per_shard":    "count",
	"snapshot.seal_us":                "us",
	"snapshot.cpu_share":              "ratio",
	"vfs.fsync_ms":                    "ms",
	"vfs.fsyncs_per_cell":             "count",
	"vfs.bytes_written_per_cell":      "bytes",
	"resultcache.get_us":              "us",
	"resultcache.put_us":              "us",
	"resultcache.hit_ratio":           "ratio",
	"resultcache.rejects":             "count",
	"service.store_put_ms":            "ms",
	"service.store_cell_ms":           "ms",
	"service.queue_wait_ms":           "ms",
	"service.retries":                 "count",
	"service.http_submit_ms":          "ms",
	"service.http_result_ms":          "ms",
	"obsv.metrics_scrape_ms":          "ms",
	"obsv.status_get_ms":              "ms",
	"telemetry.cpu_share":             "ratio",
	"hw.serve_call_ms":                "ms",
	"hw.engine.cpu_share":             "ratio",
	"hw.cache.cpu_share":              "ratio",
	"hw.tlb.cpu_share":                "ratio",
	"hw.dram.cpu_share":               "ratio",
	"runtime.gc_cpu_share":            "ratio",
	"runtime.alloc_mb_per_cell":       "MB",
	"trace.latency_p50_s":             "s",
	"trace.untraced_latency_p50_s":    "s",
	"trace.overhead_s":                "s",
	"error_rate":                      "ratio",
}

const pkg = "contiguitas/internal/"

// runTraced is the -trace 1 run.
func runTraced(e *env) (*result, error) {
	ctx := context.Background()
	tr := newTracer()
	m := map[string]float64{}
	var led ledger

	if err := replayServer(e, tr, m); err != nil {
		return nil, err
	}
	cold, err := replayCampaigns(ctx, e, tr, m, &led, false)
	if err != nil {
		return nil, err
	}
	durable, err := replayCampaigns(ctx, e, tr, m, &led, true)
	if err != nil {
		return nil, err
	}
	sweep, err := replaySweep(ctx, e, tr, m, &led)
	if err != nil {
		return nil, err
	}
	if err := replayServe(e, tr, m, &led); err != nil {
		return nil, err
	}

	var plain, traced op
	stop := func() {}
	switch e.workload {
	case "cold-campaign":
		plain, traced, stop, err = campaignOps(ctx, e, cold, false)
	case "durable-campaign":
		plain, traced, stop, err = campaignOps(ctx, e, durable, true)
	case "warm-sweep":
		plain, traced = sweepOps(ctx, sweep)
	case "hw-serve":
		plain, traced = serveOps(e)
	}
	if err != nil {
		return nil, err
	}
	untracedLat, tracedLat := overhead(e.seconds, plain, traced, &led)
	stop()
	m["trace.untraced_latency_p50_s"] = median(untracedLat)
	m["trace.latency_p50_s"] = median(tracedLat)
	m["trace.overhead_s"] = m["trace.latency_p50_s"] - m["trace.untraced_latency_p50_s"]

	for _, name := range []string{
		"mem.buddy_alloc_free_ns", "mem.scan_ms", "workload.tick_us", "core.machine_setup_ms",
		"fleet.shard_s", "fleet.sample_encode_us", "fleet.canonical_us", "snapshot.seal_us",
		"vfs.fsync_ms", "resultcache.get_us", "resultcache.put_us",
		"service.store_put_ms", "service.store_cell_ms", "service.queue_wait_ms",
		"service.http_submit_ms", "service.http_result_ms",
		"obsv.metrics_scrape_ms", "obsv.status_get_ms", "hw.serve_call_ms",
	} {
		m[name] = tr.medianOf(name)
	}
	if n := tr.get("supervise.shards"); n > 0 {
		m["supervise.attempts_per_shard"] = tr.get("supervise.attempts") / n
	}
	m["error_rate"] = led.errorRate()
	for name := range layerUnits {
		if _, ok := m[name]; !ok {
			return nil, fmt.Errorf("traced run produced no %s", name)
		}
	}
	if err := tr.write(spanFile(e)); err != nil {
		return nil, err
	}

	res := &result{metrics: m}
	res.refresh(&led)
	res.notes = append(res.notes, fmt.Sprintf("spans written to %s", spanFile(e)))
	return res, nil
}

// runtimeSample reads GC CPU time, busy CPU time and cumulative heap
// allocation from runtime/metrics.
type runtimeSample struct{ gc, busy, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{
		gc:         s[0].Value.Float64(),
		busy:       s[1].Value.Float64() - s[2].Value.Float64(),
		allocBytes: float64(s[3].Value.Uint64()),
	}
}

// replayServer times direct calls on one representative server: a
// contiguitas machine with a seed-chosen workload profile.
func replayServer(e *env, tr *tracer, m map[string]float64) error {
	mc := core.DefaultMachineConfig(core.DesignContiguitas)
	mc.MemBytes = 256 << 20
	mc.Seed = mix(e.seed, 4000)
	profiles := workload.Profiles()
	prof := profiles[mix(e.seed, 4001)%uint64(len(profiles))]

	var machine *core.Machine
	var runner *workload.Runner
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		machine = core.NewMachine(mc)
		runner = machine.Attach(prof, mix(e.seed, 4002))
		tr.span("core.NewMachine+Attach", "core.machine_setup_ms", "", -1, -1, t0, time.Since(t0))
	}
	const ticks = 200
	for i := 0; i < ticks; i++ {
		t0 := time.Now()
		runner.Step()
		tr.span("workload.Runner.Step", "workload.tick_us", "", -1, -1, t0, time.Since(t0))
	}
	reg := machine.K.Metrics()
	count := func(name string) float64 {
		if c := reg.Counter(name); c != nil {
			return float64(c.Value())
		}
		return 0
	}
	m["kernel.allocs_per_tick"] = (count("alloc_ok") + count("alloc_fail")) / ticks
	m["kernel.direct_reclaims_per_tick"] = count("direct_reclaim") / ticks
	m["kernel.reclaimed_pages_per_tick"] = count("reclaimed_pages") / ticks
	m["kernel.compact_success_ratio"] = 0
	if runs := count("compact_runs"); runs > 0 {
		m["kernel.compact_success_ratio"] = count("compact_success") / runs
	}
	m["kernel.migrations_per_tick"] = (count("sw_migrations") + count("hw_migrations") + count("pin_migrations")) / ticks
	m["kernel.resizes"] = count("expands") + count("shrinks")
	fmt.Printf("kernel counts profile=%s ticks=%d", prof.Name, ticks)
	for _, c := range reg.Counters() {
		fmt.Printf(" %s=%d", c.Name(), c.Value())
	}
	fmt.Println()

	var st mem.ContiguityStats
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		machine.K.PM().ScanInto(&st, mem.ScanOrders)
		tr.span("mem.PhysMem.ScanInto", "mem.scan_ms", "", -1, -1, t0, time.Since(t0))
	}

	// Buddy churn: random orders 0-3 on a 64 MiB allocator, holding
	// between 512 and 1024 blocks; one sample per batch of 20000 pairs.
	pm := mem.NewPhysMem(64 << 20)
	b := mem.NewBuddy(pm, 0, pm.NPages, mem.PolicyLIFO, true, mem.MigrateMovable)
	rng := stats.NewRNG(mix(e.seed, 4003))
	var live []uint64
	for batch := 0; batch < 5; batch++ {
		t0 := time.Now()
		pairs := 0
		for pairs < 20000 {
			if len(live) < 512 || (len(live) < 1024 && rng.Intn(2) == 0) {
				pfn, ok := b.Alloc(rng.Intn(4), mem.MigrateMovable, mem.SrcUser)
				if !ok {
					return fmt.Errorf("buddy: allocation failed with %d blocks live", len(live))
				}
				live = append(live, pfn)
				continue
			}
			j := rng.Intn(len(live))
			if err := b.Free(live[j]); err != nil {
				return fmt.Errorf("buddy: %w", err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			pairs++
		}
		tr.add("mem.buddy_alloc_free_ns", float64(time.Since(t0).Nanoseconds())/float64(pairs))
	}
	return nil
}

// inproc is contigd's wiring, in this process: scheduler, board, bus and
// the HTTP API on an ephemeral port.
type inproc struct {
	sched *service.Scheduler
	srv   *obsv.Server
	base  string
}

func startInproc(store service.Store) (*inproc, error) {
	board, bus := obsv.NewBoard(), obsv.NewEventBus()
	sched := service.NewScheduler(service.SchedulerConfig{Store: store, ShardWorkers: 2, Board: board, Bus: bus})
	if _, err := sched.Recover(); err != nil {
		return nil, err
	}
	sched.Start()
	srv, err := obsv.Start(obsv.Options{Addr: "127.0.0.1:0", Board: board, Bus: bus, Extend: sched.Mount, Health: sched.Health})
	if err != nil {
		sched.Drain()
		return nil, err
	}
	return &inproc{sched: sched, srv: srv, base: srv.URL()}, nil
}

func (d *inproc) stop() {
	d.sched.Drain()
	d.srv.Close()
}

// campaignReplay is what a campaign replay leaves for the overhead loop.
type campaignReplay struct {
	name  string
	specs []service.Spec
	want  []expected
}

// replayCampaigns derives two campaigns with the oracle and runs them
// through an in-process daemon. The cold replay (memory store) measures
// the simulation layers, HTTP and the observer; the durable replay (disk
// store behind the timed Store and the counting filesystem) measures
// the write path.
func replayCampaigns(ctx context.Context, e *env, tr *tracer, m map[string]float64, led *ledger, durable bool) (*campaignReplay, error) {
	rp := &campaignReplay{name: "cold-campaign"}
	spec := coldSpec
	if durable {
		rp.name, spec = "durable-campaign", durableSpec
	}
	for i := 0; i < 2; i++ {
		rp.specs = append(rp.specs, spec(e.seed, i))
	}
	var cells int
	rt0 := readRuntime()
	shares, err := profiled(e.run, func() error {
		for _, sp := range rp.specs {
			var sinks func(int) fleet.ProgressSink
			if !durable {
				sinks = sinkFactory(tr, sp.Name)
			}
			ex, err := deriveCampaign(ctx, sp, oracleWorkers(), sinks)
			if err != nil {
				return err
			}
			rp.want = append(rp.want, ex)
			cells += ex.cells
		}

		var store service.Store = service.NewMemory()
		if durable {
			restore := vfs.SetDefault(countingFS{FS: vfs.Active(), tr: tr})
			defer restore()
			disk, err := service.OpenDisk(filepath.Join(e.run, "trace-"+rp.name))
			if err != nil {
				return err
			}
			store = newTimedStore(disk, tr)
		}
		d, err := startInproc(store)
		if err != nil {
			return err
		}
		defer d.stop()

		obs, stopObs := observe(ctx, d.base)
		client := newClient()
		for i, sp := range rp.specs {
			t0 := time.Now()
			tm, err := runCampaign(ctx, client, d.base, fmt.Sprintf("trace-%s-%d", rp.name, i), sp, &rp.want[i], pollPhase(i), obs.setCampaign)
			tr.span("campaign", "", sp.Name, -1, -1, t0, time.Since(t0))
			led.record(time.Since(t0).Seconds(), err)
			if !durable && err == nil {
				tr.add("service.http_submit_ms", float64(tm.submit.Nanoseconds())/1e6)
				tr.add("service.http_result_ms", float64(tm.result.Nanoseconds())/1e6)
			}
			cells += len(sp.Cells())
		}
		stopObs()
		obs.book(led)
		if !durable {
			for _, v := range obs.metrics {
				tr.add("obsv.metrics_scrape_ms", v)
			}
			for _, v := range obs.status {
				tr.add("obsv.status_get_ms", v)
			}
		}
		m["service.retries"] += float64(d.sched.Stats().Retried)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()

	if durable {
		daemonCells := float64(len(rp.specs) * len(rp.specs[0].Cells()))
		m["vfs.fsyncs_per_cell"] = tr.get("vfs.fsyncs") / daemonCells
		m["vfs.bytes_written_per_cell"] = tr.get("vfs.bytes_written") / daemonCells
		m["snapshot.cpu_share"] = shares[pkg+"snapshot"]
		return rp, timeCheckpointCodec(rp.specs[0], tr)
	}
	m["mem.cpu_share"] = shares[pkg+"mem"]
	m["kernel.cpu_share"] = shares[pkg+"kernel"]
	m["slab.cpu_share"] = shares[pkg+"slab"]
	m["workload.cpu_share"] = shares[pkg+"workload"]
	m["telemetry.cpu_share"] = shares[pkg+"telemetry"]
	m["runtime.gc_cpu_share"] = 0
	if busy := rt1.busy - rt0.busy; busy > 0 {
		m["runtime.gc_cpu_share"] = (rt1.gc - rt0.gc) / busy
	}
	m["runtime.alloc_mb_per_cell"] = (rt1.allocBytes - rt0.allocBytes) / 1e6 / float64(cells)
	return rp, nil
}

// timeCheckpointCodec times the per-server checkpoint work of a durable
// cell outside the daemon: gob-encoding one shard's samples and sealing
// the CTGSHRD record around them.
func timeCheckpointCodec(sp service.Spec, tr *tracer) error {
	cfg, err := fleetConfig(sp, sp.Cells()[0])
	if err != nil {
		return err
	}
	res, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{Fleet: cfg})
	if err != nil {
		return err
	}
	shard := res.Study.Samples[:sp.Servers/sp.Shards]
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := gob.NewEncoder(&buf).Encode(shard); err != nil {
			return err
		}
		tr.span("gob.Encode([]fleet.Sample)", "fleet.sample_encode_us", sp.Name, 0, 0, t0, time.Since(t0))
		ck := &snapshot.ShardCheckpoint{Campaign: uint64(i), Seq: 1, Done: uint64(len(shard)), Payload: buf.Bytes()}
		t0 = time.Now()
		ck.Seal(0)
		tr.span("snapshot.ShardCheckpoint.Seal", "snapshot.seal_us", sp.Name, 0, 0, t0, time.Since(t0))
	}
	return nil
}

// sweepReplay is the filled cache the overhead loop sweeps again.
type sweepReplay struct {
	spec service.Spec
	dir  string
	fill [][]byte // canonical bytes per cell
}

// replaySweep fills a result cache in-process through the timed cache,
// then sweeps it warm three times, checking every cell's canonical bytes
// against the fill.
func replaySweep(ctx context.Context, e *env, tr *tracer, m map[string]float64, led *ledger) (*sweepReplay, error) {
	sp := warmSweepSpec(e.seed)
	sp.Servers, sp.Shards = 32, 32
	rp := &sweepReplay{spec: sp, dir: filepath.Join(e.run, "trace-cache")}
	base := resultcache.NewDir(rp.dir, fleet.CacheSchemaVersion)
	fill := timedCache{Cache: base, tr: tr, getMetric: ""}
	for _, cell := range sp.Cells() {
		study, err := sweepCell(ctx, sp, cell, fill)
		if err != nil {
			return nil, err
		}
		rp.fill = append(rp.fill, fleet.CanonicalBytes(study))
	}
	h0, m0, r0 := tr.get("resultcache.hits"), tr.get("resultcache.misses"), tr.get("resultcache.rejects")
	warm := timedCache{Cache: base, tr: tr, getMetric: "resultcache.get_us"}
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		err := rp.sweep(ctx, warm, tr)
		led.record(time.Since(t0).Seconds(), err)
	}
	dh := tr.get("resultcache.hits") - h0
	dm := tr.get("resultcache.misses") - m0
	dr := tr.get("resultcache.rejects") - r0
	if total := dh + dm + dr; total > 0 {
		m["resultcache.hit_ratio"] = dh / total
	}
	m["resultcache.rejects"] = tr.get("resultcache.rejects")
	return rp, nil
}

// sweep runs every cell of the grid against cache and compares each
// cell's canonical bytes with the fill; tr, when set, times the
// canonical encoding.
func (rp *sweepReplay) sweep(ctx context.Context, cache resultcache.Cache, tr *tracer) error {
	for i, cell := range rp.spec.Cells() {
		study, err := sweepCell(ctx, rp.spec, cell, cache)
		if err != nil {
			return err
		}
		t0 := time.Now()
		got := fleet.CanonicalBytes(study)
		if tr != nil {
			tr.span("fleet.CanonicalBytes", "fleet.canonical_us", rp.spec.Name, i, -1, t0, time.Since(t0))
		}
		if !bytes.Equal(got, rp.fill[i]) {
			return fmt.Errorf("warm cell %d differs from the fill", i)
		}
	}
	return nil
}

func sweepCell(ctx context.Context, sp service.Spec, cell service.Cell, cache resultcache.Cache) (*fleet.Study, error) {
	cfg, err := fleetConfig(sp, cell)
	if err != nil {
		return nil, err
	}
	res, err := fleet.RunSupervised(ctx, fleet.SupervisedConfig{Fleet: cfg, Cache: cache})
	if err != nil {
		return nil, err
	}
	if !res.Report.Complete {
		return nil, fmt.Errorf("sweep cell incomplete: %s", res.Report)
	}
	return res.Study, nil
}

// serveCall runs one serving experiment of the hw-serve grid.
func serveCall(seed uint64, mode contighw.Mode, rate float64) platform.ServeResult {
	md := mode
	mach := platform.NewMachine(hw.DefaultParams(), &md)
	cfg := platform.DefaultServeConfig()
	cfg.DurationCycles = serveCycles(seed)
	cfg.MigrationsPerSec = rate
	return platform.ServeBenchmark(mach, cfg)
}

var serveModes = []contighw.Mode{contighw.Noncacheable, contighw.Cacheable}
var serveRates = []float64{0, 100, 1000}

// replayServe times platform.ServeBenchmark over both modes and three
// migration rates, six times (about 100 profile samples a second), and
// checks every pass repeats the first.
func replayServe(e *env, tr *tracer, m map[string]float64, led *ledger) error {
	first := map[string]platform.ServeResult{}
	shares, err := profiled(e.run, func() error {
		for pass := 0; pass < 6; pass++ {
			for _, mode := range serveModes {
				for _, rate := range serveRates {
					t0 := time.Now()
					res := serveCall(e.seed, mode, rate)
					took := time.Since(t0)
					tr.span("platform.ServeBenchmark", "hw.serve_call_ms", "", -1, -1, t0, took)
					key := fmt.Sprintf("%s/%g", mode, rate)
					var err error
					if pass == 0 {
						first[key] = res
						fmt.Printf("serve counts %s requests=%d cycles=%d migrations=%d\n", key, res.Requests, res.Cycles, res.Migrations)
					} else if res != first[key] {
						err = fmt.Errorf("serve %s did not repeat", key)
					}
					led.record(took.Seconds(), err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["hw.engine.cpu_share"] = shares[pkg+"hw/engine"]
	m["hw.cache.cpu_share"] = shares[pkg+"hw/cache"]
	m["hw.tlb.cpu_share"] = shares[pkg+"hw/tlb"]
	m["hw.dram.cpu_share"] = shares[pkg+"hw/dram"]
	return nil
}

// op is one verified operation of the overhead loop.
type op func() error

// overhead alternates untraced and traced operations for the window
// (at least one pair) and returns both latency samples. A failed
// operation is left to the ledger, so a program that always fails ends
// the window with empty samples instead of retrying forever.
func overhead(window time.Duration, plain, traced op, led *ledger) (untraced, tracedLat []float64) {
	deadline := time.Now().Add(window)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		f, lat := plain, &untraced
		if i%2 == 1 {
			f, lat = traced, &tracedLat
		}
		t0 := time.Now()
		err := f()
		d := time.Since(t0).Seconds()
		led.record(d, err)
		if err == nil {
			*lat = append(*lat, d)
		}
	}
	return untraced, tracedLat
}

// campaignOps returns the untraced and traced campaign operation: the
// same spec pool through two in-process daemons, the traced one behind
// the timed Store (and, for the disk store, the counting filesystem).
// stop shuts both daemons down.
func campaignOps(ctx context.Context, e *env, rp *campaignReplay, durable bool) (plain, traced op, stop func(), err error) {
	ovh := newTracer()
	newStore := func(name string) (service.Store, error) {
		if !durable {
			return service.NewMemory(), nil
		}
		return service.OpenDisk(filepath.Join(e.run, "overhead-"+name))
	}
	ps, err := newStore("plain")
	if err != nil {
		return nil, nil, nil, err
	}
	ts, err := newStore("traced")
	if err != nil {
		return nil, nil, nil, err
	}
	plainD, err := startInproc(ps)
	if err != nil {
		return nil, nil, nil, err
	}
	tracedD, err := startInproc(newTimedStore(ts, ovh))
	if err != nil {
		plainD.stop()
		return nil, nil, nil, err
	}
	client := newClient()
	var n [2]int // operations per side, so both sides cycle the same specs
	run := func(d *inproc, traced bool) error {
		side := 0
		if traced {
			side = 1
		}
		n[side]++
		k := n[side] % len(rp.specs)
		key := fmt.Sprintf("overhead-%d-%d-%d", os.Getpid(), side, n[side])
		if traced && durable {
			restore := vfs.SetDefault(countingFS{FS: vfs.Active(), tr: ovh})
			defer restore()
		}
		t0 := time.Now()
		_, err := runCampaign(ctx, client, d.base, key, rp.specs[k], &rp.want[k], pollPhase(n[side]), nil)
		if traced {
			ovh.span("campaign", "", rp.specs[k].Name, -1, -1, t0, time.Since(t0))
		}
		return err
	}
	plain = func() error { return run(plainD, false) }
	traced = func() error { return run(tracedD, true) }
	return plain, traced, func() { plainD.stop(); tracedD.stop() }, nil
}

// sweepOps sweeps the filled cache in-process, plain or through the
// timed cache.
func sweepOps(ctx context.Context, rp *sweepReplay) (op, op) {
	ovh := newTracer()
	base := resultcache.NewDir(rp.dir, fleet.CacheSchemaVersion)
	traced := timedCache{Cache: base, tr: ovh, getMetric: "resultcache.get_us"}
	return func() error { return rp.sweep(ctx, base, nil) },
		func() error { return rp.sweep(ctx, traced, ovh) }
}

// serveOps runs the hw-serve grid's 1000/s cacheable experiment, plain
// or inside a span.
func serveOps(e *env) (op, op) {
	ovh := newTracer()
	want := serveCall(e.seed, contighw.Cacheable, 1000)
	check := func(res platform.ServeResult) error {
		if res != want {
			return fmt.Errorf("serve did not repeat")
		}
		return nil
	}
	return func() error { return check(serveCall(e.seed, contighw.Cacheable, 1000)) },
		func() error {
			t0 := time.Now()
			res := serveCall(e.seed, contighw.Cacheable, 1000)
			ovh.span("platform.ServeBenchmark", "hw.serve_call_ms", "", -1, -1, t0, time.Since(t0))
			return check(res)
		}
}
