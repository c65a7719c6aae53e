// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact), plus microbenchmarks of the
// substrates. Run with:
//
//	go test -bench=. -benchmem
//
// Figure-level benchmarks execute the same experiment drivers as
// cmd/contigsim at a reduced scale so a full -bench=. pass stays
// tractable; the reported custom metrics carry the headline values so
// regressions in *results*, not just runtime, are visible.
package contiguitas

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"contiguitas/internal/core"
	"contiguitas/internal/fleet"
	"contiguitas/internal/hw"
	"contiguitas/internal/hw/contighw"
	"contiguitas/internal/hw/cpu"
	"contiguitas/internal/hw/platform"
	"contiguitas/internal/hw/tlb"
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/obsv"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
	"contiguitas/internal/slab"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/telemetry"
	"contiguitas/internal/workload"
)

// benchExp is the benchmark experiment scale.
func benchExp() core.ExpConfig {
	return core.ExpConfig{
		MemBytes:    1 << 30,
		WarmupTicks: 150,
		Seed:        9,
		Max1GPages:  0,
	}
}

func BenchmarkFig2TLBTrends(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.Fig2()
		if len(rows) != 5 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkFig3PageWalkCycles(b *testing.B) {
	var last []core.Fig3Row
	for i := 0; i < b.N; i++ {
		last = core.Fig3()
	}
	b.ReportMetric(last[0].DataPct, "web4K-data-%")
}

func BenchmarkFig4ContiguityCDF(b *testing.B) {
	cfg := fleet.DefaultConfig()
	cfg.Servers = 8
	cfg.MemBytes = 256 << 20
	cfg.TicksMin, cfg.TicksMax = 40, 120
	var zero float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		s := fleet.Run(cfg)
		zero = s.NoContigFraction(mem.Order2M)
	}
	b.ReportMetric(zero*100, "zero-2M-%servers")
}

// benchCampaignCfg is the fixed-seed fleet configuration the result
// cache benchmarks share: cold pays the full simulation per run, warm
// serves every shard from the cache, and the pair's ratio is the
// whole-shard-skip speedup BENCH_PR7.json records.
func benchCampaignCfg() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Servers = 8
	cfg.MemBytes = 256 << 20
	cfg.TicksMin, cfg.TicksMax = 40, 120
	cfg.Seed = 7
	cfg.Shards = 4
	return cfg
}

func BenchmarkFleetCampaignCold(b *testing.B) {
	cfg := benchCampaignCfg()
	for i := 0; i < b.N; i++ {
		cache := resultcache.NewLRU(16, fleet.CacheSchemaVersion)
		res, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{Fleet: cfg, Cache: cache})
		if err != nil || !res.Report.Complete {
			b.Fatalf("campaign: %v %v", err, res.Report)
		}
		if res.CacheHits != 0 {
			b.Fatal("cold run hit the cache")
		}
	}
}

// BenchmarkColdCell is one contigd cold-campaign cell: a 32-server
// fleet of 32 MiB Contiguitas machines living 40-120 ticks, 4 shards on
// 2 workers, no cache. Every server ticks the full buddy/THP kernel, so
// this is the per-tick path (khugepaged passes, PFN-ordered free lists)
// the service spends its campaigns in.
func BenchmarkColdCell(b *testing.B) {
	cfg := fleet.DefaultConfig()
	cfg.Servers = 32
	cfg.MemBytes = 32 << 20
	cfg.Design = core.DesignContiguitas
	cfg.TicksMin, cfg.TicksMax = 40, 120
	cfg.JitterFrac = 0.5
	cfg.Seed = 1
	cfg.Shards = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{Fleet: cfg, Workers: 2})
		if err != nil || !res.Report.Complete {
			b.Fatalf("cell: %v %v", err, res.Report)
		}
	}
}

func BenchmarkFleetCampaignWarm(b *testing.B) {
	cfg := benchCampaignCfg()
	cache := resultcache.NewLRU(16, fleet.CacheSchemaVersion)
	if _, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{Fleet: cfg, Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{Fleet: cfg, Cache: cache})
		if err != nil || !res.Report.Complete {
			b.Fatalf("campaign: %v %v", err, res.Report)
		}
		if res.CacheHits != uint64(cfg.Shards) {
			b.Fatalf("warm run hit %d/%d shards", res.CacheHits, cfg.Shards)
		}
	}
}

// BenchmarkFleetCampaignWarmDir is one warm-sweep cell on disk: 256
// one-server shards of tiny short-lived machines, each served from a
// CTGCACH entry the setup wrote to a resultcache.Dir. Unlike
// BenchmarkFleetCampaignWarm (the in-process LRU), every shard pays the
// cache-hit path a fleetscan -sweep over -cache-dir pays: key, file
// read, frame verification and sample decode.
func BenchmarkFleetCampaignWarmDir(b *testing.B) {
	cfg := fleet.DefaultConfig()
	cfg.Servers, cfg.Shards = 256, 256
	cfg.MemBytes = 32 << 20
	cfg.TicksMin, cfg.TicksMax = 1, 2
	cfg.Seed = 7
	cache := resultcache.NewDir(b.TempDir(), fleet.CacheSchemaVersion)
	if _, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{Fleet: cfg, Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{Fleet: cfg, Cache: cache})
		if err != nil || !res.Report.Complete {
			b.Fatalf("campaign: %v %v", err, res.Report)
		}
		if res.CacheHits != uint64(cfg.Shards) {
			b.Fatalf("warm run hit %d/%d shards", res.CacheHits, cfg.Shards)
		}
	}
}

// BenchmarkSealedRecords writes and then reads back one record of each
// on-disk format through its public API: a durable write (temp file,
// fsync, rename, directory fsync) and a verified read. The CTGSHRD and
// CTGCACH rows also encode and decode their fleet-sample payload (an
// 8-server shard), as a checkpoint resume and a cache hit do.
func BenchmarkSealedRecords(b *testing.B) {
	dir := b.TempDir()
	fcfg := fleet.DefaultConfig()
	fcfg.Servers, fcfg.MemBytes, fcfg.TicksMin, fcfg.TicksMax = 8, 32<<20, 20, 40
	study := fleet.Run(fcfg)
	decodeSamples := func(p []byte) {
		if got, err := fleet.DecodeCanonical(p); err != nil || len(got) != len(study.Samples) {
			b.Fatalf("samples: %d decoded, %v", len(got), err)
		}
	}
	check := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	disk, err := service.OpenDisk(filepath.Join(dir, "store"))
	check(err)
	cache := resultcache.NewDir(filepath.Join(dir, "cache"), fleet.CacheSchemaVersion)
	check(os.MkdirAll(filepath.Join(dir, "cache"), 0o755))
	machine := core.NewMachine(core.MachineConfig{Design: core.DesignContiguitas, MemBytes: 32 << 20})
	camp := &service.Campaign{ID: "c0123456789abcdef", Key: "bench", SpecHash: "00000000deadbeef",
		Spec:  service.Spec{Servers: 32, Designs: []string{"contiguitas"}, MemsMiB: []uint64{32}, Jitters: []float64{0.5}},
		State: service.StateDone, Attempts: 1, Cells: 1, CellsDone: 1, CellDigests: []string{"0123456789abcdef"}}

	rows := []struct {
		name string
		run  func()
	}{
		{"CTGSNAP", func() {
			path := filepath.Join(dir, "snap.ctgsnap")
			e := &snapshot.Envelope{Machine: snapshot.Machine{Kernel: machine.K.ExportState()}}
			e.Seal(0)
			check(snapshot.Write(path, e))
			_, err := snapshot.Read(path)
			check(err)
		}},
		{"CTGSHRD", func() {
			path := filepath.Join(dir, "shard-000.ctgshrd")
			ck := &snapshot.ShardCheckpoint{Campaign: 1, Seq: 1, Done: uint64(len(study.Samples)),
				Payload: fleet.CanonicalBytes(study)}
			ck.Seal(0)
			check(snapshot.WriteShard(path, ck))
			got, err := snapshot.ReadShard(path)
			check(err)
			decodeSamples(got.Payload)
		}},
		{"CTGCACH", func() {
			check(cache.Put(42, fleet.CanonicalBytes(study)))
			got, err := cache.Get(42)
			check(err)
			decodeSamples(got)
		}},
		{"CTGCAMP", func() {
			check(disk.Put(camp))
			_, err := disk.Get(camp.ID)
			check(err)
		}},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row.run()
			}
		})
	}
}

func BenchmarkFig5UnmovableCDF(b *testing.B) {
	cfg := fleet.DefaultConfig()
	cfg.Servers = 8
	cfg.MemBytes = 256 << 20
	cfg.TicksMin, cfg.TicksMax = 40, 120
	var med float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		s := fleet.Run(cfg)
		med = s.MedianUnmovBlockFrac(mem.Order2M)
	}
	b.ReportMetric(med*100, "median-unmov-2M-%")
}

func BenchmarkFig6Sources(b *testing.B) {
	cfg := fleet.DefaultConfig()
	cfg.Servers = 6
	cfg.MemBytes = 256 << 20
	cfg.TicksMin, cfg.TicksMax = 40, 100
	var net float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		s := fleet.Run(cfg)
		net = s.SourceBreakdown()[mem.SrcNetworking]
	}
	b.ReportMetric(net*100, "networking-%")
}

func BenchmarkUptimeCorrelation(b *testing.B) {
	cfg := fleet.DefaultConfig()
	cfg.Servers = 10
	cfg.MemBytes = 256 << 20
	cfg.TicksMin, cfg.TicksMax = 40, 200
	var r float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		s := fleet.Run(cfg)
		r = s.UptimeCorrelation()
	}
	b.ReportMetric(r, "pearson-r")
}

func BenchmarkFig10EndToEnd(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		cfg := benchExp()
		cfg.Seed = uint64(i + 1) // defeat the scenario cache
		rows := core.Fig10(cfg)
		gain = rows[0].GainOverFull
	}
	b.ReportMetric((gain-1)*100, "web-gain-vs-full-%")
}

func BenchmarkFig11Unmovable(b *testing.B) {
	var lin, con float64
	for i := 0; i < b.N; i++ {
		cfg := benchExp()
		cfg.Seed = uint64(100 + i)
		rows := core.Fig11(cfg)
		lin, con = 0, 0
		for _, r := range rows {
			lin += r.LinuxPct / float64(len(rows))
			con += r.ContiguitasPct / float64(len(rows))
		}
	}
	b.ReportMetric(lin, "linux-avg-%")
	b.ReportMetric(con, "contiguitas-avg-%")
}

func BenchmarkFig12Potential(b *testing.B) {
	var con float64
	for i := 0; i < b.N; i++ {
		cfg := benchExp()
		cfg.Seed = uint64(200 + i)
		rows := core.Fig12(cfg)
		for _, r := range rows {
			if r.Order == mem.Order2M && r.Service == "Web" {
				con = r.Contig
			}
		}
	}
	b.ReportMetric(con, "web-2M-potential-%")
}

func BenchmarkInternalFragmentation(b *testing.B) {
	var free float64
	for i := 0; i < b.N; i++ {
		cfg := benchExp()
		cfg.Seed = uint64(300 + i)
		rows := core.Fig11(cfg)
		free = rows[0].InternalFragFree
	}
	b.ReportMetric(free*100, "free-inside-unmov-%")
}

func BenchmarkFig13Unavailable(b *testing.B) {
	var pts []platform.Fig13Point
	for i := 0; i < b.N; i++ {
		pts = platform.Fig13Series(8)
	}
	b.ReportMetric(float64(pts[7].LinuxSim), "linux-8core-cycles")
	b.ReportMetric(float64(pts[7].Contiguitas), "contiguitas-cycles")
}

func BenchmarkSec53MigrationImpact(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		rows := core.Sec53(600_000)
		for _, r := range rows {
			if r.App == "memcached" && r.Mode == contighw.Noncacheable && r.Rate == 1000 {
				loss = r.LossPct
			}
		}
	}
	b.ReportMetric(loss, "veryhigh-loss-%")
}

// BenchmarkServeExec is the work of one `migbench -bench serve` exec at
// 4,001,000 cycles: the twelve §5.3 serving runs on fresh machines plus
// the memcached huge-page gain.
func BenchmarkServeExec(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		core.Sec53(4_001_000)
		gain = core.MemcachedHugePageGain()
	}
	b.ReportMetric(gain, "hugepage-gain")
}

func BenchmarkTableSizing(b *testing.B) {
	var area float64
	for i := 0; i < b.N; i++ {
		s := core.Sizing()
		area = s.Area.AreaMM2()
	}
	b.ReportMetric(area*1000, "area-um2x1000")
}

// --- substrate microbenchmarks ---

func BenchmarkBuddyAllocFree4K(b *testing.B) {
	pm := mem.NewPhysMem(256 << 20)
	bd := mem.NewBuddy(pm, 0, pm.NPages, mem.PolicyLIFO, true, mem.MigrateMovable)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn, ok := bd.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if !ok {
			b.Fatal("oom")
		}
		bd.Free(pfn)
	}
}

// BenchmarkBuddyAllocFree4KLowestPFN and ...HighestPFN time the
// PFN-ordered free lists the Contiguitas regions use, at a cold-cell
// machine size and at 8 GiB, the largest machine any CLI builds.
func BenchmarkBuddyAllocFree4KLowestPFN(b *testing.B) {
	benchOrderedAllocFree(b, mem.PolicyLowestPFN)
}

func BenchmarkBuddyAllocFree4KHighestPFN(b *testing.B) {
	benchOrderedAllocFree(b, mem.PolicyHighestPFN)
}

func benchOrderedAllocFree(b *testing.B, policy mem.AllocPolicy) {
	for _, size := range []struct {
		name  string
		bytes uint64
	}{{"256MiB", 256 << 20}, {"8GiB", 8 << 30}} {
		b.Run(size.name, func(b *testing.B) {
			pm := mem.NewPhysMem(size.bytes)
			bd := mem.NewBuddy(pm, 0, pm.NPages, policy, false, mem.MigrateMovable)
			// One untimed round trip first: it builds the free-list
			// storage of every order the split passes through, so the
			// timed loop sees the steady state even at -benchtime 3x.
			if pfn, ok := bd.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser); ok {
				bd.Free(pfn)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pfn, ok := bd.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
				if !ok {
					b.Fatal("oom")
				}
				bd.Free(pfn)
			}
		})
	}
}

// BenchmarkBuddyAllocFree4KBulk times one run of 512 4 KB pages, taken
// and given back, under each free-list policy: "single" as 512 Alloc
// and 512 Free calls, "bulk" as one AllocBulk4K and one FreeBatch,
// which leave the same state (FuzzBuddyAllocFree). ns/op is per run of
// 512 pages. The machine is full but for one free pageblock, as a cold
// cell's machines are, so the run splits and re-merges that pageblock
// rather than restamping a near-empty machine's largest block. The
// frees go back in allocation order, as a reclaim batch or a mapping's
// block list does.
func BenchmarkBuddyAllocFree4KBulk(b *testing.B) {
	const run = 512
	for _, pol := range []struct {
		name   string
		policy mem.AllocPolicy
	}{{"LIFO", mem.PolicyLIFO}, {"LowestPFN", mem.PolicyLowestPFN}, {"HighestPFN", mem.PolicyHighestPFN}} {
		for _, bulk := range []bool{false, true} {
			name := pol.name + "/single"
			if bulk {
				name = pol.name + "/bulk"
			}
			b.Run(name, func(b *testing.B) {
				pm := mem.NewPhysMem(256 << 20)
				bd := mem.NewBuddy(pm, 0, pm.NPages, pol.policy, false, mem.MigrateMovable)
				pfns := bd.AllocBulk4K(nil, int(pm.NPages), mem.MigrateMovable, mem.SrcUser)
				for pfn := pm.NPages / 2; pfn < pm.NPages/2+run; pfn++ {
					bd.Free(pfn)
				}
				pfns = pfns[:0]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pfns = pfns[:0]
					if bulk {
						pfns = bd.AllocBulk4K(pfns, run, mem.MigrateMovable, mem.SrcUser)
						if len(pfns) != run {
							b.Fatal("oom")
						}
						if err := bd.FreeBatch(pfns); err != nil {
							b.Fatal(err)
						}
						continue
					}
					for j := 0; j < run; j++ {
						pfn, ok := bd.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
						if !ok {
							b.Fatal("oom")
						}
						pfns = append(pfns, pfn)
					}
					for _, pfn := range pfns {
						if err := bd.Free(pfn); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

func BenchmarkBuddyAllocFree2M(b *testing.B) {
	pm := mem.NewPhysMem(256 << 20)
	bd := mem.NewBuddy(pm, 0, pm.NPages, mem.PolicyLIFO, true, mem.MigrateMovable)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn, ok := bd.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser)
		if !ok {
			b.Fatal("oom")
		}
		bd.Free(pfn)
	}
}

func BenchmarkKernelPinMigration(b *testing.B) {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 256 << 20
	cfg.InitialUnmovableBytes = 32 << 20
	cfg.MinUnmovableBytes = 16 << 20
	cfg.MaxUnmovableBytes = 128 << 20
	k := kernel.New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcNetworking)
		if err != nil {
			b.Fatal(err)
		}
		if err := k.Pin(p); err != nil {
			b.Fatal(err)
		}
		k.Unpin(p)
		k.Free(p)
	}
}

func BenchmarkWorkloadTick(b *testing.B) {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 512 << 20
	cfg.InitialUnmovableBytes = 32 << 20
	cfg.MinUnmovableBytes = 16 << 20
	cfg.MaxUnmovableBytes = 256 << 20
	k := kernel.New(cfg)
	r := workload.NewRunner(k, workload.Web(), 1)
	r.Run(20) // warmup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}

// BenchmarkTickTelemetryOff is the disabled-tracer overhead witness: the
// exact BenchmarkWorkloadTick setup with no tracer or sampler attached.
// Every tracepoint reduces to one nil-receiver branch, so this must stay
// within noise (<2%) of BenchmarkWorkloadTick's pre-telemetry medians
// (BENCH_PR2.json; the comparison is recorded in BENCH_PR3.json).
func BenchmarkTickTelemetryOff(b *testing.B) {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 512 << 20
	cfg.InitialUnmovableBytes = 32 << 20
	cfg.MinUnmovableBytes = 16 << 20
	cfg.MaxUnmovableBytes = 256 << 20
	k := kernel.New(cfg)
	r := workload.NewRunner(k, workload.Web(), 1)
	r.Run(20) // warmup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}

// BenchmarkTickTelemetryOn measures the enabled cost: tracepoint ring,
// bound-counter registry, and per-tick sampling all active.
func BenchmarkTickTelemetryOn(b *testing.B) {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 512 << 20
	cfg.InitialUnmovableBytes = 32 << 20
	cfg.MinUnmovableBytes = 16 << 20
	cfg.MaxUnmovableBytes = 256 << 20
	k := kernel.New(cfg)
	k.SetTracer(telemetry.NewRing(1 << 14))
	k.AttachSampler(1 << 12)
	r := workload.NewRunner(k, workload.Web(), 1)
	r.Run(20) // warmup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}

func BenchmarkFullScan(b *testing.B) {
	pm := mem.NewPhysMem(1 << 30)
	bd := mem.NewBuddy(pm, 0, pm.NPages, mem.PolicyLIFO, true, mem.MigrateMovable)
	for i := 0; i < 10000; i++ {
		bd.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.Scan(mem.ScanOrders)
	}
}

// BenchmarkFullScanCold measures a from-scratch index rebuild: every
// pageblock is marked dirty before each scan, exercising the sharded
// parallel recompute instead of the O(dirty) warm path BenchmarkFullScan
// hits on an unchanged machine.
func BenchmarkFullScanCold(b *testing.B) {
	pm := mem.NewPhysMem(1 << 30)
	bd := mem.NewBuddy(pm, 0, pm.NPages, mem.PolicyLIFO, true, mem.MigrateMovable)
	for i := 0; i < 10000; i++ {
		bd.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
	}
	pm.Scan(mem.ScanOrders) // build the index once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.DirtyAll()
		pm.Scan(mem.ScanOrders)
	}
}

// BenchmarkAllocHead measures the covering-head lookup that compaction,
// defrag, and region resizing lean on — O(1) via per-frame stamped
// covering orders, where it used to walk candidate orders per query.
func BenchmarkAllocHead(b *testing.B) {
	pm := mem.NewPhysMem(256 << 20)
	bd := mem.NewBuddy(pm, 0, pm.NPages, mem.PolicyLIFO, true, mem.MigrateMovable)
	var pfns []uint64
	for o := 0; o <= mem.PageblockOrder; o++ {
		for i := 0; i < 64; i++ {
			if pfn, ok := bd.Alloc(o, mem.MigrateMovable, mem.SrcUser); ok {
				// Query the last frame of the block: the worst case for
				// the old walk, identical cost for the stamped lookup.
				pfns = append(pfns, pfn+mem.OrderPages(o)-1)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pm.AllocHead(pfns[i%len(pfns)]); !ok {
			b.Fatal("no covering head")
		}
	}
}

func BenchmarkHWMigration4K(b *testing.B) {
	md := contighw.Noncacheable
	for i := 0; i < b.N; i++ {
		m := platform.NewMachine(hw.DefaultParams(), &md)
		m.MapPage(10, 100)
		if _, err := m.HWMigrate(10, 100, 200, platform.HWMigrateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoftwareMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := platform.NewMachine(hw.DefaultParams(), nil)
		m.MapPage(10, 100)
		m.SoftwareMigrate(0, 10, 100, 200, []int{1, 2, 3, 4, 5, 6, 7})
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	md := contighw.Noncacheable
	m := platform.NewMachine(hw.DefaultParams(), &md)
	b.ResetTimer()
	var now uint64
	for i := 0; i < b.N; i++ {
		va := uint64(i%4096) << 12
		_, now = m.Access(i%8, va, i%3 == 0, uint64(i), now)
	}
}

func BenchmarkSlabAllocFree(b *testing.B) {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 256 << 20
	cfg.InitialUnmovableBytes = 64 << 20
	cfg.MinUnmovableBytes = 16 << 20
	cfg.MaxUnmovableBytes = 128 << 20
	k := kernel.New(cfg)
	c, err := slab.NewCache("dentry", 320, k)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := c.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		c.Free(o)
	}
}

func BenchmarkTLBTranslate(b *testing.B) {
	pc := tlb.NewPerCore(hw.DefaultParams())
	resolve := func(vpn uint64) (uint64, bool) { return vpn, false }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Translate(uint64(i%4096), resolve)
	}
}

func BenchmarkTranslationStudy(b *testing.B) {
	cfg := cpu.DefaultConfig()
	cfg.Accesses = 20000
	cfg.FootprintPages = 8192
	var frac float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		r := cpu.TranslationStudy(cfg)
		frac = r.WalkFrac
	}
	b.ReportMetric(frac*100, "walk-%")
}

// BenchmarkMetricsExposition measures one /metrics render: translating
// a populated snapshot (a warmed Contiguitas kernel's full registry)
// into Prometheus text. This is pure reader-side cost — it runs against
// an already-captured snapshot, so the number is what each scrape
// charges the HTTP handler, not the simulation.
func BenchmarkMetricsExposition(b *testing.B) {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 512 << 20
	cfg.InitialUnmovableBytes = 32 << 20
	cfg.MinUnmovableBytes = 16 << 20
	cfg.MaxUnmovableBytes = 256 << 20
	k := kernel.New(cfg)
	k.SetTracer(telemetry.NewRing(1 << 14))
	k.AttachSampler(1 << 12)
	r := workload.NewRunner(k, workload.Web(), 1)
	r.Run(200)
	snap := k.Metrics().Capture(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obsv.WritePromText(io.Discard, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTickScrapeUnderLoad is BenchmarkTickTelemetryOn with a live
// scraper attached: a background goroutine continuously demands fresh
// snapshots and renders them while the writer ticks and pumps. The
// per-tick cost must stay within noise of BenchmarkTickTelemetryOn —
// the observed process paying for its observer would violate the
// plane's core design constraint.
func BenchmarkTickScrapeUnderLoad(b *testing.B) {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 512 << 20
	cfg.InitialUnmovableBytes = 32 << 20
	cfg.MinUnmovableBytes = 16 << 20
	cfg.MaxUnmovableBytes = 256 << 20
	k := kernel.New(cfg)
	k.SetTracer(telemetry.NewRing(1 << 14))
	k.AttachSampler(1 << 12)
	r := workload.NewRunner(k, workload.Web(), 1)
	r.Run(20) // warmup
	pub := telemetry.NewPublisher(k.Metrics())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := pub.Fresh(time.Millisecond); s != nil {
				_ = obsv.WritePromText(io.Discard, s)
			}
		}
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
		pub.Pump(uint64(i))
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
