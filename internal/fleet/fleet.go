// Package fleet reproduces the paper's §2.4-2.5 fleet study: thousands
// of servers are sampled, each running a randomized workload mix for a
// randomized uptime, and a full physical-memory scan is taken — yielding
// the contiguity CDFs (Figure 4), the unmovable-block CDFs (Figure 5),
// the unmovable-source breakdown (Figure 6), and the uptime-versus-
// contiguity correlation the paper finds to be essentially zero.
//
// The study executes as a set of deterministic shards under the
// internal/supervise engine (see shard.go): each shard draws its server
// plans from its own stats.ShardSeed-derived RNG stream and merges its
// samples into a canonical slot, so the study result is a pure function
// of Config — independent of worker count, scheduling, injected shard
// kills, and checkpoint/resume.
package fleet

import (
	"context"
	"fmt"

	"contiguitas/internal/core"
	"contiguitas/internal/mem"
	"contiguitas/internal/stats"
	"contiguitas/internal/workload"
)

// Config parameterises the study.
type Config struct {
	Servers  int
	MemBytes uint64
	Design   core.Design
	// TicksMin/Max bound the uniformly-drawn uptime of each server.
	TicksMin, TicksMax uint64
	// JitterFrac randomises each server's unmovable and churn levels
	// around the profile baseline (fleet heterogeneity).
	JitterFrac float64
	Seed       uint64
	// Shards partitions the fleet into supervised execution shards
	// (0 picks DefaultShards(Servers)). The partition and every shard's
	// RNG stream are pure functions of the config, so the shard count
	// changes scheduling granularity and restart blast radius — never
	// results for a fixed value.
	Shards int
}

// DefaultConfig returns a study sized for interactive runs; cmd/fleetscan
// scales it up.
func DefaultConfig() Config {
	return Config{
		Servers:    120,
		MemBytes:   1 << 30,
		Design:     core.DesignLinux,
		TicksMin:   60,
		TicksMax:   500,
		JitterFrac: 0.5,
		Seed:       1,
	}
}

// Sample is one scanned server.
type Sample struct {
	Profile string
	Uptime  uint64

	FreePages uint64
	// FreeContigFrac and UnmovBlockFrac hold one value per
	// mem.ScanOrders entry, at that entry's position.
	FreeContigFrac  [mem.NumScanOrders]float64
	UnmovBlockFrac  [mem.NumScanOrders]float64
	UnmovFrameFrac  float64
	Free2MBlocks    uint64
	SourceBreakdown [mem.NumSources]uint64
}

// Study aggregates the fleet scan.
type Study struct {
	Cfg     Config
	Samples []Sample

	// Lazily-built per-order CDF caches, by scan-order position: the CLI
	// evaluates the same CDF at many x values in nested loops, and
	// rebuilding (copy + sort) per call dominated study post-processing.
	contigCDF [mem.NumScanOrders]*stats.CDF
	unmovCDF  [mem.NumScanOrders]*stats.CDF
}

// scanIndex is order's position in mem.ScanOrders, the index into a
// Sample's per-order arrays. A study holds no other order, so asking
// for one is a programming error.
func scanIndex(order int) int {
	for i, o := range mem.ScanOrders {
		if o == order {
			return i
		}
	}
	panic(fmt.Sprintf("fleet: order %d is not a scan order", order))
}

// serverPlan is one server's pre-drawn randomization, fixed before the
// parallel phase so results are independent of scheduling.
type serverPlan struct {
	profile     workload.Profile
	machineSeed uint64
	runnerSeed  uint64
	uptime      uint64
}

// drawPlans draws n server plans from rng — the generative model of the
// fleet's heterogeneity. Each shard calls this against its own RNG
// stream, so a shard's plans depend only on (config, shard index).
func drawPlans(cfg Config, rng *stats.RNG, n int) []serverPlan {
	profiles := workload.Profiles()
	plans := make([]serverPlan, n)
	for s := range plans {
		p := profiles[rng.Intn(len(profiles))]
		jitter := func(x float64) float64 {
			return x * (1 + cfg.JitterFrac*(2*rng.Float64()-1))
		}
		// Unmovable footprints are heavy-tailed across a real fleet
		// (Figure 5 reaches 80-100 % of 2 MB blocks on the worst
		// servers): draw a log-normal multiplier.
		unmovScale := rng.LogNormal(0.15, 0.55)
		if unmovScale > 3.5 {
			unmovScale = 3.5
		}
		p.UnmovableFrac = clamp01(p.UnmovableFrac * unmovScale)
		p.UnmovableChurn = clamp01(jitter(p.UnmovableChurn))
		p.SmallChurn = clamp01(jitter(p.SmallChurn))
		p.UserChurn = clamp01(jitter(p.UserChurn))
		// Memory-utilization heterogeneity: production services are
		// packed to fit their machines, and a tail of servers runs hard
		// against capacity — where THP faults fail, user memory decays
		// to base pages, and free memory becomes scattered holes. That
		// tail is the fully-fragmented 23 % of Figure 4.
		if headroom := 0.97 - p.UserFrac - p.PageCacheFrac - p.UnmovableFrac; headroom > 0 {
			p.UserFrac += headroom * rng.Float64()
		}
		plans[s] = serverPlan{
			profile:     p,
			machineSeed: rng.Uint64(),
			runnerSeed:  rng.Uint64(),
			uptime:      cfg.TicksMin + uint64(rng.Int63n(int64(cfg.TicksMax-cfg.TicksMin+1))),
		}
	}
	return plans
}

// Run executes the study through the supervised sharded engine with no
// faults armed and no durable state. With nothing to crash a shard the
// campaign cannot fail, so Run keeps the historical infallible
// signature; use RunSupervised directly for checkpointing, fault
// injection, cancellation, and resume. The panics below are true
// assertions: every real failure path reports through RunSupervised's
// error (bad configuration, pre-cancelled context, resume problems) and
// none of those can arise from a fresh Background-context campaign over
// a validated Config.
func Run(cfg Config) *Study {
	res, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg})
	if err != nil {
		panic("fleet: unfaulted in-memory study failed: " + err.Error())
	}
	if !res.Report.Complete {
		panic("fleet: unfaulted in-memory study incomplete: " + res.Report.String())
	}
	return res.Study
}

// runServer simulates one server to its uptime and scans it into the
// caller-owned scratch stats (reused across the worker's servers).
func runServer(cfg Config, plan serverPlan, st *mem.ContiguityStats) Sample {
	mc := core.DefaultMachineConfig(cfg.Design)
	mc.MemBytes = cfg.MemBytes
	mc.Seed = plan.machineSeed
	m := core.NewMachine(mc)
	r := m.Attach(plan.profile, plan.runnerSeed)
	r.Run(plan.uptime)

	m.K.PM().ScanInto(st, mem.ScanOrders)
	smp := Sample{
		Profile:        plan.profile.Name,
		Uptime:         plan.uptime,
		FreePages:      st.FreePages,
		UnmovFrameFrac: st.UnmovableFrameFraction(),
		Free2MBlocks:   st.FreeContigPages[mem.Order2M] / mem.PageblockPages,
	}
	for i, o := range mem.ScanOrders {
		smp.FreeContigFrac[i] = st.FreeContigFraction(o)
		smp.UnmovBlockFrac[i] = st.UnmovableBlockFraction(o)
	}
	for i := range smp.SourceBreakdown {
		smp.SourceBreakdown[i] = st.UnmovableBySource[i]
	}
	return smp
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// ContigCDF is Figure 4: the distribution across servers of free-memory
// contiguity at the given block order, as a fraction of free memory.
// The CDF is built once per order and cached; Samples are immutable
// after Run.
func (s *Study) ContigCDF(order int) *stats.CDF {
	i := scanIndex(order)
	if c := s.contigCDF[i]; c != nil {
		return c
	}
	vals := make([]float64, 0, len(s.Samples))
	for _, smp := range s.Samples {
		vals = append(vals, smp.FreeContigFrac[i])
	}
	s.contigCDF[i] = stats.NewCDFInPlace(vals)
	return s.contigCDF[i]
}

// UnmovCDF is Figure 5: the distribution of the fraction of blocks at
// the given order containing unmovable memory. Cached per order like
// ContigCDF.
func (s *Study) UnmovCDF(order int) *stats.CDF {
	i := scanIndex(order)
	if c := s.unmovCDF[i]; c != nil {
		return c
	}
	vals := make([]float64, 0, len(s.Samples))
	for _, smp := range s.Samples {
		vals = append(vals, smp.UnmovBlockFrac[i])
	}
	s.unmovCDF[i] = stats.NewCDFInPlace(vals)
	return s.unmovCDF[i]
}

// NoContigFraction returns the fraction of servers without a single
// free block of the order (the paper: 23 % of servers lack even one
// 2 MB block).
func (s *Study) NoContigFraction(order int) float64 {
	i, n := scanIndex(order), 0
	for _, smp := range s.Samples {
		if smp.FreeContigFrac[i] == 0 {
			n++
		}
	}
	return float64(n) / float64(len(s.Samples))
}

// SourceBreakdown is Figure 6: the fleet-aggregate shares of unmovable
// memory by allocation source.
func (s *Study) SourceBreakdown() [mem.NumSources]float64 {
	var totals [mem.NumSources]uint64
	var all uint64
	for _, smp := range s.Samples {
		for i, v := range smp.SourceBreakdown {
			totals[i] += v
			all += v
		}
	}
	var out [mem.NumSources]float64
	if all == 0 {
		return out
	}
	for i, v := range totals {
		out[i] = float64(v) / float64(all)
	}
	return out
}

// UptimeCorrelation returns Pearson's r between server uptime and the
// number of free 2 MB blocks — ~0.003 in the paper's fleet.
func (s *Study) UptimeCorrelation() float64 {
	xs := make([]float64, len(s.Samples))
	ys := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		xs[i] = float64(smp.Uptime)
		ys[i] = float64(smp.Free2MBlocks)
	}
	return stats.Pearson(xs, ys)
}

// MedianUnmovBlockFrac returns the fleet median of the unmovable-block
// fraction at an order (§2.5: 34 % at 2 MB on Linux).
func (s *Study) MedianUnmovBlockFrac(order int) float64 {
	i := scanIndex(order)
	vals := make([]float64, 0, len(s.Samples))
	for _, smp := range s.Samples {
		vals = append(vals, smp.UnmovBlockFrac[i])
	}
	return stats.Percentile(vals, 50)
}

// TimePoint is one instant of a young server's fragmentation history.
type TimePoint struct {
	Tick           uint64
	FreeContig2M   float64
	UnmovBlock2M   float64
	UnmovFrameFrac float64
}

// YoungServerSeries reproduces the paper's §2.4 observation that
// servers become highly fragmented within their first hour: one server
// is booted fresh and scanned every interval ticks.
func YoungServerSeries(cfg Config, p workload.Profile, points int, interval uint64) []TimePoint {
	mc := core.DefaultMachineConfig(cfg.Design)
	mc.MemBytes = cfg.MemBytes
	mc.Seed = cfg.Seed
	m := core.NewMachine(mc)
	r := m.Attach(p, cfg.Seed+1)
	var out []TimePoint
	for i := 0; i < points; i++ {
		r.Run(interval)
		st := m.K.PM().Scan([]int{mem.Order2M})
		out = append(out, TimePoint{
			Tick:           uint64(i+1) * interval,
			FreeContig2M:   st.FreeContigFraction(mem.Order2M),
			UnmovBlock2M:   st.UnmovableBlockFraction(mem.Order2M),
			UnmovFrameFrac: st.UnmovableFrameFraction(),
		})
	}
	return out
}

// MedianUnmovFrameFrac returns the fleet median unmovable 4 KB frame
// fraction (§2.5: 7.6 %).
func (s *Study) MedianUnmovFrameFrac() float64 {
	vals := make([]float64, 0, len(s.Samples))
	for _, smp := range s.Samples {
		vals = append(vals, smp.UnmovFrameFrac)
	}
	return stats.Percentile(vals, 50)
}
