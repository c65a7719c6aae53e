package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"

	"contiguitas/internal/fleet"
	"contiguitas/internal/service"
)

const (
	// defaultSeed is the seed the committed digests in golden.json
	// belong to.
	defaultSeed = 1
	// heldOutSeed is never used while tuning a change; a claimed gain
	// must also hold on it.
	heldOutSeed = 7
)

// mix derives the i-th input seed of a stream from the workload seed
// (splitmix64 finaliser), never 0 because the programs map 0 to a
// default.
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	z >>= 1 // keep it a positive int64 for JSON consumers
	if z == 0 {
		z = 1
	}
	return z
}

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Campaign pools. Every campaign in a run is one of pool specs, cycled;
// each spec has its own study seed, so a run averages over that many
// independent fleets while the oracle derives each of them only once.
const (
	coldPool    = 10
	durablePool = 6
)

// coldSpec is the cold-campaign grid: both designs, servers that live
// 40-120 ticks, so the simulation (and under contiguitas the resize and
// hardware-mover code) dominates. Per-server cost is heavy-tailed and
// grows with memory size; 32 servers of 32 MiB keep a campaign's cost
// within about 12 % of its mean across study seeds, where 8 servers of
// 128 MiB vary by 50 %.
func coldSpec(seed uint64, i int) service.Spec {
	return service.Spec{
		Name:     fmt.Sprintf("cold-%d", i),
		Servers:  32,
		Designs:  []string{"linux", "contiguitas"},
		MemsMiB:  []uint64{32},
		Jitters:  []float64{0.5},
		TicksMin: 40,
		TicksMax: 120,
		Seed:     mix(seed, uint64(i)),
		Shards:   4,
	}
}

// durableSpec is the durable-campaign grid: many tiny, short-lived
// servers per cell, so the per-server checkpoint (gob payload, seal,
// fsync, rename) is a large share of the cell.
func durableSpec(seed uint64, i int) service.Spec {
	return service.Spec{
		Name:     fmt.Sprintf("durable-%d", i),
		Servers:  32,
		Designs:  []string{"linux", "contiguitas"},
		MemsMiB:  []uint64{32},
		Jitters:  []float64{0.5},
		TicksMin: 5,
		TicksMax: 10,
		Seed:     mix(seed, 1000+uint64(i)),
		Shards:   4,
	}
}

// fleetConfig maps one grid cell of a spec to the fleet study the
// daemon runs for it (the service's documented defaults, spelled out).
func fleetConfig(sp service.Spec, cell service.Cell) (fleet.Config, error) {
	design, err := service.ParseDesign(cell.Design)
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.DefaultConfig()
	cfg.Servers = sp.Servers
	cfg.MemBytes = cell.MemMiB << 20
	cfg.Design = design
	cfg.TicksMin = sp.TicksMin
	cfg.TicksMax = sp.TicksMax
	cfg.JitterFrac = cell.Jitter
	cfg.Seed = sp.Seed
	cfg.Shards = sp.Shards
	return cfg, nil
}

// expected is the oracle's view of one campaign: the merged result
// bytes the daemon must return and the work they represent.
type expected struct {
	result []byte
	digest string
	cells  int
	ticks  uint64 // sum of server uptimes across all cells
}

// oracleWorkers is the shard-worker count the oracle derives results
// with; the daemon is started with -shard-workers 2, and a different
// count must not change a single byte.
func oracleWorkers() int { return runtime.GOMAXPROCS(0) + 1 }

// deriveCampaign recomputes a campaign in-process, cell by cell, and
// merges the cells exactly as the service documents its result file.
// progress, when non-nil, supplies a sink per cell.
func deriveCampaign(ctx context.Context, sp service.Spec, workers int, progress func(cell int) fleet.ProgressSink) (expected, error) {
	var merged bytes.Buffer
	var ex expected
	for i, cell := range sp.Cells() {
		cfg, err := fleetConfig(sp, cell)
		if err != nil {
			return ex, err
		}
		scfg := fleet.SupervisedConfig{Fleet: cfg, Workers: workers}
		if progress != nil {
			scfg.Progress = progress(i)
		}
		res, err := fleet.RunSupervised(ctx, scfg)
		if err != nil {
			return ex, fmt.Errorf("oracle %s cell %d: %w", sp.Name, i, err)
		}
		if !res.Report.Complete {
			return ex, fmt.Errorf("oracle %s cell %d: incomplete: %s", sp.Name, i, res.Report)
		}
		data := fleet.CanonicalBytes(res.Study)
		fmt.Fprintf(&merged, "cell design=%s mem_mib=%d jitter=%g bytes=%d\n",
			cell.Design, cell.MemMiB, cell.Jitter, len(data))
		merged.Write(data)
		for _, s := range res.Study.Samples {
			ex.ticks += s.Uptime
		}
		ex.cells++
	}
	ex.result = merged.Bytes()
	ex.digest = fnvHex(ex.result)
	return ex, nil
}

// warmSweepSpec is the warm-sweep grid, written as the equivalent
// campaign spec: eight cells of one-server shards on tiny machines with
// one or two ticks of uptime, so filling the cache is cheap and every
// warm sweep reads one CTGCACH entry per server.
func warmSweepSpec(seed uint64) service.Spec {
	return service.Spec{
		Name:     "warm-sweep",
		Servers:  256,
		Designs:  []string{"linux", "contiguitas"},
		MemsMiB:  []uint64{32, 48},
		Jitters:  []float64{0, 0.1},
		TicksMin: 1,
		TicksMax: 2,
		Seed:     mix(seed, 2000),
		Shards:   256,
	}
}

// sweepArgs is the fleetscan command line that sweeps sp's grid.
func sweepArgs(sp service.Spec, cacheDir, out string) []string {
	join := func(n int, f func(i int) string) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = f(i)
		}
		return strings.Join(parts, ",")
	}
	return []string{
		"-sweep",
		"-servers", fmt.Sprint(sp.Servers),
		"-shards", fmt.Sprint(sp.Shards),
		"-seed", fmt.Sprint(sp.Seed),
		"-min-uptime", fmt.Sprint(sp.TicksMin),
		"-max-uptime", fmt.Sprint(sp.TicksMax),
		"-sweep-designs", strings.Join(sp.Designs, ","),
		"-sweep-mems", join(len(sp.MemsMiB), func(i int) string { return fmt.Sprint(sp.MemsMiB[i]) }),
		"-sweep-jitters", join(len(sp.Jitters), func(i int) string { return fmt.Sprint(sp.Jitters[i]) }),
		"-cache-dir", cacheDir,
		"-sweep-out", out,
	}
}

// serveRuns is how many serving runs one `migbench -bench serve`
// simulates: {nginx, memcached} x {noncacheable, cacheable} x
// {0, 100, 1000} migrations/s.
const serveRuns = 12

// serveCycles is the hw-serve serving window: the model's default 4M
// cycles, offset by the seed in steps of 1000 cycles (under 2 %) so the
// seed reaches the program's input without changing its cost.
func serveCycles(seed uint64) uint64 {
	return 4_000_000 + 1000*(mix(seed, 3000)%64)
}
