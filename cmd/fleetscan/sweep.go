// The -sweep grid mode: run the Fig. 4/5 CDF pipeline over the
// cross-product of designs × memory sizes × jitter levels, optionally
// through the content-addressed shard result cache (-cache-dir), and
// emit a canonical results file whose bytes depend only on the studies —
// so a warm-cache sweep is verifiably identical to a cold one
// (cmp two -sweep-out files), not just "close".
package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"

	"contiguitas/internal/cli"
	"contiguitas/internal/fleet"
	"contiguitas/internal/mem"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
	"contiguitas/internal/vfs"
)

// Fixed CDF probe points: the Fig. 4 contiguity thresholds and the
// Fig. 5 unmovable-block thresholds main() prints, frozen here so the
// canonical sweep file is stable across cosmetic table changes.
var (
	sweepContigX = []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
	sweepUnmovX  = []float64{0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0}
	sweepOrders  = []int{mem.Order2M, mem.Order4M, mem.Order32M, mem.Order1G}
)

func splitCSV(s, flagName string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		cli.Usagef("fleetscan: %s needs at least one value", flagName)
	}
	return out
}

func parseMems(s string) []uint64 {
	var out []uint64
	for _, f := range splitCSV(s, "-sweep-mems") {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			cli.Usagef("fleetscan: -sweep-mems: bad MiB value %q", f)
		}
		out = append(out, v)
	}
	return out
}

func parseJitters(s string) []float64 {
	var out []float64
	for _, f := range splitCSV(s, "-sweep-jitters") {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			cli.Usagef("fleetscan: -sweep-jitters: bad fraction %q", f)
		}
		out = append(out, v)
	}
	return out
}

// runCampaign executes one configuration through the supervised engine
// (the cache only attaches there), failing hard on setup errors and
// incomplete unfaulted runs. name labels the campaign on the -serve
// board.
func runCampaign(name string, cfg fleet.Config, cache resultcache.Cache) *fleet.CampaignResult {
	scfg := fleet.SupervisedConfig{Fleet: cfg, Cache: cache}
	onPlane(&scfg, name)
	res, err := fleet.RunSupervised(context.Background(), scfg)
	if err != nil {
		cli.Runtimef("fleetscan: %v", err)
	}
	publishCampaign()
	if !res.Report.Complete {
		cli.Verifyf("fleetscan: unfaulted campaign incomplete: %s", res.Report)
	}
	return res
}

// cacheSummary is the one-line tally the CI cache-correctness job
// greps; keep the key=value shape stable.
func cacheSummary(hits, misses, rejects uint64) string {
	return fmt.Sprintf("cache: hits=%d misses=%d rejects=%d", hits, misses, rejects)
}

// runSweep runs every cell of sp's grid, in the service's canonical
// order, and writes the canonical results file to out (if set).
func runSweep(sp service.Spec, out string, cache resultcache.Cache) {
	cells := sp.Cells()
	fmt.Printf("sweep: %d cells (%d designs x %d mems x %d jitters), %d servers each\n",
		len(cells), len(sp.Designs), len(sp.MemsMiB), len(sp.Jitters), sp.Servers)

	var canon bytes.Buffer
	fmt.Fprintf(&canon, "# fleetscan sweep v1 servers=%d seed=%d shards=%d min=%d max=%d\n",
		sp.Servers, sp.Seed, sp.Shards, sp.TicksMin, sp.TicksMax)

	var hits, misses, rejects uint64
	for _, c := range cells {
		cfg, err := sp.FleetConfig(c)
		if err != nil {
			cli.Usagef("fleetscan: %v", err)
		}
		res := runCampaign(fmt.Sprintf("%s-%dMiB-j%g", c.Design, c.MemMiB, c.Jitter), cfg, cache)
		hits += res.CacheHits
		misses += res.CacheMisses
		rejects += res.CacheRejects
		writeCell(&canon, c, res.Study)
		fmt.Printf("  design=%-12s mem=%5d MiB jitter=%.2f  zero-2MB-contig=%3.0f%%  median-unmov-2MB=%3.0f%%\n",
			c.Design, c.MemMiB, c.Jitter,
			res.Study.NoContigFraction(mem.Order2M)*100,
			res.Study.MedianUnmovBlockFrac(mem.Order2M)*100)
	}

	if cache != nil {
		fmt.Println(cacheSummary(hits, misses, rejects))
	} else {
		fmt.Println("cache: disabled")
	}

	if out != "" {
		// Durable write: a sweep interrupted mid-write must never leave a
		// torn canonical file for a later diff to chase.
		cli.Check(vfs.WriteFileDurable(vfs.Active(), out, canon.Bytes()))
		fmt.Printf("wrote %d cells (%d canonical bytes) to %s\n", len(cells), canon.Len(), out)
	}
}

// writeCell appends one grid cell to the canonical sweep file: the cell
// coordinates, the FNV digest of the study's full canonical byte
// serialisation (every sample field — the strongest equality check we
// have), and the Fig. 4 / Fig. 5 CDF values at the frozen probe points.
func writeCell(buf *bytes.Buffer, c service.Cell, s *fleet.Study) {
	fmt.Fprintf(buf, "cell design=%s mem_mib=%d jitter=%g\n", c.Design, c.MemMiB, c.Jitter)
	fmt.Fprintf(buf, "study samples=%d digest=%016x\n", len(s.Samples), fleet.CanonicalDigest(s))
	for _, o := range sweepOrders {
		fmt.Fprintf(buf, "fig4 order=%d", o)
		for _, x := range sweepContigX {
			fmt.Fprintf(buf, " %.6f", s.ContigCDF(o).At(x))
		}
		fmt.Fprintln(buf)
	}
	for _, o := range sweepOrders {
		fmt.Fprintf(buf, "fig5 order=%d", o)
		for _, x := range sweepUnmovX {
			fmt.Fprintf(buf, " %.6f", s.UnmovCDF(o).At(x))
		}
		fmt.Fprintln(buf)
	}
}
