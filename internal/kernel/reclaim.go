package kernel

import (
	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/psi"
	"contiguitas/internal/telemetry"
)

// noCacheEntry marks a consumed or detached reclaimable-FIFO slot. PFN 0
// is a valid entry, so the sentinel is the all-ones pattern (frame counts
// stay far below 2^32-1 in any simulated machine).
const noCacheEntry = ^uint32(0)

// reclaim drops reclaimable (page-cache-like) allocations residing in
// buddy b's range, oldest first, until at least target frames have been
// freed or nothing reclaimable remains. The FIFO is consumed from a head
// cursor so repeated reclaims stay O(work done), not O(cache size);
// entries belonging to other regions are skipped in place and revisited
// only when the FIFO is compacted.
func (k *Kernel) reclaim(b *mem.Buddy, target uint64) uint64 {
	// Page cache is movable memory, so only the region hosting the
	// movable class has anything to reclaim.
	if k.buddyFor(mem.MigrateMovable) != b {
		return 0
	}
	if k.faults().Should(fault.PointReclaimProgress) {
		// Injected "reclaim makes no progress": the LRU churns but frees
		// nothing, which is what drives the pressure ladder past the
		// throttle rung in chaos runs.
		return 0
	}
	var freed uint64
	i := k.reclaimHead
	for ; i < len(k.reclaimable) && freed < target; i++ {
		e := k.reclaimable[i]
		if e == noCacheEntry {
			continue // freed by its holder or another region's pass
		}
		pfn := uint64(e)
		if !b.Owns(pfn) {
			continue
		}
		freed += k.dropReclaimable(i)
		k.queueFree(pfn)
	}
	k.flushFrees()
	k.settleReclaimHead()
	return freed
}

// dropReclaimable consumes FIFO entry i as reclaimed: the handle leaves
// the page table and the FIFO, and the caller releases its frames, whose
// count it returns. A live FIFO entry always resolves: the entry is
// stamped with the sentinel whenever its page is freed, detached, or
// reclaimed.
func (k *Kernel) dropReclaimable(i int) uint64 {
	s := k.pt.heads[k.reclaimable[i]]
	n := k.pt.rows[s].pages()
	k.pt.release(s)
	k.reclaimable[i] = noCacheEntry
	k.ReclaimedPages += n
	k.reclaimablePages -= n
	return n
}

// settleReclaimHead ends a reclaim pass: it advances the head past the
// leading run of consumed entries and compacts the FIFO when the dead
// prefix dominates.
func (k *Kernel) settleReclaimHead() {
	for k.reclaimHead < len(k.reclaimable) && k.reclaimable[k.reclaimHead] == noCacheEntry {
		k.reclaimHead++
	}
	if k.reclaimHead > len(k.reclaimable)/2 && k.reclaimHead > 1024 {
		k.compactReclaimable()
	}
}

// compactReclaimable drops consumed entries and re-indexes survivors.
func (k *Kernel) compactReclaimable() {
	out := k.reclaimable[:0]
	for _, e := range k.reclaimable {
		if e != noCacheEntry {
			k.pt.rows[k.pt.heads[e]].cacheIdx = int32(len(out))
			out = append(out, e)
		}
	}
	k.reclaimable = out
	k.reclaimHead = 0
}

// kswapd runs the background reclaimer for one region: when free memory
// falls below the low watermark it reclaims up to the high watermark.
func (k *Kernel) kswapd(b *mem.Buddy) {
	low := uint64(float64(b.Pages()) * k.cfg.WatermarkLow)
	high := uint64(float64(b.Pages()) * k.cfg.WatermarkHigh)
	if b.FreePages() >= low {
		return
	}
	k.KswapdRuns++
	want := high - b.FreePages()
	freed := k.reclaim(b, want)
	if k.tp.Enabled() {
		region := psi.RegionMovable
		if b == k.unmov {
			region = psi.RegionUnmovable
		}
		k.tp.Emit(k.tick, telemetry.EvKswapd, uint64(region), want, freed)
	}
}

// EndTick closes one virtual millisecond: background reclaim runs for
// each region, the Contiguitas resizer thread is given a chance to run,
// and PSI windows advance.
func (k *Kernel) EndTick() {
	switch k.cfg.Mode {
	case ModeLinux:
		k.kswapd(k.zone)
	case ModeContiguitas:
		k.kswapd(k.unmov)
		k.kswapd(k.mov)
		if k.cfg.ResizePeriodTicks > 0 && k.tick%k.cfg.ResizePeriodTicks == k.cfg.ResizePeriodTicks-1 {
			k.runResizer()
		}
	}
	if k.pcfg != nil {
		// The gate samples this tick's pending movable stall before
		// EndTick folds it into the long-window trackers and zeroes it.
		k.updateAdmissionGate()
	}
	k.psi.EndTick()
	if k.sampler.Enabled() {
		k.sampler.Sample(k.tick)
	}
	k.compactUsed = 0
	k.tick++
	if k.sink != nil {
		k.sink.OnTick()
	}
}

// RunTicks advances n idle ticks (no workload activity).
func (k *Kernel) RunTicks(n uint64) {
	for i := uint64(0); i < n; i++ {
		k.EndTick()
	}
}
