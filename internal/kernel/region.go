package kernel

import (
	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/psi"
	"contiguitas/internal/resize"
	"contiguitas/internal/telemetry"
)

// runResizer is the Contiguitas resizer thread (§3.2): it evaluates
// Algorithm 1 against the per-region PSI pressures and moves the
// boundary toward the target, bounded per invocation so resizing stays
// off the allocation critical path. An injected fault aborts the
// evaluation — the thread lost its slot this period and tries again at
// the next one.
func (k *Kernel) runResizer() {
	if k.faults().Should(fault.PointRegionResize) {
		k.ResizeAborts++
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvResizeAbort, k.boundary, 0, 0)
		}
		return
	}
	in := resize.Input{
		PressureUnmov: k.psi.Pressure(psi.RegionUnmovable),
		PressureMov:   k.psi.Pressure(psi.RegionMovable),
		Thresholds:    k.cfg.ResizeThresholds,
		Coeff:         k.cfg.ResizeCoeff,
		MemUnmov:      k.boundary,
	}
	d := resize.Resize(in)
	target := resize.Clamp(d.Target,
		mem.BytesToPages(k.cfg.MinUnmovableBytes),
		mem.BytesToPages(k.cfg.MaxUnmovableBytes))
	target = alignPageblock(target)
	if k.tp.Enabled() {
		// PSI percentages carried as milli-percent so the packed uint64
		// args keep three decimal places.
		k.tp.Emit(k.tick, telemetry.EvResizeEval,
			uint64(in.PressureUnmov*1000), uint64(in.PressureMov*1000), target)
	}

	step := alignPageblock(mem.BytesToPages(k.cfg.MaxResizeStepBytes))
	switch {
	case target > k.boundary:
		delta := target - k.boundary
		if delta > step {
			delta = step
		}
		k.ExpandUnmovable(delta)
	case target < k.boundary:
		delta := k.boundary - target
		if delta > step {
			delta = step
		}
		k.ShrinkUnmovable(delta)
	}
}

// ExpandUnmovable grows the unmovable region by at least wantPages
// (rounded up to whole pageblocks), taking frames from the bottom of the
// movable region. Movable allocations in the takeover range are migrated
// upward first. It returns the number of frames actually transferred.
// The resizer calls this automatically; it is exported for manual region
// management and for experiments.
func (k *Kernel) ExpandUnmovable(wantPages uint64) uint64 {
	if k.cfg.Mode != ModeContiguitas {
		return 0
	}
	delta := (wantPages + mem.PageblockPages - 1) &^ (mem.PageblockPages - 1)
	maxB := alignPageblock(mem.BytesToPages(k.cfg.MaxUnmovableBytes))
	newB := k.boundary + delta
	if newB > maxB {
		newB = maxB
	}
	// Never consume the movable region entirely.
	if limit := k.pm.NPages - mem.PageblockPages; newB > limit {
		newB = alignPageblock(limit)
	}
	if newB <= k.boundary {
		return 0
	}
	oldB := k.boundary

	if err := k.evacuate(k.mov, oldB, newB, false); err != nil {
		// Could not clear the full range (movable region too full to
		// absorb its own pages, or a carve/migration fault). Give back
		// what was carved: expansion fails this round and the resizer
		// retries at its next period.
		k.donateLimbo(k.mov, oldB, newB)
		return 0
	}
	mustAdjustBounds(k.mov, newB, k.pm.NPages)
	mustAdjustBounds(k.unmov, 0, newB)
	for pb := oldB / mem.PageblockPages; pb < newB/mem.PageblockPages; pb++ {
		k.pm.SetPageblockMT(pb*mem.PageblockPages, mem.MigrateUnmovable)
	}
	mustDonate(k.unmov, oldB, newB-oldB)
	k.boundary = newB
	k.Expands++
	k.BoundaryMovedPages += newB - oldB
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvResizeGrow, oldB, newB, newB-oldB)
	}
	return newB - oldB
}

// ShrinkUnmovable releases up to wantPages frames from the top of the
// unmovable region back to the movable region. The resizer calls this
// automatically; it is exported for manual region management and for
// experiments. Allocations in the way
// are dropped (reclaimable) or relocated downward with Contiguitas-HW;
// without the hardware, the shrink stops at the highest unmovable
// allocation — the exact limitation §3.3 motivates.
func (k *Kernel) ShrinkUnmovable(wantPages uint64) uint64 {
	if k.cfg.Mode != ModeContiguitas {
		return 0
	}
	delta := alignPageblock(wantPages)
	minB := alignPageblock(mem.BytesToPages(k.cfg.MinUnmovableBytes))
	if minB < mem.PageblockPages {
		minB = mem.PageblockPages
	}
	var newB uint64
	if delta >= k.boundary {
		newB = minB
	} else {
		newB = k.boundary - delta
		if newB < minB {
			newB = minB
		}
	}
	if newB >= k.boundary {
		return 0
	}
	oldB := k.boundary

	// Without hardware assistance, find the highest obstacle and shrink
	// only above it.
	if k.cfg.HWMover == nil {
		if top := k.highestImmovable(newB, oldB); top != noHead {
			newB = (top + mem.PageblockPages) &^ (mem.PageblockPages - 1)
			if newB >= oldB {
				k.ShrinkFails++
				if k.tp.Enabled() {
					k.tp.Emit(k.tick, telemetry.EvResizeShrinkFail, oldB, newB, 0)
				}
				return 0
			}
		}
	}

	if err := k.evacuate(k.unmov, newB, oldB, true); err != nil {
		k.donateLimbo(k.unmov, newB, oldB)
		k.ShrinkFails++
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvResizeShrinkFail, oldB, newB, 0)
		}
		return 0
	}
	mustAdjustBounds(k.unmov, 0, newB)
	mustAdjustBounds(k.mov, newB, k.pm.NPages)
	for pb := newB / mem.PageblockPages; pb < oldB/mem.PageblockPages; pb++ {
		k.pm.SetPageblockMT(pb*mem.PageblockPages, mem.MigrateMovable)
	}
	mustDonate(k.mov, newB, oldB-newB)
	k.boundary = newB
	k.Shrinks++
	k.BoundaryMovedPages += oldB - newB
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvResizeShrink, oldB, newB, oldB-newB)
	}
	return oldB - newB
}

// highestImmovable returns the highest frame in [start, end) that
// software cannot clear (unmovable migratetype or pinned), or noHead.
// Pageblocks whose cached summary shows no unmovable frames are skipped
// wholesale: a qualifying frame must be allocated (limbo frames have no
// covering head), which is exactly what the summary counts.
func (k *Kernel) highestImmovable(start, end uint64) uint64 {
	pm := k.pm
	p := end
	for p > start {
		if p&(mem.PageblockPages-1) == 0 && p-start >= mem.PageblockPages {
			if pm.PageblockInfoAt(p-mem.PageblockPages).UnmovFrames == 0 {
				p -= mem.PageblockPages
				continue
			}
		}
		f := p - 1
		p--
		if pm.IsFree(f) {
			continue
		}
		if pm.IsPinned(f) || pm.PageMT(f) == mem.MigrateUnmovable {
			if k.coveringHead(f) != noHead {
				return f
			}
		}
	}
	return noHead
}

// DefragUnmovable compacts the unmovable region with Contiguitas-HW:
// allocations are relocated toward low addresses, consolidating the free
// space at the top so subsequent shrinks succeed. It does nothing
// without a Mover. Returns the number of blocks relocated.
func (k *Kernel) DefragUnmovable() int {
	if k.cfg.Mode != ModeContiguitas || k.cfg.HWMover == nil {
		return 0
	}
	pm := k.pm
	moved := 0
	// Walk from the top; try to rehome each allocation into a lower
	// free block.
	p := k.boundary
	for p > 0 {
		f := p - 1
		if pm.IsFree(f) {
			p--
			continue
		}
		h := k.coveringHead(f)
		if h == noHead {
			p--
			continue
		}
		s := k.pt.heads[h]
		if s == 0 {
			p = h
			continue
		}
		handle := k.pt.rows[s]
		dst, ok := k.unmov.Alloc(int(handle.order), handle.mt, handle.src)
		if !ok {
			p = h
			continue
		}
		if dst >= h {
			// No lower placement available; undo.
			mustFree(k.unmov, dst)
			p = h
			continue
		}
		if err := k.hwMigrateTo(s, dst); err != nil {
			// Engine abort: skip this allocation, defragment the rest.
			mustFree(k.unmov, dst)
			k.MigrationDeferred++
			if k.tp.Enabled() {
				k.tp.Emit(k.tick, telemetry.EvMigrateDefer, h, uint64(handle.order), 0)
			}
			p = h
			continue
		}
		moved++
		p = h
	}
	return moved
}
