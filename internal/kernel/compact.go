package kernel

import (
	"errors"
	"fmt"

	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/telemetry"
)

// compactTarget is one queued candidate block awaiting a retry after a
// skippable evacuation failure.
type compactTarget struct {
	pfn   uint64
	order int
}

// compactDeferState is per-region deferred-compaction backoff: after a
// failed compaction the region is skipped for 2^shift ticks, doubling
// per consecutive failure up to 64 ticks (Linux's COMPACT_MAX_DEFER).
type compactDeferState struct {
	shift uint
	until uint64
}

// Compact tries to manufacture one free block of the given order inside
// buddy b by evacuating a candidate aligned block: movable pages are
// software-migrated elsewhere in the region, reclaimable pages are
// dropped. A candidate containing any unmovable or pinned frame is
// skipped — the fundamental limitation the paper attacks: a single
// scattered unmovable 4 KB page renders the whole block uncompactable
// (§1, §2.5). On success the evacuated block is claimed as an allocation
// of (mt, src) and its head PFN returned.
func (k *Kernel) Compact(b *mem.Buddy, order int, mt mem.MigrateType, src mem.Source) (uint64, bool) {
	k.CompactRuns++
	// Deferred compaction (Linux's defer_compaction): after repeated
	// failures the zone is skipped for exponentially growing spans, so
	// hopeless fragmentation does not burn cycles rescanning.
	if k.compactDefer == nil {
		k.compactDefer = make(map[*mem.Buddy]*compactDeferState)
	}
	ds := k.compactDefer[b]
	if ds == nil {
		ds = &compactDeferState{}
		k.compactDefer[b] = ds
	}
	if !k.directCompact && k.tick < ds.until {
		k.CompactDeferred++
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvCompactDefer, uint64(order), ds.until, k.compactUsed)
		}
		return 0, false
	}
	// kcompactd-style rate limiting: the THP/background path may only
	// migrate so many pages per tick; explicit HugeTLB reservations
	// compact directly without a budget.
	limit := ^uint64(0)
	if !k.directCompact && k.cfg.CompactBudgetPerTick > 0 {
		if k.compactUsed >= k.cfg.CompactBudgetPerTick {
			k.CompactDeferred++
			if k.tp.Enabled() {
				k.tp.Emit(k.tick, telemetry.EvCompactDefer, uint64(order), k.tick, k.compactUsed)
			}
			return 0, false
		}
		limit = k.cfg.CompactBudgetPerTick - k.compactUsed
	}
	cand, cost, ok := k.retryTarget(b, order, limit)
	if !ok {
		cand, cost, ok = k.findCompactionCandidate(b, order, limit)
	}
	if !ok {
		if !k.directCompact {
			if ds.shift < 6 {
				ds.shift++
			}
			ds.until = k.tick + (1 << ds.shift)
			k.CompactDeferred++
			if k.tp.Enabled() {
				k.tp.Emit(k.tick, telemetry.EvCompactDefer, uint64(order), ds.until, k.compactUsed)
			}
		}
		return 0, false
	}
	ds.shift = 0
	if limit != ^uint64(0) {
		k.compactUsed += cost
	}
	if err := k.evacuate(b, cand, cand+mem.OrderPages(order), false); err != nil {
		// Partial evacuation leaves some frames in limbo; donate them
		// back so no memory is lost. A skippable failure (carve race)
		// re-enqueues the target for a later retry.
		k.donateLimbo(b, cand, cand+mem.OrderPages(order))
		if errors.Is(err, ErrCarveFailed) {
			k.requeueTarget(b, cand, order)
		}
		return 0, false
	}
	if err := b.ClaimCarved(cand, order, mt, src); err != nil {
		// The evacuated range was disturbed before the claim; return the
		// limbo frames and retry the target later.
		k.donateLimbo(b, cand, cand+mem.OrderPages(order))
		k.requeueTarget(b, cand, order)
		return 0, false
	}
	k.CompactSuccess++
	k.noteCompactProgress(b)
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvCompactSuccess, cand, uint64(order), cost)
	}
	return cand, true
}

// requeueTarget pushes a failed compaction candidate onto the region's
// retry queue (bounded so repeated faults cannot grow it without limit).
func (k *Kernel) requeueTarget(b *mem.Buddy, pfn uint64, order int) {
	if k.compactRetry == nil {
		k.compactRetry = make(map[*mem.Buddy][]compactTarget)
	}
	q := k.compactRetry[b]
	for _, t := range q {
		if t.pfn == pfn && t.order == order {
			return
		}
	}
	if len(q) >= 64 {
		q = q[1:]
	}
	k.compactRetry[b] = append(q, compactTarget{pfn: pfn, order: order})
	k.CompactRequeues++
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvCompactRequeue, pfn, uint64(order), uint64(len(k.compactRetry[b])))
	}
	// Each requeue re-priced roughly one evacuation's worth of copy
	// work; charge it to the watchdog so a requeue→fail cycle trips.
	k.noteCompactStall(b, pfn, mem.OrderPages(order)*k.migCost.CopyCyclesPerPage)
}

// retryTarget pops the first still-eligible queued target of the given
// order, returning its evacuation cost the same way the scanner does.
// Targets that are no longer inside the region, no longer eligible, or
// of the wrong order are dropped.
func (k *Kernel) retryTarget(b *mem.Buddy, order int, limit uint64) (pfn, cost uint64, ok bool) {
	q := k.compactRetry[b]
	for len(q) > 0 {
		t := q[0]
		q = q[1:]
		k.compactRetry[b] = q
		if t.order != order {
			continue
		}
		c, eligible := k.evacCost(b, t.pfn, order, limit)
		if !eligible {
			continue
		}
		if b.FreePages() < mem.OrderPages(order)+mem.OrderPages(order)/16 {
			continue
		}
		return t.pfn, c, true
	}
	return 0, 0, false
}

// evacCost prices evacuating the aligned block at base: the number of
// occupied frames, or eligible=false when the block holds unmovable or
// pinned frames, exceeds limit, or lies outside the region.
//
// Pageblock-sized and larger candidates are priced from the cached
// pageblock summaries (O(pageblocks) instead of O(frames)); a pageblock
// holding limbo frames falls back to the frame walk, because limbo
// frames carry stale migratetype stamps and the reference walk judges
// them by those stamps.
func (k *Kernel) evacCost(b *mem.Buddy, base uint64, order int, limit uint64) (cost uint64, eligible bool) {
	bp := mem.OrderPages(order)
	if base < b.Start() || base+bp > b.End() || base&(bp-1) != 0 {
		return 0, false
	}
	pm := k.pm
	if order < mem.PageblockOrder {
		return k.evacCostFrames(base, base+bp, limit)
	}
	var c uint64
	for pb := base; pb < base+bp; pb += mem.PageblockPages {
		info := pm.PageblockInfoAt(pb)
		if info.LimboFrames != 0 {
			fc, ok := k.evacCostFrames(pb, pb+mem.PageblockPages, ^uint64(0))
			if !ok {
				return 0, false
			}
			c += fc
		} else {
			if info.UnmovFrames != 0 {
				return 0, false
			}
			c += mem.PageblockPages - info.FreePages
		}
		if c > limit {
			return 0, false
		}
	}
	return c, true
}

// evacCostFrames is the frame-granular reference pricing over [start, end).
func (k *Kernel) evacCostFrames(start, end, limit uint64) (cost uint64, eligible bool) {
	pm := k.pm
	var c uint64
	for p := start; p < end; p++ {
		if pm.IsFree(p) {
			continue
		}
		if pm.IsPinned(p) || pm.PageMT(p) == mem.MigrateUnmovable {
			return 0, false
		}
		c++
		if c > limit {
			return 0, false
		}
	}
	return c, true
}

// findCompactionCandidate scans aligned blocks of the order inside b's
// range, starting from a rotating cursor (like Linux's compaction
// scanner position), and returns the first block whose evacuation cost
// fits within limit. Blocks holding unmovable or pinned frames are
// ineligible — the scatter effect that defeats compaction.
func (k *Kernel) findCompactionCandidate(b *mem.Buddy, order int, limit uint64) (pfn, cost uint64, ok bool) {
	bp := mem.OrderPages(order)

	start := (b.Start() + bp - 1) &^ (bp - 1)
	if start+bp > b.End() {
		return 0, 0, false
	}
	nblocks := (b.End() - start) / bp
	if nblocks == 0 {
		return 0, 0, false
	}
	if k.compactCursor == nil {
		k.compactCursor = make(map[*mem.Buddy]*[mem.MaxOrder + 1]uint64)
	}
	cursors := k.compactCursor[b]
	if cursors == nil {
		cursors = &[mem.MaxOrder + 1]uint64{}
		k.compactCursor[b] = cursors
	}
	cursor := cursors[order] % nblocks

	// Bound the scan per call (the scanner position persists across
	// calls, so coverage amortises); direct compaction scans fully.
	maxScan := nblocks
	if !k.directCompact {
		if cap := nblocks / 8; cap >= 64 && maxScan > cap {
			maxScan = cap
		}
	}

	for scanned := uint64(0); scanned < maxScan; scanned++ {
		blk := (cursor + scanned) % nblocks
		base := start + blk*bp
		c, eligible := k.evacCost(b, base, order, limit)
		if !eligible {
			continue
		}
		// Feasibility: the evacuated pages need replacement frames
		// outside the block. The block's own free frames do not count
		// (they become the allocation), so with freeInside = bp - c the
		// requirement free - (bp - c) >= c reduces to free >= bp, plus
		// a small slack for allocator fragmentation.
		if b.FreePages() < bp+bp/16 {
			continue
		}
		cursors[order] = (blk + 1) % nblocks
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvCompactScan, uint64(order), scanned+1, base)
		}
		return base, c, true
	}
	cursors[order] = (cursor + maxScan) % nblocks
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvCompactScan, uint64(order), maxScan, ^uint64(0))
	}
	return 0, 0, false
}

// evacuate empties [start, end) of buddy b: free frames are carved into
// limbo, movable allocations are migrated out of the range, reclaimable
// allocations are dropped (and their frames carved), and unmovable or
// pinned allocations are relocated with Contiguitas-HW when allowHW and a
// Mover is attached. It returns ErrCarveFailed (skippable: retry the
// target later) when a carve could not remove frames from the free
// lists, and ErrEvacIncomplete when an allocation could not be cleared;
// cleared frames stay in limbo either way and the caller decides whether
// to claim or donate them back.
func (k *Kernel) evacuate(b *mem.Buddy, start, end uint64, allowHW bool) error {
	pm := k.pm

	// Pass 1: carve every free frame in the range into limbo so the
	// allocator can no longer hand out in-range frames as replacement
	// blocks during pass 2.
	for p := start; p < end; {
		if !pm.IsFree(p) {
			p++
			continue
		}
		runEnd := p
		for runEnd < end && pm.IsFree(runEnd) {
			runEnd++
		}
		if err := k.carve(b, p, runEnd-p); err != nil {
			return err
		}
		p = runEnd
	}

	// Pass 2: clear the allocations. Begin at the allocated block
	// covering start, if its head lies before the range.
	p := start
	if !pm.IsFree(p) && !pm.IsHead(p) {
		if h := k.coveringHead(p); h != noHead {
			p = h
		}
	}
	for p < end {
		if !pm.IsHead(p) || pm.IsFree(p) {
			// Limbo (carved) frame, or a freed-and-recarved frame.
			p++
			continue
		}
		s := k.pt.heads[p]
		if s == 0 {
			return fmt.Errorf("%w: allocated block at %d without a live handle", ErrEvacIncomplete, p)
		}
		next := p + k.pt.rows[s].pages()
		if err := k.clearAllocation(b, s, start, end, allowHW); err != nil {
			return err
		}
		p = next
	}
	return nil
}

// carve removes the free range [start, start+n) from b's lists, treating
// failure — real or injected at fault.PointCompactCarve — as a skippable
// event reported via ErrCarveFailed.
func (k *Kernel) carve(b *mem.Buddy, start, n uint64) error {
	if k.faults().Should(fault.PointCompactCarve) {
		k.CarveFails++
		return fmt.Errorf("%w: injected at [%d, %d)", ErrCarveFailed, start, start+n)
	}
	if err := b.Carve(start, n); err != nil {
		k.CarveFails++
		return fmt.Errorf("%w: %v", ErrCarveFailed, err)
	}
	return nil
}

const noHead = ^uint64(0)

// coveringHead finds the allocated head covering frame p, if any. The
// frame table stamps the covering order on every frame, so this is O(1).
func (k *Kernel) coveringHead(p uint64) uint64 {
	if h, ok := k.pm.AllocHead(p); ok {
		return h
	}
	return noHead
}

// clearAllocation removes one allocation from the evacuation range
// [start, end): dropping it if reclaimable, migrating it otherwise. The
// freed frames are immediately re-carved into limbo so replacement
// allocations cannot land back inside the range. Migration failures and
// carve failures surface as errors; the allocation either moved intact
// or stayed where it was, so the kernel remains consistent either way.
func (k *Kernel) clearAllocation(b *mem.Buddy, s uint32, start, end uint64, allowHW bool) error {
	handle := k.pt.rows[s]
	src := uint64(handle.pfn)
	size := handle.pages()

	switch {
	case handle.mt == mem.MigrateReclaimable && !handle.pinned:
		if handle.cacheIdx >= 0 {
			k.reclaimable[handle.cacheIdx] = noCacheEntry
			k.reclaimablePages -= size
		}
		k.pt.release(s)
		mustFree(b, src)
		k.ReclaimedPages += size

	case handle.mt == mem.MigrateMovable && !handle.pinned:
		dst, ok := k.allocOutside(b, &handle, start, end)
		if !ok {
			return fmt.Errorf("%w: no replacement block for movable pfn %d", ErrEvacIncomplete, src)
		}
		// The hardware path is preferred whenever a mover is attached —
		// the page stays accessible and there is no shootdown — with
		// software migration as the graceful fallback.
		if err := k.migrateTo(s, dst, k.cfg.HWMover != nil); err != nil {
			mustFree(b, dst)
			return fmt.Errorf("%w: %v", ErrEvacIncomplete, err)
		}

	default: // unmovable or pinned
		if !allowHW || k.cfg.HWMover == nil {
			return fmt.Errorf("%w: unmovable pfn %d without hardware assist", ErrEvacIncomplete, src)
		}
		dst, ok := k.allocOutside(b, &handle, start, end)
		if !ok {
			return fmt.Errorf("%w: no replacement block for unmovable pfn %d", ErrEvacIncomplete, src)
		}
		if err := k.migrateTo(s, dst, true); err != nil {
			mustFree(b, dst)
			return fmt.Errorf("%w: %v", ErrEvacIncomplete, err)
		}
	}

	// Re-carve the just-freed frames (they may have coalesced with free
	// neighbours outside the range; Carve splits those back out).
	carveStart, carveEnd := src, src+size
	if carveStart < start {
		carveStart = start
	}
	if carveEnd > end {
		carveEnd = end
	}
	return k.carve(b, carveStart, carveEnd-carveStart)
}

// allocOutside allocates a replacement block for handle from b that does
// not overlap [start, end). Rejected in-range blocks are parked and freed
// afterwards.
func (k *Kernel) allocOutside(b *mem.Buddy, handle *pageRow, start, end uint64) (uint64, bool) {
	var parked []uint64
	defer func() {
		for _, pfn := range parked {
			mustFree(b, pfn)
		}
	}()
	for attempt := 0; attempt < 64; attempt++ {
		pfn, ok := b.Alloc(int(handle.order), handle.mt, handle.src)
		if !ok {
			return 0, false
		}
		if pfn+handle.pages() <= start || pfn >= end {
			return pfn, true
		}
		parked = append(parked, pfn)
	}
	return 0, false
}

// donateLimbo returns any limbo frames in [start, end) to buddy b.
func (k *Kernel) donateLimbo(b *mem.Buddy, start, end uint64) {
	pm := k.pm
	p := start
	for p < end {
		if pm.IsFree(p) || pm.IsHead(p) || pm.BlockOrder(p) >= 0 {
			p++
			continue
		}
		// Frame in limbo: find the extent of the limbo run. A limbo
		// frame is not free, not a head, and not covered by any
		// allocated block.
		if k.coveringHead(p) != noHead {
			p++
			continue
		}
		runEnd := p + 1
		for runEnd < end && !pm.IsFree(runEnd) && !pm.IsHead(runEnd) && k.coveringHead(runEnd) == noHead {
			runEnd++
		}
		mustDonate(b, p, runEnd-p)
		p = runEnd
	}
}
