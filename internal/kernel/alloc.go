package kernel

import (
	"errors"
	"fmt"

	"contiguitas/internal/mem"
	"contiguitas/internal/pressure"
	"contiguitas/internal/psi"
	"contiguitas/internal/telemetry"
)

// ErrNoMemory is returned when an allocation cannot be satisfied even
// after reclaim, compaction, and (in ModeContiguitas) urgent expansion.
// The other failure-path sentinels live in errors.go.
var ErrNoMemory = errors.New("kernel: out of memory")

// Stall penalties charged to PSI, in fractions of a tick. Direct reclaim
// and compaction put the allocating task to sleep briefly; a hard failure
// represents a much longer stall (OOM handling, retry loops).
const (
	stallDirectReclaim = 0.05
	stallCompaction    = 0.10
	stallFailure       = 1.0
)

// Alloc allocates a block of 2^order frames of the given migratetype and
// source, returning a relocatable handle. The fast path is a plain buddy
// allocation in the class's region; the slow path mirrors the kernel:
// direct reclaim, then compaction for high-order movable requests, then
// (ModeContiguitas, unmovable classes) an urgent boundary expansion.
func (k *Kernel) Alloc(order int, mt mem.MigrateType, src mem.Source) (*Page, error) {
	if k.shedAllocation(mt) {
		// Admission control: fail fast with no stall and no reclaim —
		// shedding exists precisely to stop failing requests from adding
		// pressure. Not counted as AllocFail; shed requests never entered
		// the allocator.
		k.AllocShed++
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvAllocShed,
				uint64(order), uint64(mt), uint64(k.gatePSI.Pressure()*1000))
		}
		return nil, k.errAllocShed()
	}
	b := k.buddyFor(mt)
	region := k.regionFor(mt)

	var stealConv, stealPoll uint64
	if k.tp.Enabled() {
		stealConv, stealPoll = b.StealsConverting, b.StealsPolluting
	}
	pfn, ok := b.Alloc(order, mt, src)
	if !ok {
		k.psi.AddStall(region, stallDirectReclaim)
		k.DirectReclaim++
		k.esc.Note(pressure.RungReclaim, k.tick)
		want := mem.OrderPages(order)
		freed := k.reclaim(b, want)
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvDirectReclaim, uint64(region), want, freed)
		}
		pfn, ok = b.Alloc(order, mt, src)
	}
	if !ok && order > 0 && mt == mem.MigrateMovable {
		k.psi.AddStall(region, stallCompaction)
		k.esc.Note(pressure.RungCompact, k.tick)
		if cpfn, cok := k.Compact(b, order, mt, src); cok {
			pfn, ok = cpfn, true
		}
	}
	if !ok && k.cfg.Mode == ModeContiguitas && mt != mem.MigrateMovable {
		// Urgent expansion: grow the unmovable region enough to serve
		// the request, then retry.
		need := mem.OrderPages(order) * 2
		if k.ExpandUnmovable(need) > 0 {
			pfn, ok = b.Alloc(order, mt, src)
		}
	}
	if k.tp.Enabled() {
		// Fallback stealing happens inside the buddy's Alloc; attribute
		// any steals the attempts above triggered to this allocation.
		if dc, dp := b.StealsConverting-stealConv, b.StealsPolluting-stealPoll; dc|dp != 0 {
			k.tp.Emit(k.tick, telemetry.EvFallbackSteal, pfn, dc, dp)
		}
	}
	var lt ladderTrace
	if !ok && k.pcfg != nil {
		pfn, ok = k.pressureLadder(b, region, order, mt, src, &lt)
		if k.histAllocStall != nil {
			k.histAllocStall.Observe(lt.stallCycles)
		}
	}
	if !ok {
		k.psi.AddStall(region, stallFailure)
		k.AllocFail++
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvAllocFail, uint64(order), uint64(mt), uint64(region))
		}
		if k.pcfg != nil {
			return nil, k.pressureErr(order, mt, &lt)
		}
		return nil, k.errNoMemory(order, mt)
	}
	return k.finishAlloc(pfn, order, mt, src, k.inCacheAlloc), nil
}

// finishAlloc accounts a served allocation and creates its handle. A
// page-cache allocation is reported to the sink by registerCache, once
// it is on the reclaimable FIFO.
func (k *Kernel) finishAlloc(pfn uint64, order int, mt mem.MigrateType, src mem.Source, pageCache bool) *Page {
	p := &k.newPages(1)[0]
	k.initHandle(p, pfn, order, mt, src, pageCache)
	return p
}

// initHandle is finishAlloc on a freshly carved handle.
func (k *Kernel) initHandle(p *Page, pfn uint64, order int, mt mem.MigrateType, src mem.Source, pageCache bool) {
	k.AllocOK++
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvAlloc, pfn, uint64(order), uint64(mt))
	}
	*p = Page{PFN: pfn, Order: int8(order), MT: mt, Src: src, cacheIdx: -1}
	k.live.set(pfn, p)
	if k.sink != nil && !pageCache {
		k.sink.OnAlloc(p, false)
	}
}

// Free releases an allocation. Pinned pages must be unpinned first.
// Misuse is reported, not fatal: freeing nil, a pinned page, or a stale
// handle (double free, reclaimed page-cache handle) returns a typed
// error and leaves the kernel untouched.
func (k *Kernel) Free(p *Page) error {
	if err := k.releaseHandle(p); err != nil {
		return err
	}
	mustFree(k.owningBuddy(p.PFN), p.PFN)
	return nil
}

// releaseHandle does everything Free does except the buddy free: it
// refuses misuse, reports the free, and detaches the handle from the
// live table and the reclaimable FIFO.
func (k *Kernel) releaseHandle(p *Page) error {
	if p == nil {
		return ErrNilHandle
	}
	if p.Pinned {
		return fmt.Errorf("%w: Free of pfn %d; Unpin first", ErrPagePinned, p.PFN)
	}
	if k.live.get(p.PFN) != p {
		return fmt.Errorf("%w: Free of pfn %d", ErrStaleHandle, p.PFN)
	}
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvFree, p.PFN, uint64(p.Order), uint64(p.MT))
	}
	if k.sink != nil {
		k.sink.OnFree(p)
	}
	if p.cacheIdx >= 0 {
		// Lazily detach from the reclaimable FIFO.
		k.reclaimable[p.cacheIdx] = noCacheEntry
		k.reclaimablePages -= p.Pages()
		p.cacheIdx = -1
	}
	k.live.del(p.PFN)
	return nil
}

// pageArenaChunk is the handle-arena batch size: large enough to take
// the chunk malloc off the allocation hot path, small enough that a
// chunk pinned by one long-lived handle wastes little.
const pageArenaChunk = 2048

// newPages carves the next handles from the arena: n of them, or fewer
// where the current chunk ends. Every handle is a distinct, never-reused
// object (see the pageArena field comment).
func (k *Kernel) newPages(n int) []Page {
	if len(k.pageArena) == 0 {
		k.pageArena = make([]Page, pageArenaChunk)
	}
	n = min(n, len(k.pageArena))
	hs := k.pageArena[:n:n]
	k.pageArena = k.pageArena[n:]
	return hs
}

// errNoMemory returns the memoized allocation-failure error for the
// (order, migratetype) pair, formatting it on first use.
func (k *Kernel) errNoMemory(order int, mt mem.MigrateType) error {
	if err := k.noMemErr[order][mt]; err != nil {
		return err
	}
	err := fmt.Errorf("%w: order=%d mt=%v", ErrNoMemory, order, mt)
	k.noMemErr[order][mt] = err
	return err
}

// owningBuddy returns the buddy allocator whose range covers pfn.
func (k *Kernel) owningBuddy(pfn uint64) *mem.Buddy {
	if k.cfg.Mode == ModeLinux {
		return k.zone
	}
	if pfn < k.boundary {
		return k.unmov
	}
	return k.mov
}

// AllocPageCache allocates a droppable page-cache block. Page cache is
// movable (it migrates like user memory and lives in the movable region
// under Contiguitas) but also reclaimable: the kernel may free it at any
// time under pressure, so holders must treat the handle as advisory and
// check Live. Unmovable filesystem buffers are ordinary unmovable
// allocations, not page cache.
func (k *Kernel) AllocPageCache(order int, src mem.Source) (*Page, error) {
	k.inCacheAlloc = true
	p, err := k.Alloc(order, mem.MigrateMovable, src)
	k.inCacheAlloc = false
	if err != nil {
		return nil, err
	}
	k.registerCache(p)
	return p, nil
}

// registerCache appends a fresh page-cache allocation to the
// reclaimable FIFO and reports it to the sink.
func (k *Kernel) registerCache(p *Page) {
	p.cacheIdx = int32(len(k.reclaimable))
	k.reclaimable = append(k.reclaimable, uint32(p.PFN))
	k.reclaimablePages += p.Pages()
	if k.sink != nil {
		k.sink.OnAlloc(p, true)
	}
}

// Live reports whether the handle still owns memory (page-cache handles
// can be reclaimed behind the holder's back).
func (k *Kernel) Live(p *Page) bool { return k.live.get(p.PFN) == p }

// Pin marks an allocation unmovable-in-place (DMA registration, RDMA,
// zero-copy send). Under ModeContiguitas, a movable-region page is first
// migrated into the unmovable region (§3.2: "Contiguitas first migrates
// them to the unmovable region and then marks them as unmovable"),
// avoiding dynamic pollution of the movable region. The migration is a
// software one — the page is not yet pinned, so access can be blocked.
func (k *Kernel) Pin(p *Page) error {
	if p.Pinned {
		return nil
	}
	if k.cfg.Mode == ModeContiguitas && p.PFN >= k.boundary {
		// Allocate a landing block in the unmovable region and move.
		// No direct reclaim: page cache lives in the movable region, so
		// the unmovable one has nothing to reclaim.
		dst, ok := k.unmov.Alloc(int(p.Order), mem.MigrateUnmovable, p.Src)
		if !ok {
			if k.ExpandUnmovable(p.Pages()*2) > 0 {
				dst, ok = k.unmov.Alloc(int(p.Order), mem.MigrateUnmovable, p.Src)
			}
		}
		if !ok {
			k.psi.AddStall(psi.RegionUnmovable, stallFailure)
			return fmt.Errorf("%w: pin migration target order=%d", ErrNoMemory, p.Order)
		}
		if err := k.softwareMigrateTo(p, dst); err != nil {
			mustFree(k.unmov, dst)
			return fmt.Errorf("pin migration of pfn %d: %w", p.PFN, err)
		}
		p.MT = mem.MigrateUnmovable
		k.PinMigrations++
	}
	p.Pinned = true
	k.pm.SetPinned(p.PFN, true)
	if k.sink != nil {
		k.sink.OnPin(p)
	}
	return nil
}

// Unpin clears the pinned state. The page stays where it is; under
// ModeContiguitas it remains in the unmovable region until freed.
func (k *Kernel) Unpin(p *Page) {
	if !p.Pinned {
		return
	}
	p.Pinned = false
	k.pm.SetPinned(p.PFN, false)
	if k.sink != nil {
		k.sink.OnUnpin(p)
	}
}
