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
func (k *Kernel) Alloc(order int, mt mem.MigrateType, src mem.Source) (Page, error) {
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
		return Page{}, k.errAllocShed()
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
			return Page{}, k.pressureErr(order, mt, &lt)
		}
		return Page{}, k.errNoMemory(order, mt)
	}
	return k.finishAlloc(pfn, order, mt, src, k.inCacheAlloc), nil
}

// finishAlloc accounts a served allocation, files its handle and
// traces it.
func (k *Kernel) finishAlloc(pfn uint64, order int, mt mem.MigrateType, src mem.Source, pageCache bool) Page {
	k.AllocOK++
	p := k.pt.add(pfn, order, mt, src)
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvAlloc, pfn, p.ID(), Class(order, mt, src, pageCache))
	}
	return p
}

// Free releases an allocation. Pinned pages must be unpinned first.
// Misuse is reported, not fatal: freeing the nil handle, a pinned page,
// or a stale handle (double free, reclaimed page-cache handle, or a
// handle whose row or frames were since reallocated) returns a typed
// error and leaves the kernel untouched.
func (k *Kernel) Free(p Page) error {
	pfn, err := k.releaseHandle(p)
	if err != nil {
		return err
	}
	mustFree(k.owningBuddy(pfn), pfn)
	return nil
}

// releaseHandle does everything Free does except the buddy free: it
// refuses misuse, reports the free, and detaches the handle from the
// page table and the reclaimable FIFO. It returns the block head.
func (k *Kernel) releaseHandle(p Page) (uint64, error) {
	if p == (Page{}) {
		return 0, ErrNilHandle
	}
	r := k.pt.lookup(p)
	if r == nil {
		return 0, fmt.Errorf("%w: Free", ErrStaleHandle)
	}
	pfn := uint64(r.pfn)
	if r.pinned {
		return 0, fmt.Errorf("%w: Free of pfn %d; Unpin first", ErrPagePinned, pfn)
	}
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvFree, pfn, p.ID(), Class(int(r.order), r.mt, r.src, r.cacheIdx >= 0))
	}
	if r.cacheIdx >= 0 {
		// Lazily detach from the reclaimable FIFO.
		k.reclaimable[r.cacheIdx] = noCacheEntry
		k.reclaimablePages -= r.pages()
	}
	k.pt.release(p.slot)
	return pfn, nil
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
func (k *Kernel) AllocPageCache(order int, src mem.Source) (Page, error) {
	k.inCacheAlloc = true
	p, err := k.Alloc(order, mem.MigrateMovable, src)
	k.inCacheAlloc = false
	if err != nil {
		return Page{}, err
	}
	k.registerCache(p)
	return p, nil
}

// registerCache appends a fresh page-cache allocation to the
// reclaimable FIFO.
func (k *Kernel) registerCache(p Page) {
	r := &k.pt.rows[p.slot]
	r.cacheIdx = int32(len(k.reclaimable))
	k.reclaimable = append(k.reclaimable, r.pfn)
	k.reclaimablePages += r.pages()
}

// Live reports whether the handle still owns memory (page-cache handles
// can be reclaimed behind the holder's back).
func (k *Kernel) Live(p Page) bool { return k.pt.lookup(p) != nil }

// Info describes the block a live handle owns; a nil or stale handle
// yields the zero PageInfo.
func (k *Kernel) Info(p Page) PageInfo {
	r := k.pt.lookup(p)
	if r == nil {
		return PageInfo{}
	}
	return PageInfo{PFN: uint64(r.pfn), Order: int(r.order), MT: r.mt, Src: r.src, Pinned: r.pinned}
}

// PFN returns the head frame of a live handle's block (0 for a nil or
// stale handle).
func (k *Kernel) PFN(p Page) uint64 { return k.Info(p).PFN }

// PageAt returns the live handle whose block starts at pfn, and whether
// there is one. Restore callers use it to rehydrate handles they held
// before the checkpoint: handle values do not survive a restore, block
// contents do.
func (k *Kernel) PageAt(pfn uint64) (Page, bool) {
	p := k.pt.handle(pfn)
	return p, p != (Page{})
}

// Pin marks an allocation unmovable-in-place (DMA registration, RDMA,
// zero-copy send). Under ModeContiguitas, a movable-region page is first
// migrated into the unmovable region (§3.2: "Contiguitas first migrates
// them to the unmovable region and then marks them as unmovable"),
// avoiding dynamic pollution of the movable region. The migration is a
// software one — the page is not yet pinned, so access can be blocked.
// A nil or stale handle is refused with ErrStaleHandle.
func (k *Kernel) Pin(p Page) error {
	r := k.pt.lookup(p)
	if r == nil {
		return fmt.Errorf("%w: Pin", ErrStaleHandle)
	}
	if r.pinned {
		return nil
	}
	if k.cfg.Mode == ModeContiguitas && uint64(r.pfn) >= k.boundary {
		// Allocate a landing block in the unmovable region and move.
		// No direct reclaim: page cache lives in the movable region, so
		// the unmovable one has nothing to reclaim.
		dst, ok := k.unmov.Alloc(int(r.order), mem.MigrateUnmovable, r.src)
		if !ok {
			if k.ExpandUnmovable(r.pages()*2) > 0 {
				dst, ok = k.unmov.Alloc(int(r.order), mem.MigrateUnmovable, r.src)
			}
		}
		if !ok {
			k.psi.AddStall(psi.RegionUnmovable, stallFailure)
			return fmt.Errorf("%w: pin migration target order=%d", ErrNoMemory, r.order)
		}
		if err := k.softwareMigrateTo(p.slot, dst); err != nil {
			mustFree(k.unmov, dst)
			return fmt.Errorf("pin migration of pfn %d: %w", r.pfn, err)
		}
		r.mt = mem.MigrateUnmovable
		k.PinMigrations++
	}
	r.pinned = true
	k.pm.SetPinned(uint64(r.pfn), true)
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvPin, uint64(r.pfn), p.ID(), 0)
	}
	return nil
}

// Unpin clears the pinned state. The page stays where it is; under
// ModeContiguitas it remains in the unmovable region until freed. A
// nil, stale or unpinned handle is left alone.
func (k *Kernel) Unpin(p Page) {
	r := k.pt.lookup(p)
	if r == nil || !r.pinned {
		return
	}
	r.pinned = false
	k.pm.SetPinned(uint64(r.pfn), false)
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvUnpin, uint64(r.pfn), p.ID(), 0)
	}
}
