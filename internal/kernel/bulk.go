package kernel

import (
	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/pressure"
	"contiguitas/internal/telemetry"
)

// Bulk 4 KB paths. Each leaves exactly the frames, free lists,
// counters, PSI sums and tracepoints that the same sequence of single
// Alloc/AllocPageCache/Free calls leaves (TestBulkMatchesSingleCalls).
// A ring tap sees every record in the same order with the same
// handles; only the allocator state a tap could read mid-batch may
// already include later pages of the batch (no tap reads it).

// bulkChunk bounds the PFN scratch of one bulk allocation step and
// freeBatchMax the per-region free queue; longer runs go in several
// steps, which is exact because consecutive steps compose like the
// single calls they replace. Both buffers are sized once, on first use:
// every simulated server carries its own, so they are kept small.
const (
	bulkChunk    = 128
	freeBatchMax = 128
)

// SetSingleCalls routes every bulk path — AllocBulk4K,
// AllocPageCacheBulk4K, FreeBatch, and the batches inside AllocUser,
// FreeMapping, Promote and reclaim — through the single calls it
// stands for. Results do not change, only speed: it is the reference
// the differential tests hold the bulk paths to.
func (k *Kernel) SetSingleCalls(on bool) { k.singleCalls = on }

// AllocBulk4K appends up to n 4 KB allocations of (mt, src) to dst,
// exactly as n single Alloc(mem.Order4K, mt, src) calls would, for as
// long as those calls would stay on the fast path: a plain buddy
// allocation from mt's own lists, or direct reclaim of one page-cache
// page that the retry gets straight back. It stops, possibly at once,
// where the next single call would shed, steal, compact, expand,
// enter the pressure ladder or fail; the caller continues with a
// single Alloc there.
func (k *Kernel) AllocBulk4K(dst []Page, n int, mt mem.MigrateType, src mem.Source) []Page {
	k.allocFast4K(n, mt, src, false, &dst)
	return dst
}

// AllocPageCacheBulk4K makes up to n 4 KB AllocPageCache(mem.Order4K,
// src) calls, stopping at the first failure, whose error it returns
// with the number of pages allocated. Page-cache handles belong to the
// kernel, so none are returned.
func (k *Kernel) AllocPageCacheBulk4K(n int, src mem.Source) (int, error) {
	return k.allocN4K(n, mem.MigrateMovable, src, true, nil)
}

// allocUser4K appends n 4 KB user pages to m, as n single Alloc calls
// would, stopping at the first failure.
func (k *Kernel) allocUser4K(m *Mapping, n int) error {
	got, err := k.allocN4K(n, mem.MigrateMovable, mem.SrcUser, false, &m.Blocks)
	m.byOrder[mem.Order4K] += int32(got)
	return err
}

// allocN4K makes up to n 4 KB allocations, as single Alloc (or, with
// pageCache, AllocPageCache) calls would: the fast paths first, then
// one single call wherever they stop. It returns how many it served and
// the first failure. Only callers whose handles no OOM kill can reach
// mid-batch may use it; see fillSmall in the workload package.
func (k *Kernel) allocN4K(n int, mt mem.MigrateType, src mem.Source, pageCache bool, dst *[]Page) (int, error) {
	got := 0
	for {
		got += k.allocFast4K(n-got, mt, src, pageCache, dst)
		if got >= n {
			return got, nil
		}
		var p Page
		var err error
		if pageCache {
			p, err = k.AllocPageCache(mem.Order4K, src)
		} else {
			p, err = k.Alloc(mem.Order4K, mt, src)
		}
		if err != nil {
			return got, err
		}
		if dst != nil {
			*dst = append(*dst, p)
		}
		got++
	}
}

// allocFast4K serves up to n 4 KB allocations through the two fast
// paths and returns how many it served, appending their handles to
// *dst when dst is non-nil; pageCache puts them on the reclaimable FIFO
// as AllocPageCache does.
//
//   - While mt's own lists hold a block, mem.Buddy.AllocBulk4K hands
//     out the pages N single buddy allocations would, with no steal.
//   - When the region has no free page at all, a single call fails its
//     buddy allocation and direct-reclaims. If the oldest reclaimable
//     entry in the region is a 4 KB page in an mt pageblock, reclaim
//     frees exactly that page, it cannot merge, and the retry gets it
//     back: recycleOldest restamps it in place and keeps every other
//     effect of that call.
func (k *Kernel) allocFast4K(n int, mt mem.MigrateType, src mem.Source, pageCache bool, dst *[]Page) int {
	if n <= 0 || k.singleCalls || k.shedAllocation(mt) {
		return 0
	}
	b := k.buddyFor(mt)
	// Only the region hosting page cache reclaims, and an armed
	// PointReclaimProgress must see every crossing: single calls then.
	recycle := k.buddyFor(mem.MigrateMovable) == b && !k.faults().Armed(fault.PointReclaimProgress)
	got := 0
	for got < n {
		if b.HasFree(mt) {
			if k.bulkPFNs == nil {
				k.bulkPFNs = make([]uint64, 0, bulkChunk)
			}
			pfns := b.AllocBulk4K(k.bulkPFNs[:0], min(n-got, bulkChunk), mt, src)
			got += len(pfns)
			k.bulkPFNs = pfns[:0]
			for _, pfn := range pfns {
				k.keepFast(k.finishAlloc(pfn, mem.Order4K, mt, src, pageCache), pageCache, dst)
			}
			continue
		}
		if !recycle {
			break
		}
		pfn, ok := k.recycleOldest(b, mt, src)
		if !ok {
			break
		}
		k.keepFast(k.finishAlloc(pfn, mem.Order4K, mt, src, pageCache), pageCache, dst)
		got++
	}
	return got
}

// keepFast files a fast-path allocation with its owner.
func (k *Kernel) keepFast(p Page, pageCache bool, dst *[]Page) {
	if pageCache {
		k.registerCache(p)
	}
	if dst != nil {
		*dst = append(*dst, p)
	}
}

// recycleOldest is one single Alloc(mem.Order4K, mt, src) call that
// fails its buddy allocation, direct-reclaims one page and gets that
// page back on the retry — taken only when that is what the call would
// do. It returns false, having changed nothing, otherwise.
func (k *Kernel) recycleOldest(b *mem.Buddy, mt mem.MigrateType, src mem.Source) (uint64, bool) {
	if b.FreePages() != 0 {
		return 0, false
	}
	i := k.reclaimHead
	for ; i < len(k.reclaimable); i++ {
		if e := k.reclaimable[i]; e != noCacheEntry && b.Owns(uint64(e)) {
			break
		}
	}
	if i == len(k.reclaimable) {
		return 0, false
	}
	pfn := uint64(k.reclaimable[i])
	if k.pt.rows[k.pt.heads[pfn]].order != mem.Order4K || k.pm.PageblockMT(pfn) != mt {
		return 0, false
	}
	region := k.regionFor(mt)
	k.psi.AddStall(region, stallDirectReclaim)
	k.DirectReclaim++
	k.esc.Note(pressure.RungReclaim, k.tick)
	k.dropReclaimable(i)
	k.settleReclaimHead()
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvDirectReclaim, uint64(region), 1, 1)
	}
	if err := b.Recycle4K(pfn, mt, src); err != nil {
		// Provably unreachable: the region is full, the page is a live
		// 4 KB allocation in it, and its pageblock is of type mt.
		panic("kernel: invariant violation: " + err.Error())
	}
	return pfn, true
}

// FreeBatch frees each handle in ps in order, exactly as the same Free
// calls would; a handle Free would refuse is skipped and the first such
// error returned. The buddy frees are queued per region and released
// with mem.Buddy.FreeBatch.
func (k *Kernel) FreeBatch(ps []Page) error {
	var first error
	for _, p := range ps {
		pfn, err := k.releaseHandle(p)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		k.queueFree(pfn)
	}
	k.flushFrees()
	return first
}

// queueFree queues the buddy free of an allocated block head whose
// handle is already released; flushFrees must run before anything
// reads the region again.
func (k *Kernel) queueFree(pfn uint64) {
	if k.singleCalls {
		mustFree(k.owningBuddy(pfn), pfn)
		return
	}
	r := 0
	if k.cfg.Mode == ModeContiguitas && pfn >= k.boundary {
		r = 1
	}
	switch len(k.freeQ[r]) {
	case 0:
		if k.freeQ[r] == nil {
			k.freeQ[r] = make([]uint64, 0, freeBatchMax)
		}
	case freeBatchMax:
		k.flushFrees()
	}
	k.freeQ[r] = append(k.freeQ[r], pfn)
}

// flushFrees releases every queued free.
func (k *Kernel) flushFrees() {
	for r, q := range k.freeQ {
		if len(q) == 0 {
			continue
		}
		b := k.zone
		if k.cfg.Mode == ModeContiguitas {
			b = k.unmov
			if r == 1 {
				b = k.mov
			}
		}
		if err := b.FreeBatch(q); err != nil {
			panic("kernel: invariant violation: " + err.Error())
		}
		k.freeQ[r] = q[:0]
	}
}
