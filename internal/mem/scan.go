package mem

// This file implements the physical-memory scanners behind the paper's
// fleet study and steady-state characterisation: Figure 4 (free-memory
// contiguity), Figure 5/11 (unmovable blocks), Figure 12 (potential
// contiguity under perfect compaction), and the §5.2 internal-
// fragmentation analysis of the unmovable region.
//
// Scan is incremental: allocator events mark pageblocks dirty and the
// ContigIndex (contigindex.go) re-summarises only those, so a scan of a
// mostly-clean machine costs O(dirty pageblocks) instead of O(frames).
// ScanFull keeps the original recompute-everything sweep as the
// equivalence oracle: the two must agree exactly, always.

// isUnmovableFrame reports whether a frame blocks compaction entirely:
// it is allocated and either carries the unmovable migratetype or is
// pinned (DMA/RDMA-style).
func (pm *PhysMem) isUnmovableFrame(pfn uint64) bool {
	m := pm.meta[pfn]
	if m&flagFree != 0 {
		return false
	}
	if m&flagPinned != 0 {
		return true
	}
	// setAllocated stamps mt onto every frame of a block (tails
	// included), so pm.mt is valid here for allocated frames. A frame
	// in limbo (carved, neither free nor allocated) carries a stale mt
	// from its past life, so gate on the covering allocated head; limbo
	// frames are transient and treating them as movable is the
	// conservative choice for the Linux baseline.
	return metaMT(m) == MigrateUnmovable && metaCov(m) >= 0
}

// isAllocatedFrame reports whether the frame belongs to an allocated
// block: not free, and covered by a block (limbo frames have cov == -1).
func (pm *PhysMem) isAllocatedFrame(pfn uint64) bool {
	m := pm.meta[pfn]
	return m&flagFree == 0 && metaCov(m) >= 0
}

const noHead = ^uint64(0)

// allocHead returns the head PFN of the allocated block covering pfn, or
// noHead if pfn is not inside an allocated block. The covering order is
// stamped on every frame (pm.cov), so the lookup is O(1): blocks are
// naturally aligned, so the head is pfn rounded down to the block size.
func (pm *PhysMem) allocHead(pfn uint64) uint64 {
	m := pm.meta[pfn]
	o := metaCov(m)
	if o < 0 || m&flagFree != 0 {
		return noHead
	}
	return pfn &^ (OrderPages(o) - 1)
}

// AllocHead returns the head PFN of the allocated block covering pfn and
// whether one exists. Free and limbo frames have no allocated head.
func (pm *PhysMem) AllocHead(pfn uint64) (uint64, bool) {
	h := pm.allocHead(pfn)
	return h, h != noHead
}

// ContiguityStats summarises one full scan of physical memory.
type ContiguityStats struct {
	TotalPages uint64
	FreePages  uint64
	// FreeContigPages[order] is the number of free pages that sit inside
	// fully-free naturally-aligned blocks of the given order.
	FreeContigPages map[int]uint64
	// UnmovableBlocks[order] is the number of aligned blocks of the
	// given order containing at least one unmovable frame.
	UnmovableBlocks map[int]uint64
	// TotalBlocks[order] is the number of aligned blocks of that order.
	TotalBlocks map[int]uint64
	// PotentialBlocks[order] counts aligned blocks with no unmovable
	// frame — blocks a perfect compactor could empty (Figure 12).
	PotentialBlocks map[int]uint64
	// UnmovableBySource counts unmovable frames per allocation source.
	UnmovableBySource [NumSources]uint64
	UnmovableFrames   uint64
}

// reset prepares st for reuse, clearing counters and (re)creating maps.
func (st *ContiguityStats) reset(totalPages uint64, orders []int) {
	st.TotalPages = totalPages
	st.FreePages = 0
	st.UnmovableFrames = 0
	st.UnmovableBySource = [NumSources]uint64{}
	if st.FreeContigPages == nil {
		st.FreeContigPages = make(map[int]uint64, len(orders))
		st.UnmovableBlocks = make(map[int]uint64, len(orders))
		st.TotalBlocks = make(map[int]uint64, len(orders))
		st.PotentialBlocks = make(map[int]uint64, len(orders))
	}
	for _, m := range []map[int]uint64{st.FreeContigPages, st.UnmovableBlocks, st.TotalBlocks, st.PotentialBlocks} {
		for k := range m {
			delete(m, k)
		}
	}
	for _, o := range orders {
		st.FreeContigPages[o] = 0
		st.UnmovableBlocks[o] = 0
		st.TotalBlocks[o] = totalPages / OrderPages(o)
		st.PotentialBlocks[o] = 0
	}
}

// ScanOrders are the block sizes the paper reports: 2 MB, 4 MB, 32 MB, 1 GB.
var ScanOrders = scanOrders[:]

var scanOrders = [...]int{Order2M, Order4M, Order32M, Order1G}

// NumScanOrders is len(ScanOrders) as a constant, the length of arrays
// that hold one value per scan order by position.
const NumScanOrders = len(scanOrders)

// Scan performs a scan of physical memory at the given block orders,
// revisiting only pageblocks whose state changed since the last scan and
// merging cached summaries for the rest. The result is identical to
// ScanFull (enforced by the equivalence tests and the chaos oracle).
func (pm *PhysMem) Scan(orders []int) *ContiguityStats {
	st := &ContiguityStats{}
	pm.ScanInto(st, orders)
	return st
}

// ScanInto is Scan with a caller-owned result, so per-sample allocations
// vanish from tight study loops (fleet.Run reuses one per worker).
func (pm *PhysMem) ScanInto(st *ContiguityStats, orders []int) {
	if pm.idx == nil {
		pm.idx = newContigIndex(pm)
	}
	pm.idx.update(pm)
	pm.idx.aggregate(pm, st, orders)
}

// ScanFull performs the original recompute-everything sweep, ignoring
// and leaving untouched the incremental index. It is the equivalence
// oracle for Scan and the reference implementation of the statistics.
func (pm *PhysMem) ScanFull(orders []int) *ContiguityStats {
	st := &ContiguityStats{}
	st.reset(pm.NPages, orders)
	// Precompute per-frame classes once; reuse across orders.
	free := make([]bool, pm.NPages)
	unmov := make([]bool, pm.NPages)
	for p := uint64(0); p < pm.NPages; p++ {
		if pm.IsFree(p) {
			free[p] = true
			st.FreePages++
			continue
		}
		m := pm.meta[p]
		if m&flagPinned != 0 || metaMT(m) == MigrateUnmovable {
			// Distinguish allocated frames from limbo by checking the
			// covering block order: limbo frames have none.
			if metaCov(m) >= 0 {
				unmov[p] = true
				st.UnmovableFrames++
				st.UnmovableBySource[metaSrc(m)]++
			}
		}
	}
	for _, o := range orders {
		bp := OrderPages(o)
		nblocks := pm.NPages / bp
		st.TotalBlocks[o] = nblocks
		for blk := uint64(0); blk < nblocks; blk++ {
			base := blk * bp
			allFree, anyUnmov := true, false
			for i := uint64(0); i < bp; i++ {
				if !free[base+i] {
					allFree = false
				}
				if unmov[base+i] {
					anyUnmov = true
					// A single unmovable frame decides both counters
					// for this block; allFree is already false.
					break
				}
			}
			if allFree {
				st.FreeContigPages[o] += bp
			}
			if anyUnmov {
				st.UnmovableBlocks[o]++
			} else {
				st.PotentialBlocks[o]++
			}
		}
	}
	return st
}

// FreeContigFraction returns free contiguity at the order as a fraction
// of free memory — the x-axis metric of Figure 4.
func (st *ContiguityStats) FreeContigFraction(order int) float64 {
	if st.FreePages == 0 {
		return 0
	}
	return float64(st.FreeContigPages[order]) / float64(st.FreePages)
}

// UnmovableBlockFraction returns the fraction of aligned blocks of the
// order containing unmovable memory — the metric of Figures 5 and 11.
func (st *ContiguityStats) UnmovableBlockFraction(order int) float64 {
	if st.TotalBlocks[order] == 0 {
		return 0
	}
	return float64(st.UnmovableBlocks[order]) / float64(st.TotalBlocks[order])
}

// PotentialFraction returns the fraction of memory that perfect
// compaction could turn into contiguous blocks of the order (Figure 12).
func (st *ContiguityStats) PotentialFraction(order int) float64 {
	if st.TotalBlocks[order] == 0 {
		return 0
	}
	return float64(st.PotentialBlocks[order]) / float64(st.TotalBlocks[order])
}

// UnmovableFrameFraction returns unmovable frames over all frames (§2.5
// quotes a median of 7.6 % of 4 KB pages making 34 % of 2 MB blocks
// unmovable).
func (st *ContiguityStats) UnmovableFrameFraction() float64 {
	return float64(st.UnmovableFrames) / float64(st.TotalPages)
}

// InternalFragStats reports the §5.2 analysis of the unmovable region:
// among 2 MB blocks holding at least one unmovable frame, what fraction
// of their frames is free.
type InternalFragStats struct {
	BlocksScanned  uint64
	MeanFreeInside float64
}

// InternalFragmentation scans [start, end) at 2 MB granularity.
func (pm *PhysMem) InternalFragmentation(start, end uint64) InternalFragStats {
	var blocks uint64
	var fracSum float64
	for base := start &^ (PageblockPages - 1); base+PageblockPages <= end; base += PageblockPages {
		var freeN, unmovN uint64
		for i := uint64(0); i < PageblockPages; i++ {
			p := base + i
			if pm.IsFree(p) {
				freeN++
			} else if pm.isUnmovableFrame(p) {
				unmovN++
			}
		}
		if unmovN == 0 {
			continue
		}
		blocks++
		fracSum += float64(freeN) / float64(PageblockPages)
	}
	st := InternalFragStats{BlocksScanned: blocks}
	if blocks > 0 {
		st.MeanFreeInside = fracSum / float64(blocks)
	}
	return st
}
