package mem

import (
	"fmt"
	"math/bits"
)

// AllocPolicy selects the order in which free blocks of equal order are
// handed out.
type AllocPolicy uint8

const (
	// PolicyLIFO returns the most recently freed block first, like Linux.
	PolicyLIFO AllocPolicy = iota
	// PolicyLowestPFN returns the lowest-addressed block first. The
	// Contiguitas unmovable region uses it so long-lived allocations
	// land far from the region boundary (§3.2).
	PolicyLowestPFN
	// PolicyHighestPFN returns the highest-addressed block first. The
	// Contiguitas movable region uses it so the low end (adjacent to
	// the boundary) stays empty and cheap to take over.
	PolicyHighestPFN
)

// Buddy is a binary buddy allocator over the PFN range [Start, End) of a
// shared frame table. Free blocks are naturally aligned powers of two;
// coalescing never crosses the range bounds, so two Buddy instances over
// disjoint ranges of the same PhysMem behave as independent regions —
// exactly the property Contiguitas' confinement needs.
type Buddy struct {
	pm         *PhysMem
	start, end uint64

	lists  [MaxOrder + 1][NumMigrateTypes]freeList
	policy AllocPolicy

	// freeByList counts the free pages currently sitting on each
	// migratetype's lists (not the same as pages in pageblocks of that
	// type once stealing has occurred).
	freeByList [NumMigrateTypes]uint64
	freeTotal  uint64

	// blockCount counts the free blocks on each (order, migratetype)
	// list; mtMask[mt] has bit o set iff blockCount[o][mt] > 0. They
	// make LargestFreeOrder and FreeBlocks O(1), and let the allocation
	// paths jump straight to the next non-empty list with one bit scan
	// instead of probing every order (the probe loops dominated
	// overcommitted study profiles, where most allocations fail).
	blockCount [MaxOrder + 1][NumMigrateTypes]uint32
	mtMask     [NumMigrateTypes]uint32

	// fallback enables Linux-style stealing between migratetypes. It is
	// on for the Linux baseline (and is the mechanism that scatters
	// unmovable allocations) and off for Contiguitas regions.
	fallback bool

	// stealWholeBlocks records how many fallback steals converted an
	// entire pageblock, versus polluted one (scatter events).
	StealsConverting uint64
	StealsPolluting  uint64
}

// fallbackOrder mirrors Linux's fallbacks[] table: which other
// migratetypes an allocation may steal from, in preference order.
var fallbackOrder = [NumMigrateTypes][]MigrateType{
	MigrateUnmovable:   {MigrateReclaimable, MigrateMovable},
	MigrateReclaimable: {MigrateUnmovable, MigrateMovable},
	MigrateMovable:     {MigrateReclaimable, MigrateUnmovable},
}

// NewBuddy creates a buddy allocator over [start, end) of pm, donating the
// whole range as free memory. Every pageblock fully inside the range is
// stamped with initialMT. The policy selects same-order block ordering;
// fallback enables inter-migratetype stealing.
func NewBuddy(pm *PhysMem, start, end uint64, policy AllocPolicy, fallback bool, initialMT MigrateType) *Buddy {
	if end > pm.NPages || start >= end {
		// Boot-time configuration validation, not a runtime error path:
		// region bounds are fixed by Kernel.New before any workload runs.
		panic(fmt.Sprintf("mem: invalid buddy range [%d, %d)", start, end))
	}
	b := &Buddy{pm: pm, start: start, end: end, fallback: fallback, policy: policy}
	if !b.initLists() {
		// Boot-time configuration validation: AllocPolicy is a closed
		// enum chosen by Kernel.New, never workload input.
		panic("mem: unknown alloc policy")
	}
	for pb := start / PageblockPages; pb < (end+PageblockPages-1)/PageblockPages; pb++ {
		pm.pbMT[pb] = uint8(initialMT)
	}
	if err := b.Donate(start, end-start); err != nil {
		// Provably unreachable: the donated range equals the region
		// bounds validated above.
		panic(err)
	}
	return b
}

// initLists creates the empty free lists b.policy calls for, with one
// backing array per region; it reports false for an unknown policy.
func (b *Buddy) initLists() bool {
	switch b.policy {
	case PolicyLIFO:
		lifo := new([MaxOrder + 1][NumMigrateTypes]lifoList)
		for o := range b.lists {
			for mt := range b.lists[o] {
				b.lists[o][mt] = &lifo[o][mt]
			}
		}
	case PolicyLowestPFN, PolicyHighestPFN:
		sets := new([MaxOrder + 1][NumMigrateTypes]pfnSet)
		for o := range b.lists {
			for mt := range b.lists[o] {
				s := &sets[o][mt]
				s.order = uint(o)
				s.desc = b.policy == PolicyHighestPFN
				b.lists[o][mt] = s
			}
		}
	default:
		return false
	}
	return true
}

// Start returns the inclusive lower PFN bound of the region.
func (b *Buddy) Start() uint64 { return b.start }

// End returns the exclusive upper PFN bound of the region.
func (b *Buddy) End() uint64 { return b.end }

// Pages returns the number of frames the region spans.
func (b *Buddy) Pages() uint64 { return b.end - b.start }

// Owns reports whether pfn falls inside the region.
func (b *Buddy) Owns(pfn uint64) bool { return pfn >= b.start && pfn < b.end }

// FreePages returns the total number of free frames in the region.
func (b *Buddy) FreePages() uint64 { return b.freeTotal }

// FreePagesOf returns the free frames currently on mt's lists.
func (b *Buddy) FreePagesOf(mt MigrateType) uint64 { return b.freeByList[mt] }

// LargestFreeOrder returns the order of the largest free block, or -1 when
// the region is completely allocated. O(1) via the maintained order masks.
func (b *Buddy) LargestFreeOrder() int {
	var m uint32
	for mt := 0; mt < NumMigrateTypes; mt++ {
		m |= b.mtMask[mt]
	}
	return bits.Len32(m) - 1
}

// FreeBlocks returns the number of free blocks of exactly the given order
// across all migratetype lists. O(1) via the maintained histogram.
func (b *Buddy) FreeBlocks(order int) int {
	n := 0
	for mt := 0; mt < NumMigrateTypes; mt++ {
		n += int(b.blockCount[order][mt])
	}
	return n
}

// noteBlockAdd records a block entering the (order, mt) free list.
func (b *Buddy) noteBlockAdd(order int, mt MigrateType) {
	b.blockCount[order][mt]++
	b.mtMask[mt] |= 1 << uint(order)
}

// noteBlockDel records a block leaving the (order, mt) free list.
func (b *Buddy) noteBlockDel(order int, mt MigrateType) {
	b.blockCount[order][mt]--
	if b.blockCount[order][mt] == 0 {
		b.mtMask[mt] &^= 1 << uint(order)
	}
}

// pushFree places a free block on listMT's list of the given order and
// records the owning list in the frame table (pm.mt doubles as the
// owning-list tag for free heads).
func (b *Buddy) pushFree(pfn uint64, order int, listMT MigrateType) {
	b.pm.setFreeHead(pfn, order, listMT)
	b.listBlock(pfn, order, listMT)
}

// listBlock puts a block whose head already carries its free stamp on
// listMT's list of the given order and counts it.
func (b *Buddy) listBlock(pfn uint64, order int, listMT MigrateType) {
	b.lists[order][listMT].push(b.pm, pfn)
	b.freeByList[listMT] += OrderPages(order)
	b.freeTotal += OrderPages(order)
	b.noteBlockAdd(order, listMT)
}

// takeFree removes a known free head from its list without changing frame
// marks; the caller re-stamps the block.
func (b *Buddy) takeFree(pfn uint64) (order int, listMT MigrateType) {
	m := b.pm.meta[pfn]
	order = metaOrder(m)
	listMT = metaMT(m)
	b.lists[order][listMT].remove(b.pm, pfn)
	b.freeByList[listMT] -= OrderPages(order)
	b.freeTotal -= OrderPages(order)
	b.noteBlockDel(order, listMT)
	return order, listMT
}

// popFree pops the preferred free block of (order, mt), if any.
func (b *Buddy) popFree(order int, mt MigrateType) (uint64, bool) {
	pfn, ok := b.lists[order][mt].pop(b.pm)
	if !ok {
		return 0, false
	}
	b.freeByList[mt] -= OrderPages(order)
	b.freeTotal -= OrderPages(order)
	b.noteBlockDel(order, mt)
	return pfn, true
}

// Alloc allocates a block of the given order for migratetype mt and
// source src, returning its head PFN. It fails (ok == false) when no
// block of sufficient size exists even after fallback stealing.
func (b *Buddy) Alloc(order int, mt MigrateType, src Source) (pfn uint64, ok bool) {
	if order < 0 || order > MaxOrder {
		// An impossible order can never be satisfied; report it as an
		// ordinary allocation failure rather than crashing the caller.
		return 0, false
	}
	pfn, ok = b.allocFrom(order, mt)
	if !ok && b.fallback {
		if b.steal(order, mt) {
			pfn, ok = b.allocFrom(order, mt)
		}
	}
	if !ok {
		return 0, false
	}
	b.pm.setAllocated(pfn, order, mt, src)
	return pfn, true
}

// allocFrom serves an allocation from mt's own lists, splitting a larger
// block when necessary (remainders stay on mt's lists, as in Linux). The
// order mask jumps straight to the smallest non-empty qualifying list.
func (b *Buddy) allocFrom(order int, mt MigrateType) (uint64, bool) {
	avail := b.mtMask[mt] >> uint(order) << uint(order)
	if avail == 0 {
		return 0, false
	}
	o := bits.TrailingZeros32(avail)
	pfn, ok := b.popFree(o, mt)
	if ok {
		// No clearBlock here: every frame of the popped block is restamped
		// before Alloc returns — the peeled halves by pushFree/setFreeHead
		// below, the served block by the caller's setAllocated — so the
		// intermediate limbo pass would be pure overhead on the hot path.
		for o > order {
			o--
			if b.policy == PolicyHighestPFN {
				// Keep the upper half so allocations stay at the top
				// of the region, away from the boundary below.
				b.pushFree(pfn, o, mt)
				pfn += OrderPages(o)
			} else {
				b.pushFree(pfn+OrderPages(o), o, mt)
			}
		}
		return pfn, true
	}
	return 0, false
}

// steal implements Linux's __rmqueue_fallback: take the largest available
// block from a fallback migratetype. Blocks of at least half a pageblock
// convert the pageblocks they span to mt (concentrating the damage);
// smaller steals leave the pageblock type untouched — this is the scatter
// event that plants, e.g., one unmovable 4 KB page inside a movable 2 MB
// block and defeats compaction (§2.5).
func (b *Buddy) steal(order int, mt MigrateType) bool {
	// Largest qualifying order across the fallbacks; earlier fallbacks
	// win ties — identical to the original order-major, fallback-minor
	// probe loop, found with two bit scans instead of ~2*MaxOrder pops.
	bestO := -1
	bestFB := MigrateType(0)
	for _, fb := range fallbackOrder[mt] {
		if m := b.mtMask[fb] >> uint(order) << uint(order); m != 0 {
			if o := bits.Len32(m) - 1; o > bestO {
				bestO, bestFB = o, fb
			}
		}
	}
	if bestO < 0 {
		return false
	}
	o := bestO
	pfn, _ := b.popFree(o, bestFB)
	if o >= PageblockOrder-1 {
		// Claim: convert the covered pageblocks to mt and requeue the
		// block on mt's list.
		first := pfn / PageblockPages
		last := (pfn + OrderPages(o) - 1) / PageblockPages
		for pb := first; pb <= last; pb++ {
			b.pm.pbMT[pb] = uint8(mt)
		}
		b.StealsConverting++
	} else {
		// Pollute: hand the block to mt's list without converting the
		// pageblock.
		b.StealsPolluting++
	}
	b.pm.setHeadMT(pfn, mt)
	b.listBlock(pfn, o, mt)
	return true
}

// Free releases the allocated block headed at pfn, coalescing with free
// buddies. The merged block lands on the list of its head pageblock's
// migratetype, as in Linux. A PFN outside the region or not heading an
// allocated block returns a typed error and changes nothing.
func (b *Buddy) Free(pfn uint64) error {
	order, err := b.allocatedHead(pfn)
	if err != nil {
		return err
	}
	// The block keeps its allocated stamps until freeBlock's final
	// pushFree restamps the whole merged block; the merge checks only
	// ever inspect buddy blocks, never the block being freed.
	b.freeBlock(pfn, order)
	return nil
}

// allocatedHead returns the order of the allocated block headed at pfn,
// or the error Free reports for any other pfn.
func (b *Buddy) allocatedHead(pfn uint64) (int, error) {
	if !b.Owns(pfn) {
		return 0, fmt.Errorf("%w: Free(%d) outside [%d, %d)", ErrOutOfRange, pfn, b.start, b.end)
	}
	m := b.pm.meta[pfn]
	order := metaOrder(m)
	if order < 0 || m&flagFree != 0 {
		return 0, fmt.Errorf("%w: Free(%d)", ErrNotAllocated, pfn)
	}
	return order, nil
}

// freeBlock inserts a (currently unmarked) block as free, coalescing
// upward while the buddy block is free, same-order, and inside the region.
func (b *Buddy) freeBlock(pfn uint64, order int) {
	pfn, order = b.mergeUp(pfn, order, false)
	b.pushFree(pfn, order, b.pm.PageblockMT(pfn))
}

// mergeUp coalesces the block at pfn upward while its buddy is a free
// head of the same order inside the region, and returns the merged
// block. An absorbed head's frame stops being a head; the caller's
// final stamp of the merged block restamps every frame it covers. With
// unlisted set, heads marked flagPending are FreeBatch blocks kept off
// the lists, absorbed without a list remove.
func (b *Buddy) mergeUp(pfn uint64, order int, unlisted bool) (uint64, int) {
	meta := b.pm.meta
	for order < MaxOrder {
		buddy := pfn ^ OrderPages(order)
		if buddy < b.start || buddy+OrderPages(order) > b.end {
			break
		}
		bm := meta[buddy]
		if bm&(flagFree|flagHead) != flagFree|flagHead || metaOrder(bm) != order {
			break
		}
		if !unlisted || bm&flagPending == 0 {
			b.takeFree(buddy)
		}
		if buddy < pfn {
			meta[pfn] = 0
			pfn = buddy
		} else {
			meta[buddy] = 0
		}
		order++
	}
	return pfn, order
}

// Donate adds the frame range [start, start+n) to the region as free
// memory, splitting it into maximal naturally-aligned blocks and
// coalescing with existing free neighbours. The range must lie inside
// the region bounds and must not currently be marked free or allocated;
// an out-of-range donation returns a typed error and changes nothing.
func (b *Buddy) Donate(start, n uint64) error {
	if start < b.start || start+n > b.end {
		return fmt.Errorf("%w: Donate [%d, %d) outside [%d, %d)", ErrOutOfRange, start, start+n, b.start, b.end)
	}
	p := start
	end := start + n
	for p < end {
		o := maxAlignedOrder(p, end-p)
		b.freeBlock(p, o)
		p += OrderPages(o)
	}
	return nil
}

// maxAlignedOrder returns the largest order such that a block at pfn is
// naturally aligned and fits within avail pages (capped at MaxOrder).
func maxAlignedOrder(pfn, avail uint64) int {
	o := 0
	for o < MaxOrder {
		next := o + 1
		if pfn&(OrderPages(next)-1) != 0 || OrderPages(next) > avail {
			break
		}
		o = next
	}
	return o
}

// Carve removes the fully-free frame range [start, start+n) from the
// region's free lists, leaving the frames in limbo (neither free nor
// allocated) so the caller can donate them to another region. It returns
// an error if any frame in the range is not free. Partially-overlapping
// free blocks are split; their out-of-range remainders stay free.
func (b *Buddy) Carve(start, n uint64) error {
	if start < b.start || start+n > b.end {
		return fmt.Errorf("mem: carve range [%d, %d) outside region [%d, %d)", start, start+n, b.start, b.end)
	}
	end := start + n
	for p := start; p < end; p++ {
		if !b.pm.IsFree(p) {
			return fmt.Errorf("mem: carve: frame %d is not free", p)
		}
	}
	for p := start; p < end; {
		head, order := b.findFreeHead(p)
		b.takeFree(head)
		b.pm.clearBlock(head, order)
		blockEnd := head + OrderPages(order)
		// Re-free the portions of the block outside [start, end).
		if head < start {
			b.donateRaw(head, start-head)
		}
		if blockEnd > end {
			b.donateRaw(end, blockEnd-end)
		}
		p = blockEnd
	}
	return nil
}

// donateRaw re-inserts a cleared range as free blocks (no bounds check
// beyond region ownership; used by Carve for remainders).
func (b *Buddy) donateRaw(start, n uint64) {
	p := start
	end := start + n
	for p < end {
		o := maxAlignedOrder(p, end-p)
		b.freeBlock(p, o)
		p += OrderPages(o)
	}
}

// findFreeHead locates the free block head covering pfn. The covering
// order is stamped on every frame (pm.cov) and free blocks are naturally
// aligned, so the head is pfn rounded down to the block size: O(1).
func (b *Buddy) findFreeHead(pfn uint64) (head uint64, order int) {
	m := b.pm.meta[pfn]
	o := metaCov(m)
	if o < 0 || m&flagFree == 0 {
		// Provably unreachable: Carve verified every frame in the range
		// is free before walking it, and free frames always carry a
		// covering-order stamp (CheckInvariants enforces both).
		panic(fmt.Sprintf("mem: findFreeHead(%d): no covering free block", pfn))
	}
	return pfn &^ (OrderPages(o) - 1), o
}

// ClaimCarved stamps a previously carved (limbo) range as an allocated
// block of the given order. The range must be order-aligned, inside the
// region, and fully in limbo (neither free nor allocated); violations
// return a typed error and change nothing. It is how compaction claims
// the block it just evacuated.
func (b *Buddy) ClaimCarved(pfn uint64, order int, mt MigrateType, src Source) error {
	if pfn&(OrderPages(order)-1) != 0 {
		return fmt.Errorf("%w: ClaimCarved(%d) order %d", ErrMisaligned, pfn, order)
	}
	if pfn < b.start || pfn+OrderPages(order) > b.end {
		return fmt.Errorf("%w: ClaimCarved [%d, %d)", ErrOutOfRange, pfn, pfn+OrderPages(order))
	}
	for i := uint64(0); i < OrderPages(order); i++ {
		p := pfn + i
		if b.pm.meta[p]&(flagFree|flagHead) != 0 || metaOrder(b.pm.meta[p]) >= 0 {
			return fmt.Errorf("%w: ClaimCarved frame %d", ErrNotInLimbo, p)
		}
	}
	b.pm.setAllocated(pfn, order, mt, src)
	return nil
}

// AdjustBounds changes the region's bounds after a boundary move. The new
// range must be non-empty and within the frame table; violations return
// a typed error and leave the bounds untouched. The caller is
// responsible for having carved frames leaving the region and donating
// frames entering it.
func (b *Buddy) AdjustBounds(start, end uint64) error {
	if end > b.pm.NPages || start >= end {
		return fmt.Errorf("%w: AdjustBounds(%d, %d)", ErrBadBounds, start, end)
	}
	b.start, b.end = start, end
	return nil
}

// CheckInvariants validates internal consistency: free accounting matches
// the lists, every listed head is marked free with the right order, and
// no two blocks overlap. It is O(region size) and intended for tests.
func (b *Buddy) CheckInvariants() error {
	var listed uint64
	seen := make(map[uint64]bool)
	var heads []uint64
	for o := 0; o <= MaxOrder; o++ {
		for mt := 0; mt < NumMigrateTypes; mt++ {
			blocksAt := b.lists[o][mt].len()
			if blocksAt != int(b.blockCount[o][mt]) {
				return fmt.Errorf("order %d mt %d histogram %d, list holds %d blocks", o, mt, b.blockCount[o][mt], blocksAt)
			}
			if got := b.mtMask[mt]&(1<<uint(o)) != 0; got != (blocksAt > 0) {
				return fmt.Errorf("order %d mt %d mask bit %v, list holds %d blocks", o, mt, got, blocksAt)
			}
		}
		for mt := 0; mt < NumMigrateTypes; mt++ {
			heads = b.lists[o][mt].appendTo(heads[:0])
			for _, pfn := range heads {
				if !b.Owns(pfn) {
					return fmt.Errorf("free head %d outside region", pfn)
				}
				if !b.pm.IsFree(pfn) || !b.pm.IsHead(pfn) {
					return fmt.Errorf("free head %d not marked free+head", pfn)
				}
				if metaOrder(b.pm.meta[pfn]) != o {
					return fmt.Errorf("free head %d order %d, listed at %d", pfn, metaOrder(b.pm.meta[pfn]), o)
				}
				if metaMT(b.pm.meta[pfn]) != MigrateType(mt) {
					return fmt.Errorf("free head %d list tag %d, on list %d", pfn, metaMT(b.pm.meta[pfn]), mt)
				}
				if pfn&(OrderPages(o)-1) != 0 {
					return fmt.Errorf("free head %d misaligned for order %d", pfn, o)
				}
				for i := uint64(0); i < OrderPages(o); i++ {
					if seen[pfn+i] {
						return fmt.Errorf("frame %d covered twice", pfn+i)
					}
					seen[pfn+i] = true
					if !b.pm.IsFree(pfn + i) {
						return fmt.Errorf("tail frame %d of free block not marked free", pfn+i)
					}
					if metaCov(b.pm.meta[pfn+i]) != o {
						return fmt.Errorf("frame %d cov %d, covering free order %d", pfn+i, metaCov(b.pm.meta[pfn+i]), o)
					}
				}
				listed += OrderPages(o)
			}
		}
	}
	if listed != b.freeTotal {
		return fmt.Errorf("freeTotal %d, lists hold %d", b.freeTotal, listed)
	}
	var byList uint64
	for mt := 0; mt < NumMigrateTypes; mt++ {
		byList += b.freeByList[mt]
	}
	if byList != b.freeTotal {
		return fmt.Errorf("freeByList sums to %d, freeTotal %d", byList, b.freeTotal)
	}
	for p := b.start; p < b.end; p++ {
		if b.pm.IsFree(p) && !seen[p] {
			return fmt.Errorf("frame %d marked free but not on any list", p)
		}
	}
	return nil
}
