package mem

import (
	"fmt"
	"math/bits"
)

// Bulk 4 KB paths, the analogue of Linux alloc_pages_bulk and
// free_pages_bulk. Each leaves exactly the state — frame stamps, free
// lists and their LIFO positions, counters, dirty pageblocks — that the
// same sequence of single Alloc/Free calls leaves; the differential
// tests and FuzzBuddyAllocFree hold them to that.

// flagPending (meta bit 18, above the packed fields) marks the head of
// a block FreeBatch has released but not yet stamped in full (and, in a
// PFN-ordered region, not yet listed). It exists only inside one
// FreeBatch call.
const flagPending = 1 << 18

// ErrNotRecyclable reports a Recycle4K outside the one case it is exact
// for: a full region and a page whose pageblock is of the requested
// migratetype.
var ErrNotRecyclable = fmt.Errorf("mem: page not recyclable in place")

// HasFree reports whether mt's own free lists hold a block, that is
// whether a single Alloc of any order up to the largest free block of
// mt would be served without fallback stealing.
func (b *Buddy) HasFree(mt MigrateType) bool { return b.mtMask[mt] != 0 }

// AllocBulk4K allocates up to n 4 KB pages of migratetype mt and source
// src and appends their PFNs to dst, in the order n single
// Alloc(Order4K, mt, src) calls return them. It serves only from mt's
// own lists and stops early once they are empty, where a single call
// would steal or fail; it never steals.
//
// Why one pop per block is exact: let o be the smallest non-empty order
// on mt's lists. A single call pops that block and pushes its split
// remainders onto orders below o, which were empty, so the next call
// takes the smallest remainder, which is the next page of the same
// block. N calls therefore use the block up before touching another,
// take its pages in policy order (ascending for LIFO and LowestPFN,
// descending for HighestPFN) and leave the canonical aligned
// decomposition of the rest. Under LIFO each split remainder is pushed
// onto an empty list, so every head pushed on the way gets flIdx 0:
// that is every consumed page but the first, plus the remainder heads.
func (b *Buddy) AllocBulk4K(dst []uint64, n int, mt MigrateType, src Source) []uint64 {
	for n > 0 && b.mtMask[mt] != 0 {
		o := bits.TrailingZeros32(b.mtMask[mt])
		head, _ := b.popFree(o, mt)
		size := OrderPages(o)
		k := size
		if uint64(n) < k {
			k = uint64(n)
		}
		first, rest := head, head+k
		if b.policy == PolicyHighestPFN {
			first, rest = head+size-k, head
			for p := head + size; p > first; p-- {
				dst = append(dst, p-1)
			}
		} else {
			for p := first; p < rest; p++ {
				dst = append(dst, p)
			}
		}
		b.pm.setAllocated4K(first, k, mt, src)
		if b.policy == PolicyLIFO {
			clear(b.pm.flIdx[first+1 : first+k])
		}
		b.pushRange(rest, size-k, mt)
		n -= int(k)
	}
	return dst
}

// pushRange puts the free range [start, start+n) on mt's lists as its
// canonical decomposition into maximal naturally aligned blocks.
func (b *Buddy) pushRange(start, n uint64, mt MigrateType) {
	for end := start + n; start < end; {
		o := maxAlignedOrder(start, end-start)
		b.pushFree(start, o, mt)
		start += OrderPages(o)
	}
}

// Recycle4K frees the allocated 4 KB page at pfn and allocates it again
// for (mt, src). It leaves exactly the state of Free(pfn) followed by
// Alloc(Order4K, mt, src) in the one case it accepts: the region has no
// free page and pfn's pageblock is of type mt. The freed page then has
// no free buddy to merge with and lands alone on mt's order-0 list (at
// LIFO position 0), where the allocation pops it. Anything else returns
// an error and changes nothing.
func (b *Buddy) Recycle4K(pfn uint64, mt MigrateType, src Source) error {
	if !b.Owns(pfn) {
		return fmt.Errorf("%w: Recycle4K(%d) outside [%d, %d)", ErrOutOfRange, pfn, b.start, b.end)
	}
	m := b.pm.meta[pfn]
	if metaOrder(m) != Order4K || m&flagFree != 0 {
		return fmt.Errorf("%w: Recycle4K(%d)", ErrNotAllocated, pfn)
	}
	if b.freeTotal != 0 || b.pm.PageblockMT(pfn) != mt {
		return fmt.Errorf("%w: Recycle4K(%d)", ErrNotRecyclable, pfn)
	}
	if b.policy == PolicyLIFO {
		b.pm.flIdx[pfn] = 0
	}
	b.pm.setAllocated(pfn, Order4K, mt, src)
	return nil
}

// FreeBatch releases the allocated blocks headed at pfns and leaves
// exactly the state that single Free calls in the same order leave. A
// pfn a single call would reject is skipped; the first such error is
// returned. pfns is used as scratch: its contents are unspecified
// afterwards.
//
// It merges in arrival order, as the single calls do, and saves their
// stamping: a single Free stamps every frame of each block it pushes,
// so a run of frees that keeps merging restamps the growing block again
// and again. The batch stamps only a pushed block's head, which is all
// a merge check or a list operation reads, and stamps each block still
// free at the end once; every block pushed on the way lies inside one
// of those. The list operations differ by policy:
//
//   - LIFO stacks replay the single calls' pushes and removes one for
//     one, because the stack order and flIdx positions depend on each of
//     them (remove swaps the last element into the hole).
//   - PFN sets hold no order, and the free structure after the batch is
//     canonical whatever the order of the frees: the maximal aligned
//     blocks over the free frames, each on the list of its head
//     pageblock's type. A block pushed in the batch therefore stays off
//     the lists until the end, and a merge absorbs it without a remove;
//     only blocks listed before the batch are taken off.
func (b *Buddy) FreeBatch(pfns []uint64) error {
	var firstErr error
	meta := b.pm.meta
	deferLists := b.policy != PolicyLIFO
	pushed := 0
	for _, pfn := range pfns {
		order, err := b.allocatedHead(pfn)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		pfn, order = b.mergeUp(pfn, order, deferLists)
		// pushFree with only the head stamped, marked pending.
		listMT := b.pm.PageblockMT(pfn)
		meta[pfn] = flagFree | flagHead | flagPending | uint32(order+1)<<metaOrdShift | uint32(listMT)<<metaMTShift
		if !deferLists {
			b.listBlock(pfn, order, listMT)
		}
		pfns[pushed] = pfn
		pushed++
	}
	for _, h := range pfns[:pushed] {
		m := meta[h]
		if m&flagPending == 0 {
			continue // absorbed, or stamped already
		}
		if deferLists {
			b.pushFree(h, metaOrder(m), metaMT(m))
		} else {
			b.pm.setFreeHead(h, metaOrder(m), metaMT(m))
		}
	}
	return firstErr
}
