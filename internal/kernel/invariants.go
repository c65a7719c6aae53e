package kernel

import (
	"fmt"

	"contiguitas/internal/mem"
)

// CheckInvariants validates the kernel's global consistency: every buddy
// allocator's internal invariants, boundary agreement between the
// Contiguitas regions, and — walking the whole frame table — that every
// frame belongs to exactly one free or allocated block, that every
// allocated block has exactly one live handle agreeing on order and
// address, and that pin accounting matches between handles and frames.
//
// It is O(machine size) and meant for soak checkpoints and tests, not
// the hot path. A clean result after a fault-injected run is the
// simulator's correctness witness: whatever failed, nothing leaked and
// nothing overlaps.
func (k *Kernel) CheckInvariants() error {
	for _, reg := range k.regions() {
		if err := reg.b.CheckInvariants(); err != nil {
			return fmt.Errorf("%s region: %w", reg.name, err)
		}
	}
	if k.cfg.Mode == ModeContiguitas {
		if k.unmov.End() != k.boundary || k.mov.Start() != k.boundary {
			return fmt.Errorf("boundary out of sync: unmov end %d, boundary %d, mov start %d",
				k.unmov.End(), k.boundary, k.mov.Start())
		}
		if k.unmov.Start() != 0 || k.mov.End() != k.pm.NPages {
			return fmt.Errorf("regions do not tile memory: [%d,%d) + [%d,%d) vs %d frames",
				k.unmov.Start(), k.unmov.End(), k.mov.Start(), k.mov.End(), k.pm.NPages)
		}
	}

	// Frame-table walk: memory must tile exactly into free blocks and
	// live allocations — no limbo frames, no overlap, no orphans.
	pm := k.pm
	allocatedBlocks := 0
	liveRows := make([]bool, len(k.pt.rows))
	var freeFrames uint64
	for p := uint64(0); p < pm.NPages; {
		if !pm.IsHead(p) {
			return fmt.Errorf("frame %d is in limbo: not covered by any free or allocated block", p)
		}
		order := pm.BlockOrder(p)
		if order < 0 || order > mem.MaxOrder {
			return fmt.Errorf("block head %d has invalid order %d", p, order)
		}
		n := mem.OrderPages(order)
		if pm.IsFree(p) {
			for i := uint64(0); i < n; i++ {
				if k.pt.heads[p+i] != 0 {
					return fmt.Errorf("free block %d: frame %d heads a live handle", p, p+i)
				}
				if i > 0 && (!pm.IsFree(p+i) || pm.IsHead(p+i)) {
					return fmt.Errorf("free block %d: tail frame %d inconsistently marked", p, p+i)
				}
			}
			freeFrames += n
			p += n
			continue
		}
		s := k.pt.heads[p]
		if s == 0 {
			return fmt.Errorf("allocated block at %d has no live handle", p)
		}
		if int(s) >= len(liveRows) || liveRows[s] {
			return fmt.Errorf("block %d: handle row is out of range or heads a second block", p)
		}
		liveRows[s] = true
		handle := &k.pt.rows[s]
		if uint64(handle.pfn) != p {
			return fmt.Errorf("handle for block %d records pfn %d", p, handle.pfn)
		}
		if int(handle.order) != order {
			return fmt.Errorf("block %d: frame order %d, handle order %d", p, order, handle.order)
		}
		if handle.pinned != pm.IsPinned(p) {
			return fmt.Errorf("block %d: handle pinned=%v, frame pinned=%v", p, handle.pinned, pm.IsPinned(p))
		}
		for i := uint64(1); i < n; i++ {
			if pm.IsFree(p+i) || pm.IsHead(p+i) {
				return fmt.Errorf("allocated block %d: tail frame %d inconsistently marked", p, p+i)
			}
			if k.pt.heads[p+i] != 0 {
				return fmt.Errorf("allocated block %d: tail frame %d heads a live handle", p, p+i)
			}
			if pm.IsPinned(p+i) != handle.pinned {
				return fmt.Errorf("block %d: pin flag differs across frames at %d", p, p+i)
			}
		}
		allocatedBlocks++
		p += n
	}
	if allocatedBlocks != k.pt.n {
		return fmt.Errorf("%d allocated blocks in the frame table, %d live handles", allocatedBlocks, k.pt.n)
	}
	if err := k.pt.checkRows(liveRows); err != nil {
		return err
	}
	if freeFrames != k.FreePages() {
		return fmt.Errorf("frame table holds %d free frames, allocators report %d", freeFrames, k.FreePages())
	}

	// Reclaimable-FIFO accounting: live entries agree with their index
	// and sum to the tracked total.
	var cachePages uint64
	for i, e := range k.reclaimable {
		if e == noCacheEntry {
			continue
		}
		s := k.pt.heads[e]
		if s == 0 {
			return fmt.Errorf("reclaimable entry %d (pfn %d) is not live", i, e)
		}
		p := &k.pt.rows[s]
		if p.cacheIdx != int32(i) {
			return fmt.Errorf("reclaimable entry %d records index %d", i, p.cacheIdx)
		}
		cachePages += p.pages()
	}
	if cachePages != k.reclaimablePages {
		return fmt.Errorf("reclaimable FIFO holds %d pages, counter says %d", cachePages, k.reclaimablePages)
	}
	return nil
}

// namedRegion pairs a buddy with its report name.
type namedRegion struct {
	name string
	b    *mem.Buddy
}

// regions lists the kernel's buddy allocators for validation.
func (k *Kernel) regions() []namedRegion {
	if k.cfg.Mode == ModeLinux {
		return []namedRegion{{"zone", k.zone}}
	}
	return []namedRegion{{"unmovable", k.unmov}, {"movable", k.mov}}
}
