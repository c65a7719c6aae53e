package mem

import "fmt"

// Checkpoint/restore codec for the frame table and buddy allocators.
//
// What is serialized versus re-derived:
//
//   - The packed per-frame meta words and per-pageblock migratetypes are
//     serialized raw: they are the ground truth every scanner reads.
//   - LIFO free lists are serialized in exact backing-slice order: they
//     pop from the slice end, so the stack order IS the future
//     allocation order, and restoring the slice verbatim reproduces it.
//   - PFN-ordered lists are sets: they always pop the extreme PFN, so
//     only membership is state. They are serialized in ascending PFN
//     order and restored as sets; any order is accepted (snapshots from
//     before the sets, which held binary heaps, list heads in heap
//     order), but a head listed twice is rejected with ErrDuplicateHead.
//   - flIdx records each free head's position inside its serialized
//     list. LIFO lists keep it live; sets keep no positions, so export
//     writes them into the witness (NoteSetPositions). Restore re-derives
//     flIdx from the serialized lists, and the serialized copy is kept as
//     an equivalence witness: VerifyFlIdxWitness proves the rebuilt index
//     matches the original over every free head.
//   - The per-(order,migratetype) block histograms, order masks, and
//     free-page totals are re-derived from the restored lists; the
//     serialized totals are cross-checked against them.
//   - The ContigIndex (dirty-pageblock summaries) is NOT serialized:
//     restore marks every pageblock dirty and the next Scan rebuilds it
//     from the restored meta words. The kernel layer proves equivalence
//     against a serialized pre-checkpoint scan witness.

// PhysMemState is the serializable state of a frame table.
type PhysMemState struct {
	NPages uint64
	Meta   []uint32
	PbMT   []uint8
	// FlIdx is an equivalence witness, not an input: restore rebuilds
	// the free-list index from the buddy lists and then proves it
	// matches this serialized original (VerifyFlIdxWitness).
	FlIdx []int32
}

// ExportState deep-copies the frame table's persistent state.
func (pm *PhysMem) ExportState() PhysMemState {
	st := PhysMemState{
		NPages: pm.NPages,
		Meta:   append([]uint32(nil), pm.meta...),
		PbMT:   append([]uint8(nil), pm.pbMT...),
		FlIdx:  append([]int32(nil), pm.flIdx...),
	}
	return st
}

// RestorePhysMem rebuilds a frame table from serialized state. The
// ContigIndex is left cold (every pageblock dirty); flIdx starts zeroed
// and is repopulated by RestoreBuddy.
func RestorePhysMem(st PhysMemState) (*PhysMem, error) {
	if st.NPages == 0 || st.NPages%PageblockPages != 0 {
		return nil, fmt.Errorf("mem: restore: NPages %d not a positive pageblock multiple", st.NPages)
	}
	npb := st.NPages / PageblockPages
	if uint64(len(st.Meta)) != st.NPages {
		return nil, fmt.Errorf("mem: restore: meta length %d, want %d", len(st.Meta), st.NPages)
	}
	if uint64(len(st.PbMT)) != npb {
		return nil, fmt.Errorf("mem: restore: pbMT length %d, want %d", len(st.PbMT), npb)
	}
	if uint64(len(st.FlIdx)) != st.NPages {
		return nil, fmt.Errorf("mem: restore: flIdx witness length %d, want %d", len(st.FlIdx), st.NPages)
	}
	pm := &PhysMem{
		NPages: st.NPages,
		meta:   append([]uint32(nil), st.Meta...),
		flIdx:  make([]int32, st.NPages),
		pbMT:   append([]uint8(nil), st.PbMT...),
		dirty:  make([]uint64, (npb+63)/64),
	}
	pm.DirtyAll()
	return pm, nil
}

// NoteSetPositions writes the flIdx witness for the heads on bs's
// PFN-ordered lists: each head's position in its serialized list, the
// index RestoreBuddy re-derives. (LIFO heads already carry their live
// stack position.) Call it on an exported frame table for every
// exported region.
func (st *PhysMemState) NoteSetPositions(bs *BuddyState) {
	if AllocPolicy(bs.Policy) == PolicyLIFO {
		return
	}
	for o := range bs.Lists {
		for _, pfns := range bs.Lists[o] {
			for i, pfn := range pfns {
				st.FlIdx[pfn] = int32(i)
			}
		}
	}
}

// VerifyFlIdxWitness proves the re-derived free-list index matches the
// serialized original over every free head (the only frames for which
// flIdx carries meaning). Call after every buddy region is restored.
func (pm *PhysMem) VerifyFlIdxWitness(witness []int32) error {
	if uint64(len(witness)) != pm.NPages {
		return fmt.Errorf("mem: flIdx witness length %d, want %d", len(witness), pm.NPages)
	}
	for pfn := uint64(0); pfn < pm.NPages; pfn++ {
		m := pm.meta[pfn]
		if m&flagFree != 0 && m&flagHead != 0 && pm.flIdx[pfn] != witness[pfn] {
			return fmt.Errorf("mem: flIdx mismatch at free head %d: rebuilt %d, witness %d",
				pfn, pm.flIdx[pfn], witness[pfn])
		}
	}
	return nil
}

// VerifyCoveringStamps proves the covering-order stamps are consistent
// with the block structure encoded in the head frames: every frame of a
// block carries its head's order, every uncovered (limbo) frame carries
// none. One linear pass over the frame table.
func (pm *PhysMem) VerifyCoveringStamps() error {
	for p := uint64(0); p < pm.NPages; {
		m := pm.meta[p]
		o := metaOrder(m)
		if o < 0 {
			// Not a head: must be limbo (tails were skipped below).
			if m&(flagFree|flagHead) != 0 {
				return fmt.Errorf("mem: frame %d flagged free/head without an order", p)
			}
			if metaCov(m) != -1 {
				return fmt.Errorf("mem: limbo frame %d carries covering order %d", p, metaCov(m))
			}
			p++
			continue
		}
		n := OrderPages(o)
		if p&(n-1) != 0 || p+n > pm.NPages {
			return fmt.Errorf("mem: block head %d order %d misaligned or out of range", p, o)
		}
		free := m&flagFree != 0
		for i := uint64(0); i < n; i++ {
			fm := pm.meta[p+i]
			if metaCov(fm) != o {
				return fmt.Errorf("mem: frame %d covering order %d, block order %d", p+i, metaCov(fm), o)
			}
			if (fm&flagFree != 0) != free {
				return fmt.Errorf("mem: frame %d free flag disagrees with head %d", p+i, p)
			}
		}
		p += n
	}
	return nil
}

// BuddyState is the serializable state of one buddy region.
type BuddyState struct {
	Start, End uint64
	Policy     uint8
	Fallback   bool

	FreeByList       [NumMigrateTypes]uint64
	FreeTotal        uint64
	StealsConverting uint64
	StealsPolluting  uint64

	// Lists[o][mt] holds the free list's heads: a LIFO stack in exact
	// backing order, a PFN set in ascending order (see the package
	// comment above). Nil and empty are equivalent.
	Lists [MaxOrder + 1][NumMigrateTypes][]uint64
}

// ExportState deep-copies the buddy region's state. The frame table is
// exported separately (shared between regions).
func (b *Buddy) ExportState() BuddyState {
	st := BuddyState{
		Start:            b.start,
		End:              b.end,
		Policy:           uint8(b.policy),
		Fallback:         b.fallback,
		FreeByList:       b.freeByList,
		FreeTotal:        b.freeTotal,
		StealsConverting: b.StealsConverting,
		StealsPolluting:  b.StealsPolluting,
	}
	for o := 0; o <= MaxOrder; o++ {
		for mt := 0; mt < NumMigrateTypes; mt++ {
			if b.lists[o][mt].len() > 0 {
				st.Lists[o][mt] = b.lists[o][mt].appendTo(nil)
			}
		}
	}
	return st
}

// RestoreBuddy rebuilds a buddy region over an already-restored frame
// table. LIFO lists are restored in exact serialized order, PFN-ordered
// lists as sets; flIdx, block histograms, order masks, and free totals
// are re-derived, with the serialized totals cross-checked. Every
// listed head is validated against the frame table before being
// accepted.
func RestoreBuddy(pm *PhysMem, st BuddyState) (*Buddy, error) {
	if st.End > pm.NPages || st.Start >= st.End {
		return nil, fmt.Errorf("%w: restore buddy [%d, %d)", ErrBadBounds, st.Start, st.End)
	}
	policy := AllocPolicy(st.Policy)
	b := &Buddy{
		pm: pm, start: st.Start, end: st.End,
		policy: policy, fallback: st.Fallback,
		StealsConverting: st.StealsConverting,
		StealsPolluting:  st.StealsPolluting,
	}
	if !b.initLists() {
		return nil, fmt.Errorf("mem: restore: unknown alloc policy %d", st.Policy)
	}
	for o := 0; o <= MaxOrder; o++ {
		for mt := 0; mt < NumMigrateTypes; mt++ {
			pfns := st.Lists[o][mt]
			for i, pfn := range pfns {
				if pfn < st.Start || pfn+OrderPages(o) > st.End {
					return nil, fmt.Errorf("%w: restore: listed head %d (order %d)", ErrOutOfRange, pfn, o)
				}
				m := pm.meta[pfn]
				if m&(flagFree|flagHead) != flagFree|flagHead || metaOrder(m) != o || metaMT(m) != MigrateType(mt) {
					return nil, fmt.Errorf("mem: restore: frame table disagrees with list entry pfn=%d order=%d mt=%d", pfn, o, mt)
				}
				switch l := b.lists[o][mt].(type) {
				case *lifoList:
					l.pfns = append(l.pfns, pfn)
				case *pfnSet:
					if l.has(pfn) {
						return nil, fmt.Errorf("%w: restore: pfn=%d order=%d mt=%d", ErrDuplicateHead, pfn, o, mt)
					}
					l.push(pm, pfn)
				}
				pm.flIdx[pfn] = int32(i)
				b.noteBlockAdd(o, MigrateType(mt))
				b.freeByList[mt] += OrderPages(o)
				b.freeTotal += OrderPages(o)
			}
		}
	}
	if b.freeTotal != st.FreeTotal {
		return nil, fmt.Errorf("mem: restore: re-derived freeTotal %d, serialized %d", b.freeTotal, st.FreeTotal)
	}
	if b.freeByList != st.FreeByList {
		return nil, fmt.Errorf("mem: restore: re-derived freeByList %v, serialized %v", b.freeByList, st.FreeByList)
	}
	return b, nil
}
