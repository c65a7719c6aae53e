package mem

import "math/bits"

// freeList stores the heads of free buddy blocks of one (order,
// migratetype) class. Two implementations exist:
//
//   - lifoList picks the most recently freed block first, matching the
//     Linux free-list behaviour that the baseline simulates; it tracks
//     each head's stack position in the frame table's flIdx column so
//     arbitrary removal (buddy coalescing, boundary carving) is O(1);
//   - pfnSet is a hierarchical bitmap over block indices that pops the
//     lowest or highest PFN, implementing the address bias of §3.2: the
//     Contiguitas unmovable region allocates lowest-first (away from the
//     region boundary) and the movable region highest-first, so the
//     boundary between them stays easy to move. Every operation costs
//     one bit operation per level (four levels at 8 GiB).
type freeList interface {
	push(pm *PhysMem, pfn uint64)
	pop(pm *PhysMem) (uint64, bool)
	remove(pm *PhysMem, pfn uint64)
	len() int
	// appendTo appends every listed head to dst: a LIFO stack in
	// backing order (bottom first), a PFN set in ascending order.
	appendTo(dst []uint64) []uint64
}

// lifoList is a stack of PFNs.
type lifoList struct{ pfns []uint64 }

func (l *lifoList) len() int                       { return len(l.pfns) }
func (l *lifoList) appendTo(dst []uint64) []uint64 { return append(dst, l.pfns...) }

func (l *lifoList) push(pm *PhysMem, pfn uint64) {
	pm.flIdx[pfn] = int32(len(l.pfns))
	l.pfns = append(l.pfns, pfn)
}

func (l *lifoList) pop(pm *PhysMem) (uint64, bool) {
	if len(l.pfns) == 0 {
		return 0, false
	}
	pfn := l.pfns[len(l.pfns)-1]
	l.pfns = l.pfns[:len(l.pfns)-1]
	return pfn, true
}

func (l *lifoList) remove(pm *PhysMem, pfn uint64) {
	i := int(pm.flIdx[pfn])
	last := len(l.pfns) - 1
	if i != last {
		moved := l.pfns[last]
		l.pfns[i] = moved
		pm.flIdx[moved] = int32(i)
	}
	l.pfns = l.pfns[:last]
}

// pfnSet is the PFN-ordered free list of one (order, migratetype)
// class. levels[0] holds one bit per block index pfn>>order over the
// whole frame table (regions move their bounds, the table does not);
// each level above holds one bit per non-zero word of the level below,
// up to a single top word. First and last set bits are found by one
// bit scan per level, top down. The levels are allocated on first
// push: most classes of a region never hold a block.
//
// The set keeps no per-head position and never touches flIdx; the
// snapshot codec writes list positions into the witness instead (see
// PhysMemState.NoteSetPositions).
type pfnSet struct {
	levels [][]uint64
	order  uint
	desc   bool
	n      int
}

func (s *pfnSet) len() int { return s.n }

// init sizes the levels for a frame table of npages frames.
func (s *pfnSet) init(npages uint64) {
	nbits := (npages + 1<<s.order - 1) >> s.order
	var sizes []uint64
	total := uint64(0)
	for {
		words := (nbits + 63) / 64
		sizes = append(sizes, words)
		total += words
		if words == 1 {
			break
		}
		nbits = words
	}
	backing := make([]uint64, total)
	s.levels = make([][]uint64, len(sizes))
	for l, words := range sizes {
		s.levels[l], backing = backing[:words:words], backing[words:]
	}
}

// has reports whether the block headed at pfn is in the set.
func (s *pfnSet) has(pfn uint64) bool {
	if s.levels == nil {
		return false
	}
	i := pfn >> s.order
	return s.levels[0][i>>6]&(1<<(i&63)) != 0
}

func (s *pfnSet) push(pm *PhysMem, pfn uint64) {
	if s.levels == nil {
		s.init(pm.NPages)
	}
	i := pfn >> s.order
	for _, words := range s.levels {
		w := i >> 6
		was := words[w]
		words[w] = was | 1<<(i&63)
		if was != 0 {
			break
		}
		i = w
	}
	s.n++
}

func (s *pfnSet) remove(_ *PhysMem, pfn uint64) {
	i := pfn >> s.order
	for _, words := range s.levels {
		w := i >> 6
		words[w] &^= 1 << (i & 63)
		if words[w] != 0 {
			break
		}
		i = w
	}
	s.n--
}

func (s *pfnSet) pop(pm *PhysMem) (uint64, bool) {
	if s.n == 0 {
		return 0, false
	}
	var i uint64
	for l := len(s.levels) - 1; l >= 0; l-- {
		w := s.levels[l][i]
		if s.desc {
			i = i<<6 + uint64(63-bits.LeadingZeros64(w))
		} else {
			i = i<<6 + uint64(bits.TrailingZeros64(w))
		}
	}
	pfn := i << s.order
	s.remove(pm, pfn)
	return pfn, true
}

func (s *pfnSet) appendTo(dst []uint64) []uint64 {
	if s.n == 0 {
		return dst
	}
	for w, word := range s.levels[0] {
		for word != 0 {
			b := uint64(bits.TrailingZeros64(word))
			word &= word - 1
			dst = append(dst, (uint64(w)<<6+b)<<s.order)
		}
	}
	return dst
}
