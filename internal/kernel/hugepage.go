package kernel

import (
	"fmt"

	"contiguitas/internal/mem"
	"contiguitas/internal/telemetry"
)

// Mapping is a user-space memory area backed by a mix of page sizes —
// the outcome of THP's opportunistic huge-page allocation. The blocks
// slice holds the kernel handles backing the area. Blocks is read-only
// outside the kernel: AllocUserTHP, Promote, FreeMapping and
// RestoreMapping are the only writers, so the counters below stay exact.
type Mapping struct {
	Bytes  uint64
	Blocks []Page

	// byOrder counts the blocks in Blocks per order (a mapping's blocks
	// are user memory: they migrate but are never reclaimed or
	// resized). interleaved is set when some larger block follows a
	// 4 KB one; when clear, Blocks is already in the order a khugepaged
	// pass leaves it (larger blocks first), so a pass that cannot
	// collapse (fewer than 512 4 KB blocks) would rewrite it unchanged.
	byOrder     [mem.MaxOrder + 1]int32
	interleaved bool
}

// appendBlock adds p, a block of the given order, to the end of the
// block list, keeping the per-order counts and the partition bit
// current.
func (m *Mapping) appendBlock(p Page, order int) {
	if order != mem.Order4K && m.byOrder[mem.Order4K] > 0 {
		m.interleaved = true
	}
	m.byOrder[order]++
	m.Blocks = append(m.Blocks, p)
}

// CheckCounters recomputes the per-order counts and the partition bit
// from Blocks and reports any disagreement with the maintained values.
// It is O(len(Blocks)) and intended for tests.
func (m *Mapping) CheckCounters(k *Kernel) error {
	var want Mapping
	for _, p := range m.Blocks {
		want.appendBlock(p, k.Info(p).Order)
	}
	if want.byOrder != m.byOrder || want.interleaved != m.interleaved {
		return fmt.Errorf("kernel: mapping counters %v interleaved=%v, blocks give %v interleaved=%v",
			m.byOrder, m.interleaved, want.byOrder, want.interleaved)
	}
	return nil
}

// RestoreMapping rebuilds a mapping of the given size over live handles
// in their serialized order (workload snapshot restore). The mapping
// takes ownership of blocks.
func (k *Kernel) RestoreMapping(bytes uint64, blocks []Page) *Mapping {
	m := &Mapping{Bytes: bytes, Blocks: blocks[:0]}
	for _, p := range blocks {
		m.appendBlock(p, int(k.pt.rows[p.slot].order))
	}
	return m
}

// Frames returns the frames backing the mapping, and those of them in
// blocks of at least the given order.
func (m *Mapping) Frames(order int) (total, covered uint64) {
	for o, n := range m.byOrder {
		pages := uint64(n) * mem.OrderPages(o)
		total += pages
		if o >= order {
			covered += pages
		}
	}
	return total, covered
}

// Coverage returns the fraction of the mapping's frames backed by blocks
// of at least the given order — the huge-page coverage that drives the
// address-translation model.
func (m *Mapping) Coverage(order int) float64 {
	total, covered := m.Frames(order)
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// BlockCount returns how many blocks of exactly the given order back the
// mapping.
func (m *Mapping) BlockCount(order int) int { return int(m.byOrder[order]) }

// AllocUser allocates user anonymous memory. With thp enabled it
// attempts 2 MB blocks first (Transparent Huge Pages with THP=always,
// §2.1) and falls back to 4 KB pages per chunk; without THP everything
// is 4 KB. On failure the partial mapping is released.
func (k *Kernel) AllocUser(bytes uint64, thp bool) (*Mapping, error) {
	return k.AllocUserTHP(bytes, thp, false)
}

// AllocUserTHP additionally attempts 1 GB blocks when thp1G is set —
// the upstream-in-progress 1 GB THP support the paper's §6 discusses as
// the natural next step once Contiguitas makes gigabyte contiguity
// reliable. The fallback ladder is 1 GB → 2 MB → 4 KB.
func (k *Kernel) AllocUserTHP(bytes uint64, thp, thp1G bool) (*Mapping, error) {
	remaining := mem.BytesToPages(bytes)
	// Size the block list for the outcome where every huge attempt
	// succeeds; base-page fallbacks grow it.
	blocks := remaining
	if thp && remaining >= mem.PageblockPages {
		blocks = remaining/mem.PageblockPages + remaining%mem.PageblockPages
		if thp1G {
			per1G := mem.OrderPages(mem.Order1G)
			blocks = remaining/per1G + remaining%per1G/mem.PageblockPages + remaining%mem.PageblockPages
		}
	}
	m := &Mapping{Bytes: bytes, Blocks: k.blockList(blocks)}
	for remaining > 0 {
		if thp1G && remaining >= mem.OrderPages(mem.Order1G) {
			if p, err := k.Alloc(mem.Order1G, mem.MigrateMovable, mem.SrcUser); err == nil {
				m.appendBlock(p, mem.Order1G)
				remaining -= mem.OrderPages(mem.Order1G)
				continue
			}
		}
		if thp && remaining >= mem.PageblockPages {
			if p, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser); err == nil {
				m.appendBlock(p, mem.Order2M)
				remaining -= mem.PageblockPages
				continue
			}
			// The huge attempt failed: back the whole 2 MB extent with base
			// pages before retrying huge for the next extent. Falling back
			// one extent at a time (rather than one page) keeps exhausted
			// runs from re-walking the 2 MB slow path per base page.
			k.THPFallbacks++
			if k.tp.Enabled() {
				k.tp.Emit(k.tick, telemetry.EvTHPFallback, mem.Order2M, remaining, 0)
			}
			if err := k.allocUser4K(m, mem.PageblockPages); err != nil {
				k.FreeMapping(m)
				return nil, err
			}
			remaining -= mem.PageblockPages
			continue
		}
		// Base pages to the end, unless a 1 GB attempt just failed and
		// the next page leaves enough for another.
		n := remaining
		if thp1G && remaining >= mem.OrderPages(mem.Order1G) {
			n = 1
		}
		if err := k.allocUser4K(m, int(n)); err != nil {
			k.FreeMapping(m)
			return nil, err
		}
		remaining -= n
	}
	return m, nil
}

// blockList returns an empty block list of capacity at least n, reusing
// the list of the most recently freed mapping when it is large enough.
func (k *Kernel) blockList(n uint64) []Page {
	if last := len(k.spareBlocks) - 1; last >= 0 {
		b := k.spareBlocks[last]
		k.spareBlocks = k.spareBlocks[:last]
		if uint64(cap(b)) >= n {
			return b
		}
	}
	return make([]Page, 0, n)
}

// FreeMapping releases every live block of the mapping, in order. The
// mapping gives up its block list, which a later AllocUser may reuse.
func (k *Kernel) FreeMapping(m *Mapping) {
	k.FreeBatch(m.Blocks)
	if cap(m.Blocks) > 0 {
		k.spareBlocks = append(k.spareBlocks, m.Blocks[:0])
	}
	m.Blocks = nil
	m.byOrder = [mem.MaxOrder + 1]int32{}
	m.interleaved = false
}

// Promote runs a khugepaged pass over the mapping: groups of 512 base
// pages are collapsed into freshly allocated 2 MB blocks, paying one
// software migration per page moved. maxCollapses bounds the work per
// pass (0 = unlimited). Returns the number of collapses performed.
// The pass leaves the larger blocks first and the remaining base pages
// after them, both in their previous relative order.
func (k *Kernel) Promote(m *Mapping, maxCollapses int) int {
	if !m.interleaved && m.byOrder[mem.Order4K] < mem.PageblockPages {
		// Already partitioned with no group to collapse: the pass would
		// rewrite Blocks unchanged.
		return 0
	}
	collapses := 0
	// Partition into kernel-owned scratch buffers: Promote runs for every
	// mapping every tick in the workload driver, and per-call slice growth
	// dominated allocation profiles.
	small := k.promoteSmall[:0]
	rest := k.promoteRest[:0]
	for _, b := range m.Blocks {
		if k.pt.rows[b.slot].order == mem.Order4K {
			small = append(small, b)
		} else {
			rest = append(rest, b)
		}
	}
	next := 0
	for len(small)-next >= mem.PageblockPages {
		if maxCollapses > 0 && collapses >= maxCollapses {
			break
		}
		huge, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		group := small[next : next+mem.PageblockPages]
		next += mem.PageblockPages
		for range group {
			// Collapse: copy the base page into the huge block.
			k.SWMigrations++
			cycles := k.migCost.UnavailableCycles(k.cfg.Victims)
			k.SWMigrationCycles += cycles
			if k.histSW != nil {
				k.histSW.Observe(cycles)
			}
		}
		k.FreeBatch(group)
		rest = append(rest, huge)
		collapses++
	}
	m.Blocks = append(m.Blocks[:0], rest...)
	m.Blocks = append(m.Blocks, small[next:]...)
	m.byOrder[mem.Order4K] = int32(len(small) - next)
	m.byOrder[mem.Order2M] += int32(collapses)
	m.interleaved = false
	k.promoteSmall = small[:0]
	k.promoteRest = rest[:0]
	return collapses
}

// HugeTLBResult reports a dynamic HugeTLB reservation attempt.
type HugeTLBResult struct {
	Requested int
	Allocated int
	Pages     []Page
}

// AllocHugeTLB dynamically reserves count huge pages of the given order
// (2 MB or 1 GB), the way a service pre-faults its HugeTLB pool at
// startup. Each page goes through the full slow path (reclaim +
// compaction); under fragmentation with scattered unmovable pages, 1 GB
// requests fail on Linux and succeed under Contiguitas (§5.1).
func (k *Kernel) AllocHugeTLB(order, count int) HugeTLBResult {
	// Explicit reservations run direct compaction, unconstrained by the
	// background budget.
	k.directCompact = true
	defer func() { k.directCompact = false }()
	res := HugeTLBResult{Requested: count}
	for i := 0; i < count; i++ {
		p, err := k.Alloc(order, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		res.Pages = append(res.Pages, p)
		res.Allocated++
	}
	return res
}

// FreeHugeTLB releases a reservation.
func (k *Kernel) FreeHugeTLB(r *HugeTLBResult) {
	for _, p := range r.Pages {
		if k.Live(p) {
			k.Free(p)
		}
	}
	r.Pages = nil
	r.Allocated = 0
}
