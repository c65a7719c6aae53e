package kernel

import (
	"fmt"

	"contiguitas/internal/mem"
)

// Page is the handle for one allocated block: a pointer-free value that
// names a row of the kernel's page table and the generation that row had
// when the block was allocated. The kernel may relocate the block
// (compaction, region resizing, Contiguitas-HW or pin migration); the
// row follows the block, so a handle stays valid across moves, the way
// page tables would after a migration. A free bumps the row's
// generation, so every copy of the handle goes stale at once, also after
// the row or the frames are reused: Free and Pin refuse it with
// ErrStaleHandle and Live reports false. The zero Page is the nil
// handle.
//
// Handles are keyed by row, not by frame: a {PFN, generation} key would
// go stale under its holder on every migration.
type Page struct {
	slot uint32
	gen  uint32
}

// Slot returns the handle's row index: dense, small, and reused once
// the block is freed. Side tables that shadow live handles (the trace
// recorder's event IDs) index by it; it is not a stable name and is
// never serialized.
func (p Page) Slot() int { return int(p.slot) }

// PageInfo describes a live block.
type PageInfo struct {
	PFN    uint64
	Order  int
	MT     mem.MigrateType
	Src    mem.Source
	Pinned bool
}

// Pages returns the number of 4 KB frames in the block.
func (pi PageInfo) Pages() uint64 { return mem.OrderPages(pi.Order) }

// pageRow is one row of the page table: the block a live handle names
// (Linux keeps the same facts in the block's struct page). 16 bytes.
type pageRow struct {
	// pfn is the block head (frame counts stay below 2^32; see
	// noCacheEntry). On a free row it links the free list instead.
	pfn uint32
	gen uint32
	// cacheIdx is the allocation's index in the reclaimable FIFO, or -1.
	cacheIdx int32
	order    int8
	mt       mem.MigrateType
	src      mem.Source
	pinned   bool
}

func (r *pageRow) pages() uint64 { return mem.OrderPages(int(r.order)) }

// pageTable maps handles to blocks and block heads to handles. Nothing
// in it holds a Go pointer, so the collector never scans it and no
// store into it pays a write barrier.
type pageTable struct {
	// rows is allocated once at its bound, one row per frame plus row
	// 0 (every live block holds a frame, and a freed row is reused
	// before a new one is taken), so it never reallocates and a
	// *pageRow stays valid. Row 0 is never allocated: heads uses 0 for
	// "no block", and its generation 1 differs from the nil handle's.
	rows []pageRow
	// heads holds, per frame, the row of the live block headed there,
	// or 0.
	heads []uint32
	// free is the head of the LIFO free-row list threaded through the
	// rows' pfn fields (0 = empty); n counts live rows.
	free uint32
	n    int
}

func newPageTable(npages uint64) pageTable {
	rows := make([]pageRow, 1, npages+1)
	rows[0].gen = 1
	return pageTable{rows: rows, heads: make([]uint32, npages)}
}

// add files a new live block headed at pfn and returns its handle.
func (t *pageTable) add(pfn uint64, order int, mt mem.MigrateType, src mem.Source) Page {
	s := t.free
	if s != 0 {
		t.free = t.rows[s].pfn
	} else {
		s = uint32(len(t.rows))
		t.rows = append(t.rows, pageRow{gen: 1})
	}
	r := &t.rows[s]
	*r = pageRow{pfn: uint32(pfn), gen: r.gen, cacheIdx: -1, order: int8(order), mt: mt, src: src}
	t.heads[pfn] = s
	t.n++
	return Page{slot: s, gen: r.gen}
}

// release retires live row s: its head entry clears, its generation
// moves on (every outstanding handle to it is stale from here), and the
// row goes on the free list.
func (t *pageTable) release(s uint32) {
	r := &t.rows[s]
	t.heads[r.pfn] = 0
	r.gen++ // wraps only after 2^32 reuses of one row
	r.pfn = t.free
	t.free = s
	t.n--
}

// move rehomes live row s onto the block headed at dst.
func (t *pageTable) move(s uint32, dst uint64) {
	r := &t.rows[s]
	t.heads[r.pfn] = 0
	r.pfn = uint32(dst)
	t.heads[dst] = s
}

// lookup returns the row p names, or nil when p is nil or stale.
func (t *pageTable) lookup(p Page) *pageRow {
	if int(p.slot) < len(t.rows) {
		if r := &t.rows[p.slot]; r.gen == p.gen {
			return r
		}
	}
	return nil
}

// handle returns the handle of the live block headed at pfn (the nil
// Page when none).
func (t *pageTable) handle(pfn uint64) Page {
	s := t.heads[pfn]
	if s == 0 {
		return Page{}
	}
	return Page{slot: s, gen: t.rows[s].gen}
}

// checkRows proves the row accounting against live, the rows the
// frame-table walk found heading allocated blocks: the free list is
// acyclic and holds only rows that are neither row 0 nor live, and
// together with the live rows it covers every allocated row exactly
// once. It is O(rows), for CheckInvariants.
func (t *pageTable) checkRows(live []bool) error {
	onFree := make([]bool, len(t.rows))
	free := 0
	for s := t.free; s != 0; s = t.rows[s].pfn {
		if int(s) >= len(t.rows) || onFree[s] || live[s] {
			return fmt.Errorf("page table: free list revisits, overruns or names a live row at row %d", s)
		}
		onFree[s] = true
		free++
	}
	if free+t.n != len(t.rows)-1 {
		return fmt.Errorf("page table: %d free and %d live rows, %d allocated", free, t.n, len(t.rows)-1)
	}
	return nil
}
