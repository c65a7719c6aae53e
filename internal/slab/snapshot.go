package slab

import (
	"fmt"
	"sort"

	"contiguitas/internal/kernel"
)

// Checkpoint/restore for slab caches.
//
// Restore rebuilds the partial list in exact serialized order (Alloc
// pops from the slice end, so order is behavior), recreates full pages,
// and keeps a temporary PFN index so callers can rehydrate their Obj
// handles with ObjAt before EndRestore drops it.

// SlabPageState is one serialized backing page.
type SlabPageState struct {
	PFN  uint64 // head PFN of the kernel page backing this slab
	Used []uint64
	Live int
	// Partial is true when the page sits on the partial list; such
	// pages appear in CacheState.Pages in exact partial-list order,
	// before any full pages.
	Partial bool
}

// CacheState is one serialized size class. Geometry (name, object size,
// packing) is configuration re-created by NewCache/NewManager, not
// state; only occupancy and counters are serialized.
type CacheState struct {
	Name string
	// Pages lists partial pages first (in partial-list order), then
	// full pages sorted by PFN for determinism.
	Pages []SlabPageState

	Objects    int
	PagesHeld  int
	PagesGrown uint64
	PagesFreed uint64
	AllocCalls uint64
	FreeCalls  uint64
}

// ExportState serializes the cache: its partial pages in list order,
// then its full pages by PFN.
func (c *Cache) ExportState() CacheState {
	st := CacheState{
		Name:       c.name,
		Objects:    c.Objects,
		PagesHeld:  c.PagesHeld,
		PagesGrown: c.PagesGrown,
		PagesFreed: c.PagesFreed,
		AllocCalls: c.AllocCalls,
		FreeCalls:  c.FreeCalls,
	}
	for _, i := range c.partial {
		st.Pages = append(st.Pages, c.exportPage(i, true))
	}
	var full []uint32
	for i := range c.pages {
		if int(c.pages[i].live) == c.perPage {
			full = append(full, uint32(i))
		}
	}
	sort.Slice(full, func(a, b int) bool {
		return c.src.PFN(c.pages[full[a]].page) < c.src.PFN(c.pages[full[b]].page)
	})
	for _, i := range full {
		st.Pages = append(st.Pages, c.exportPage(i, false))
	}
	return st
}

func (c *Cache) exportPage(i uint32, partial bool) SlabPageState {
	return SlabPageState{
		PFN:     c.src.PFN(c.pages[i].page),
		Used:    append([]uint64(nil), c.bitmap(i)...),
		Live:    int(c.pages[i].live),
		Partial: partial,
	}
}

// restoreIdx maps PFN → restored page between ImportState and
// EndRestore, letting callers rehydrate Obj handles with ObjAt.
//
// It lives on the Cache but is transient: EndRestore drops it.

// ImportState rebuilds the cache's occupancy from serialized state. The
// cache must be freshly constructed (same name/size/source class as the
// exported one) and empty. resolve maps a serialized head PFN to the
// restored kernel page handle backing it.
func (c *Cache) ImportState(st CacheState, resolve func(pfn uint64) (kernel.Page, bool)) error {
	if c.Objects != 0 || len(c.pages) != 0 || c.PagesHeld != 0 {
		return fmt.Errorf("slab: ImportState into non-empty cache %s", c.name)
	}
	if st.Name != c.name {
		return fmt.Errorf("slab: ImportState cache %s from state for %s", c.name, st.Name)
	}
	c.restoreIdx = make(map[uint64]uint32, len(st.Pages))
	for _, ps := range st.Pages {
		page, ok := resolve(ps.PFN)
		if !ok {
			return fmt.Errorf("slab: restore %s: no live page at pfn %d", c.name, ps.PFN)
		}
		if len(ps.Used) != c.words {
			return fmt.Errorf("slab: restore %s: bitmap length %d, want %d", c.name, len(ps.Used), c.words)
		}
		live := 0
		for _, w := range ps.Used {
			for ; w != 0; w &= w - 1 {
				live++
			}
		}
		if live != ps.Live || live > c.perPage {
			return fmt.Errorf("slab: restore %s pfn %d: bitmap holds %d live, serialized %d (perPage %d)",
				c.name, ps.PFN, live, ps.Live, c.perPage)
		}
		if ps.Partial != (live < c.perPage) {
			return fmt.Errorf("slab: restore %s pfn %d: partial flag %v disagrees with occupancy %d/%d",
				c.name, ps.PFN, ps.Partial, live, c.perPage)
		}
		if _, dup := c.restoreIdx[ps.PFN]; dup {
			return fmt.Errorf("slab: restore %s: pfn %d serialized twice", c.name, ps.PFN)
		}
		i := c.newPage(page)
		copy(c.bitmap(i), ps.Used)
		c.pages[i].live = int32(live)
		if ps.Partial {
			c.addPartial(i)
		}
		c.restoreIdx[ps.PFN] = i
	}
	c.Objects = st.Objects
	c.PagesHeld = st.PagesHeld
	c.PagesGrown = st.PagesGrown
	c.PagesFreed = st.PagesFreed
	c.AllocCalls = st.AllocCalls
	c.FreeCalls = st.FreeCalls
	return nil
}

// ObjAt rehydrates an object handle from its serialized (page PFN,
// slot) coordinates. Valid only between ImportState and EndRestore.
func (c *Cache) ObjAt(pfn uint64, slot int) (Obj, error) {
	i, ok := c.restoreIdx[pfn]
	if !ok {
		return Obj{}, fmt.Errorf("slab: ObjAt %s: no restored page at pfn %d", c.name, pfn)
	}
	if slot < 0 || slot >= c.perPage || c.bitmap(i)[slot/64]&(1<<uint(slot%64)) == 0 {
		return Obj{}, fmt.Errorf("slab: ObjAt %s pfn %d: slot %d not live", c.name, pfn, slot)
	}
	return Obj{page: i + 1, gen: c.pages[i].gen, slot: uint32(slot)}, nil
}

// PageOf exposes a live object's backing page head PFN and slot, the
// serialized coordinates ObjAt reverses.
func (c *Cache) PageOf(o Obj) (pfn uint64, slot int) {
	return c.src.PFN(c.pages[o.page-1].page), int(o.slot)
}

// EndRestore drops the transient PFN index built by ImportState.
func (c *Cache) EndRestore() { c.restoreIdx = nil }
