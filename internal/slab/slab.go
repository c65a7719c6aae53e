// Package slab implements a small-object allocator in the style of the
// Linux kernel's slab/SLUB: size-class caches pack kernel objects into
// pages obtained from the page allocator. Slab is the paper's
// second-largest source of unmovable memory (Figure 6: ~12 %), and its
// defining pathology is modelled faithfully here: a slab page is
// unmovable for as long as *any* object in it lives, so one long-lived
// object (a dentry, a socket) pins an entire page — the mechanism that
// turns a trickle of immortal objects into a standing population of
// scattered unmovable pages on the Linux layout.
package slab

import (
	"fmt"
	"math/bits"

	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
)

// PageSource abstracts the page allocator a cache draws from; the
// simulated kernel satisfies it directly. PFN reports where a backing
// page currently lives (the kernel may migrate it).
type PageSource interface {
	Alloc(order int, mt mem.MigrateType, src mem.Source) (kernel.Page, error)
	Free(p kernel.Page) error
	PFN(p kernel.Page) uint64
}

// slabPage is one backing page's record. Its occupancy bitmap lives in
// the cache's shared bitmap array, so the record holds no Go pointer.
type slabPage struct {
	page kernel.Page
	// gen moves on each time the record is released, so handles to
	// objects of an earlier page in it are recognised as stale.
	gen  uint32
	live int32
	// listIdx locates the page in the cache's partial list, or -1.
	listIdx int32
}

// Obj is a handle to one allocated object: its page record (1-based,
// so the zero Obj is invalid), the record's generation, and the slot.
type Obj struct {
	page, gen, slot uint32
}

// Valid reports whether the handle names an object at all (a handle to
// a freed object is still valid; Free reports it as a double free).
func (o Obj) Valid() bool { return o.page != 0 }

// Cache is one size class (a kmem_cache).
type Cache struct {
	name     string
	objSize  int
	perPage  int
	src      PageSource
	gfpOrder int

	// pages holds every page record, live or released; used holds
	// their occupancy bitmaps, words per page each (one bit per slot).
	// freePages stacks released records for reuse. partial indexes the
	// pages with at least one free slot; fully occupied pages are
	// off-list and identified by listIdx == -1, so no separate full set
	// is needed. None of it holds a Go pointer.
	pages     []slabPage
	used      []uint64
	words     int
	freePages []uint32
	partial   []uint32

	// Stats.
	Objects    int
	PagesHeld  int
	PagesGrown uint64
	PagesFreed uint64
	AllocCalls uint64
	FreeCalls  uint64

	// restoreIdx is the transient PFN → page index a checkpoint restore
	// builds (see snapshot.go); nil outside a restore window.
	restoreIdx map[uint64]uint32
}

// NewCache builds a size class. Object sizes above half a page grow the
// cache with higher-order pages, like SLUB's calculate_order. A
// non-positive object size returns ErrBadObjectSize.
func NewCache(name string, objSize int, src PageSource) (*Cache, error) {
	if objSize <= 0 {
		return nil, fmt.Errorf("%w: cache %q size %d", ErrBadObjectSize, name, objSize)
	}
	order := 0
	pageBytes := mem.PageSize
	for objSize > pageBytes/2 && order < 3 {
		order++
		pageBytes *= 2
	}
	perPage := pageBytes / objSize
	if perPage < 1 {
		perPage = 1
	}
	return &Cache{
		name:     name,
		objSize:  objSize,
		perPage:  perPage,
		src:      src,
		gfpOrder: order,
		words:    (perPage + 63) / 64,
	}, nil
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// ObjSize returns the size class in bytes.
func (c *Cache) ObjSize() int { return c.objSize }

// ObjectsPerPage returns the packing density.
func (c *Cache) ObjectsPerPage() int { return c.perPage }

// Alloc returns one object, growing the cache by a page when every
// existing slab is full.
func (c *Cache) Alloc() (Obj, error) {
	c.AllocCalls++
	if len(c.partial) == 0 {
		if err := c.grow(); err != nil {
			return Obj{}, err
		}
	}
	i := c.partial[len(c.partial)-1]
	used := c.bitmap(i)
	slot := findFree(used)
	if slot < 0 {
		// Provably unreachable: a page is removed from the partial list
		// the moment its last slot fills (Alloc below) and re-added the
		// moment a slot frees (Free), so every listed page has a free
		// slot by construction.
		panic("slab: partial page without a free slot")
	}
	used[slot/64] |= 1 << uint(slot%64)
	sp := &c.pages[i]
	sp.live++
	c.Objects++
	if int(sp.live) == c.perPage {
		c.removePartial(i)
	}
	return Obj{page: i + 1, gen: sp.gen, slot: uint32(slot)}, nil
}

// bitmap returns page record i's occupancy words.
func (c *Cache) bitmap(i uint32) []uint64 {
	w := int(i) * c.words
	return c.used[w : w+c.words : w+c.words]
}

// Free releases an object. When its page empties, the page returns to
// the page allocator — only then does the memory stop being unmovable.
// Invalid handles and double frees return typed errors with the cache
// untouched.
func (c *Cache) Free(o Obj) error {
	if !o.Valid() || int(o.page) > len(c.pages) || o.slot >= uint32(c.perPage) {
		return fmt.Errorf("%w: cache %s", ErrInvalidHandle, c.name)
	}
	c.FreeCalls++
	i := o.page - 1
	sp := &c.pages[i]
	used := c.bitmap(i)
	mask := uint64(1) << uint(o.slot%64)
	if sp.gen != o.gen || used[o.slot/64]&mask == 0 {
		return fmt.Errorf("%w: cache %s slot %d", ErrDoubleFree, c.name, o.slot)
	}
	used[o.slot/64] &^= mask
	sp.live--
	c.Objects--
	if sp.listIdx < 0 {
		// The page was full; it has a free slot again.
		c.addPartial(i)
	}
	if sp.live == 0 {
		c.removePartial(i)
		if err := c.src.Free(sp.page); err != nil {
			// The kernel page was validated when grow obtained it; a
			// failing free means corrupt bookkeeping, not a recoverable
			// caller mistake.
			panic("slab: invariant violation: " + err.Error())
		}
		c.release(i)
		c.PagesHeld--
		c.PagesFreed++
	}
	return nil
}

// grow obtains one more backing page.
func (c *Cache) grow() error {
	p, err := c.src.Alloc(c.gfpOrder, mem.MigrateUnmovable, mem.SrcSlab)
	if err != nil {
		return fmt.Errorf("slab %s: grow: %w", c.name, err)
	}
	c.addPartial(c.newPage(p))
	c.PagesHeld++
	c.PagesGrown++
	return nil
}

// newPage files backing page p in a page record, reusing a released
// one when there is one, and returns the record's index. The record is
// empty and off the partial list.
func (c *Cache) newPage(p kernel.Page) uint32 {
	var i uint32
	if last := len(c.freePages) - 1; last >= 0 {
		i = c.freePages[last]
		c.freePages = c.freePages[:last]
	} else {
		i = uint32(len(c.pages))
		c.pages = append(c.pages, slabPage{})
		c.used = append(c.used, make([]uint64, c.words)...)
	}
	sp := &c.pages[i]
	sp.page, sp.live, sp.listIdx = p, 0, -1
	return i
}

// release retires page record i, whose bitmap is clear: handles to it
// go stale and the record is reused by a later grow.
func (c *Cache) release(i uint32) {
	c.pages[i].gen++
	c.freePages = append(c.freePages, i)
}

func (c *Cache) addPartial(i uint32) {
	c.pages[i].listIdx = int32(len(c.partial))
	c.partial = append(c.partial, i)
}

func (c *Cache) removePartial(i uint32) {
	at := c.pages[i].listIdx
	last := len(c.partial) - 1
	if int(at) != last {
		moved := c.partial[last]
		c.partial[at] = moved
		c.pages[moved].listIdx = at
	}
	c.partial = c.partial[:last]
	c.pages[i].listIdx = -1
}

// findFree returns the first free slot index in a bitmap, or -1.
func findFree(used []uint64) int {
	for w, word := range used {
		if inv := ^word; inv != 0 {
			return w*64 + bits.TrailingZeros64(inv)
		}
	}
	return -1
}

// Frames returns the 4 KB frames currently held as backing pages (each
// backing page spans 2^gfpOrder frames).
func (c *Cache) Frames() int { return c.PagesHeld << c.gfpOrder }

// Utilization is live objects over capacity across held pages — the
// packing efficiency whose complement is the internal fragmentation
// that keeps nearly-empty pages pinned.
func (c *Cache) Utilization() float64 {
	if c.PagesHeld == 0 {
		return 0
	}
	return float64(c.Objects) / float64(c.PagesHeld*c.perPage)
}

// Manager is a set of standard size classes, like /proc/slabinfo's
// kmalloc caches plus the named object caches networking and VFS churn.
type Manager struct {
	caches []*Cache
}

// StandardClasses mirrors the object sizes that dominate kernel slab
// usage: sk_buff heads, dentries, inodes, and the kmalloc ladder.
var StandardClasses = []struct {
	Name string
	Size int
}{
	{"kmalloc-64", 64},
	{"kmalloc-192", 192},
	{"skbuff_head", 256},
	{"dentry", 320},
	{"sock", 768},
	{"inode", 1024},
	{"kmalloc-2k", 2048},
}

// NewManager builds the standard caches over one page source.
func NewManager(src PageSource) *Manager {
	m := &Manager{}
	for _, cl := range StandardClasses {
		c, err := NewCache(cl.Name, cl.Size, src)
		if err != nil {
			// Provably unreachable: StandardClasses sizes are positive
			// compile-time constants.
			panic(err)
		}
		m.caches = append(m.caches, c)
	}
	return m
}

// Cache returns the i-th class.
func (m *Manager) Cache(i int) *Cache { return m.caches[i] }

// NumCaches returns the class count.
func (m *Manager) NumCaches() int { return len(m.caches) }

// PagesHeld sums backing frames across classes.
func (m *Manager) PagesHeld() int {
	n := 0
	for _, c := range m.caches {
		n += c.Frames()
	}
	return n
}

// ObjectsPerFrame is the objects a frame holds when packed, averaged
// over classes drawn uniformly: the harmonic mean of the classes'
// per-frame densities.
func (m *Manager) ObjectsPerFrame() float64 {
	var framesPerObj float64
	for _, c := range m.caches {
		framesPerObj += float64(int(1)<<c.gfpOrder) / float64(c.perPage)
	}
	return float64(len(m.caches)) / framesPerObj
}

// Objects sums live objects across classes.
func (m *Manager) Objects() int {
	n := 0
	for _, c := range m.caches {
		n += c.Objects
	}
	return n
}
