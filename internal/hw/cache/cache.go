// Package cache models the memory hierarchy of the paper's simulated
// platform (Table 1): per-core private L1/L2 caches kept coherent
// through an inclusive, sliced last-level cache with a directory, slices
// connected by a ring, DRAM behind it. Lines carry data (one 64-bit
// value per 64-byte line is enough to prove migration correctness), and
// every access returns both the value and its completion cycle, with
// per-slice occupancy modelling contention.
//
// The hierarchy exposes the exact hooks Contiguitas-HW (§3.3) needs:
//   - a Redirector consulted on the LLC path, so migration mappings can
//     redirect traffic line-by-line according to copy progress,
//   - noncacheable marking, bypassing private caches for pages under
//     migration in the noncacheable design point, and
//   - CollectAndInvalidate / ReadLLC / WriteLLC, the primitives the
//     migration engine's BusRdX-and-copy sequence is built from.
package cache

import (
	"fmt"

	"contiguitas/internal/hw"
	"contiguitas/internal/hw/dram"
)

// State is a private-cache line's coherence state (MESI without E→M
// subtleties: Exclusive upgrades silently).
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// Redirector lets Contiguitas-HW interpose on the LLC path.
type Redirector interface {
	// Translate returns the line address whose data must serve an
	// access to line, given migration progress. It may have side
	// effects: the cacheable design point invalidates opposite-mapping
	// private copies here to preserve the single-mapping invariant.
	// The returned extra cycles account for that work.
	Translate(line uint64) (canonical uint64, extraCycles uint64)
	// Noncacheable reports whether the line must bypass private caches
	// (the noncacheable design point for pages under migration).
	Noncacheable(line uint64) bool
}

// privLine is the payload of one private (L2) way; its line address is
// the way's tag.
type privLine struct {
	state State
	data  uint64
}

// private is one core's L1+L2 cache pair. L1 is a tag-only subset used
// for hit-latency modelling; coherence state and data live in L2. Both
// levels draw LRU stamps from one counter.
type private struct {
	l1      hw.SetAssoc
	l2      hw.SetAssoc
	l2Lines []privLine // parallel to l2.Tags
	l1Mask  uint64
	l2Mask  uint64
	lruTick uint64
}

func newPrivate(p hw.Params) *private {
	l1Lines := p.L1SizeKB * 1024 / hw.LineBytes
	l2Lines := p.L2SizeKB * 1024 / hw.LineBytes
	l1Sets := l1Lines / p.L1Ways
	l2Sets := l2Lines / p.L2Ways
	return &private{
		l1:      hw.NewSetAssoc(l1Sets, p.L1Ways),
		l2:      hw.NewSetAssoc(l2Sets, p.L2Ways),
		l2Lines: make([]privLine, l2Lines),
		l1Mask:  uint64(l1Sets - 1),
		l2Mask:  uint64(l2Sets - 1),
	}
}

func (pr *private) tick() uint64 { pr.lruTick++; return pr.lruTick }

func (pr *private) l1Lookup(line uint64) int { return pr.l1.Find(int(line&pr.l1Mask), line) }

// l2Lookup returns the line's L2 way index, or -1.
func (pr *private) l2Lookup(line uint64) int { return pr.l2.Find(int(line&pr.l2Mask), line) }

// l1Fill inserts the line into L1 tags (LRU victim drops silently).
func (pr *private) l1Fill(line uint64) {
	pr.l1.Fill(pr.l1.Victim(int(line&pr.l1Mask)), line, pr.tick())
}

func (pr *private) l1Drop(line uint64) {
	if i := pr.l1Lookup(line); i >= 0 {
		pr.l1.Drop(i)
	}
}

// l2Drop invalidates L2 way i and its line's L1 tag.
func (pr *private) l2Drop(i int) {
	pr.l1Drop(pr.l2.Key(i))
	pr.l2.Drop(i)
}

// llcLine is the payload of one LLC way, with directory state; its line
// address is the way's tag.
type llcLine struct {
	data    uint64
	sharers uint64 // bitmask of cores holding the line
	ownerM  int8   // core holding it Modified, or -1
	dirty   bool
}

// slice is one LLC slice.
type slice struct {
	hw.SetAssoc
	lines     []llcLine // parallel to Tags
	mask      uint64
	lruTick   uint64
	busyUntil uint64
}

func newSlice(p hw.Params) *slice {
	lines := p.L3SliceKB * 1024 / hw.LineBytes
	sets := lines / p.L3Ways
	return &slice{
		SetAssoc: hw.NewSetAssoc(sets, p.L3Ways),
		lines:    make([]llcLine, lines),
		mask:     uint64(sets - 1),
	}
}

func (s *slice) tick() uint64 { s.lruTick++; return s.lruTick }

// lookup returns the line's way index in the slice, or -1.
func (s *slice) lookup(line uint64) int {
	return s.Find(int((line/8)&s.mask), line) // slice-local set index
}

// Stats aggregates hierarchy behaviour.
type Stats struct {
	Loads, Stores        uint64
	L1Hits, L2Hits       uint64
	LLCHits, LLCMiss     uint64
	Writebacks           uint64
	Invalidations        uint64
	NoncacheableAccesses uint64
}

// Hierarchy is the full cache system for one machine.
type Hierarchy struct {
	P      hw.Params
	priv   []*private
	slices []*slice
	dram   *dram.DRAM
	// mem is the backing-store value of every line ever written back or
	// never cached (zero default).
	mem map[uint64]uint64

	red Redirector

	Stats
}

// New builds the hierarchy from Table 1 parameters.
func New(p hw.Params, d *dram.DRAM) *Hierarchy {
	h := &Hierarchy{P: p, dram: d, mem: make(map[uint64]uint64)}
	for i := 0; i < p.Cores; i++ {
		h.priv = append(h.priv, newPrivate(p))
	}
	for i := 0; i < p.Cores; i++ { // one slice per core
		h.slices = append(h.slices, newSlice(p))
	}
	return h
}

// SetRedirector attaches the Contiguitas-HW interposer (nil detaches).
func (h *Hierarchy) SetRedirector(r Redirector) { h.red = r }

// SliceOf is the slice-selection hash f: a XOR fold of the line address,
// the kind of simple gate-level hash real processors use (§3.3).
func (h *Hierarchy) SliceOf(line uint64) int {
	x := line ^ (line >> 7) ^ (line >> 13)
	return int(x % uint64(len(h.slices)))
}

// ringHops returns the hop count between a core and a slice on the ring.
func (h *Hierarchy) ringHops(core, sl int) uint64 {
	n := len(h.slices)
	d := core - sl
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return uint64(d)
}

// Access performs one load or store by a core at physical address pa,
// starting at cycle now. It returns the observed value (for loads; for
// stores, the stored value) and the completion cycle.
func (h *Hierarchy) Access(core int, pa uint64, isWrite bool, val uint64, now uint64) (uint64, uint64) {
	line := hw.LineAddr(pa)
	if isWrite {
		h.Stores++
	} else {
		h.Loads++
	}

	if h.red != nil && h.red.Noncacheable(line) {
		h.NoncacheableAccesses++
		return h.noncacheableAccess(core, line, isWrite, val, now)
	}

	pr := h.priv[core]
	if i := pr.l2Lookup(line); i >= 0 {
		e := &pr.l2Lines[i]
		lat := h.P.L2Latency
		if j := pr.l1Lookup(line); j >= 0 {
			lat = h.P.L1Latency
			pr.l1.LRU[j] = pr.tick()
			h.L1Hits++
		} else {
			pr.l1Fill(line)
			h.L2Hits++
		}
		pr.l2.LRU[i] = pr.tick()
		if !isWrite {
			return e.data, now + lat
		}
		if e.state == Modified || e.state == Exclusive {
			e.state = Modified
			e.data = val
			h.setOwnerM(line, core)
			return val, now + lat
		}
		// Shared: upgrade through the LLC (invalidate other sharers).
		done := h.llcUpgrade(core, line, now+lat)
		e.state = Modified
		e.data = val
		h.setOwnerM(line, core)
		return val, done
	}

	// Private miss: fetch through the LLC.
	value, done, dir := h.llcFetch(core, line, isWrite, val, now+h.P.L2Latency)
	st := Shared
	if isWrite {
		st = Modified
		value = val
	}
	h.privFill(core, line, st, value, dir)
	return value, done
}

// privFill inserts a line into a core's L2 (and L1 tags), handling the
// eviction writeback and directory update. dir is the line's LLC entry
// when the caller already holds it, or nil to look it up (allocating).
func (h *Hierarchy) privFill(core int, line uint64, st State, data uint64, dir *llcLine) {
	pr := h.priv[core]
	v := pr.l2.Victim(int(line & pr.l2Mask))
	if pr.l2.Valid(v) {
		h.evictPrivate(core, v)
	}
	pr.l2.Fill(v, line, pr.tick())
	pr.l2Lines[v] = privLine{state: st, data: data}
	pr.l1Fill(line)
	// Directory update.
	if dir == nil {
		dir = h.llcLineEntry(line, true)
	}
	dir.sharers |= 1 << uint(core)
	if st == Modified {
		dir.ownerM = int8(core)
	}
}

// evictPrivate removes L2 way i of a core, writing Modified data back to
// the LLC and updating the directory.
func (h *Hierarchy) evictPrivate(core int, i int) {
	pr := h.priv[core]
	line := pr.l2.Key(i)
	v := &pr.l2Lines[i]
	pr.l1Drop(line)
	e := h.llcLineEntry(line, false)
	if e != nil {
		e.sharers &^= 1 << uint(core)
		if v.state == Modified {
			e.data = v.data
			e.dirty = true
			h.Writebacks++
		}
		if e.ownerM == int8(core) {
			e.ownerM = -1
		}
	} else if v.state == Modified {
		// Not in LLC (should not happen with inclusion, but be safe).
		h.mem[line] = v.data
		h.Writebacks++
	}
	pr.l2.Drop(i)
}

// dropPrivate invalidates core c's copy of line, if it holds one.
func (h *Hierarchy) dropPrivate(c int, line uint64) {
	pr := h.priv[c]
	if i := pr.l2Lookup(line); i >= 0 {
		pr.l2Drop(i)
		h.Invalidations++
	}
}

// llcLineEntry finds (or allocates) the LLC entry for a line.
func (h *Hierarchy) llcLineEntry(line uint64, alloc bool) *llcLine {
	sl := h.slices[h.SliceOf(line)]
	if i := sl.lookup(line); i >= 0 {
		return &sl.lines[i]
	}
	if !alloc {
		return nil
	}
	return &sl.lines[h.llcAlloc(sl, line, h.mem[line])]
}

// llcAlloc inserts a line into a slice, evicting the LRU way (with
// back-invalidation of private copies to preserve inclusion), and
// returns its way index.
func (h *Hierarchy) llcAlloc(sl *slice, line uint64, data uint64) int {
	v := sl.Victim(int((line / 8) & sl.mask))
	if sl.Valid(v) {
		h.llcEvict(sl, v)
	}
	sl.Fill(v, line, sl.tick())
	sl.lines[v] = llcLine{data: data, ownerM: -1}
	return v
}

// llcEvict removes way i of a slice: private copies are collected
// (modified data wins) and the line written to memory if dirty.
func (h *Hierarchy) llcEvict(sl *slice, i int) {
	line := sl.Key(i)
	v := &sl.lines[i]
	data, dirty := v.data, v.dirty
	for core := 0; core < h.P.Cores; core++ {
		if v.sharers&(1<<uint(core)) == 0 {
			continue
		}
		pr := h.priv[core]
		if j := pr.l2Lookup(line); j >= 0 {
			if pe := &pr.l2Lines[j]; pe.state == Modified {
				data = pe.data
				dirty = true
			}
			pr.l2Drop(j)
			h.Invalidations++
		}
	}
	if dirty {
		h.mem[line] = data
		h.Writebacks++
	}
	sl.Drop(i)
}

// translate applies the redirector, if any.
func (h *Hierarchy) translate(line uint64) (uint64, uint64) {
	if h.red == nil {
		return line, 0
	}
	return h.red.Translate(line)
}

// llcFetch services a private miss: the LLC (or DRAM) supplies the data;
// coherence actions run against other cores. Returns value and done,
// and, when no redirection applies, the line's LLC entry, so the private
// fill can update the directory without a second lookup.
func (h *Hierarchy) llcFetch(core int, line uint64, forWrite bool, wval uint64, now uint64) (uint64, uint64, *llcLine) {
	canonical, extra := h.translate(line)
	if canonical != line {
		// The private fill will be tagged under the requested address;
		// ensure its directory entry exists before taking pointers into
		// the slice arrays (allocation may evict).
		h.llcLineEntry(line, true)
	}
	slIdx := h.SliceOf(canonical)
	sl := h.slices[slIdx]
	start := now + extra + h.ringHops(core, slIdx)*h.P.RingHopCycles
	if sl.busyUntil > start {
		start = sl.busyUntil
	}
	done := start + h.P.L3Latency
	sl.busyUntil = start + 4 // slice occupancy per request

	i := sl.lookup(canonical)
	if i < 0 {
		h.LLCMiss++
		i = h.llcAlloc(sl, canonical, 0)
		sl.lines[i].data = h.mem[canonical]
		done = h.dram.Access(canonical<<hw.LineShift, done)
	} else {
		h.LLCHits++
	}
	e := &sl.lines[i]

	// Coherence runs against the canonical entry AND, under active
	// redirection, the requested line's own entry: private copies made
	// through this same mapping are tagged (and directory-listed) under
	// the requested address, not the canonical one.
	val := e.data
	type sweepEntry struct {
		addr  uint64
		entry *llcLine
	}
	sweep := [2]sweepEntry{{canonical, e}}
	n := 1
	if canonical != line {
		// Non-allocating: if the entry was evicted while the canonical
		// entry was allocated, its private copies were back-invalidated
		// and there is nothing to sweep.
		if le := h.llcLineEntry(line, false); le != nil {
			sweep[1] = sweepEntry{line, le}
			n = 2
		}
	}
	for _, s := range sweep[:n] {
		se := s.entry
		if se.ownerM >= 0 && int(se.ownerM) != core {
			owner := int(se.ownerM)
			opr := h.priv[owner]
			if j := opr.l2Lookup(s.addr); j >= 0 && opr.l2Lines[j].state == Modified {
				oe := &opr.l2Lines[j]
				val = oe.data
				e.data = oe.data
				e.dirty = true
				if forWrite {
					opr.l2Drop(j)
					se.sharers &^= 1 << uint(owner)
					h.Invalidations++
				} else {
					oe.state = Shared
				}
				done += h.P.L2Latency // owner probe
			}
			se.ownerM = -1
		}
		if forWrite {
			for c := 0; c < h.P.Cores; c++ {
				if c == core || se.sharers&(1<<uint(c)) == 0 {
					continue
				}
				h.dropPrivate(c, s.addr)
				se.sharers &^= 1 << uint(c)
				done += h.P.RingHopCycles
			}
		}
	}
	if forWrite {
		e.data = wval
		e.dirty = true
		val = wval
	}
	sl.LRU[i] = sl.tick()
	if canonical != line {
		return val, done, nil
	}
	return val, done, e
}

// llcUpgrade handles a Shared→Modified upgrade: other sharers of the
// canonical line are invalidated.
func (h *Hierarchy) llcUpgrade(core int, line uint64, now uint64) uint64 {
	canonical, extra := h.translate(line)
	slIdx := h.SliceOf(canonical)
	sl := h.slices[slIdx]
	start := now + extra + h.ringHops(core, slIdx)*h.P.RingHopCycles
	if sl.busyUntil > start {
		start = sl.busyUntil
	}
	done := start + h.P.L3Latency
	sl.busyUntil = start + 4
	if i := sl.lookup(canonical); i >= 0 {
		e := &sl.lines[i]
		for c := 0; c < h.P.Cores; c++ {
			if c == core || e.sharers&(1<<uint(c)) == 0 {
				continue
			}
			h.dropPrivate(c, canonical)
			e.sharers &^= 1 << uint(c)
			done += h.P.RingHopCycles
		}
		e.ownerM = int8(core)
	}
	// The requesting core may hold the line under a redirected address;
	// invalidate sharers of that entry too.
	if canonical != line {
		if e := h.llcLineEntry(line, false); e != nil {
			for c := 0; c < h.P.Cores; c++ {
				if c == core || e.sharers&(1<<uint(c)) == 0 {
					continue
				}
				h.dropPrivate(c, line)
				e.sharers &^= 1 << uint(c)
			}
		}
	}
	return done
}

// setOwnerM records core as the modified owner of the line's canonical
// entry (called on silent E→M upgrades and store hits).
func (h *Hierarchy) setOwnerM(line uint64, core int) {
	canonical, _ := h.translate(line)
	if e := h.llcLineEntry(canonical, false); e != nil {
		e.ownerM = int8(core)
	}
	if canonical != line {
		if e := h.llcLineEntry(line, false); e != nil {
			e.ownerM = int8(core)
		}
	}
}

// noncacheableAccess bypasses private caches: data lives at the
// canonical LLC location (filled from memory on miss).
func (h *Hierarchy) noncacheableAccess(core int, line uint64, isWrite bool, val uint64, now uint64) (uint64, uint64) {
	canonical, extra := h.translate(line)
	slIdx := h.SliceOf(canonical)
	sl := h.slices[slIdx]
	start := now + extra + h.P.L2Latency + h.ringHops(core, slIdx)*h.P.RingHopCycles
	if sl.busyUntil > start {
		start = sl.busyUntil
	}
	done := start + h.P.L3Latency
	sl.busyUntil = start + 4

	i := sl.lookup(canonical)
	if i < 0 {
		h.LLCMiss++
		i = h.llcAlloc(sl, canonical, h.mem[canonical])
		done = h.dram.Access(canonical<<hw.LineShift, done)
	} else {
		h.LLCHits++
	}
	sl.LRU[i] = sl.tick()
	e := &sl.lines[i]
	if isWrite {
		e.data = val
		e.dirty = true
		return val, done
	}
	return e.data, done
}

// CollectAndInvalidate implements the private-cache half of a BusRdX:
// every private copy of the line is invalidated and the newest value
// returned (modified private copy wins over the LLC, which wins over
// memory). The LLC entry itself is left in place, updated with the
// newest data.
func (h *Hierarchy) CollectAndInvalidate(line uint64) (val uint64, wasModified bool, cycles uint64) {
	e := h.llcLineEntry(line, false)
	if e != nil {
		val = e.data
	} else {
		val = h.mem[line]
	}
	cycles = h.P.L3Latency
	if e != nil {
		for c := 0; c < h.P.Cores; c++ {
			if e.sharers&(1<<uint(c)) == 0 {
				continue
			}
			pr := h.priv[c]
			if j := pr.l2Lookup(line); j >= 0 {
				if pe := &pr.l2Lines[j]; pe.state == Modified {
					val = pe.data
					wasModified = true
				}
				pr.l2Drop(j)
				h.Invalidations++
				cycles += h.P.RingHopCycles
			}
			e.sharers &^= 1 << uint(c)
		}
		e.ownerM = -1
		e.data = val
		if wasModified {
			e.dirty = true
		}
	}
	return val, wasModified, cycles
}

// HasModifiedPrivate reports whether some core holds the line Modified.
func (h *Hierarchy) HasModifiedPrivate(line uint64) bool {
	for _, pr := range h.priv {
		if i := pr.l2Lookup(line); i >= 0 && pr.l2Lines[i].state == Modified {
			return true
		}
	}
	return false
}

// HasPrivate reports whether any core caches the line.
func (h *Hierarchy) HasPrivate(line uint64) bool {
	for _, pr := range h.priv {
		if pr.l2Lookup(line) >= 0 {
			return true
		}
	}
	return false
}

// ReadLLC returns the line's current value at the LLC level (or memory)
// without coherence side effects.
func (h *Hierarchy) ReadLLC(line uint64) (uint64, uint64) {
	if e := h.llcLineEntry(line, false); e != nil {
		return e.data, h.P.L3Latency
	}
	return h.mem[line], h.P.L3Latency + 100
}

// WriteLLC writes a value into the line's LLC entry (allocating it),
// marking it dirty. Used by the migration copy engine.
func (h *Hierarchy) WriteLLC(line uint64, val uint64) uint64 {
	sl := h.slices[h.SliceOf(line)]
	i := sl.lookup(line)
	if i < 0 {
		i = h.llcAlloc(sl, line, val)
	}
	e := &sl.lines[i]
	e.data = val
	e.dirty = true
	sl.LRU[i] = sl.tick()
	return h.P.L3Latency
}

// DropLLC invalidates the line at the LLC (collecting private copies
// first) without writing it back — used to retire source-page lines once
// a migration completes.
func (h *Hierarchy) DropLLC(line uint64) {
	sl := h.slices[h.SliceOf(line)]
	if i := sl.lookup(line); i >= 0 {
		h.llcEvict(sl, i)
		// llcEvict wrote dirty data to memory; that is correct for
		// retirement (the frame may be reused).
	}
}

// AddSliceBusy charges copy-engine occupancy to a slice, modelling the
// bandwidth the migration engine steals from demand requests.
func (h *Hierarchy) AddSliceBusy(sliceIdx int, from, dur uint64) {
	sl := h.slices[sliceIdx]
	if sl.busyUntil < from {
		sl.busyUntil = from
	}
	sl.busyUntil += dur
}

// NumSlices returns the slice count.
func (h *Hierarchy) NumSlices() int { return len(h.slices) }

// CheckInclusion verifies that every valid private line has an LLC
// directory entry listing the core — the invariant coherence relies on.
func (h *Hierarchy) CheckInclusion() error {
	for c, pr := range h.priv {
		for i := range pr.l2.Tags {
			if !pr.l2.Valid(i) {
				continue
			}
			line := pr.l2.Key(i)
			e := h.llcLineEntry(line, false)
			if e == nil {
				return fmt.Errorf("core %d caches line %d absent from LLC", c, line)
			}
			if e.sharers&(1<<uint(c)) == 0 {
				return fmt.Errorf("core %d caches line %d without directory bit", c, line)
			}
		}
	}
	return nil
}
