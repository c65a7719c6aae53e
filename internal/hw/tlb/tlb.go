// Package tlb models per-core translation hardware: a two-level
// set-associative TLB (64-entry L1, 1536-entry L2, Table 1), page-walk
// caches abstracted into a fixed walk latency, and the INVLPG operation
// whose measured ~250-cycle cost — a full pipeline flush — dominates
// TLB-shootdown handling (§4).
package tlb

import "contiguitas/internal/hw"

// TLB is one set-associative translation buffer. The way tags hold the
// VPNs; ppns holds each way's translation.
type TLB struct {
	ways    hw.SetAssoc
	ppns    []uint64 // parallel to ways.Tags
	mask    uint64
	lruTick uint64

	Hits, Misses uint64
}

// NewTLB builds a TLB with the given total entries and associativity.
func NewTLB(entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("tlb: entries must be a positive multiple of ways")
	}
	nsets := entries / ways
	return &TLB{
		ways: hw.NewSetAssoc(nsets, ways),
		ppns: make([]uint64, entries),
		mask: uint64(nsets - 1),
	}
}

func (t *TLB) tick() uint64 { t.lruTick++; return t.lruTick }

// find returns vpn's way index, or -1.
func (t *TLB) find(vpn uint64) int { return t.ways.Find(int(vpn&t.mask), vpn) }

// Lookup returns the cached translation for vpn.
func (t *TLB) Lookup(vpn uint64) (uint64, bool) {
	if i := t.find(vpn); i >= 0 {
		t.ways.LRU[i] = t.tick()
		t.Hits++
		return t.ppns[i], true
	}
	t.Misses++
	return 0, false
}

// Insert caches a translation, evicting the set's LRU entry.
func (t *TLB) Insert(vpn, ppn uint64) {
	i := t.ways.Victim(int(vpn & t.mask))
	t.ways.Fill(i, vpn, t.tick())
	t.ppns[i] = ppn
}

// Invalidate drops the translation for vpn, reporting whether it existed.
func (t *TLB) Invalidate(vpn uint64) bool {
	if i := t.find(vpn); i >= 0 {
		t.ways.Drop(i)
		return true
	}
	return false
}

// Flush invalidates everything.
func (t *TLB) Flush() { t.ways.Clear() }

// Resolver supplies authoritative translations on a page walk: the PPN
// backing vpn and whether the mapping is a 2 MB huge page (in which
// case the TLB caches one entry for the whole 2 MB region — the reach
// advantage everything in the paper is ultimately about).
type Resolver func(vpn uint64) (ppn uint64, huge bool)

// hugeTag distinguishes 2 MB entries in the shared second-level TLB.
const hugeTag = uint64(1) << 62

// PerCore is one core's translation hierarchy: split first-level TLBs
// for 4 KB and 2 MB pages (as on real cores), a unified second level,
// and page-walk caches abstracted into a fixed walk latency.
type PerCore struct {
	L1     *TLB // 4 KB entries
	L1Huge *TLB // 2 MB entries
	L2     *TLB // unified
	p      hw.Params

	// WalkCycles is the cost of a full page walk with warm page-walk
	// caches (PWC levels hit, one leaf access). Huge-page walks are one
	// level shorter.
	WalkCycles     uint64
	HugeWalkCycles uint64

	Walks     uint64
	HugeWalks uint64
}

// NewPerCore builds the Table 1 TLB hierarchy.
func NewPerCore(p hw.Params) *PerCore {
	return &PerCore{
		L1:             NewTLB(p.L1TLBEntries, p.L1TLBWays),
		L1Huge:         NewTLB(32, 4),
		L2:             NewTLB(p.L2TLBEntries, p.L2TLBWays),
		p:              p,
		WalkCycles:     3*p.PWCLatency + 64, // PWC hits + leaf PTE access
		HugeWalkCycles: 2*p.PWCLatency + 64,
	}
}

// Translate resolves vpn using the TLBs; resolve supplies the
// authoritative translation on a walk. Returns the base-page PPN and
// the lookup latency in cycles.
func (pc *PerCore) Translate(vpn uint64, resolve Resolver) (uint64, uint64) {
	if ppn, ok := pc.L1.Lookup(vpn); ok {
		return ppn, pc.p.L1TLBLatency
	}
	hvpn := vpn >> 9
	if hppn, ok := pc.L1Huge.Lookup(hvpn); ok {
		return hppn<<9 | vpn&0x1ff, pc.p.L1TLBLatency
	}
	if ppn, ok := pc.L2.Lookup(vpn); ok {
		pc.L1.Insert(vpn, ppn)
		return ppn, pc.p.L1TLBLatency + pc.p.L2TLBLatency
	}
	if hppn, ok := pc.L2.Lookup(hugeTag | hvpn); ok {
		pc.L1Huge.Insert(hvpn, hppn)
		return hppn<<9 | vpn&0x1ff, pc.p.L1TLBLatency + pc.p.L2TLBLatency
	}
	ppn, huge := resolve(vpn)
	if huge {
		pc.HugeWalks++
		hppn := ppn >> 9
		pc.L2.Insert(hugeTag|hvpn, hppn)
		pc.L1Huge.Insert(hvpn, hppn)
		return hppn<<9 | vpn&0x1ff, pc.p.L1TLBLatency + pc.p.L2TLBLatency + pc.HugeWalkCycles
	}
	pc.Walks++
	pc.L2.Insert(vpn, ppn)
	pc.L1.Insert(vpn, ppn)
	return ppn, pc.p.L1TLBLatency + pc.p.L2TLBLatency + pc.WalkCycles
}

// Invlpg invalidates vpn in every level (both page sizes), returning
// the instruction's cost — the ~250-cycle pipeline flush measured on
// real hardware, regardless of whether the entry was present.
func (pc *PerCore) Invlpg(vpn uint64) uint64 {
	pc.L1.Invalidate(vpn)
	pc.L1Huge.Invalidate(vpn >> 9)
	pc.L2.Invalidate(vpn)
	pc.L2.Invalidate(hugeTag | vpn>>9)
	return pc.p.INVLPGCycles
}

// Cached reports whether any level holds a translation covering vpn.
func (pc *PerCore) Cached(vpn uint64) bool {
	return pc.L1.find(vpn) >= 0 || pc.L1Huge.find(vpn>>9) >= 0 ||
		pc.L2.find(vpn) >= 0 || pc.L2.find(hugeTag|vpn>>9) >= 0
}
