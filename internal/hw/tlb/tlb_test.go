package tlb

import (
	"testing"
	"testing/quick"

	"contiguitas/internal/hw"
	"contiguitas/internal/stats"
)

func TestLookupInsertInvalidate(t *testing.T) {
	tb := NewTLB(64, 4)
	if _, ok := tb.Lookup(5); ok {
		t.Fatal("empty TLB must miss")
	}
	tb.Insert(5, 500)
	if ppn, ok := tb.Lookup(5); !ok || ppn != 500 {
		t.Fatalf("lookup = %d, %v", ppn, ok)
	}
	if !tb.Invalidate(5) {
		t.Fatal("invalidate must report presence")
	}
	if _, ok := tb.Lookup(5); ok {
		t.Fatal("invalidated entry must miss")
	}
	if tb.Invalidate(5) {
		t.Fatal("second invalidate must report absence")
	}
}

func TestLRUWithinSet(t *testing.T) {
	tb := NewTLB(8, 2) // 4 sets, 2 ways
	// Three VPNs mapping to set 0: 0, 4, 8.
	tb.Insert(0, 10)
	tb.Insert(4, 14)
	tb.Lookup(0) // touch 0 so 4 is LRU
	tb.Insert(8, 18)
	if _, ok := tb.Lookup(4); ok {
		t.Fatal("LRU way must have been evicted")
	}
	if _, ok := tb.Lookup(0); !ok {
		t.Fatal("recently used way must survive")
	}
}

func TestFlush(t *testing.T) {
	tb := NewTLB(16, 4)
	for i := uint64(0); i < 16; i++ {
		tb.Insert(i, i+100)
	}
	tb.Flush()
	for i := uint64(0); i < 16; i++ {
		if _, ok := tb.Lookup(i); ok {
			t.Fatal("flush must clear everything")
		}
	}
}

func TestNewTLBValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 4}, {64, 0}, {65, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewTLB(%v) must panic", bad)
				}
			}()
			NewTLB(bad[0], bad[1])
		}()
	}
}

func TestPerCoreTranslateHierarchy(t *testing.T) {
	pc := NewPerCore(hw.DefaultParams())
	pt := func(vpn uint64) (uint64, bool) { return vpn + 1000, false }

	ppn, lat := pc.Translate(7, pt)
	if ppn != 1007 {
		t.Fatalf("ppn = %d", ppn)
	}
	walkLat := lat
	if pc.Walks != 1 {
		t.Fatalf("walks = %d", pc.Walks)
	}
	// Second lookup: L1 hit, much cheaper.
	_, lat = pc.Translate(7, pt)
	if lat >= walkLat || lat != pc.p.L1TLBLatency {
		t.Fatalf("L1 hit latency = %d", lat)
	}
	if pc.Walks != 1 {
		t.Fatal("hit must not walk")
	}
}

func TestPerCoreL2Backstop(t *testing.T) {
	pc := NewPerCore(hw.DefaultParams())
	pt := func(vpn uint64) (uint64, bool) { return vpn, false }
	// Fill far beyond L1 capacity (64) but within L2 (1536).
	for vpn := uint64(0); vpn < 1000; vpn++ {
		pc.Translate(vpn, pt)
	}
	walks := pc.Walks
	// Revisit: most should hit in L2 without walking.
	for vpn := uint64(0); vpn < 1000; vpn++ {
		pc.Translate(vpn, pt)
	}
	if pc.Walks != walks {
		t.Fatalf("revisit walked %d more times; L2 should backstop", pc.Walks-walks)
	}
}

func TestInvlpgCostAndEffect(t *testing.T) {
	p := hw.DefaultParams()
	pc := NewPerCore(p)
	pt := func(vpn uint64) (uint64, bool) { return vpn, false }
	pc.Translate(3, pt)
	if !pc.Cached(3) {
		t.Fatal("must be cached")
	}
	if cost := pc.Invlpg(3); cost != p.INVLPGCycles {
		t.Fatalf("invlpg cost = %d, want %d (pipeline flush)", cost, p.INVLPGCycles)
	}
	if pc.Cached(3) {
		t.Fatal("invlpg must clear both levels")
	}
	// Invlpg of an absent entry still costs the full flush.
	if cost := pc.Invlpg(999); cost != p.INVLPGCycles {
		t.Fatal("invlpg cost must be paid regardless of presence")
	}
}

func TestHugePageTranslation(t *testing.T) {
	pc := NewPerCore(hw.DefaultParams())
	resolve := func(vpn uint64) (uint64, bool) {
		// The whole space is backed by huge pages at ppn2m = vpn2m+100.
		return ((vpn>>9)+100)<<9 | vpn&0x1ff, true
	}
	// First access walks (huge walk, one level shorter).
	ppn, lat := pc.Translate(3<<9|7, resolve)
	if ppn != (3+100)<<9|7 {
		t.Fatalf("ppn = %d", ppn)
	}
	if pc.HugeWalks != 1 || pc.Walks != 0 {
		t.Fatalf("walks: huge=%d base=%d", pc.HugeWalks, pc.Walks)
	}
	walkLat := lat
	// Any other page inside the same 2MB region hits the huge entry.
	_, lat = pc.Translate(3<<9|400, resolve)
	if lat >= walkLat || pc.HugeWalks != 1 {
		t.Fatalf("second access within region must hit: lat=%d walks=%d", lat, pc.HugeWalks)
	}
}

func TestHugePageReach(t *testing.T) {
	// 512 base pages of distinct regions blow out the 64-entry L1 4K
	// TLB, but 2MB mappings cover the same footprint with one entry per
	// region: far fewer walks on revisit.
	p := hw.DefaultParams()
	resolve4k := func(vpn uint64) (uint64, bool) { return vpn, false }
	resolve2m := func(vpn uint64) (uint64, bool) { return vpn, true }

	pc4 := NewPerCore(p)
	pc2 := NewPerCore(p)
	// Touch 4096 pages spread over 8 x 2MB regions, twice.
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < 4096; i++ {
			pc4.Translate(i, resolve4k)
			pc2.Translate(i, resolve2m)
		}
	}
	if pc2.HugeWalks >= pc4.Walks/10 {
		t.Fatalf("huge pages must slash walks: 4K=%d 2M=%d", pc4.Walks, pc2.HugeWalks)
	}
}

func TestInvlpgCoversHugeEntries(t *testing.T) {
	pc := NewPerCore(hw.DefaultParams())
	resolve := func(vpn uint64) (uint64, bool) { return vpn, true }
	pc.Translate(5<<9, resolve)
	if !pc.Cached(5 << 9) {
		t.Fatal("huge entry must be cached")
	}
	pc.Invlpg(5 << 9)
	if pc.Cached(5 << 9) {
		t.Fatal("invlpg must drop huge entries too")
	}
}

func TestQuickTLBLookupAfterInsert(t *testing.T) {
	f := func(vpns []uint64) bool {
		tb := NewTLB(64, 4)
		seen := map[uint64]uint64{}
		for i, vpn := range vpns {
			vpn %= 1 << 40
			tb.Insert(vpn, uint64(i))
			seen[vpn] = uint64(i)
			// The just-inserted entry must be immediately visible.
			if ppn, ok := tb.Lookup(vpn); !ok || ppn != uint64(i) {
				return false
			}
		}
		// Any hit must return the most recent mapping.
		for vpn, want := range seen {
			if ppn, ok := tb.Lookup(vpn); ok && ppn != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refTLB is a map-plus-LRU reference for TLB: a key lives in set
// key&(sets-1), a full set evicts its least recently used key, and every
// hit or insert stamps the key from one counter.
type refTLB struct {
	mask, ways   uint64
	ppn, lru     map[uint64]uint64
	tick         uint64
	hits, misses uint64
}

func newRefTLB(entries, ways int) *refTLB {
	return &refTLB{
		mask: uint64(entries/ways - 1), ways: uint64(ways),
		ppn: map[uint64]uint64{}, lru: map[uint64]uint64{},
	}
}

func (r *refTLB) lookup(key uint64) (uint64, bool) {
	ppn, ok := r.ppn[key]
	if !ok {
		r.misses++
		return 0, false
	}
	r.hits++
	r.tick++
	r.lru[key] = r.tick
	return ppn, true
}

func (r *refTLB) insert(key, ppn uint64) {
	var n uint64
	victim, oldest := uint64(0), ^uint64(0)
	for k, stamp := range r.lru {
		if k&r.mask != key&r.mask {
			continue
		}
		n++
		if stamp < oldest {
			victim, oldest = k, stamp
		}
	}
	if n == r.ways {
		r.invalidate(victim)
	}
	r.tick++
	r.ppn[key], r.lru[key] = ppn, r.tick
}

func (r *refTLB) invalidate(key uint64) bool {
	_, ok := r.ppn[key]
	delete(r.ppn, key)
	delete(r.lru, key)
	return ok
}

// TestTLBMatchesReference runs a seeded random mix of lookups, inserts,
// invalidations and flushes, over 4 KB keys and hugeTag-carrying 2 MB
// keys, against refTLB. Inserts go only to absent keys, as PerCore
// inserts only after a miss. The 1536-entry geometry has 96 sets, of
// which vpn&95 reaches 64; the reference indexes the same way.
func TestTLBMatchesReference(t *testing.T) {
	for _, geo := range [][2]int{{8, 2}, {32, 4}, {64, 4}, {1536, 16}} {
		entries, ways := geo[0], geo[1]
		tb, ref := NewTLB(entries, ways), newRefTLB(entries, ways)
		rng := stats.NewRNG(uint64(entries))
		keySpace := 4 * entries
		for op := 0; op < 200_000; op++ {
			key := uint64(rng.Intn(keySpace))
			if rng.Bool(0.25) {
				key |= hugeTag
			}
			switch r := rng.Float64(); {
			case r < 0.001:
				tb.Flush()
				clear(ref.ppn)
				clear(ref.lru)
			case r < 0.45:
				ppn, ok := tb.Lookup(key)
				wantPPN, wantOK := ref.lookup(key)
				if ppn != wantPPN || ok != wantOK {
					t.Fatalf("%d/%d op %d: Lookup(%#x) = %d,%v, want %d,%v", entries, ways, op, key, ppn, ok, wantPPN, wantOK)
				}
			case r < 0.8:
				if _, present := ref.ppn[key]; present {
					continue
				}
				tb.Insert(key, uint64(op))
				ref.insert(key, uint64(op))
			default:
				if got, want := tb.Invalidate(key), ref.invalidate(key); got != want {
					t.Fatalf("%d/%d op %d: Invalidate(%#x) = %v, want %v", entries, ways, op, key, got, want)
				}
			}
		}
		if tb.Hits != ref.hits || tb.Misses != ref.misses {
			t.Fatalf("%d/%d: hits/misses %d/%d, want %d/%d", entries, ways, tb.Hits, tb.Misses, ref.hits, ref.misses)
		}
		for key, want := range ref.ppn {
			if got, ok := tb.Lookup(key); !ok || got != want {
				t.Fatalf("%d/%d: final Lookup(%#x) = %d,%v, want %d", entries, ways, key, got, ok, want)
			}
		}
	}
}
