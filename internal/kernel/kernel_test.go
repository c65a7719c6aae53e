package kernel

import (
	"errors"
	"strings"
	"testing"

	"contiguitas/internal/mem"
	"contiguitas/internal/resize"
	"contiguitas/internal/stats"
	"contiguitas/internal/telemetry"
)

const (
	mb = uint64(1) << 20
	gb = uint64(1) << 30
)

// testConfig returns a small machine for fast tests.
func testConfig(mode Mode, memBytes uint64) Config {
	cfg := DefaultConfig(mode)
	cfg.MemBytes = memBytes
	cfg.InitialUnmovableBytes = memBytes / 8
	cfg.MinUnmovableBytes = 4 * mb
	cfg.MaxUnmovableBytes = memBytes / 2
	cfg.MaxResizeStepBytes = 32 * mb
	cfg.ResizePeriodTicks = 10
	cfg.PSIHalfLifeTicks = 50
	return cfg
}

func TestBootLinux(t *testing.T) {
	k := New(testConfig(ModeLinux, 256*mb))
	if k.Mode() != ModeLinux {
		t.Fatal("mode")
	}
	if k.FreePages() != 256*mb/mem.PageSize {
		t.Fatalf("free pages = %d", k.FreePages())
	}
	if k.Boundary() != 0 {
		t.Fatal("linux mode has no boundary")
	}
}

func TestBootContiguitas(t *testing.T) {
	k := New(testConfig(ModeContiguitas, 256*mb))
	wantBoundary := (256 * mb / 8) / mem.PageSize
	if k.Boundary() != wantBoundary {
		t.Fatalf("boundary = %d, want %d", k.Boundary(), wantBoundary)
	}
	if k.UnmovableRegionBytes() != 32*mb {
		t.Fatalf("unmovable region = %d", k.UnmovableRegionBytes())
	}
}

func TestAllocRouting(t *testing.T) {
	k := New(testConfig(ModeContiguitas, 256*mb))
	u, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab)
	if err != nil {
		t.Fatal(err)
	}
	if k.Info(u).PFN >= k.Boundary() {
		t.Fatalf("unmovable alloc at %d beyond boundary %d", k.Info(u).PFN, k.Boundary())
	}
	m, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
	if err != nil {
		t.Fatal(err)
	}
	if k.Info(m).PFN < k.Boundary() {
		t.Fatalf("movable alloc at %d below boundary %d", k.Info(m).PFN, k.Boundary())
	}
	k.Free(u)
	k.Free(m)
	if k.LiveAllocations() != 0 {
		t.Fatal("leak")
	}
}

func TestFreeMisuseReturnsTypedErrors(t *testing.T) {
	k := New(testConfig(ModeLinux, 64*mb))
	p, _ := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
	if err := k.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Free(p); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("double free: got %v, want ErrStaleHandle", err)
	}
	if err := k.Free(Page{}); !errors.Is(err, ErrNilHandle) {
		t.Fatalf("Free(Page{}): got %v, want ErrNilHandle", err)
	}
	q, _ := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
	if err := k.Pin(q); err != nil {
		t.Fatal(err)
	}
	if err := k.Free(q); !errors.Is(err, ErrPagePinned) {
		t.Fatalf("free of pinned page: got %v, want ErrPagePinned", err)
	}
	k.Unpin(q)
	if err := k.Free(q); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPinMigratesToUnmovableRegion(t *testing.T) {
	k := New(testConfig(ModeContiguitas, 256*mb))
	p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcNetworking)
	if err != nil {
		t.Fatal(err)
	}
	if k.Info(p).PFN < k.Boundary() {
		t.Fatal("movable alloc must start in movable region")
	}
	if err := k.Pin(p); err != nil {
		t.Fatal(err)
	}
	if k.Info(p).PFN >= k.Boundary() {
		t.Fatalf("pinned page at %d must have moved below boundary %d", k.Info(p).PFN, k.Boundary())
	}
	if !k.Info(p).Pinned || !k.PM().IsPinned(k.Info(p).PFN) {
		t.Fatal("page not marked pinned")
	}
	if k.Info(p).MT != mem.MigrateUnmovable {
		t.Fatal("pinned page must become unmovable")
	}
	if k.PinMigrations != 1 {
		t.Fatalf("pin migrations = %d", k.PinMigrations)
	}
	k.Unpin(p)
	k.Free(p)
}

func TestPinInLinuxModeStaysPut(t *testing.T) {
	k := New(testConfig(ModeLinux, 64*mb))
	p, _ := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcNetworking)
	before := k.Info(p).PFN
	if err := k.Pin(p); err != nil {
		t.Fatal(err)
	}
	if k.Info(p).PFN != before {
		t.Fatal("linux pin must not migrate")
	}
	// The scatter: a pinned page now sits wherever it was.
	st := k.PM().Scan([]int{mem.Order2M})
	if st.UnmovableBlocks[mem.Order2M] == 0 {
		t.Fatal("pinned page must make its block unmovable")
	}
}

func TestPageCacheReclaim(t *testing.T) {
	k := New(testConfig(ModeLinux, 64*mb))
	var pages []Page
	for i := 0; i < 100; i++ {
		p, err := k.AllocPageCache(mem.Order4K, mem.SrcFilesystem)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	freed := k.reclaim(k.zone, 50)
	if freed < 50 {
		t.Fatalf("reclaimed %d, want >= 50", freed)
	}
	// Oldest dropped first.
	if k.Live(pages[0]) {
		t.Fatal("oldest cache page must be reclaimed first")
	}
	if !k.Live(pages[99]) {
		t.Fatal("newest cache page must survive")
	}
}

func TestPageCacheHolderFree(t *testing.T) {
	k := New(testConfig(ModeLinux, 64*mb))
	p, _ := k.AllocPageCache(mem.Order4K, mem.SrcFilesystem)
	k.Free(p) // holder frees before reclaim touches it
	if freed := k.reclaim(k.zone, 10); freed != 0 {
		t.Fatalf("nothing left to reclaim, got %d", freed)
	}
}

func TestDirectReclaimOnPressure(t *testing.T) {
	cfg := testConfig(ModeLinux, 64*mb)
	k := New(cfg)
	// Fill memory with page cache (page cache is recycled by reclaim, so
	// bound the loop by capacity), then demand an allocation: the slow
	// path must reclaim instead of failing.
	capacity := int(k.zone.Pages())
	for i := 0; i < capacity; i++ {
		if _, err := k.AllocPageCache(mem.Order4K, mem.SrcFilesystem); err != nil {
			t.Fatalf("page cache alloc %d failed: %v", i, err)
		}
	}
	p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
	if err != nil {
		t.Fatalf("alloc after reclaim failed: %v", err)
	}
	if k.DirectReclaim == 0 {
		t.Fatal("direct reclaim must have run")
	}
	k.Free(p)
}

func TestKswapdKeepsWatermark(t *testing.T) {
	cfg := testConfig(ModeLinux, 64*mb)
	k := New(cfg)
	total := k.zone.Pages()
	// Consume memory down past the low watermark with page cache.
	for k.zone.FreePages() > total/50 {
		if _, err := k.AllocPageCache(mem.Order4K, mem.SrcFilesystem); err != nil {
			break
		}
	}
	k.EndTick()
	low := uint64(float64(total) * cfg.WatermarkLow)
	if k.zone.FreePages() < low {
		t.Fatalf("kswapd left free=%d below low=%d", k.zone.FreePages(), low)
	}
	if k.KswapdRuns == 0 {
		t.Fatal("kswapd must have run")
	}
}

func TestCompactionCreatesHugePage(t *testing.T) {
	cfg := testConfig(ModeLinux, 64*mb)
	cfg.CompactBudgetPerTick = 0 // unlimited: test the mechanism itself
	k := New(cfg)
	rng := stats.NewRNG(7)
	// Fragment: fill with 4KB movable pages, free ~40% randomly.
	var pages []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		pages = append(pages, p)
	}
	for _, p := range pages {
		if rng.Bool(0.4) {
			k.Free(p)
		}
	}
	if k.zone.LargestFreeOrder() >= mem.Order2M {
		t.Skip("not fragmented enough for this seed")
	}
	p, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser)
	if err != nil {
		t.Fatalf("2MB alloc with compaction failed: %v", err)
	}
	if k.CompactSuccess == 0 {
		t.Fatal("compaction must have produced the block")
	}
	if k.Info(p).Order != mem.Order2M {
		t.Fatal("wrong order")
	}
	if err := k.zone.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionBudgetDefers(t *testing.T) {
	cfg := testConfig(ModeLinux, 64*mb)
	cfg.CompactBudgetPerTick = 64 // far below any candidate's cost
	k := New(cfg)
	rng := stats.NewRNG(7)
	var pages []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		pages = append(pages, p)
	}
	for _, p := range pages {
		if rng.Bool(0.4) {
			k.Free(p)
		}
	}
	if _, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser); err == nil {
		t.Skip("free pattern coalesced; no compaction needed")
	}
	if k.CompactDeferred == 0 {
		t.Fatal("budget-bound compaction must defer")
	}
	// Direct (HugeTLB) compaction ignores the budget.
	res := k.AllocHugeTLB(mem.Order2M, 1)
	if res.Allocated != 1 {
		t.Fatal("direct compaction must succeed despite the budget")
	}
}

func TestCompactionBlockedByScatteredUnmovable(t *testing.T) {
	cfg := testConfig(ModeLinux, 64*mb)
	k := New(cfg)
	// Allocate one unmovable 4KB page in every 2MB block: compaction
	// can no longer form any huge page — the paper's core observation.
	nblocks := k.PM().NumPageblocks()
	placed := uint64(0)
	var fill []Page
	for placed < nblocks {
		p, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab)
		if err != nil {
			t.Fatal(err)
		}
		blk := k.PM().PageblockOf(k.Info(p).PFN)
		if blk == placed {
			placed++
			continue
		}
		fill = append(fill, p)
	}
	// Free the filler so plenty of free memory exists — yet no huge page
	// can be compacted.
	for _, p := range fill {
		k.Free(p)
	}
	if _, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser); err == nil {
		t.Fatal("2MB alloc must fail with one unmovable page per block")
	}
	st := k.PM().Scan([]int{mem.Order2M})
	if st.UnmovableBlockFraction(mem.Order2M) != 1.0 {
		t.Fatalf("every block must be unmovable, got %v", st.UnmovableBlockFraction(mem.Order2M))
	}
}

func TestContiguitasImmuneToScatter(t *testing.T) {
	k := New(testConfig(ModeContiguitas, 64*mb))
	// The same adversarial unmovable stream as above cannot pollute the
	// movable region: all unmovable allocations are confined.
	for i := 0; i < 500; i++ {
		if _, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab); err != nil {
			t.Fatal(err)
		}
	}
	st := k.PM().Scan([]int{mem.Order2M})
	unmovBlocks := st.UnmovableBlocks[mem.Order2M]
	regionBlocks := k.Boundary() / mem.PageblockPages
	if unmovBlocks > regionBlocks {
		t.Fatalf("unmovable blocks %d leaked beyond region (%d blocks)", unmovBlocks, regionBlocks)
	}
	// Movable region: a 2MB alloc must still succeed trivially.
	if _, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser); err != nil {
		t.Fatal(err)
	}
}

func TestUrgentExpandOnUnmovablePressure(t *testing.T) {
	cfg := testConfig(ModeContiguitas, 256*mb)
	k := New(cfg)
	before := k.Boundary()
	// Exhaust the unmovable region; the next allocation must trigger an
	// urgent expansion rather than failing.
	var pages []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab)
		if err != nil {
			t.Fatalf("unmovable alloc failed despite expandable boundary: %v", err)
		}
		pages = append(pages, p)
		if k.Boundary() > before {
			break
		}
		if uint64(len(pages)) > k.PM().NPages {
			t.Fatal("runaway")
		}
	}
	if k.Expands == 0 {
		t.Fatal("expansion counter not bumped")
	}
	for _, p := range pages {
		k.Free(p)
	}
}

func TestExpandEvacuatesMovablePages(t *testing.T) {
	cfg := testConfig(ModeContiguitas, 256*mb)
	k := New(cfg)
	// Occupy the bottom of the movable region so expansion must migrate.
	// Movable allocations are highest-first, so grab everything, then
	// free the top half.
	var pages []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		pages = append(pages, p)
	}
	// Free 75% (the later allocations are lower; keep some low ones).
	for i, p := range pages {
		if i%4 != 3 {
			k.Free(p)
			pages[i] = Page{}
		}
	}
	moved := k.ExpandUnmovable(16 * mb / mem.PageSize)
	if moved == 0 {
		t.Fatal("expansion failed")
	}
	if k.SWMigrations == 0 {
		t.Fatal("expansion must have migrated pages out of the takeover range")
	}
	// All surviving handles must still point at valid allocated frames
	// in the movable region.
	for _, p := range pages {
		if p == (Page{}) {
			continue
		}
		if k.Info(p).PFN < k.Boundary() {
			t.Fatalf("movable handle at %d below boundary %d", k.Info(p).PFN, k.Boundary())
		}
		if !k.Live(p) {
			t.Fatal("handle lost")
		}
	}
	if err := k.mov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := k.unmov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkWithoutHWStopsAtUnmovable(t *testing.T) {
	cfg := testConfig(ModeContiguitas, 256*mb)
	cfg.MinUnmovableBytes = 2 * mb
	k := New(cfg)
	// Place an unmovable allocation near the top of the unmovable region
	// by filling the region and freeing all but the top block.
	var pages []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab)
		if err != nil {
			break
		}
		if k.Boundary() > mem.BytesToPages(cfg.InitialUnmovableBytes) {
			k.Free(p)
			break
		}
		pages = append(pages, p)
	}
	var top Page
	for _, p := range pages {
		if top == (Page{}) || k.Info(p).PFN > k.Info(top).PFN {
			top = p
		}
	}
	for _, p := range pages {
		if p != top {
			k.Free(p)
		}
	}
	got := k.ShrinkUnmovable(k.Boundary())
	// Shrink must stop above the obstacle.
	if k.Boundary() <= k.Info(top).PFN {
		t.Fatalf("boundary %d fell below the unmovable page %d", k.Boundary(), k.Info(top).PFN)
	}
	_ = got
	if err := k.unmov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkWithHWMovesUnmovable(t *testing.T) {
	cfg := testConfig(ModeContiguitas, 256*mb)
	cfg.HWMover = NewAnalyticMover()
	cfg.MinUnmovableBytes = 2 * mb
	k := New(cfg)
	// Same obstacle as before, but with Contiguitas-HW the page is
	// live-migrated downward and the shrink proceeds.
	var pages []Page
	for uint64(len(pages)) < k.Boundary()/2 {
		p, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcNetworking)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Pin(p); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	var top Page
	for _, p := range pages {
		if top == (Page{}) || k.Info(p).PFN > k.Info(top).PFN {
			top = p
		}
	}
	for _, p := range pages {
		if p != top {
			k.Unpin(p)
			k.Free(p)
		}
	}
	oldB := k.Boundary()
	moved := k.ShrinkUnmovable(oldB)
	if moved == 0 {
		t.Fatal("HW-assisted shrink must succeed")
	}
	if k.HWMigrations == 0 {
		t.Fatal("the pinned page must have been HW-migrated")
	}
	if k.Info(top).PFN >= k.Boundary() {
		t.Fatalf("pinned page at %d outside new unmovable region %d", k.Info(top).PFN, k.Boundary())
	}
	if !k.PM().IsPinned(k.Info(top).PFN) {
		t.Fatal("pin flag lost across HW migration")
	}
	if err := k.unmov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := k.mov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResizerShrinksIdleRegion(t *testing.T) {
	cfg := testConfig(ModeContiguitas, 256*mb)
	cfg.ResizeThresholds = resize.Thresholds{Unmovable: 1, Movable: 1}
	k := New(cfg)
	before := k.Boundary()
	// Idle machine: pressure is zero everywhere, the resizer must
	// gradually give unmovable memory back to the movable region.
	k.RunTicks(500)
	if k.Boundary() >= before {
		t.Fatalf("boundary %d did not shrink from %d", k.Boundary(), before)
	}
	if k.Shrinks == 0 {
		t.Fatal("no shrink recorded")
	}
}

func TestAllocUserTHP(t *testing.T) {
	k := New(testConfig(ModeContiguitas, 256*mb))
	m, err := k.AllocUser(10*mb, true)
	if err != nil {
		t.Fatal(err)
	}
	if cov := m.Coverage(mem.Order2M); cov != 1.0 {
		t.Fatalf("THP coverage on fresh machine = %v, want 1", cov)
	}
	k.FreeMapping(m)
	m, err = k.AllocUser(10*mb, false)
	if err != nil {
		t.Fatal(err)
	}
	if cov := m.Coverage(mem.Order2M); cov != 0 {
		t.Fatalf("no-THP coverage = %v, want 0", cov)
	}
	if m.BlockCount(mem.Order4K) != int(10*mb/mem.PageSize) {
		t.Fatal("wrong 4K block count")
	}
	k.FreeMapping(m)
}

func TestPromoteCollapsesBasePages(t *testing.T) {
	k := New(testConfig(ModeLinux, 64*mb))
	m, err := k.AllocUser(4*mb, false)
	if err != nil {
		t.Fatal(err)
	}
	n := k.Promote(m, 0)
	if n != 2 {
		t.Fatalf("collapses = %d, want 2", n)
	}
	if cov := m.Coverage(mem.Order2M); cov != 1.0 {
		t.Fatalf("coverage after promote = %v", cov)
	}
	k.FreeMapping(m)
	if k.LiveAllocations() != 0 {
		t.Fatal("leak after promote+free")
	}
}

func TestHugeTLB1GFailsOnFragmentedLinux(t *testing.T) {
	cfg := testConfig(ModeLinux, 2*gb)
	k := New(cfg)
	// Scatter unmovable pages across the space.
	rng := stats.NewRNG(3)
	var movable []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		movable = append(movable, p)
	}
	for i, p := range movable {
		if rng.Bool(0.5) {
			k.Free(p)
			movable[i] = Page{}
		}
	}
	for i := 0; i < 200; i++ {
		k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab)
	}
	res := k.AllocHugeTLB(mem.Order1G, 1)
	if res.Allocated != 0 {
		t.Fatal("1GB alloc must fail on a fragmented Linux machine")
	}
}

func TestHugeTLB1GSucceedsOnContiguitas(t *testing.T) {
	cfg := testConfig(ModeContiguitas, 4*gb)
	k := New(cfg)
	// Same hostile unmovable stream; confinement keeps the movable
	// region compactable.
	for i := 0; i < 2000; i++ {
		if _, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab); err != nil {
			t.Fatal(err)
		}
	}
	rng := stats.NewRNG(3)
	var movable []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		movable = append(movable, p)
	}
	for i, p := range movable {
		if rng.Bool(0.6) {
			k.Free(p)
			movable[i] = Page{}
		}
	}
	res := k.AllocHugeTLB(mem.Order1G, 1)
	if res.Allocated != 1 {
		t.Fatalf("1GB alloc must succeed under Contiguitas (compaction unblocked), got %d", res.Allocated)
	}
}

func TestMigrationCostModelLinearScaling(t *testing.T) {
	m := DefaultMigrationCostModel()
	c1 := m.UnavailableCycles(1)
	c8 := m.UnavailableCycles(8)
	if c8 <= c1 {
		t.Fatal("cost must grow with victims")
	}
	perVictim := (c8 - c1) / 7
	if perVictim < 500 || perVictim > 1200 {
		t.Fatalf("per-victim cost = %d cycles, want within Figure 13's range", perVictim)
	}
	// Paper calibration: ~2.5K cycles at 1 victim, ~8K at 8.
	if c1 < 2000 || c1 > 3500 {
		t.Fatalf("1-victim cost = %d", c1)
	}
	if c8 < 7000 || c8 > 9500 {
		t.Fatalf("8-victim cost = %d", c8)
	}
	if m.UnavailableCycles(-5) != m.UnavailableCycles(0) {
		t.Fatal("negative victims must clamp")
	}
}

func TestBlockMigrationCost(t *testing.T) {
	m := DefaultMigrationCostModel()
	base := m.BlockUnavailableCycles(4, 0)
	big := m.BlockUnavailableCycles(4, mem.Order2M)
	if big-base != (mem.PageblockPages-1)*m.CopyCyclesPerPage {
		t.Fatal("block copy cost must add per-page copies")
	}
}

func TestAnalyticMoverScalesWithOrder(t *testing.T) {
	mv := NewAnalyticMover()
	c0, err0 := mv.Migrate(0, 1, 0)
	c9, err9 := mv.Migrate(0, 512, mem.Order2M)
	if err0 != nil || err9 != nil {
		t.Fatalf("analytic mover failed: %v / %v", err0, err9)
	}
	if c9 != c0*512 {
		t.Fatalf("2MB move = %d, want 512x of %d", c9, c0)
	}
	// Copy-engine work for a 4KB page: ~8K cycles, overlapped across
	// slices to the paper's ~2us wall-clock migration.
	if c0 < 4000 || c0 > 12000 {
		t.Fatalf("4KB HW migration = %d cycles of engine work, want ~8000", c0)
	}
}

func TestErrNoMemoryWrapped(t *testing.T) {
	cfg := testConfig(ModeLinux, 16*mb)
	k := New(cfg)
	var pages []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			if !errors.Is(err, ErrNoMemory) {
				t.Fatalf("error not wrapped: %v", err)
			}
			break
		}
		pages = append(pages, p)
	}
	if k.AllocFail == 0 {
		t.Fatal("failure counter not bumped")
	}
	for _, p := range pages {
		k.Free(p)
	}
}

func TestPSIPressureRisesOnFailure(t *testing.T) {
	cfg := testConfig(ModeContiguitas, 64*mb)
	cfg.MaxUnmovableBytes = cfg.InitialUnmovableBytes // expansion forbidden
	k := New(cfg)
	for {
		if _, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab); err != nil {
			break
		}
	}
	k.EndTick()
	if k.PSI().Pressure(1) == 0 { // psi.RegionUnmovable
		t.Fatal("unmovable pressure must rise after failures")
	}
}

// TestKernelRandomisedWorkload runs a mixed random workload in both modes
// and validates allocator invariants and handle consistency throughout.
func TestKernelRandomisedWorkload(t *testing.T) {
	for _, mode := range []Mode{ModeLinux, ModeContiguitas} {
		cfg := testConfig(mode, 128*mb)
		cfg.HWMover = NewAnalyticMover()
		k := New(cfg)
		rng := stats.NewRNG(99)
		var live []Page
		for step := 0; step < 8000; step++ {
			r := rng.Float64()
			switch {
			case r < 0.40 || len(live) == 0:
				order := []int{0, 0, 0, 1, 2, 9}[rng.Intn(6)]
				mt := mem.MigrateMovable
				src := mem.SrcUser
				if rng.Bool(0.3) {
					mt = mem.MigrateUnmovable
					src = []mem.Source{mem.SrcNetworking, mem.SrcSlab, mem.SrcPageTable}[rng.Intn(3)]
				}
				if p, err := k.Alloc(order, mt, src); err == nil {
					live = append(live, p)
				}
			case r < 0.50:
				if p, err := k.AllocPageCache(mem.Order4K, mem.SrcFilesystem); err == nil {
					_ = p // kernel-owned; reclaimed under pressure
				}
			case r < 0.60:
				i := rng.Intn(len(live))
				p := live[i]
				if k.Info(p).MT == mem.MigrateMovable && !k.Info(p).Pinned && rng.Bool(0.5) {
					if err := k.Pin(p); err == nil && mode == ModeContiguitas && k.Info(p).PFN >= k.Boundary() {
						t.Fatal("pinned page outside unmovable region")
					}
				}
			default:
				i := rng.Intn(len(live))
				p := live[i]
				if k.Info(p).Pinned {
					k.Unpin(p)
				}
				k.Free(p)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if step%500 == 499 {
				k.EndTick()
			}
			if step%2000 == 1999 {
				k.checkInvariants(t)
				for _, p := range live {
					if !k.Live(p) {
						t.Fatal("lost a live handle")
					}
					if k.PM().BlockOrder(k.Info(p).PFN) != int(k.Info(p).Order) {
						t.Fatal("handle order mismatch")
					}
				}
			}
		}
	}
}

// checkInvariants validates every buddy in the kernel.
func (k *Kernel) checkInvariants(t *testing.T) {
	t.Helper()
	if k.cfg.Mode == ModeLinux {
		if err := k.zone.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := k.unmov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := k.mov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if k.unmov.End() != k.boundary || k.mov.Start() != k.boundary {
		t.Fatalf("boundary out of sync: %d / %d / %d", k.unmov.End(), k.boundary, k.mov.Start())
	}
}

func TestDefragUnmovableUnblocksShrink(t *testing.T) {
	cfg := testConfig(ModeContiguitas, 256*mb)
	cfg.HWMover = NewAnalyticMover()
	cfg.MinUnmovableBytes = 2 * mb
	k := New(cfg)
	// Scatter unmovable allocations across the region by allocating a
	// lot and freeing every other one.
	var pages []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab)
		if err != nil || k.Boundary() > mem.BytesToPages(cfg.InitialUnmovableBytes) {
			if err == nil {
				pages = append(pages, p)
			}
			break
		}
		pages = append(pages, p)
	}
	for i, p := range pages {
		if i%2 == 0 {
			k.Free(p)
			pages[i] = Page{}
		}
	}
	moved := k.DefragUnmovable()
	if moved == 0 {
		t.Fatal("defrag must relocate blocks downward")
	}
	// All survivors must have slid toward low addresses: the top
	// quarter of the region should now be free.
	top := k.Boundary() - k.Boundary()/4
	for p := top; p < k.Boundary(); p++ {
		if !k.PM().IsFree(p) {
			t.Fatalf("frame %d above %d still allocated after defrag", p, top)
		}
	}
	if err := k.unmov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDefragRequiresHW(t *testing.T) {
	k := New(testConfig(ModeContiguitas, 64*mb))
	if k.DefragUnmovable() != 0 {
		t.Fatal("defrag without a Mover must be a no-op")
	}
	kl := New(testConfig(ModeLinux, 64*mb))
	if kl.DefragUnmovable() != 0 {
		t.Fatal("defrag in Linux mode must be a no-op")
	}
}

func TestResizerExpandsUnderSustainedPressure(t *testing.T) {
	cfg := testConfig(ModeContiguitas, 256*mb)
	cfg.ResizePeriodTicks = 5
	k := New(cfg)
	before := k.Boundary()
	// Saturate the unmovable region and keep failing allocations so
	// pressure builds; the periodic resizer (not just the urgent path)
	// must expand. Use MaxUnmovableBytes low enough that urgent
	// expansion stops, then raise pressure.
	var pages []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab)
		if err != nil {
			break
		}
		pages = append(pages, p)
		if uint64(len(pages)) > k.PM().NPages/2 {
			break
		}
	}
	if k.Boundary() <= before {
		t.Fatal("expansion should have occurred")
	}
	for _, p := range pages {
		k.Free(p)
	}
}

func TestStealStatsLinuxOnly(t *testing.T) {
	kc := New(testConfig(ModeContiguitas, 64*mb))
	if s := kc.ZoneSteals(); s.Converting != 0 || s.Polluting != 0 {
		t.Fatal("contiguitas has no zone steals")
	}
	kl := New(testConfig(ModeLinux, 64*mb))
	if _, err := kl.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab); err != nil {
		t.Fatal(err)
	}
	if s := kl.ZoneSteals(); s.Converting+s.Polluting == 0 {
		t.Fatal("first unmovable alloc must steal from movable lists")
	}
}

func TestCompactionDeferBacksOffExponentially(t *testing.T) {
	cfg := testConfig(ModeLinux, 64*mb)
	cfg.CompactBudgetPerTick = 0
	k := New(cfg)
	// Make all blocks uncompactable: one unmovable page in every
	// pageblock (allocate until each block is covered, keeping the
	// misses allocated so placement advances).
	covered := make(map[uint64]bool)
	nblocks := k.PM().NumPageblocks()
	for uint64(len(covered)) < nblocks {
		p, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab)
		if err != nil {
			t.Fatal(err)
		}
		covered[k.PM().PageblockOf(k.Info(p).PFN)] = true
	}
	// Free scattered movable singles so memory exists but never 2MB.
	rng := stats.NewRNG(5)
	var movable []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		movable = append(movable, p)
	}
	for _, p := range movable {
		if rng.Bool(0.3) {
			k.Free(p)
		}
	}
	// Repeated 2MB allocations: the first runs a full (failing) scan,
	// subsequent ones in the defer window skip scanning entirely.
	k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser)
	runsAfterFirst := k.CompactRuns
	deferredBefore := k.CompactDeferred
	for i := 0; i < 10; i++ {
		k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser)
	}
	if k.CompactRuns != runsAfterFirst+10 {
		t.Fatal("compact entry count wrong")
	}
	if k.CompactDeferred < deferredBefore+10 {
		t.Fatalf("deferral not engaged: %d -> %d", deferredBefore, k.CompactDeferred)
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	k := New(testConfig(ModeContiguitas, 64*mb))
	if k.Config().MemBytes != 64*mb {
		t.Fatal("Config accessor")
	}
	if k.Tick() != 0 {
		t.Fatal("fresh kernel tick")
	}
	k.EndTick()
	if k.Tick() != 1 {
		t.Fatal("tick must advance")
	}
	if k.String() == "" || ModeLinux.String() != "linux" || ModeContiguitas.String() != "contiguitas" {
		t.Fatal("string forms")
	}
	if New(testConfig(ModeLinux, 64*mb)).UnmovableRegionBytes() != 0 {
		t.Fatal("linux mode has no unmovable region")
	}
	if k.ReclaimablePages() != 0 {
		t.Fatal("fresh kernel holds no cache")
	}
	p, _ := k.AllocPageCache(mem.Order4K, mem.SrcFilesystem)
	if k.ReclaimablePages() != 1 {
		t.Fatal("cache accounting")
	}
	k.Free(p)
	if k.ReclaimablePages() != 0 {
		t.Fatal("cache accounting after free")
	}
}

func TestUnpinIdempotent(t *testing.T) {
	k := New(testConfig(ModeLinux, 64*mb))
	p, _ := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcNetworking)
	k.Unpin(p) // not pinned: no-op
	if k.Info(p).Pinned {
		t.Fatal("unpin of unpinned page")
	}
	k.Pin(p)
	k.Pin(p) // already pinned: no-op
	k.Unpin(p)
	k.Unpin(p)
	k.Free(p)
}

func TestFreeHugeTLBReleasesReservation(t *testing.T) {
	k := New(testConfig(ModeContiguitas, 256*mb))
	res := k.AllocHugeTLB(mem.Order2M, 4)
	if res.Allocated != 4 {
		t.Fatalf("allocated = %d", res.Allocated)
	}
	before := k.FreePages()
	k.FreeHugeTLB(&res)
	if res.Allocated != 0 || len(res.Pages) != 0 {
		t.Fatal("reservation not cleared")
	}
	if k.FreePages() != before+4*mem.PageblockPages {
		t.Fatal("pages not returned")
	}
}

func TestCompactReclaimableCompaction(t *testing.T) {
	cfg := testConfig(ModeLinux, 64*mb)
	k := New(cfg)
	// Build a large cache FIFO, then reclaim most of it so the dead
	// prefix triggers compaction of the FIFO itself.
	for i := 0; i < 3000; i++ {
		if _, err := k.AllocPageCache(mem.Order4K, mem.SrcFilesystem); err != nil {
			t.Fatal(err)
		}
	}
	k.reclaim(k.zone, 2000)
	if len(k.reclaimable) > 1500 {
		t.Fatalf("FIFO not compacted: %d entries", len(k.reclaimable))
	}
	// Surviving entries must still free cleanly through their handles.
	k.reclaim(k.zone, 1<<30)
	if k.ReclaimablePages() != 0 {
		t.Fatal("full reclaim left cache pages")
	}
}

// TestTracepointsReportPublicEvents: every successful public call fires
// one tracepoint naming the block by its handle and frame, an alloc's
// class tells page cache apart, and a detached ring sees nothing.
func TestTracepointsReportPublicEvents(t *testing.T) {
	k := New(testConfig(ModeContiguitas, 64*mb))
	var recs []telemetry.Record
	ring := telemetry.NewRing(0)
	ring.SetSink(func(r telemetry.Record) { recs = append(recs, r) })
	k.SetTracer(ring)
	p, _ := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcNetworking)
	c, _ := k.AllocPageCache(mem.Order4K, mem.SrcFilesystem)
	k.Pin(p)
	k.Pin(p) // already pinned: no event
	k.Unpin(p)
	k.Unpin(p) // not pinned: no event
	k.EndTick()
	k.Free(p)
	k.Free(c)
	k.Free(c) // stale: refused, no event
	count := map[telemetry.EventID]int{}
	for _, r := range recs {
		count[r.ID]++
		switch r.ID {
		case telemetry.EvAlloc, telemetry.EvFree, telemetry.EvPin, telemetry.EvUnpin:
			if r.B != p.ID() && r.B != c.ID() {
				t.Fatalf("%v names handle %#x, want %#x or %#x", r.ID, r.B, p.ID(), c.ID())
			}
		}
		if r.ID == telemetry.EvAlloc {
			order, mt, src, cache := SplitClass(r.C)
			want := r.B == c.ID()
			if order != mem.Order4K || mt != mem.MigrateMovable || cache != want || (src == mem.SrcFilesystem) != want {
				t.Fatalf("alloc class %#x: order %d mt %v src %v page cache %v", r.C, order, mt, src, cache)
			}
		}
	}
	if count[telemetry.EvAlloc] != 2 || count[telemetry.EvFree] != 2 ||
		count[telemetry.EvPin] != 1 || count[telemetry.EvUnpin] != 1 {
		t.Fatalf("tracepoint counts: %v", count)
	}
	if recs[len(recs)-1].Tick != 1 {
		t.Fatal("events after EndTick must carry the next tick")
	}
	k.SetTracer(nil)
	n := len(recs)
	q, _ := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
	k.Free(q)
	k.EndTick()
	if len(recs) != n {
		t.Fatal("a detached ring must see nothing")
	}
}

func TestExpandFailsWhenMovableFull(t *testing.T) {
	cfg := testConfig(ModeContiguitas, 64*mb)
	k := New(cfg)
	// Fill the movable region completely; expansion then cannot
	// evacuate the takeover range and must fail cleanly (donating any
	// carved frames back).
	var pages []Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		pages = append(pages, p)
	}
	if got := k.ExpandUnmovable(4 * mem.PageblockPages); got != 0 {
		t.Fatalf("expansion into a full movable region returned %d", got)
	}
	if err := k.mov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		k.Free(p)
	}
}

// TestConfigValidate: each machine a command's flags can ask for that
// New cannot boot is refused by Validate with a reason, and New panics
// on exactly those.
func TestConfigValidate(t *testing.T) {
	contig := func(memBytes, unmov uint64) Config {
		cfg := testConfig(ModeContiguitas, memBytes)
		cfg.InitialUnmovableBytes = unmov
		return cfg
	}
	watermarks := testConfig(ModeLinux, 64*mb)
	watermarks.WatermarkLow, watermarks.WatermarkHigh = 0.1, 0.05
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // empty: valid
	}{
		{"zero size", testConfig(ModeLinux, 0), "zero memory size"},
		{"1 MiB", testConfig(ModeLinux, 1*mb), "not a whole number of 2 MiB pageblocks"},
		{"3 MiB", contig(3*mb, 1*mb), "not a whole number of 2 MiB pageblocks"},
		{"watermarks", watermarks, "below low watermark"},
		{"unknown mode", testConfig(Mode(7), 64*mb), "unknown mode 7"},
		{"16 MiB at a 1/16 share", contig(16*mb, 1*mb), "needs an unmovable region of at least one 2 MiB pageblock"},
		{"region under a pageblock", contig(64*mb, 2*mb-mem.PageSize), "needs an unmovable region"},
		{"region is all of memory", contig(64*mb, 64*mb), "leaves no movable region"},
		{"one pageblock", contig(32*mb, 2*mb), ""},
		{"linux 2 MiB", testConfig(ModeLinux, 2*mb), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config refused: %v", err)
				}
				New(tc.cfg)
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want %q", err, tc.want)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("New booted a config Validate refuses")
				}
			}()
			New(tc.cfg)
		})
	}
}
