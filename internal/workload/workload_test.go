package workload

import (
	"testing"

	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
)

const mb = uint64(1) << 20

func testKernel(mode kernel.Mode, memBytes uint64) *kernel.Kernel {
	cfg := kernel.DefaultConfig(mode)
	cfg.MemBytes = memBytes
	cfg.InitialUnmovableBytes = memBytes / 16
	cfg.MinUnmovableBytes = memBytes / 64
	cfg.MaxUnmovableBytes = memBytes / 4
	cfg.MaxResizeStepBytes = 32 * mb
	cfg.ResizePeriodTicks = 50
	return kernel.New(cfg)
}

func TestProfilesWellFormed(t *testing.T) {
	for _, p := range append(Profiles(), Ads()) {
		if p.Name == "" {
			t.Fatal("unnamed profile")
		}
		if p.UserFrac+p.PageCacheFrac+p.UnmovableFrac >= 1 {
			t.Fatalf("%s: fractions %v sum past 1", p.Name,
				p.UserFrac+p.PageCacheFrac+p.UnmovableFrac)
		}
		var mix float64
		for _, w := range p.SourceMix {
			mix += w
		}
		if mix < 0.99 || mix > 1.01 {
			t.Fatalf("%s: source mix sums to %v", p.Name, mix)
		}
		if p.SourceMix[mem.SrcUser] != 0 {
			t.Fatalf("%s: user memory is not an unmovable source", p.Name)
		}
		if p.Trans.BaseWalkPctData <= 0 {
			t.Fatalf("%s: missing translation anchors", p.Name)
		}
	}
}

func TestFig6MixNetworkingDominates(t *testing.T) {
	m := standardMix()
	if m[mem.SrcNetworking] != 0.73 {
		t.Fatalf("networking share = %v, want 0.73 (Figure 6)", m[mem.SrcNetworking])
	}
	if m[mem.SrcSlab] != 0.12 {
		t.Fatalf("slab share = %v, want 0.12", m[mem.SrcSlab])
	}
}

func TestRunnerReachesSteadyState(t *testing.T) {
	k := testKernel(kernel.ModeContiguitas, 512*mb)
	r := NewRunner(k, Web(), 42)
	r.Run(30)
	total := float64(k.PM().NPages)
	if got := float64(r.userPages()) / total; got < 0.6 {
		t.Fatalf("user fraction = %v, want ~0.70", got)
	}
	if got := float64(r.unmovablePages()) / total; got < 0.03 || got > 0.09 {
		t.Fatalf("unmovable fraction = %v, want ~0.055", got)
	}
	if r.THPCoverage() < 0.8 {
		t.Fatalf("fresh-machine THP coverage = %v, want high", r.THPCoverage())
	}
	r.TearDown()
	if st := k.PM().Scan([]int{mem.Order2M}); st.UnmovableFrames != 0 {
		t.Fatalf("teardown left %d unmovable frames", st.UnmovableFrames)
	}
}

func TestRunnerScattersUnderLinux(t *testing.T) {
	k := testKernel(kernel.ModeLinux, 512*mb)
	r := NewRunner(k, CacheA(), 7)
	r.Run(120)
	st := k.PM().Scan([]int{mem.Order2M})
	frameFrac := st.UnmovableFrameFraction()
	blockFrac := st.UnmovableBlockFraction(mem.Order2M)
	// The paper's scatter observation: a small unmovable frame fraction
	// spoils a much larger fraction of 2MB blocks.
	if frameFrac > 0.2 {
		t.Fatalf("unmovable frames = %v, should be small", frameFrac)
	}
	if blockFrac < frameFrac*1.5 {
		t.Fatalf("no scatter amplification: frames=%v blocks=%v", frameFrac, blockFrac)
	}
}

func TestRunnerConfinedUnderContiguitas(t *testing.T) {
	k := testKernel(kernel.ModeContiguitas, 512*mb)
	r := NewRunner(k, CacheA(), 7)
	r.Run(120)
	st := k.PM().Scan([]int{mem.Order2M})
	blockFrac := st.UnmovableBlockFraction(mem.Order2M)
	regionFrac := float64(k.Boundary()) / float64(k.PM().NPages)
	if blockFrac > regionFrac+0.01 {
		t.Fatalf("unmovable blocks %v exceed region fraction %v: confinement broken",
			blockFrac, regionFrac)
	}
}

func TestLinuxVsContiguitasUnmovableBlocks(t *testing.T) {
	// The Figure 11 effect at small scale: Linux's unmovable 2MB block
	// share is a multiple of Contiguitas's.
	results := map[kernel.Mode]float64{}
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeContiguitas} {
		k := testKernel(mode, 512*mb)
		r := NewRunner(k, Web(), 11)
		r.Run(150)
		st := k.PM().Scan([]int{mem.Order2M})
		results[mode] = st.UnmovableBlockFraction(mem.Order2M)
	}
	if results[kernel.ModeLinux] < 1.5*results[kernel.ModeContiguitas] {
		t.Fatalf("linux=%v contiguitas=%v: expected clear separation",
			results[kernel.ModeLinux], results[kernel.ModeContiguitas])
	}
}

func TestRedeployChurnsMappings(t *testing.T) {
	k := testKernel(kernel.ModeContiguitas, 256*mb)
	p := Web()
	p.RedeployPeriodTicks = 10
	r := NewRunner(k, p, 5)
	r.Run(25)
	if r.userPages() == 0 {
		t.Fatal("mappings must be refilled after redeploy")
	}
}

func TestPinnedNetworkingConfined(t *testing.T) {
	k := testKernel(kernel.ModeContiguitas, 256*mb)
	p := CacheA()
	p.PinFraction = 1.0 // every networking buffer pinned
	r := NewRunner(k, p, 13)
	r.Run(40)
	for _, pg := range r.unmov {
		if pg.Pinned && pg.PFN >= k.Boundary() {
			t.Fatalf("pinned page %d escaped the unmovable region", pg.PFN)
		}
	}
	if k.PinMigrations == 0 {
		t.Fatal("pin migrations must have occurred")
	}
}

func TestFragmenterFullyFragmentsLinux(t *testing.T) {
	k := testKernel(kernel.ModeLinux, 512*mb)
	DefaultFragmenter(3).Run(k)
	st := k.PM().Scan([]int{mem.Order2M})
	// Paper: 23% of servers cannot allocate a single 2MB page. The
	// fragmenter must reproduce that state: almost no free contiguity
	// and widespread unmovable blocks.
	if got := st.FreeContigFraction(mem.Order2M); got > 0.05 {
		t.Fatalf("post-fragmenter 2MB contiguity = %v, want ~0", got)
	}
	if got := st.UnmovableBlockFraction(mem.Order2M); got < 0.5 {
		t.Fatalf("unmovable block fraction = %v, want widespread scatter", got)
	}
	// And a dynamic 1GB allocation is impossible.
	res := k.AllocHugeTLB(mem.Order1G, 1)
	if res.Allocated != 0 {
		t.Fatal("1GB allocation must fail on a fully fragmented server")
	}
}

func TestFragmenterConfinedUnderContiguitas(t *testing.T) {
	k := testKernel(kernel.ModeContiguitas, 512*mb)
	DefaultFragmenter(3).Run(k)
	st := k.PM().Scan([]int{mem.Order2M})
	regionFrac := float64(k.Boundary()) / float64(k.PM().NPages)
	if got := st.UnmovableBlockFraction(mem.Order2M); got > regionFrac+0.01 {
		t.Fatalf("unmovable blocks %v exceed region %v after fragmenter", got, regionFrac)
	}
}

func TestSourceOrderDistribution(t *testing.T) {
	if sourceOrder(mem.SrcNetworking, 0.0) != 0 || sourceOrder(mem.SrcNetworking, 0.95) != 2 {
		t.Fatal("networking order distribution wrong")
	}
	if sourceOrder(mem.SrcPageTable, 0.99) != 0 {
		t.Fatal("page tables allocate base pages")
	}
	if sourceOrder(mem.SrcSlab, 0.9) != 1 {
		t.Fatal("slab occasionally uses order-1")
	}
}

func TestCoverageWith1G(t *testing.T) {
	k := testKernel(kernel.ModeContiguitas, 512*mb)
	r := NewRunner(k, Web(), 42)
	r.Run(20)
	cov := r.Coverage(nil)
	if cov.Frac1G != 0 {
		t.Fatal("no 1G reservation yet")
	}
	// Simulate a 1GB reservation covering part of the heap. On this
	// small machine a real 1GB alloc cannot fit, so fabricate the
	// result shape.
	res := &kernel.HugeTLBResult{Requested: 1, Allocated: 1}
	cov = r.Coverage(res)
	if cov.Frac1G <= 0 || cov.Frac1G > 1 {
		t.Fatalf("Frac1G = %v", cov.Frac1G)
	}
	if cov.Frac2M+cov.Frac1G > 1+1e-9 {
		t.Fatalf("coverage overflow: %+v", cov)
	}
}

func TestKhugepagedRecoversTHP(t *testing.T) {
	// Fragment a machine so THP faults fail, then give khugepaged
	// budget: coverage must recover over time as compaction + collapse
	// rebuild 2MB backing.
	k := testKernel(kernel.ModeContiguitas, 512*mb)
	p := Web()
	p.KhugepagedCollapses = 8
	r := NewRunner(k, p, 21)
	r.Run(50)
	before := r.THPCoverage()
	r.Run(150)
	after := r.THPCoverage()
	if after < before-0.05 {
		t.Fatalf("khugepaged let coverage decay: %.2f -> %.2f", before, after)
	}
}

func TestKhugepagedDisabled(t *testing.T) {
	k := testKernel(kernel.ModeContiguitas, 256*mb)
	p := Web()
	p.KhugepagedCollapses = 0
	r := NewRunner(k, p, 5)
	r.Run(20)
	// Sanity: runs fine without promotion.
	if r.userPages() == 0 {
		t.Fatal("no user memory")
	}
}

func TestSlabShareDrivenByObjects(t *testing.T) {
	k := testKernel(kernel.ModeContiguitas, 256*mb)
	p := CI() // slab-heavy mix (30%)
	r := NewRunner(k, p, 31)
	r.Run(60)
	if r.slabMgr == nil {
		t.Fatal("slab manager must exist for a slab-weighted profile")
	}
	held := r.slabPages()
	target := uint64(float64(r.unmovableTarget()) * r.slabFrac)
	if held == 0 {
		t.Fatal("no slab pages held")
	}
	// The page population tracks the slab share of the unmovable target
	// (it may overshoot slightly: object packing is coarse).
	if held < target/2 || held > target*3 {
		t.Fatalf("slab pages %d vs share target %d", held, target)
	}
	// Fragmentation is emergent: utilization below 100%.
	util := float64(r.slabMgr.Objects()) / float64(r.slabMgr.PagesHeld()*8)
	_ = util
	r.TearDown()
	if r.slabMgr.PagesHeld() != 0 {
		t.Fatal("teardown must drain the slab caches")
	}
}

func TestNoSlabManagerWithoutSlabWeight(t *testing.T) {
	k := testKernel(kernel.ModeContiguitas, 128*mb)
	p := Web()
	p.SourceMix[mem.SrcSlab] = 0
	p.SourceMix[mem.SrcNetworking] += 0.12
	r := NewRunner(k, p, 3)
	r.Run(10)
	if r.slabMgr != nil {
		t.Fatal("no slab weight must mean no slab manager")
	}
}

// TestProfileByName walks every profile name the CLIs accept, and one
// they refuse.
func TestProfileByName(t *testing.T) {
	for name, want := range map[string]string{
		"web": "Web", "cachea": "Cache A", "cacheb": "Cache B", "ci": "CI",
	} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != want {
			t.Fatalf("%q: got %q, %v; want %q", name, p.Name, err, want)
		}
	}
	if _, err := ProfileByName("ads"); err == nil {
		t.Fatal(`"ads" accepted: Ads is not a CLI profile`)
	}
}
