package platform

import (
	"testing"

	"contiguitas/internal/hw/contighw"
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
)

// TestSimVsAnalyticMover validates the analytic mover the kernel uses by
// default against the full event-driven Contiguitas-HW simulation: the
// per-page copy-engine work must agree within a factor of two.
func TestSimVsAnalyticMover(t *testing.T) {
	analytic := kernel.NewAnalyticMover()
	sim := NewSimMover(contighw.Noncacheable)

	a, aerr := analytic.Migrate(100, 200, mem.Order4K)
	s, serr := sim.Migrate(100, 200, mem.Order4K)
	if aerr != nil || serr != nil {
		t.Fatalf("mover errors: analytic=%v sim=%v", aerr, serr)
	}
	if s == 0 || a == 0 {
		t.Fatalf("degenerate costs: analytic=%d sim=%d", a, s)
	}
	ratio := float64(s) / float64(a)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("analytic (%d) and simulated (%d) movers disagree by %.2fx", a, s, ratio)
	}
}

// TestSimMoverDrivesKernel plugs the simulation-backed mover into a real
// kernel and exercises the HW-assisted shrink path end to end.
func TestSimMoverDrivesKernel(t *testing.T) {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 128 << 20
	cfg.InitialUnmovableBytes = 32 << 20
	cfg.MinUnmovableBytes = 4 << 20
	cfg.MaxUnmovableBytes = 64 << 20
	sim := NewSimMover(contighw.Noncacheable)
	cfg.HWMover = sim
	k := kernel.New(cfg)

	// Pin a page near the top of the unmovable region, then shrink the
	// region past it: the simulated hardware must carry the migration.
	var pages []kernel.Page
	for i := 0; i < 2000; i++ {
		p, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcNetworking)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	var top kernel.Page
	for _, p := range pages {
		if top == (kernel.Page{}) || k.PFN(p) > k.PFN(top) {
			top = p
		}
	}
	for _, p := range pages {
		if p != top {
			k.Free(p)
		}
	}
	if err := k.Pin(top); err != nil {
		t.Fatal(err)
	}
	before := k.Boundary()
	moved := k.ShrinkUnmovable(before)
	if moved == 0 {
		t.Fatal("HW-assisted shrink failed with the simulated mover")
	}
	if sim.Migrated == 0 {
		t.Fatal("the simulated hardware never ran")
	}
	if k.PFN(top) >= k.Boundary() {
		t.Fatal("pinned page not relocated below the new boundary")
	}
}
