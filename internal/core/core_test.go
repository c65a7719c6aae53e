package core

import (
	"testing"

	"contiguitas/internal/hw/contighw"
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/trans"
	"contiguitas/internal/workload"
)

// testExp returns a small, fast experiment scale.
func testExp() ExpConfig {
	return ExpConfig{
		MemBytes:    512 << 20,
		WarmupTicks: 120,
		Seed:        3,
		Max1GPages:  0,
	}
}

func TestDesignString(t *testing.T) {
	if DesignLinux.String() != "Linux" || DesignContiguitas.String() != "Contiguitas" ||
		DesignContiguitasHW.String() != "Contiguitas-HW" {
		t.Fatal("design names")
	}
}

func TestNewMachineDesigns(t *testing.T) {
	for _, d := range []Design{DesignLinux, DesignContiguitas, DesignContiguitasHW} {
		mc := DefaultMachineConfig(d)
		mc.MemBytes = 256 << 20
		m := NewMachine(mc)
		if m.K == nil {
			t.Fatalf("%v: nil kernel", d)
		}
		st := m.Scan()
		if st.FreePages == 0 {
			t.Fatalf("%v: no free memory at boot", d)
		}
	}
}

func TestRunToSteadyState(t *testing.T) {
	mc := DefaultMachineConfig(DesignContiguitas)
	mc.MemBytes = 512 << 20
	m := NewMachine(mc)
	ss, r := m.RunToSteadyState(workload.Web(), 100, 5, 0)
	if ss.Profile != "Web" || ss.Design != DesignContiguitas {
		t.Fatal("labels wrong")
	}
	if ss.THPCoverage <= 0 {
		t.Fatal("no THP coverage measured")
	}
	if ss.UnmovableBlockFrac[mem.Order2M] <= 0 {
		t.Fatal("no unmovable blocks measured")
	}
	if ss.InternalFragFree <= 0 || ss.InternalFragFree >= 1 {
		t.Fatalf("internal fragmentation = %v, want in (0,1)", ss.InternalFragFree)
	}
	if r == nil {
		t.Fatal("runner missing")
	}
}

func TestFig2Shape(t *testing.T) {
	rows := Fig2()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[4].RelCapacity != 8 {
		t.Fatalf("Gen5 capacity = %v", rows[4].RelCapacity)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Coverage4K > rows[i-1].Coverage4K {
			t.Fatal("4K coverage must not grow")
		}
	}
	if rows[4].Coverage1G != 1 {
		t.Fatal("1GB coverage must stay complete")
	}
}

func TestFig3Shape(t *testing.T) {
	rows := Fig3()
	// 4 services x 2 page sizes + Web's 1GB bar.
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]Fig3Row{}
	for _, r := range rows {
		byKey[r.Service+"/"+r.PageSize.String()] = r
	}
	web4k := byKey["Web/4KB"]
	web2m := byKey["Web/2MB"]
	web1g := byKey["Web/1GB"]
	if web4k.DataPct != 14 || web4k.InstrPct != 6 {
		t.Fatalf("Web 4K anchors: %+v", web4k)
	}
	if !(web2m.InstrPct < web4k.InstrPct*0.6) {
		t.Fatal("2MB must roughly halve Web instruction walks")
	}
	if !(web1g.DataPct < web2m.DataPct && web1g.DataPct < 10) {
		t.Fatalf("1GB must cut Web data walks: %v", web1g.DataPct)
	}
}

func TestFig11Separation(t *testing.T) {
	rows := Fig11(testExp())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var linSum, conSum float64
	for _, r := range rows {
		if r.ContiguitasPct >= r.LinuxPct {
			t.Fatalf("%s: Contiguitas %.1f%% not below Linux %.1f%%",
				r.Service, r.ContiguitasPct, r.LinuxPct)
		}
		linSum += r.LinuxPct
		conSum += r.ContiguitasPct
	}
	if linSum/4 < 1.5*(conSum/4) {
		t.Fatalf("averages not separated: linux=%.1f contiguitas=%.1f", linSum/4, conSum/4)
	}
}

func TestFig12ContiguitasDominates(t *testing.T) {
	rows := Fig12(testExp())
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Order == mem.Order2M && r.Contig < r.Linux {
			t.Fatalf("%s@2M: Contiguitas %.1f%% below Linux %.1f%%", r.Service, r.Contig, r.Linux)
		}
	}
}

func TestFig10Ordering(t *testing.T) {
	cfg := testExp()
	cfg.Max1GPages = 0
	rows := Fig10(cfg)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.GainOverFull < 1.0 {
			t.Fatalf("%s: no gain over fully fragmented Linux: %v", r.Service, r.GainOverFull)
		}
		if r.GainOverFull < r.GainOverPartial-1e-9 {
			t.Fatalf("%s: gain over full (%v) below gain over partial (%v)",
				r.Service, r.GainOverFull, r.GainOverPartial)
		}
		if r.THPContiguitas < r.THPLinuxFull {
			t.Fatalf("%s: Contiguitas THP %.2f below fragmented Linux %.2f",
				r.Service, r.THPContiguitas, r.THPLinuxFull)
		}
	}
}

func TestFig13Delegates(t *testing.T) {
	pts := Fig13()
	if len(pts) != 8 {
		t.Fatalf("points = %d", len(pts))
	}
}

func TestMemcachedHugePageGain(t *testing.T) {
	g := MemcachedHugePageGain()
	// Paper: ~7% improvement with 2MB pages.
	if g < 1.04 || g > 1.10 {
		t.Fatalf("memcached 2MB gain = %v, want ~1.07", g)
	}
}

func TestSizingReport(t *testing.T) {
	s := Sizing()
	if s.Entries != 16 {
		t.Fatal("16 entries per slice")
	}
	// One entry already sustains tens of thousands of migrations/sec
	// (paper: "a single entry already provides a very high theoretical
	// number of migrations/second").
	if s.MigrationsPerSecPerEntry < 10000 {
		t.Fatalf("per-entry rate = %v", s.MigrationsPerSecPerEntry)
	}
	if s.Area.AreaMM2() <= 0 {
		t.Fatal("area model missing")
	}
}

func TestSec53Small(t *testing.T) {
	rows := Sec53(400_000)
	// 2 apps x 2 modes x 3 rates.
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Rate == 0 && r.LossPct != 0 {
			t.Fatalf("baseline loss = %v", r.LossPct)
		}
		if r.Requests == 0 {
			t.Fatalf("%s/%v: no requests", r.App, r.Mode)
		}
		if r.Rate > 0 && r.LossPct > 2.0 {
			t.Fatalf("%s/%v@%v: loss %.2f%% too high", r.App, r.Mode, r.Rate, r.LossPct)
		}
	}
	_ = contighw.Noncacheable
}

func TestEndToEndCoverageComposition(t *testing.T) {
	ss := &SteadyState{THPCoverage: 0.8, Huge1GPages: 1}
	tlb := trans.DefaultTLB()
	w := workload.Web().Trans
	walk, cov := ss.EndToEnd(tlb, w, 4<<30)
	if cov.Frac1G <= 0 || cov.Frac2M+cov.Frac1G > 1+1e-9 {
		t.Fatalf("coverage = %+v", cov)
	}
	noHuge := &SteadyState{THPCoverage: 0.8}
	walk2, _ := noHuge.EndToEnd(tlb, w, 4<<30)
	if walk >= walk2 {
		t.Fatal("1GB pages must reduce walk cycles")
	}
}

func TestMigrationCostTable(t *testing.T) {
	tbl := MigrationCostTable(8)
	if len(tbl) != 8 {
		t.Fatal("length")
	}
	for i := 1; i < len(tbl); i++ {
		if tbl[i] <= tbl[i-1] {
			t.Fatal("must grow with victims")
		}
	}
}

// TestParseDesignNames walks every design name the CLIs and the
// campaign service accept, and one they refuse.
func TestParseDesignNames(t *testing.T) {
	for name, want := range map[string]struct {
		design Design
		mode   kernel.Mode
	}{
		"linux":       {DesignLinux, kernel.ModeLinux},
		"contiguitas": {DesignContiguitas, kernel.ModeContiguitas},
	} {
		d, err := ParseDesign(name)
		if err != nil || d != want.design {
			t.Fatalf("%q: got %v, %v; want %v", name, d, err, want.design)
		}
		if d.Mode() != want.mode || d.Mode().String() != name {
			t.Fatalf("%q: mode %v, want %v", name, d.Mode(), want.mode)
		}
	}
	if _, err := ParseDesign("contiguitas-hw"); err == nil {
		t.Fatal(`"contiguitas-hw" accepted: the HW variant is not a selectable design`)
	}
}
