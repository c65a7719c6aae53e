package contiguitas_test

import (
	"fmt"
	"testing"

	"contiguitas"
)

func TestPublicAPISmoke(t *testing.T) {
	cfg := contiguitas.DefaultMachineConfig(contiguitas.DesignContiguitas)
	cfg.MemBytes = 256 << 20
	m := contiguitas.NewMachine(cfg)
	r := m.Attach(contiguitas.Web(), 1)
	r.Run(30)
	st := m.Scan()
	if st.FreePages == 0 {
		t.Fatal("scan empty")
	}
	if st.UnmovableBlockFraction(contiguitas.Order2M) <= 0 {
		t.Fatal("no unmovable blocks recorded")
	}
	if r.THPCoverage() <= 0 {
		t.Fatal("no THP coverage")
	}
	r.TearDown()
}

func TestPublicProfiles(t *testing.T) {
	names := map[string]bool{}
	for _, p := range contiguitas.Profiles() {
		names[p.Name] = true
	}
	for _, want := range []string{"Web", "Cache A", "Cache B", "CI"} {
		if !names[want] {
			t.Fatalf("missing profile %q", want)
		}
	}
	if contiguitas.Ads().Name != "Ads" {
		t.Fatal("Ads profile missing")
	}
}

func TestPublicKernelHandles(t *testing.T) {
	cfg := contiguitas.DefaultMachineConfig(contiguitas.DesignContiguitasHW)
	cfg.MemBytes = 128 << 20
	m := contiguitas.NewMachine(cfg)
	p, err := m.K.Alloc(contiguitas.Order4K, contiguitas.MigrateMovable, contiguitas.SrcNetworking)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.Pin(p); err != nil {
		t.Fatal(err)
	}
	if m.K.PFN(p) >= m.K.Boundary() {
		t.Fatal("pin must confine the page")
	}
	m.K.Unpin(p)
	m.K.Free(p)
}

func TestPublicExperimentDrivers(t *testing.T) {
	if len(contiguitas.Fig2()) != 5 {
		t.Fatal("fig2")
	}
	if len(contiguitas.Fig3()) != 9 {
		t.Fatal("fig3")
	}
	if len(contiguitas.Fig13()) != 8 {
		t.Fatal("fig13")
	}
	if g := contiguitas.MemcachedHugePageGain(); g <= 1 {
		t.Fatal("memcached gain")
	}
	if s := contiguitas.Sizing(); s.Entries != 16 {
		t.Fatal("sizing")
	}
}

func ExampleNewMachine() {
	cfg := contiguitas.DefaultMachineConfig(contiguitas.DesignContiguitas)
	cfg.MemBytes = 256 << 20
	cfg.Seed = 1
	m := contiguitas.NewMachine(cfg)

	// Allocate an unmovable slab page: it is confined below the
	// region boundary by construction.
	p, err := m.K.Alloc(contiguitas.Order4K, contiguitas.MigrateUnmovable, contiguitas.SrcSlab)
	if err != nil {
		panic(err)
	}
	fmt.Println("confined:", m.K.PFN(p) < m.K.Boundary())
	// Output: confined: true
}

func ExampleFragmenter() {
	cfg := contiguitas.DefaultMachineConfig(contiguitas.DesignLinux)
	cfg.MemBytes = 128 << 20
	m := contiguitas.NewMachine(cfg)
	contiguitas.DefaultFragmenter(1).Run(m.K)

	// A fully fragmented Linux machine cannot assemble a 2MB page.
	_, err := m.K.Alloc(contiguitas.Order2M, contiguitas.MigrateMovable, contiguitas.SrcUser)
	fmt.Println("huge page allocation failed:", err != nil)
	// Output: huge page allocation failed: true
}
