package kernel

import (
	"errors"
	"testing"

	"contiguitas/internal/mem"
)

// requireStale checks that every operation refuses a handle whose row
// has moved on.
func requireStale(t *testing.T, k *Kernel, p Page, what string) {
	t.Helper()
	if k.Live(p) {
		t.Fatalf("%s: Live reports a stale handle live", what)
	}
	if err := k.Free(p); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("%s: Free = %v, want ErrStaleHandle", what, err)
	}
	if err := k.Pin(p); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("%s: Pin = %v, want ErrStaleHandle", what, err)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestStaleHandleRefused: a freed handle stays refused after its row is
// reused, once by a block at the same frames (the ABA case) and once by
// a block elsewhere; and a live handle keeps resolving across a
// hardware, a software and a pin migration, each of which moves its
// block to new frames.
func TestStaleHandleRefused(t *testing.T) {
	cfg := testConfig(ModeContiguitas, 64*mb)
	cfg.HWMover = NewAnalyticMover()
	k := New(cfg)
	alloc := func(mt mem.MigrateType) Page {
		t.Helper()
		p, err := k.Alloc(mem.Order4K, mt, mem.SrcUser)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	old := alloc(mem.MigrateMovable)
	pfn := k.PFN(old)
	if err := k.Free(old); err != nil {
		t.Fatal(err)
	}
	requireStale(t, k, old, "freed")
	same := alloc(mem.MigrateMovable)
	if same.slot != old.slot || k.PFN(same) != pfn {
		t.Fatalf("setup: reallocation took row %d pfn %d, want row %d pfn %d", same.slot, k.PFN(same), old.slot, pfn)
	}
	requireStale(t, k, old, "row and frames reused")
	if !k.Live(same) {
		t.Fatal("the reallocated handle is not live")
	}
	if err := k.Free(same); err != nil {
		t.Fatal(err)
	}
	other := alloc(mem.MigrateUnmovable)
	if other.slot != old.slot || k.PFN(other) == pfn {
		t.Fatalf("setup: reallocation took row %d pfn %d, want row %d elsewhere than pfn %d", other.slot, k.PFN(other), old.slot, pfn)
	}
	requireStale(t, k, old, "row reused elsewhere")
	requireStale(t, k, same, "row reused elsewhere")
	if err := k.Free(other); err != nil {
		t.Fatal(err)
	}

	p := alloc(mem.MigrateMovable)
	moves := []struct {
		name string
		move func() error
	}{
		{"hardware migration", func() error {
			dst, _ := k.mov.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
			return k.hwMigrateTo(p.slot, dst)
		}},
		{"software migration", func() error {
			dst, _ := k.mov.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
			return k.softwareMigrateTo(p.slot, dst)
		}},
		{"pin migration", func() error { return k.Pin(p) }},
	}
	for _, m := range moves {
		before := k.PFN(p)
		if err := m.move(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if !k.Live(p) || k.PFN(p) == before {
			t.Fatalf("%s: handle live=%v at pfn %d, was at %d", m.name, k.Live(p), k.PFN(p), before)
		}
		if h, ok := k.PageAt(k.PFN(p)); !ok || h != p {
			t.Fatalf("%s: PageAt(%d) = %v, %v; want the handle", m.name, k.PFN(p), h, ok)
		}
		if _, ok := k.PageAt(before); ok {
			t.Fatalf("%s: the old frames still head a live block", m.name)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
	}
	if info := k.Info(p); !info.Pinned || info.PFN >= k.Boundary() || info.MT != mem.MigrateUnmovable {
		t.Fatalf("after the pin migration: %+v, boundary %d", info, k.Boundary())
	}
	if k.HWMigrations != 1 || k.SWMigrations != 2 || k.PinMigrations != 1 {
		t.Fatalf("migrations: hw %d sw %d pin %d, want 1, 2 (one for the pin), 1", k.HWMigrations, k.SWMigrations, k.PinMigrations)
	}
	k.Unpin(p)
	if err := k.Free(p); err != nil {
		t.Fatal(err)
	}
	requireStale(t, k, p, "freed after migrations")
}
