package kernel

import (
	"testing"
	"testing/quick"

	"contiguitas/internal/mem"
	"contiguitas/internal/stats"
)

// TestQuickAllocFreeConservation drives quick-generated operation
// sequences through a kernel and checks that memory is conserved and
// allocator invariants hold at the end of every sequence.
func TestQuickAllocFreeConservation(t *testing.T) {
	f := func(seed uint64, nOps uint16) bool {
		cfg := testConfig(ModeContiguitas, 64*mb)
		cfg.Seed = seed
		k := New(cfg)
		total := k.FreePages()
		rng := stats.NewRNG(seed)
		var live []Page
		ops := int(nOps%600) + 50
		for i := 0; i < ops; i++ {
			if rng.Bool(0.6) || len(live) == 0 {
				order := rng.Intn(4)
				mt := mem.MigrateMovable
				if rng.Bool(0.3) {
					mt = mem.MigrateUnmovable
				}
				if p, err := k.Alloc(order, mt, mem.SrcOther); err == nil {
					live = append(live, p)
				}
			} else {
				j := rng.Intn(len(live))
				k.Free(live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		var held uint64
		for _, p := range live {
			held += k.Info(p).Pages()
			k.Free(p)
		}
		// Conservation: everything allocated was either freed or held.
		return k.FreePages() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHandleStability: whatever sequence of pins and region
// operations runs, every live handle keeps pointing at an allocated
// block of its recorded order.
func TestQuickHandleStability(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := testConfig(ModeContiguitas, 64*mb)
		cfg.HWMover = NewAnalyticMover()
		cfg.Seed = seed
		k := New(cfg)
		rng := stats.NewRNG(seed ^ 0xabc)
		var live []Page
		for i := 0; i < 400; i++ {
			switch {
			case rng.Bool(0.5) || len(live) == 0:
				if p, err := k.Alloc(rng.Intn(3), mem.MigrateMovable, mem.SrcNetworking); err == nil {
					live = append(live, p)
				}
			case rng.Bool(0.3):
				p := live[rng.Intn(len(live))]
				if !k.Info(p).Pinned {
					k.Pin(p)
				}
			default:
				j := rng.Intn(len(live))
				p := live[j]
				if k.Info(p).Pinned {
					k.Unpin(p)
				}
				k.Free(p)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if i%50 == 49 {
				k.EndTick()
			}
		}
		for _, p := range live {
			if !k.Live(p) || k.PM().BlockOrder(k.Info(p).PFN) != int(k.Info(p).Order) {
				return false
			}
			if k.Info(p).Pinned && k.Info(p).PFN >= k.Boundary() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocUser1GTHP(t *testing.T) {
	cfg := testConfig(ModeContiguitas, 4*gb)
	cfg.InitialUnmovableBytes = 256 * mb
	cfg.MinUnmovableBytes = 64 * mb
	cfg.MaxUnmovableBytes = 1 * gb
	k := New(cfg)
	m, err := k.AllocUserTHP(uint64(2)*gb+10*mb, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.BlockCount(mem.Order1G); n != 2 {
		t.Fatalf("1G blocks = %d, want 2", n)
	}
	if m.Coverage(mem.Order1G) < 0.9 {
		t.Fatalf("1G coverage = %v", m.Coverage(mem.Order1G))
	}
	// The 10MB tail rides on 2MB pages.
	if m.BlockCount(mem.Order2M) != 5 {
		t.Fatalf("2M blocks = %d, want 5", m.BlockCount(mem.Order2M))
	}
	k.FreeMapping(m)
}

func TestAllocUser1GFallsBack(t *testing.T) {
	// On a machine too small for 1GB blocks the ladder falls through to
	// 2MB without failing.
	k := New(testConfig(ModeContiguitas, 256*mb))
	m, err := k.AllocUserTHP(64*mb, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.BlockCount(mem.Order1G) != 0 || m.Coverage(mem.Order2M) != 1 {
		t.Fatalf("fallback wrong: 1G=%d cov2M=%v", m.BlockCount(mem.Order1G), m.Coverage(mem.Order2M))
	}
	k.FreeMapping(m)
}
