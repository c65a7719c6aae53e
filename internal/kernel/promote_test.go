package kernel

import (
	"testing"

	"contiguitas/internal/mem"
	"contiguitas/internal/stats"
)

// promoteFullPass is the khugepaged pass without the early return for
// mappings that cannot collapse: it always partitions Blocks into larger
// blocks then base pages and rewrites the list. It is the reference
// Promote must agree with; it ignores the mapping's counters.
func promoteFullPass(k *Kernel, m *Mapping, maxCollapses int) int {
	var small, rest []Page
	for _, b := range m.Blocks {
		if k.Info(b).Order == mem.Order4K {
			small = append(small, b)
		} else {
			rest = append(rest, b)
		}
	}
	collapses, next := 0, 0
	for len(small)-next >= mem.PageblockPages {
		if maxCollapses > 0 && collapses >= maxCollapses {
			break
		}
		huge, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		for _, p := range small[next : next+mem.PageblockPages] {
			k.SWMigrations++
			cycles := k.migCost.UnavailableCycles(k.cfg.Victims)
			k.SWMigrationCycles += cycles
			if k.histSW != nil {
				k.histSW.Observe(cycles)
			}
			k.Free(p)
		}
		next += mem.PageblockPages
		rest = append(rest, huge)
		collapses++
	}
	m.Blocks = append(append(m.Blocks[:0], rest...), small[next:]...)
	return collapses
}

// promoteRig drives one kernel through a scripted mix of fragmentation,
// THP faults, khugepaged passes and unmaps.
type promoteRig struct {
	k       *Kernel
	rng     *stats.RNG
	maps    []*Mapping
	filler  []Page
	promote func(k *Kernel, m *Mapping, maxCollapses int) int
	passes  int // Promote calls
	skipped int // calls on a partitioned mapping with < 512 base pages
	// reordered counts calls on an interleaved mapping with < 512 base
	// pages: no collapse, but the pass must still partition the list.
	reordered int
	mixed     int // calls on a mapping with both 2 MB and 4 KB blocks
	collapse  int
}

func (r *promoteRig) step(t *testing.T) (op int, collapses int) {
	t.Helper()
	switch op = r.rng.Intn(11); {
	case op < 3:
		// Fragment: scatter unmovable base pages, free some movable ones.
		for i := 0; i < 64; i++ {
			p, err := r.k.Alloc(mem.Order4K, mem.MigrateUnmovable, mem.SrcSlab)
			if err != nil {
				break
			}
			r.filler = append(r.filler, p)
		}
		for i := 0; i < 48 && len(r.filler) > 0; i++ {
			j := r.rng.Intn(len(r.filler))
			if r.k.Live(r.filler[j]) {
				r.k.Free(r.filler[j])
			}
			r.filler[j] = r.filler[len(r.filler)-1]
			r.filler = r.filler[:len(r.filler)-1]
		}
	case op < 6:
		mb := uint64(1+r.rng.Intn(6)) << 20
		if m, err := r.k.AllocUser(mb, r.rng.Intn(4) != 0); err == nil {
			r.maps = append(r.maps, m)
		}
	case op < 9 && len(r.maps) > 0:
		m := r.maps[r.rng.Intn(len(r.maps))]
		if m.byOrder[mem.Order4K] < mem.PageblockPages {
			if m.interleaved {
				r.reordered++
			} else {
				r.skipped++
			}
		}
		if m.BlockCount(mem.Order4K) > 0 && m.BlockCount(mem.Order4K) < len(m.Blocks) {
			r.mixed++
		}
		r.passes++
		collapses = r.promote(r.k, m, r.rng.Intn(3))
		r.collapse += collapses
	case op == 10:
		// Adopt a hand-ordered mapping, as snapshot restore may: a few
		// hundred base pages with huge blocks shuffled among them, so
		// the mapping is interleaved yet has no group to collapse.
		var blocks []Page
		for i := 0; i < 1+r.rng.Intn(2); i++ {
			if p, err := r.k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser); err == nil {
				blocks = append(blocks, p)
			}
		}
		for i := 0; i < 1+r.rng.Intn(300); i++ {
			if p, err := r.k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser); err == nil {
				blocks = append(blocks, p)
			}
		}
		for i := len(blocks) - 1; i > 0; i-- {
			j := r.rng.Intn(i + 1)
			blocks[i], blocks[j] = blocks[j], blocks[i]
		}
		var bytes uint64
		for _, p := range blocks {
			bytes += r.k.Info(p).Pages() * mem.PageSize
		}
		r.maps = append(r.maps, r.k.RestoreMapping(bytes, blocks))
	default:
		if len(r.maps) > 0 {
			i := r.rng.Intn(len(r.maps))
			r.k.FreeMapping(r.maps[i])
			r.maps[i] = r.maps[len(r.maps)-1]
			r.maps = r.maps[:len(r.maps)-1]
		}
	}
	r.k.EndTick()
	return op, collapses
}

// TestPromoteMatchesFullPass drives Promote and the full-partition
// reference through the same script on twin machines holding mixed
// 2 MB/4 KB mappings, and requires identical block order, collapse
// counts, software-migration counters and machine state throughout.
func TestPromoteMatchesFullPass(t *testing.T) {
	for _, mode := range []Mode{ModeLinux, ModeContiguitas} {
		cfg := testConfig(mode, 64*mb)
		fast := &promoteRig{k: New(cfg), rng: stats.NewRNG(3), promote: (*Kernel).Promote}
		ref := &promoteRig{k: New(cfg), rng: stats.NewRNG(3), promote: promoteFullPass}
		for step := 0; step < 1500; step++ {
			opF, cF := fast.step(t)
			opR, cR := ref.step(t)
			if opF != opR || cF != cR {
				t.Fatalf("%v step %d: op %d/%d collapses %d/%d", mode, step, opF, opR, cF, cR)
			}
			if len(fast.maps) != len(ref.maps) {
				t.Fatalf("%v step %d: %d mappings vs %d", mode, step, len(fast.maps), len(ref.maps))
			}
			for i, m := range fast.maps {
				if err := m.CheckCounters(fast.k); err != nil {
					t.Fatalf("%v step %d mapping %d: %v", mode, step, i, err)
				}
				rm := ref.maps[i]
				if len(m.Blocks) != len(rm.Blocks) {
					t.Fatalf("%v step %d mapping %d: %d blocks vs %d", mode, step, i, len(m.Blocks), len(rm.Blocks))
				}
				for j := range m.Blocks {
					if fi, ri := fast.k.Info(m.Blocks[j]), ref.k.Info(rm.Blocks[j]); fi.PFN != ri.PFN || fi.Order != ri.Order {
						t.Fatalf("%v step %d mapping %d block %d: pfn %d order %d vs pfn %d order %d",
							mode, step, i, j, fi.PFN, fi.Order, ri.PFN, ri.Order)
					}
				}
			}
			if fast.k.SWMigrations != ref.k.SWMigrations || fast.k.SWMigrationCycles != ref.k.SWMigrationCycles {
				t.Fatalf("%v step %d: SW migrations %d/%d cycles vs %d/%d", mode, step,
					fast.k.SWMigrations, fast.k.SWMigrationCycles, ref.k.SWMigrations, ref.k.SWMigrationCycles)
			}
			if step%100 == 99 {
				if hf, hr := fast.k.StateHash(), ref.k.StateHash(); hf != hr {
					t.Fatalf("%v step %d: state hash %016x vs %016x", mode, step, hf, hr)
				}
			}
		}
		if fast.collapse == 0 || fast.skipped == 0 || fast.reordered == 0 || fast.mixed == 0 || fast.skipped == fast.passes {
			t.Fatalf("%v: script too tame: %d passes, %d skipped, %d reordered, %d on mixed mappings, %d collapses",
				mode, fast.passes, fast.skipped, fast.reordered, fast.mixed, fast.collapse)
		}
		t.Logf("%v: %d passes, %d skipped, %d reordered, %d on mixed mappings, %d collapses",
			mode, fast.passes, fast.skipped, fast.reordered, fast.mixed, fast.collapse)
	}
}
