package workload

import (
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/stats"
)

// Fragmenter reproduces the paper's Full-Fragmentation setup: a
// fragmentation process churns the machine before the workload is
// deployed, leaving unmovable kernel residue scattered through the
// address space. The mechanism mirrors how production machines decay:
// memory fills with short-lived pages, holes open everywhere, and
// unmovable allocations (networking buffers, slab growth) land in the
// holes via fallback stealing. On the Linux layout the residue poisons
// nearly every 2 MB block; on Contiguitas it is confined by design.
type Fragmenter struct {
	// PoisonFraction is the fraction of 2 MB pageblocks that receive an
	// unmovable allocation in a freshly punched hole.
	PoisonFraction float64
	Seed           uint64
}

// DefaultFragmenter fully fragments a machine: nearly every pageblock is
// poisoned, so no 2 MB (let alone 1 GB) page can ever be assembled on
// the Linux layout.
func DefaultFragmenter(seed uint64) Fragmenter {
	return Fragmenter{PoisonFraction: 0.98, Seed: seed}
}

// Run executes the fragmentation pass. It returns the unmovable residue
// handles; production kernels would keep such allocations alive
// indefinitely, so callers normally retain (and never free) them.
func (f Fragmenter) Run(k *kernel.Kernel) []kernel.Page {
	rng := stats.NewRNG(f.Seed)
	pm := k.PM()

	// Phase 1: fill the machine with short-lived movable pages, indexed
	// by pageblock so holes can be punched precisely.
	byBlock := make(map[uint64][]kernel.Page)
	var all []kernel.Page
	for {
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		blk := pm.PageblockOf(k.PFN(p))
		byBlock[blk] = append(byBlock[blk], p)
		all = append(all, p)
	}

	// Phase 2: per pageblock, free one movable page and immediately
	// allocate an unmovable one. With memory otherwise full, the buddy
	// hands the freshly freed frame to the unmovable request (a
	// polluting fallback steal on Linux; a confined allocation on
	// Contiguitas).
	var residue []kernel.Page
	for blk := uint64(0); blk < pm.NumPageblocks(); blk++ {
		pages := byBlock[blk]
		if len(pages) == 0 || !rng.Bool(f.PoisonFraction) {
			continue
		}
		victim := pages[rng.Intn(len(pages))]
		if !k.Live(victim) {
			continue
		}
		k.Free(victim)
		src := mem.SrcNetworking
		if rng.Bool(0.25) {
			src = mem.SrcSlab
		}
		p, err := k.Alloc(mem.Order4K, mem.MigrateUnmovable, src)
		if err != nil {
			continue
		}
		residue = append(residue, p)
	}

	// Phase 3: the process exits — its movable memory is freed in
	// random order, leaving scattered free 4 KB holes plus whatever
	// larger runs happen to coalesce. Handles freed in phase 2 are
	// stale now, even where their rows were reused.
	shuffle(rng, all)
	for _, p := range all {
		if k.Live(p) {
			k.Free(p)
		}
	}
	return residue
}

// PartialFragmenter models the paper's Partial-Fragmentation setup: the
// workload itself is run to steady state and restarted, so the machine
// carries that workload's own unmovable residue and hole pattern.
func PartialFragmenter(k *kernel.Kernel, p Profile, warmupTicks uint64, seed uint64) {
	r := NewRunner(k, p, seed)
	r.Run(warmupTicks)
	// Restart: user memory and page cache are released; the unmovable
	// pool persists (kernel state survives a service restart).
	for _, m := range r.mappings {
		k.FreeMapping(m)
	}
	r.mappings = nil
}

func shuffle(rng *stats.RNG, ps []kernel.Page) {
	for i := len(ps) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ps[i], ps[j] = ps[j], ps[i]
	}
}
