// Package workload generates the allocation behaviour of the paper's
// production services. Each Profile describes a service's steady-state
// memory composition — user anonymous memory (THP-backed), reclaimable
// page cache, and unmovable kernel allocations with the source mix of
// Figure 6 (networking ~73 %, slab ~12 %, filesystems, page tables,
// other) — together with churn rates and pinning behaviour. A Runner
// drives a simulated kernel with that behaviour; the Fragmenter
// reproduces the paper's Full-Fragmentation experimental setup.
package workload

import (
	"fmt"

	"contiguitas/internal/mem"
	"contiguitas/internal/trans"
)

const gb = uint64(1) << 30

// Profile describes one service's memory behaviour as fractions of
// machine memory, so the same profile scales from simulation-sized
// machines to the paper's 64 GB servers.
type Profile struct {
	Name string

	// Steady-state composition, fractions of total machine memory.
	UserFrac      float64 // anonymous memory, THP-eligible
	PageCacheFrac float64 // reclaimable page cache
	UnmovableFrac float64 // unmovable kernel allocations

	// SourceMix weights unmovable allocations by subsystem; indexes are
	// mem.Source values. User and kernel-code entries stay zero.
	SourceMix [mem.NumSources]float64

	// UnmovableChurn is the fraction of the unmovable pool replaced per
	// tick — networking buffers turn over fast, slab slower.
	UnmovableChurn float64
	// PinFraction is the probability a networking allocation is pinned
	// (RDMA / zero-copy), exercising the §3.2 pin-migration path.
	PinFraction float64
	// RedeployPeriodTicks: every period the service restarts —
	// mappings are freed and reallocated (the paper: "this behavior is
	// common in production due to frequent code deployments").
	RedeployPeriodTicks uint64
	// UserChurn is the fraction of user mappings released and
	// re-faulted each tick (arena turnover, fork/exec of helpers).
	UserChurn float64
	// SmallUserFrac carves part of UserFrac into individually allocated
	// and freed 4 KB pages (stacks, small mmaps, COW pages). Their
	// churn punches base-page holes across the address space — the
	// holes fallback stealing then fills with unmovable allocations on
	// the Linux layout (the scatter mechanism of §2.5).
	SmallUserFrac float64
	// SmallChurn is the fraction of the small-page pool replaced per tick.
	SmallChurn float64
	// UnmovBurst and UnmovBurstPeriod modulate unmovable demand
	// sinusoidally: target × (1 ± UnmovBurst). Demand swings force the
	// allocator to repeatedly grow into movable memory and give blocks
	// back — the migratetype ping-pong that strands unmovable residue.
	UnmovBurst       float64
	UnmovBurstPeriod uint64
	// MappingChunkBytes sizes the user mappings (services map memory
	// in large arenas).
	MappingChunkBytes uint64
	// KhugepagedCollapses bounds background huge-page promotion per
	// tick (khugepaged, §2.1): base-page runs in existing mappings are
	// collapsed into 2 MB blocks when contiguity allows.
	KhugepagedCollapses int

	// Trans anchors the translation model for this service (Figure 3).
	Trans trans.Workload
}

// standardMix is the fleet-wide unmovable source mix of Figure 6.
func standardMix() [mem.NumSources]float64 {
	var m [mem.NumSources]float64
	m[mem.SrcNetworking] = 0.73
	m[mem.SrcSlab] = 0.12
	m[mem.SrcFilesystem] = 0.07
	m[mem.SrcPageTable] = 0.04
	m[mem.SrcOther] = 0.04
	return m
}

// Web is one of Meta's largest services: large anonymous heap, heavy
// instruction footprint, benefits from both 2 MB and 1 GB pages.
func Web() Profile {
	return Profile{
		Name:                "Web",
		UserFrac:            0.70,
		PageCacheFrac:       0.06,
		UnmovableFrac:       0.055,
		SourceMix:           standardMix(),
		UnmovableChurn:      0.02,
		UserChurn:           0.02,
		SmallUserFrac:       0.12,
		SmallChurn:          0.03,
		UnmovBurst:          0.30,
		UnmovBurstPeriod:    120,
		PinFraction:         0.10,
		RedeployPeriodTicks: 4000,
		MappingChunkBytes:   64 << 20,
		KhugepagedCollapses: 2,
		Trans: trans.Workload{
			Name:             "Web",
			DataFootprint:    48 * gb,
			InstrFootprint:   512 << 20,
			BaseWalkPctData:  14,
			BaseWalkPctInstr: 6,
			HotTheta:         0.5,
		},
	}
}

// CacheA is the largest in-memory caching service: huge value heap,
// extreme networking-buffer turnover.
func CacheA() Profile {
	mix := standardMix()
	mix[mem.SrcNetworking] = 0.80
	mix[mem.SrcSlab] = 0.09
	mix[mem.SrcFilesystem] = 0.04
	return Profile{
		Name:                "Cache A",
		UserFrac:            0.76,
		PageCacheFrac:       0.03,
		UnmovableFrac:       0.075,
		SourceMix:           mix,
		UnmovableChurn:      0.05,
		UserChurn:           0.03,
		SmallUserFrac:       0.10,
		SmallChurn:          0.05,
		UnmovBurst:          0.40,
		UnmovBurstPeriod:    100,
		PinFraction:         0.20,
		RedeployPeriodTicks: 6000,
		MappingChunkBytes:   128 << 20,
		KhugepagedCollapses: 2,
		Trans: trans.Workload{
			Name:             "Cache A",
			DataFootprint:    52 * gb,
			InstrFootprint:   128 << 20,
			BaseWalkPctData:  10,
			BaseWalkPctInstr: 1.5,
			HotTheta:         0.7,
		},
	}
}

// CacheB is a memcached fork: similar shape to Cache A with a slightly
// smaller heap and lower translation pressure.
func CacheB() Profile {
	mix := standardMix()
	mix[mem.SrcNetworking] = 0.78
	mix[mem.SrcSlab] = 0.07
	return Profile{
		Name:                "Cache B",
		UserFrac:            0.72,
		PageCacheFrac:       0.04,
		UnmovableFrac:       0.06,
		SourceMix:           mix,
		UnmovableChurn:      0.04,
		UserChurn:           0.03,
		SmallUserFrac:       0.10,
		SmallChurn:          0.05,
		UnmovBurst:          0.35,
		UnmovBurstPeriod:    100,
		PinFraction:         0.15,
		RedeployPeriodTicks: 6000,
		MappingChunkBytes:   128 << 20,
		KhugepagedCollapses: 2,
		Trans: trans.Workload{
			Name:             "Cache B",
			DataFootprint:    46 * gb,
			InstrFootprint:   128 << 20,
			BaseWalkPctData:  8,
			BaseWalkPctInstr: 1.2,
			HotTheta:         0.7,
		},
	}
}

// CI is the continuous-integration workload: bursty build/test jobs,
// heavy filesystem and slab pressure, large page cache.
func CI() Profile {
	mix := standardMix()
	mix[mem.SrcNetworking] = 0.40
	mix[mem.SrcSlab] = 0.30
	mix[mem.SrcFilesystem] = 0.20
	mix[mem.SrcPageTable] = 0.06
	mix[mem.SrcOther] = 0.04
	return Profile{
		Name:                "CI",
		UserFrac:            0.45,
		PageCacheFrac:       0.28,
		UnmovableFrac:       0.09,
		SourceMix:           mix,
		UnmovableChurn:      0.08,
		UserChurn:           0.08,
		SmallUserFrac:       0.15,
		SmallChurn:          0.10,
		UnmovBurst:          0.50,
		UnmovBurstPeriod:    80,
		PinFraction:         0.02,
		RedeployPeriodTicks: 1500,
		MappingChunkBytes:   32 << 20,
		KhugepagedCollapses: 1,
		Trans: trans.Workload{
			Name:             "CI",
			DataFootprint:    30 * gb,
			InstrFootprint:   256 << 20,
			BaseWalkPctData:  6,
			BaseWalkPctInstr: 2,
			HotTheta:         0.8,
		},
	}
}

// Ads appears in Figure 3 only (page-walk characterisation).
func Ads() Profile {
	return Profile{
		Name:              "Ads",
		UserFrac:          0.74,
		PageCacheFrac:     0.05,
		UnmovableFrac:     0.05,
		SourceMix:         standardMix(),
		UnmovableChurn:    0.02,
		UserChurn:         0.02,
		SmallUserFrac:     0.12,
		SmallChurn:        0.03,
		UnmovBurst:        0.30,
		UnmovBurstPeriod:  120,
		MappingChunkBytes: 64 << 20,
		Trans: trans.Workload{
			Name:             "Ads",
			DataFootprint:    44 * gb,
			InstrFootprint:   384 << 20,
			BaseWalkPctData:  11,
			BaseWalkPctInstr: 4,
			HotTheta:         0.6,
		},
	}
}

// Profiles returns the Figure 11/12 service set.
func Profiles() []Profile {
	return []Profile{CI(), Web(), CacheA(), CacheB()}
}

// ProfileByName looks up a service profile by the name the CLIs accept
// (web|cachea|cacheb|ci).
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "web":
		return Web(), nil
	case "cachea":
		return CacheA(), nil
	case "cacheb":
		return CacheB(), nil
	case "ci":
		return CI(), nil
	default:
		return Profile{}, fmt.Errorf("unknown profile %q (want web|cachea|cacheb|ci)", name)
	}
}

// sourceOrder returns the block order a given unmovable source
// allocates at: networking rings and slabs use small compound pages,
// everything else base pages.
func sourceOrder(src mem.Source, roll float64) int {
	switch src {
	case mem.SrcNetworking:
		// rx/tx buffers: mostly order-0/1, some order-2 rings.
		switch {
		case roll < 0.6:
			return 0
		case roll < 0.9:
			return 1
		default:
			return 2
		}
	case mem.SrcSlab:
		if roll < 0.7 {
			return 0
		}
		return 1
	default:
		return 0
	}
}
