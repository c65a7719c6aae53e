package workload

import (
	"fmt"

	"contiguitas/internal/kernel"
	"contiguitas/internal/slab"
	"contiguitas/internal/stats"
)

// Checkpoint/restore codec for the workload runner.
//
// The runner's behavior-bearing state is its RNG stream, the exact
// order of its handle pools (churn picks a random index and swaps with
// the last element, so slice order IS future behavior), the slab cache
// occupancy with the object-handle list, and the churn/tick
// accumulators. The profile and the derived source-mix tables are
// configuration, re-created by NewRunner. Handle values do not survive
// a restore; every pool is rehydrated through kernel.PageAt and
// slab.(*Cache).ObjAt from serialized head-PFN coordinates.

// MappingState is one serialized user mapping: its size and the head
// PFNs of its backing blocks in exact slice order.
type MappingState struct {
	Bytes  uint64
	Blocks []uint64
}

// SlabObjState is one live slab object in the runner's churn list.
type SlabObjState struct {
	Cache int
	PFN   uint64
	Slot  int
}

// RunnerState is the serializable state of one workload runner.
type RunnerState struct {
	RNGS0, RNGS1 uint64

	Mappings []MappingState
	// Unmov and Small hold head PFNs in exact pool order.
	Unmov []uint64
	Small []uint64

	UnmovHeld   uint64
	MappingHeld uint64

	// Slab holds one CacheState per manager class, in class order;
	// SlabObjs is the runner's live-object churn list in exact order.
	Slab     []slab.CacheState
	SlabObjs []SlabObjState

	UnmovableAllocFailures uint64
	TicksRun               uint64
	ChurnCarry             float64

	// OOMBackoffUntil holds the per-pool post-kill refill deadlines (nil
	// when the pressure ladder is disabled); OOMKillsTaken counts kills
	// landed on this runner. The victim registrations themselves are not
	// state — NewRunner re-registers in the same fixed order.
	OOMBackoffUntil []uint64
	OOMKillsTaken   uint64
}

// ExportState serializes the runner. Call at the same quiesce boundary
// as kernel.ExportState (between Steps).
func (r *Runner) ExportState() *RunnerState {
	st := &RunnerState{
		UnmovHeld:              r.unmovHeld,
		MappingHeld:            r.mappingHeld,
		UnmovableAllocFailures: r.UnmovableAllocFailures,
		TicksRun:               r.ticksRun,
		ChurnCarry:             r.churnCarry,
		OOMBackoffUntil:        append([]uint64(nil), r.oomBackoffUntil...),
		OOMKillsTaken:          r.OOMKillsTaken,
	}
	st.RNGS0, st.RNGS1 = r.rng.State()
	for _, m := range r.mappings {
		ms := MappingState{Bytes: m.Bytes}
		for _, b := range m.Blocks {
			ms.Blocks = append(ms.Blocks, r.K.PFN(b))
		}
		st.Mappings = append(st.Mappings, ms)
	}
	for _, p := range r.unmov {
		st.Unmov = append(st.Unmov, r.K.PFN(p))
	}
	for _, p := range r.small {
		st.Small = append(st.Small, r.K.PFN(p))
	}
	if r.slabMgr != nil {
		for ci := 0; ci < r.slabMgr.NumCaches(); ci++ {
			st.Slab = append(st.Slab, r.slabMgr.Cache(ci).ExportState())
		}
		for _, so := range r.slabObjs {
			pfn, slot := r.slabMgr.Cache(so.cache).PageOf(so.obj)
			st.SlabObjs = append(st.SlabObjs, SlabObjState{Cache: so.cache, PFN: pfn, Slot: slot})
		}
	}
	return st
}

// RestoreRunner rebuilds a runner over an already-restored kernel. p
// and seed must match the original NewRunner call (seed only seeds the
// stream; the serialized stream state overrides it). Every handle is
// rehydrated from the restored kernel's live table.
func RestoreRunner(k *kernel.Kernel, p Profile, seed uint64, st *RunnerState) (*Runner, error) {
	r := NewRunner(k, p, seed)
	r.rng = stats.NewRNG(seed)
	r.rng.SetState(st.RNGS0, st.RNGS1)
	r.unmovHeld = st.UnmovHeld
	r.mappingHeld = st.MappingHeld
	r.UnmovableAllocFailures = st.UnmovableAllocFailures
	r.ticksRun = st.TicksRun
	r.churnCarry = st.ChurnCarry
	r.OOMKillsTaken = st.OOMKillsTaken
	if st.OOMBackoffUntil != nil {
		if r.oomBackoffUntil == nil {
			return nil, fmt.Errorf("workload: restore: serialized OOM backoff but kernel has no pressure config")
		}
		if len(st.OOMBackoffUntil) != len(r.oomBackoffUntil) {
			return nil, fmt.Errorf("workload: restore: %d OOM backoff slots, runner has %d",
				len(st.OOMBackoffUntil), len(r.oomBackoffUntil))
		}
		copy(r.oomBackoffUntil, st.OOMBackoffUntil)
	}

	page := func(pfn uint64, what string) (kernel.Page, error) {
		h, ok := k.PageAt(pfn)
		if !ok {
			return h, fmt.Errorf("workload: restore: %s handle at pfn %d is not live", what, pfn)
		}
		return h, nil
	}
	for _, ms := range st.Mappings {
		blocks := make([]kernel.Page, 0, len(ms.Blocks))
		for _, pfn := range ms.Blocks {
			b, err := page(pfn, "mapping block")
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, b)
		}
		r.mappings = append(r.mappings, k.RestoreMapping(ms.Bytes, blocks))
	}
	for _, pfn := range st.Unmov {
		h, err := page(pfn, "unmovable pool")
		if err != nil {
			return nil, err
		}
		r.unmov = append(r.unmov, h)
	}
	for _, pfn := range st.Small {
		h, err := page(pfn, "small pool")
		if err != nil {
			return nil, err
		}
		r.small = append(r.small, h)
	}

	if len(st.Slab) > 0 {
		if r.slabMgr == nil {
			return nil, fmt.Errorf("workload: restore: serialized slab state but profile has no slab share")
		}
		if len(st.Slab) != r.slabMgr.NumCaches() {
			return nil, fmt.Errorf("workload: restore: %d slab cache states, manager has %d",
				len(st.Slab), r.slabMgr.NumCaches())
		}
		for ci, cs := range st.Slab {
			err := r.slabMgr.Cache(ci).ImportState(cs, k.PageAt)
			if err != nil {
				return nil, err
			}
		}
		r.slabObjs = make([]slabObj, 0, len(st.SlabObjs))
		for _, os := range st.SlabObjs {
			if os.Cache < 0 || os.Cache >= r.slabMgr.NumCaches() {
				return nil, fmt.Errorf("workload: restore: slab object names cache %d", os.Cache)
			}
			o, err := r.slabMgr.Cache(os.Cache).ObjAt(os.PFN, os.Slot)
			if err != nil {
				return nil, err
			}
			r.slabObjs = append(r.slabObjs, slabObj{obj: o, cache: os.Cache})
		}
		for ci := 0; ci < r.slabMgr.NumCaches(); ci++ {
			r.slabMgr.Cache(ci).EndRestore()
		}
	} else if len(st.SlabObjs) > 0 {
		return nil, fmt.Errorf("workload: restore: slab objects without cache state")
	}
	return r, nil
}
