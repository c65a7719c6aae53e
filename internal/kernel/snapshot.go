package kernel

import (
	"fmt"
	"math"
	"reflect"

	"contiguitas/internal/mem"
	"contiguitas/internal/pressure"
	"contiguitas/internal/psi"
	"contiguitas/internal/seal"
	"contiguitas/internal/stats"
)

// floatBits is the canonical bit pattern a float contributes to the
// state hash.
func floatBits(f float64) uint64 { return math.Float64bits(f) }

// Checkpoint/restore codec for the whole simulated machine.
//
// Quiesce point. A checkpoint is only meaningful at the EndTick
// boundary: migrations are synchronous within a tick (the retry ladder
// runs to completion inside one migrateTo call), so there is no
// in-flight migration to serialize — the ladder is quiesced by
// construction. Compaction, in contrast, keeps cross-tick state (per
// region scanner cursors, deferral backoff, and the retry queue of
// failed targets); that state is serialized explicitly, re-keyed from
// buddy pointers to stable region indices.
//
// Serialized versus re-derived:
//
//   - Serialized: the frame table (meta words, pageblock migratetypes),
//     buddy free lists (LIFO stacks in backing order, PFN-ordered sets
//     ascending), live-allocation records, the
//     reclaimable FIFO (including consumed-slot sentinels and the head
//     cursor — FIFO order is behavior), compaction cursors/defer/retry,
//     PSI tracker state, the RNG streams, counters, and the watchdog
//     stall accumulators.
//   - Re-derived on restore, then proven equivalent to the serialized
//     originals: the free-list index (VerifyFlIdxWitness), the buddy
//     block histograms and free totals (cross-checked inside
//     RestoreBuddy), the covering-order stamps (VerifyCoveringStamps),
//     the contiguity index (rebuilt cold and rescanned, compared against
//     the serialized Scan witness), and the reclaimable FIFO's linkage
//     (each handle's cacheIdx cross-checked against the FIFO slots).
//   - Rebuilt fresh, not state: page-handle identities (the arena),
//     memoized errors, scratch buffers, telemetry attachments (ring,
//     registry, sampler, sink), and the migration cost model. Callers
//     re-attach telemetry after restore; handle holders rehydrate
//     through PageAt.
//
// directCompact is not serialized: it is true only inside an explicit
// AllocHugeTLB call, never across the EndTick boundary a checkpoint is
// taken at.

// PageState is one serialized live allocation.
type PageState struct {
	PFN      uint64
	CacheIdx int32
	Order    int8
	MT       mem.MigrateType
	Src      mem.Source
	Pinned   bool
}

// CompactTargetState is one queued compaction retry target.
type CompactTargetState struct {
	PFN   uint64
	Order int
}

// CompactRegionState is one region's cross-tick compaction machinery.
// Region is the index into the kernel's region list (ModeLinux: 0 =
// zone; ModeContiguitas: 0 = unmovable, 1 = movable).
type CompactRegionState struct {
	Region     int
	Cursors    [mem.MaxOrder + 1]uint64
	DeferShift uint
	DeferUntil uint64
	Retry      []CompactTargetState
}

// State is the serializable state of one simulated machine, sufficient
// to rebuild a kernel that continues the run bit-for-bit.
type State struct {
	// Machine fingerprint: restore refuses a config that disagrees.
	MemBytes   uint64
	Mode       uint8
	Seed       uint64
	HasHWMover bool

	Tick         uint64
	Boundary     uint64
	RNGS0, RNGS1 uint64
	Counters     Counters

	WdMigStall     uint64
	WdCompactStall uint64

	Phys mem.PhysMemState
	// Regions holds the buddy states in region-list order (ModeLinux:
	// [zone]; ModeContiguitas: [unmovable, movable]).
	Regions []mem.BuddyState

	// Live lists every allocation handle in ascending PFN order.
	Live []PageState

	Reclaimable      []uint32
	ReclaimHead      int
	ReclaimablePages uint64

	Compact []CompactRegionState

	PSI psi.PerRegionState

	// Scan is the pre-checkpoint contiguity scan, kept as the
	// equivalence witness the restored (rebuilt-cold) index is proven
	// against.
	Scan *mem.ContiguityStats

	// HasPressure is part of the machine fingerprint: a snapshot taken
	// with the pressure ladder enabled must be restored with it enabled
	// (and vice versa), or the continuation would diverge.
	HasPressure bool
	// Pressure is the ladder's behavior-bearing state (nil when
	// disabled). Registered victims and the migration-in-flight count
	// are not serialized: victims re-register through their owners'
	// constructors, and checkpoints only happen at the EndTick boundary
	// where no migration is in flight.
	Pressure *PressureState
}

// PressureState is the serialized pressure-ladder state.
type PressureState struct {
	Gate       pressure.GateState
	GatePSI    psi.TrackerState
	Esc        pressure.Escalation
	OOMHistory []pressure.Kill
}

// regionBuddies returns the kernel's buddies in stable region order.
func (k *Kernel) regionBuddies() []*mem.Buddy {
	if k.cfg.Mode == ModeLinux {
		return []*mem.Buddy{k.zone}
	}
	return []*mem.Buddy{k.unmov, k.mov}
}

// ExportState serializes the machine. Call it only at the EndTick
// boundary (see the package comment on quiescing).
func (k *Kernel) ExportState() *State {
	st := &State{
		MemBytes:         k.cfg.MemBytes,
		Mode:             uint8(k.cfg.Mode),
		Seed:             k.cfg.Seed,
		HasHWMover:       k.cfg.HWMover != nil,
		Tick:             k.tick,
		Boundary:         k.boundary,
		Counters:         k.Counters,
		WdMigStall:       k.wdMigStall,
		WdCompactStall:   k.wdCompactStall,
		Phys:             k.pm.ExportState(),
		Reclaimable:      append([]uint32(nil), k.reclaimable...),
		ReclaimHead:      k.reclaimHead,
		ReclaimablePages: k.reclaimablePages,
		PSI:              k.psi.State(),
		Scan:             k.pm.Scan(mem.ScanOrders),
	}
	st.RNGS0, st.RNGS1 = k.rng.State()
	if k.pcfg != nil {
		st.HasPressure = true
		st.Pressure = &PressureState{
			Gate:       k.gate.State(),
			GatePSI:    k.gatePSI.State(),
			Esc:        k.esc,
			OOMHistory: append([]pressure.Kill(nil), k.oomHistory...),
		}
	}
	buddies := k.regionBuddies()
	for _, b := range buddies {
		bs := b.ExportState()
		st.Phys.NoteSetPositions(&bs)
		st.Regions = append(st.Regions, bs)
	}
	for pfn := uint64(0); pfn < k.pm.NPages; pfn++ {
		p := k.live.get(pfn)
		if p == nil {
			continue
		}
		st.Live = append(st.Live, PageState{
			PFN: p.PFN, CacheIdx: p.cacheIdx, Order: p.Order,
			MT: p.MT, Src: p.Src, Pinned: p.Pinned,
		})
	}
	for i, b := range buddies {
		cs := CompactRegionState{Region: i}
		if cur := k.compactCursor[b]; cur != nil {
			cs.Cursors = *cur
		}
		if ds := k.compactDefer[b]; ds != nil {
			cs.DeferShift = ds.shift
			cs.DeferUntil = ds.until
		}
		for _, t := range k.compactRetry[b] {
			cs.Retry = append(cs.Retry, CompactTargetState{PFN: t.pfn, Order: t.order})
		}
		st.Compact = append(st.Compact, cs)
	}
	return st
}

// Restore rebuilds a machine from serialized state. cfg must describe
// the same machine the state was exported from (size, mode, seed, HW
// mover presence); ablation flags and cost parameters are taken from
// cfg as configuration. Telemetry is not restored — re-attach the ring,
// sampler, and sink afterwards. The injected fault state travels
// separately (fault.InjectorState); pass the rebuilt injector in
// cfg.Faults and Restore re-binds its clock to the new kernel.
//
// Restore re-derives every derived structure and proves it equivalent
// to the serialized original (see the package comment), then runs
// CheckInvariants before handing the kernel back.
func Restore(cfg Config, st *State) (*Kernel, error) {
	if cfg.MemBytes != st.MemBytes {
		return nil, fmt.Errorf("kernel: restore: config MemBytes %d, snapshot %d", cfg.MemBytes, st.MemBytes)
	}
	if uint8(cfg.Mode) != st.Mode {
		return nil, fmt.Errorf("kernel: restore: config mode %v, snapshot %v", cfg.Mode, Mode(st.Mode))
	}
	if cfg.Seed != st.Seed {
		return nil, fmt.Errorf("kernel: restore: config seed %d, snapshot %d", cfg.Seed, st.Seed)
	}
	if (cfg.HWMover != nil) != st.HasHWMover {
		return nil, fmt.Errorf("kernel: restore: config HW mover %v, snapshot %v", cfg.HWMover != nil, st.HasHWMover)
	}
	if (cfg.Pressure != nil) != st.HasPressure {
		return nil, fmt.Errorf("kernel: restore: config pressure %v, snapshot %v", cfg.Pressure != nil, st.HasPressure)
	}

	pm, err := mem.RestorePhysMem(st.Phys)
	if err != nil {
		return nil, err
	}
	wantRegions := 1
	if cfg.Mode == ModeContiguitas {
		wantRegions = 2
	}
	if len(st.Regions) != wantRegions {
		return nil, fmt.Errorf("kernel: restore: %d regions serialized, mode %v wants %d",
			len(st.Regions), cfg.Mode, wantRegions)
	}
	buddies := make([]*mem.Buddy, len(st.Regions))
	for i, bs := range st.Regions {
		b, err := mem.RestoreBuddy(pm, bs)
		if err != nil {
			return nil, fmt.Errorf("kernel: restore region %d: %w", i, err)
		}
		buddies[i] = b
	}

	k := &Kernel{
		cfg:              cfg,
		pm:               pm,
		boundary:         st.Boundary,
		psi:              psi.NewPerRegion(halfLifeOr(cfg.PSIHalfLifeTicks)),
		tick:             st.Tick,
		rng:              stats.NewRNG(cfg.Seed),
		live:             newLiveTable(pm.NPages),
		migCost:          DefaultMigrationCostModel(),
		reclaimable:      append([]uint32(nil), st.Reclaimable...),
		reclaimHead:      st.ReclaimHead,
		reclaimablePages: st.ReclaimablePages,
		wdMigStall:       st.WdMigStall,
		wdCompactStall:   st.WdCompactStall,
		Counters:         st.Counters,
	}
	k.rng.SetState(st.RNGS0, st.RNGS1)
	k.psi.SetState(st.PSI)
	if cfg.Pressure != nil {
		k.pcfg = cfg.Pressure.Normalized()
		k.gatePSI = psi.NewTracker(float64(k.pcfg.GateHalfLifeTicks))
		if st.Pressure == nil {
			return nil, fmt.Errorf("kernel: restore: HasPressure set but no pressure state serialized")
		}
		k.gate.SetState(st.Pressure.Gate)
		k.gatePSI.SetState(st.Pressure.GatePSI)
		k.esc = st.Pressure.Esc
		k.oomHistory = append([]pressure.Kill(nil), st.Pressure.OOMHistory...)
	}
	if cfg.Mode == ModeLinux {
		k.zone = buddies[0]
	} else {
		k.unmov, k.mov = buddies[0], buddies[1]
		if k.unmov.End() != st.Boundary || k.mov.Start() != st.Boundary {
			return nil, fmt.Errorf("kernel: restore: regions [%d,%d)+[%d,%d) disagree with boundary %d",
				k.unmov.Start(), k.unmov.End(), k.mov.Start(), k.mov.End(), st.Boundary)
		}
	}

	// Live handles: fresh identities, serialized contents. The frame
	// table's agreement (order, pin flags, allocated-head status) is
	// proven by CheckInvariants below.
	for _, ps := range st.Live {
		p := &k.newPages(1)[0]
		*p = Page{PFN: ps.PFN, cacheIdx: ps.CacheIdx, Order: ps.Order,
			MT: ps.MT, Src: ps.Src, Pinned: ps.Pinned}
		if ps.PFN >= pm.NPages {
			return nil, fmt.Errorf("kernel: restore: live pfn %d out of range", ps.PFN)
		}
		if k.live.get(ps.PFN) != nil {
			return nil, fmt.Errorf("kernel: restore: duplicate live pfn %d", ps.PFN)
		}
		k.live.set(ps.PFN, p)
	}

	// Reclaimable FIFO: the serialized slots must agree with the linkage
	// re-derived from the handles' cacheIdx fields — every live slot
	// points at a handle that points back, and no handle claims a slot
	// the FIFO does not record.
	linked := 0
	for i, e := range k.reclaimable {
		if e == noCacheEntry {
			continue
		}
		p := k.live.get(uint64(e))
		if p == nil || p.cacheIdx != int32(i) {
			return nil, fmt.Errorf("kernel: restore: reclaimable slot %d (pfn %d) has no agreeing handle", i, e)
		}
		linked++
	}
	for _, ps := range st.Live {
		if ps.CacheIdx >= 0 {
			linked--
		}
	}
	if linked != 0 {
		return nil, fmt.Errorf("kernel: restore: reclaimable FIFO and handle cacheIdx linkage disagree")
	}

	// Compaction machinery, re-keyed from region indices to the new
	// buddy pointers.
	k.compactCursor = make(map[*mem.Buddy]*[mem.MaxOrder + 1]uint64)
	k.compactDefer = make(map[*mem.Buddy]*compactDeferState)
	k.compactRetry = make(map[*mem.Buddy][]compactTarget)
	for _, cs := range st.Compact {
		if cs.Region < 0 || cs.Region >= len(buddies) {
			return nil, fmt.Errorf("kernel: restore: compact state for region %d of %d", cs.Region, len(buddies))
		}
		b := buddies[cs.Region]
		cur := cs.Cursors
		k.compactCursor[b] = &cur
		k.compactDefer[b] = &compactDeferState{shift: cs.DeferShift, until: cs.DeferUntil}
		for _, t := range cs.Retry {
			k.compactRetry[b] = append(k.compactRetry[b], compactTarget{pfn: t.PFN, order: t.Order})
		}
	}

	if cfg.Faults != nil {
		cfg.Faults.SetClock(func() uint64 { return k.tick })
	}

	// Equivalence proofs over the re-derived structures.
	if err := pm.VerifyFlIdxWitness(st.Phys.FlIdx); err != nil {
		return nil, err
	}
	if err := pm.VerifyCoveringStamps(); err != nil {
		return nil, err
	}
	if st.Scan != nil {
		rescanned := pm.Scan(mem.ScanOrders)
		if !reflect.DeepEqual(rescanned, st.Scan) {
			return nil, fmt.Errorf("kernel: restore: rebuilt contiguity index disagrees with serialized scan witness")
		}
	}
	if err := k.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("kernel: restore: invariants: %w", err)
	}
	return k, nil
}

// PageAt returns the live handle whose block starts at pfn (nil when
// none). Restore callers use it to rehydrate handles they held before
// the checkpoint; handle identity does not survive a restore, contents
// do.
func (k *Kernel) PageAt(pfn uint64) *Page { return k.live.get(pfn) }

// Hash computes the canonical state digest: a 64-bit FNV-1a over every
// serialized field in a fixed order (map-valued scan statistics are
// walked in ScanOrders order, never map order). Two machines with equal
// hashes at the same tick are byte-equivalent for every serialized
// structure; the chain hash in the snapshot envelope links these
// per-checkpoint digests into a tamper-evident history.
func (st *State) Hash() uint64 {
	h := seal.NewDigest()
	w := func(vs ...uint64) { h.Uint64s(vs...) }
	wb := func(v bool) {
		if v {
			w(1)
		} else {
			w(0)
		}
	}

	w(st.MemBytes, uint64(st.Mode), st.Seed)
	wb(st.HasHWMover)
	w(st.Tick, st.Boundary, st.RNGS0, st.RNGS1)
	w(st.WdMigStall, st.WdCompactStall)

	c := &st.Counters
	w(c.AllocOK, c.AllocFail, c.DirectReclaim, c.KswapdRuns, c.ReclaimedPages,
		c.CompactRuns, c.CompactSuccess, c.CompactDeferred,
		c.SWMigrations, c.SWMigrationCycles, c.HWMigrations, c.HWMigrationCycles, c.PinMigrations,
		c.MigrationFailures, c.MigrationRetries, c.BackoffCycles, c.SWFallbacks, c.MigrationDeferred,
		c.CarveFails, c.CompactRequeues, c.ResizeAborts, c.LivelockTrips,
		c.Expands, c.Shrinks, c.ShrinkFails, c.BoundaryMovedPages,
		c.AllocThrottled, c.ThrottleStallCycles, c.AllocShed,
		c.EmergencyShrinks, c.EmergencyShrinkPages, c.EmergencyShrinkDeferred,
		c.OOMKills, c.OOMKilledPages, c.THPFallbacks)

	w(st.Phys.NPages)
	for _, m := range st.Phys.Meta {
		w(uint64(m))
	}
	for _, m := range st.Phys.PbMT {
		w(uint64(m))
	}
	// FlIdx is a witness over the free lists hashed below; hashing it
	// too would be redundant.

	w(uint64(len(st.Regions)))
	for _, bs := range st.Regions {
		w(bs.Start, bs.End, uint64(bs.Policy))
		wb(bs.Fallback)
		w(bs.FreeTotal, bs.StealsConverting, bs.StealsPolluting)
		for _, f := range bs.FreeByList {
			w(f)
		}
		for o := 0; o <= mem.MaxOrder; o++ {
			for mt := 0; mt < mem.NumMigrateTypes; mt++ {
				l := bs.Lists[o][mt]
				w(uint64(len(l)))
				w(l...)
			}
		}
	}

	w(uint64(len(st.Live)))
	for _, p := range st.Live {
		w(p.PFN, uint64(uint32(p.CacheIdx)), uint64(uint8(p.Order)), uint64(p.MT), uint64(p.Src))
		wb(p.Pinned)
	}

	w(uint64(len(st.Reclaimable)))
	for _, e := range st.Reclaimable {
		w(uint64(e))
	}
	w(uint64(st.ReclaimHead), st.ReclaimablePages)

	w(uint64(len(st.Compact)))
	for _, cs := range st.Compact {
		w(uint64(cs.Region), uint64(cs.DeferShift), cs.DeferUntil)
		for _, cur := range cs.Cursors {
			w(cur)
		}
		w(uint64(len(cs.Retry)))
		for _, t := range cs.Retry {
			w(t.PFN, uint64(t.Order))
		}
	}

	for _, tr := range st.PSI.Trackers {
		w(floatBits(tr.Avg), floatBits(tr.Total), tr.Ticks)
	}
	for _, p := range st.PSI.Pending {
		w(floatBits(p))
	}

	if st.Scan != nil {
		s := st.Scan
		w(s.TotalPages, s.FreePages, s.UnmovableFrames)
		for _, v := range s.UnmovableBySource {
			w(v)
		}
		for _, o := range mem.ScanOrders {
			w(s.FreeContigPages[o], s.UnmovableBlocks[o], s.TotalBlocks[o], s.PotentialBlocks[o])
		}
	}

	wb(st.HasPressure)
	if st.Pressure != nil {
		p := st.Pressure
		wb(p.Gate.Shedding)
		w(p.Gate.Since)
		w(floatBits(p.GatePSI.Avg), floatBits(p.GatePSI.Total), p.GatePSI.Ticks)
		for _, v := range p.Esc.Hits {
			w(v)
		}
		for _, v := range p.Esc.FirstTick {
			w(v)
		}
		w(uint64(len(p.OOMHistory)))
		for _, kl := range p.OOMHistory {
			w(kl.Tick, uint64(len(kl.Victim)))
			h.WriteString(kl.Victim)
			w(uint64(kl.Badness), kl.PagesFreed)
		}
	}
	return h.Sum64()
}

// StateHash exports the machine and returns its canonical digest. It is
// O(machine size) — a checkpoint/verification operation, not a hot-path
// one.
func (k *Kernel) StateHash() uint64 { return k.ExportState().Hash() }
