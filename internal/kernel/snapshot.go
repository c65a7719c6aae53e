package kernel

import (
	"fmt"
	"reflect"

	"contiguitas/internal/mem"
	"contiguitas/internal/pressure"
	"contiguitas/internal/psi"
	"contiguitas/internal/seal"
	"contiguitas/internal/stats"
)

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
//   - Rebuilt fresh, not state: page-handle values (page-table rows and
//     generations), memoized errors, scratch buffers, telemetry attachments (ring,
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
	st.Live = make([]PageState, 0, k.pt.n)
	for _, s := range k.pt.heads {
		if s == 0 {
			continue
		}
		p := &k.pt.rows[s]
		st.Live = append(st.Live, PageState{
			PFN: uint64(p.pfn), CacheIdx: p.cacheIdx, Order: p.order,
			MT: p.mt, Src: p.src, Pinned: p.pinned,
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
		pt:               newPageTable(pm.NPages),
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

	// Live handles: fresh rows, serialized contents. The frame table's
	// agreement (order, pin flags, allocated-head status) is proven by
	// CheckInvariants below.
	for _, ps := range st.Live {
		if ps.PFN >= pm.NPages {
			return nil, fmt.Errorf("kernel: restore: live pfn %d out of range", ps.PFN)
		}
		if k.pt.heads[ps.PFN] != 0 {
			return nil, fmt.Errorf("kernel: restore: duplicate live pfn %d", ps.PFN)
		}
		p := k.pt.add(ps.PFN, int(ps.Order), ps.MT, ps.Src)
		r := &k.pt.rows[p.slot]
		r.cacheIdx, r.pinned = ps.CacheIdx, ps.Pinned
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
		if uint64(e) >= pm.NPages {
			return nil, fmt.Errorf("kernel: restore: reclaimable slot %d (pfn %d) out of range", i, e)
		}
		s := k.pt.heads[e]
		if s == 0 || k.pt.rows[s].cacheIdx != int32(i) {
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

// Hash is the canonical state digest: FNV-1a 64 of the state's hashed
// section (see walk), streamed into a digest rather than built. Two
// machines with equal hashes at the same tick are equivalent for every
// serialized structure; the chain hash in the snapshot envelope links
// these per-checkpoint digests into a tamper-evident history.
func (st *State) Hash() uint64 {
	h, w := seal.HashWriter(), seal.HashWriter()
	st.walk(seal.NewEncoder(&h), seal.NewEncoder(&w))
	return h.Sum64()
}

// Encode appends the state's hashed section and then its witness
// section to w, each behind its byte length.
func (st *State) Encode(w *seal.Writer) {
	hashed, witness := st.sections()
	w.Bytes(hashed)
	w.Bytes(witness)
}

// DecodeState reads a state Encode wrote, refusing any bytes Encode
// would not have produced. Errors wrap r's format sentinel.
func DecodeState(r *seal.Reader) (*State, error) {
	hr, wr := r.Section(), r.Section()
	st := new(State)
	st.walk(seal.NewDecoder(hr), seal.NewDecoder(wr))
	if err := hr.Done(); err != nil {
		return nil, fmt.Errorf("kernel state: %w", err)
	}
	if err := wr.Done(); err != nil {
		return nil, fmt.Errorf("kernel state witness: %w", err)
	}
	return st, nil
}

func (st *State) sections() (hashed, witness []byte) {
	var h, w seal.Writer
	st.walk(seal.NewEncoder(&h), seal.NewEncoder(&w))
	return h.Body(), w.Body()
}

// walk is the state's one schema. Fields the hash covers go through h,
// in the order and at the widths the state hash has always digested
// them; stored fields the hash leaves out go through w: the FlIdx
// witness (redundant with the free lists hashed in h) and the presence
// markers of Scan and Pressure, which the hashed section leaves
// implicit.
func (st *State) walk(h, w *seal.Codec) {
	words := func(s []uint64) {
		for i := range s {
			h.U64(&s[i])
		}
	}
	h.U64(&st.MemBytes)
	seal.Uint(h, &st.Mode)
	h.U64(&st.Seed)
	h.Bool(&st.HasHWMover)
	h.U64s(&st.Tick, &st.Boundary, &st.RNGS0, &st.RNGS1, &st.WdMigStall, &st.WdCompactStall)

	c := &st.Counters
	h.U64s(&c.AllocOK, &c.AllocFail, &c.DirectReclaim, &c.KswapdRuns, &c.ReclaimedPages,
		&c.CompactRuns, &c.CompactSuccess, &c.CompactDeferred,
		&c.SWMigrations, &c.SWMigrationCycles, &c.HWMigrations, &c.HWMigrationCycles, &c.PinMigrations,
		&c.MigrationFailures, &c.MigrationRetries, &c.BackoffCycles, &c.SWFallbacks, &c.MigrationDeferred,
		&c.CarveFails, &c.CompactRequeues, &c.ResizeAborts, &c.LivelockTrips,
		&c.Expands, &c.Shrinks, &c.ShrinkFails, &c.BoundaryMovedPages,
		&c.AllocThrottled, &c.ThrottleStallCycles, &c.AllocShed,
		&c.EmergencyShrinks, &c.EmergencyShrinkPages, &c.EmergencyShrinkDeferred,
		&c.OOMKills, &c.OOMKilledPages, &c.THPFallbacks)

	ph := &st.Phys
	h.U64(&ph.NPages)
	seal.Array(h, &ph.Meta, ph.NPages, func(m *uint32) { seal.Uint(h, m) })
	seal.Array(h, &ph.PbMT, ph.NPages/mem.PageblockPages, func(m *uint8) { seal.Uint(h, m) })
	seal.Array(w, &ph.FlIdx, ph.NPages, func(i *int32) { seal.Int(w, i) })

	seal.Slice(h, &st.Regions, func(bs *mem.BuddyState) {
		h.U64s(&bs.Start, &bs.End)
		seal.Uint(h, &bs.Policy)
		h.Bool(&bs.Fallback)
		h.U64s(&bs.FreeTotal, &bs.StealsConverting, &bs.StealsPolluting)
		words(bs.FreeByList[:])
		for o := range bs.Lists {
			for mt := range bs.Lists[o] {
				seal.Slice(h, &bs.Lists[o][mt], h.U64)
			}
		}
	})

	seal.Slice(h, &st.Live, func(p *PageState) {
		// CacheIdx and Order are hashed as their unsigned bit patterns.
		cacheIdx, order := uint32(p.CacheIdx), uint8(p.Order)
		h.U64(&p.PFN)
		seal.Uint(h, &cacheIdx)
		seal.Uint(h, &order)
		seal.Uint(h, &p.MT)
		seal.Uint(h, &p.Src)
		h.Bool(&p.Pinned)
		if h.Decoding() {
			p.CacheIdx, p.Order = int32(cacheIdx), int8(order)
		}
	})

	seal.Slice(h, &st.Reclaimable, func(e *uint32) { seal.Uint(h, e) })
	seal.Int(h, &st.ReclaimHead)
	h.U64(&st.ReclaimablePages)

	seal.Slice(h, &st.Compact, func(cs *CompactRegionState) {
		seal.Int(h, &cs.Region)
		seal.Uint(h, &cs.DeferShift)
		h.U64(&cs.DeferUntil)
		words(cs.Cursors[:])
		seal.Slice(h, &cs.Retry, func(t *CompactTargetState) {
			h.U64(&t.PFN)
			seal.Int(h, &t.Order)
		})
	})

	for i := range st.PSI.Trackers {
		walkTracker(h, &st.PSI.Trackers[i])
	}
	for i := range st.PSI.Pending {
		h.F64(&st.PSI.Pending[i])
	}

	if seal.Opt(w, &st.Scan) {
		s := st.Scan
		h.U64s(&s.TotalPages, &s.FreePages, &s.UnmovableFrames)
		words(s.UnmovableBySource[:])
		// The per-order maps are walked in ScanOrders order, never map
		// order, and decode with exactly the ScanOrders keys.
		maps := []*map[int]uint64{&s.FreeContigPages, &s.UnmovableBlocks, &s.TotalBlocks, &s.PotentialBlocks}
		for _, m := range maps {
			if h.Decoding() {
				*m = make(map[int]uint64, len(mem.ScanOrders))
			}
		}
		for _, o := range mem.ScanOrders {
			for _, m := range maps {
				v := (*m)[o]
				h.U64(&v)
				if h.Decoding() {
					(*m)[o] = v
				}
			}
		}
	}

	h.Bool(&st.HasPressure)
	if seal.Opt(w, &st.Pressure) {
		p := st.Pressure
		h.Bool(&p.Gate.Shedding)
		h.U64(&p.Gate.Since)
		walkTracker(h, &p.GatePSI)
		words(p.Esc.Hits[:])
		words(p.Esc.FirstTick[:])
		seal.Slice(h, &p.OOMHistory, func(kl *pressure.Kill) {
			h.U64(&kl.Tick)
			h.String(&kl.Victim)
			seal.Int(h, &kl.Badness)
			h.U64(&kl.PagesFreed)
		})
	}
}

func walkTracker(c *seal.Codec, t *psi.TrackerState) {
	c.F64(&t.Avg)
	c.F64(&t.Total)
	c.U64(&t.Ticks)
}

// StateHash exports the machine and returns its canonical digest. It is
// O(machine size) — a checkpoint/verification operation, not a hot-path
// one.
func (k *Kernel) StateHash() uint64 { return k.ExportState().Hash() }
