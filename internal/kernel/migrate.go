package kernel

import (
	"fmt"

	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/telemetry"
)

// Migration-path codes for the EvMigrateStart/Fail "path" argument.
const (
	pathSW uint64 = 0
	pathHW uint64 = 1
)

// MigrationCostModel prices the software page-migration procedure of
// Figure 1: clear PTE, local invalidation, IPI broadcast to every victim
// TLB, per-victim INVLPG handling (a full pipeline flush, measured at
// ~250 cycles on real hardware, §4), acknowledgements, the page copy,
// and the PTE update. The page is unavailable for the whole sequence.
type MigrationCostModel struct {
	PTEClearCycles     uint64 // step 1
	LocalInvlpgCycles  uint64 // step 2
	IPISendCycles      uint64 // step 3, per victim
	VictimInvlpgCycles uint64 // step 4, per victim (pipeline flush)
	AckCycles          uint64 // step 5, per victim
	CopyCyclesPerPage  uint64 // step 6 (≈1300 cycles per 4 KB, §5.3)
	PTEUpdateCycles    uint64 // step 7
}

// DefaultMigrationCostModel matches the paper's measurements: victim
// handling dominated by the 250-cycle INVLPG pipeline flush, a ~1300
// cycle 4 KB copy, and linear scaling in the number of victim TLBs
// (Figure 13: ~2.5 K cycles at one victim to ~8 K cycles at eight).
func DefaultMigrationCostModel() MigrationCostModel {
	return MigrationCostModel{
		PTEClearCycles:     150,
		LocalInvlpgCycles:  250,
		IPISendCycles:      400,
		VictimInvlpgCycles: 250,
		AckCycles:          120,
		CopyCyclesPerPage:  1300,
		PTEUpdateCycles:    150,
	}
}

// UnavailableCycles returns how long a 4 KB page is inaccessible during
// one software migration with the given number of victim TLBs.
func (m MigrationCostModel) UnavailableCycles(victims int) uint64 {
	if victims < 0 {
		victims = 0
	}
	perVictim := m.IPISendCycles + m.VictimInvlpgCycles + m.AckCycles
	return m.PTEClearCycles + m.LocalInvlpgCycles +
		uint64(victims)*perVictim + m.CopyCyclesPerPage + m.PTEUpdateCycles
}

// BlockUnavailableCycles prices migrating a whole block of 2^order pages
// (one shootdown, per-page copies).
func (m MigrationCostModel) BlockUnavailableCycles(victims, order int) uint64 {
	base := m.UnavailableCycles(victims)
	extra := (mem.OrderPages(order) - 1) * m.CopyCyclesPerPage
	return base + extra
}

// softwareMigrateTo copies the allocation in page-table row s onto the
// pre-allocated destination block dst (same order), frees the old
// frames, and rehomes the row — the software path of Figure 1, usable
// only when access to the page can be blocked. A migration aborted
// mid-copy (the page was re-faulted by a racing access; modelled by the
// fault injector) is retried with cycle-priced exponential backoff;
// after the retry budget it fails with ErrMigrationFailed and the
// allocation is untouched. On any error the caller still owns the dst
// block.
func (k *Kernel) softwareMigrateTo(s uint32, dst uint64) error {
	p := &k.pt.rows[s]
	src := uint64(p.pfn)
	if p.pinned {
		return fmt.Errorf("%w: software migration of pfn %d", ErrPagePinned, src)
	}
	// The region boundary must not move while a copy is in flight;
	// EmergencyShrink defers itself while this count is non-zero.
	k.migInFlight++
	defer func() { k.migInFlight-- }()
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvMigrateStart, src, uint64(p.order), pathSW)
	}
	for attempt := 0; k.faults().Should(fault.PointSWMigrate); attempt++ {
		// Each aborted attempt still paid the shootdown and partial copy.
		k.SWMigrationCycles += k.migCost.BlockUnavailableCycles(k.cfg.Victims, int(p.order))
		if attempt >= k.retryLimit() {
			k.MigrationFailures++
			if k.tp.Enabled() {
				k.tp.Emit(k.tick, telemetry.EvMigrateFail, src, uint64(attempt+1), pathSW)
			}
			return fmt.Errorf("%w: pfn %d after %d attempts", ErrMigrationFailed, src, attempt+1)
		}
		k.MigrationRetries++
		backoff := k.backoffCycles(attempt)
		k.BackoffCycles += backoff
		if k.histBackoff != nil {
			k.histBackoff.Observe(backoff)
		}
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvMigrateRetry, src, uint64(attempt+1), backoff)
		}
		if k.noteMigStall(src, backoff) {
			k.MigrationFailures++
			if k.tp.Enabled() {
				k.tp.Emit(k.tick, telemetry.EvMigrateFail, src, uint64(attempt+1), pathSW)
			}
			return k.errLivelock(src)
		}
	}
	k.SWMigrations++
	k.noteMigProgress()
	cycles := k.migCost.BlockUnavailableCycles(k.cfg.Victims, int(p.order))
	k.SWMigrationCycles += cycles
	if k.histSW != nil {
		k.histSW.Observe(cycles)
	}
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvTLBShootdown, src, uint64(k.cfg.Victims), cycles)
		k.tp.Emit(k.tick, telemetry.EvMigrateComplete, src, dst, cycles)
	}
	mustFree(k.owningBuddy(src), src)
	// The destination block was allocated by the caller with matching
	// order; re-stamp source metadata for scanners.
	k.rehome(s, dst)
	return nil
}

// rehome points row s at its new block head, keeping the PFN-keyed
// reclaimable-FIFO entry (if any) in step with the move, and re-stamps
// the frames' source metadata for scanners.
func (k *Kernel) rehome(s uint32, dst uint64) {
	k.pt.move(s, dst)
	p := &k.pt.rows[s]
	if p.cacheIdx >= 0 {
		k.reclaimable[p.cacheIdx] = uint32(dst)
	}
	k.restamp(dst, p)
}

// hwMigrateTo relocates the allocation in row s using Contiguitas-HW:
// the page stays accessible throughout; only copy-engine busy cycles
// accrue. Valid for pinned and unmovable pages — the whole point of the
// hardware (§3.3). Engine aborts are retried with backoff; after the
// retry budget the migration fails with ErrMoverFailed, the allocation
// is untouched, and the caller still owns dst (it degrades or defers).
func (k *Kernel) hwMigrateTo(s uint32, dst uint64) error {
	if k.cfg.HWMover == nil {
		return fmt.Errorf("%w: no Mover attached", ErrMoverFailed)
	}
	k.migInFlight++
	defer func() { k.migInFlight-- }()
	p := &k.pt.rows[s]
	src, order := uint64(p.pfn), int(p.order)
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvMigrateStart, src, uint64(order), pathHW)
	}
	var busy uint64
	for attempt := 0; ; attempt++ {
		var err error
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvMoverBegin, src, dst, uint64(order))
		}
		if k.faults().Should(fault.PointHWMover) {
			err = fmt.Errorf("%w: injected engine abort at pfn %d", ErrMoverFailed, src)
		} else {
			busy, err = k.cfg.HWMover.Migrate(src, dst, order)
			if err != nil {
				err = fmt.Errorf("%w: %v", ErrMoverFailed, err)
			}
		}
		if k.tp.Enabled() {
			okFlag := uint64(1)
			if err != nil {
				okFlag = 0
			}
			k.tp.Emit(k.tick, telemetry.EvMoverEnd, src, busy, okFlag)
		}
		if err == nil {
			break
		}
		if attempt >= k.retryLimit() {
			k.MigrationFailures++
			if k.tp.Enabled() {
				k.tp.Emit(k.tick, telemetry.EvMigrateFail, src, uint64(attempt+1), pathHW)
			}
			return err
		}
		k.MigrationRetries++
		backoff := k.backoffCycles(attempt)
		k.BackoffCycles += backoff
		if k.histBackoff != nil {
			k.histBackoff.Observe(backoff)
		}
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvMigrateRetry, src, uint64(attempt+1), backoff)
		}
		if k.noteMigStall(src, backoff) {
			k.MigrationFailures++
			if k.tp.Enabled() {
				k.tp.Emit(k.tick, telemetry.EvMigrateFail, src, uint64(attempt+1), pathHW)
			}
			return k.errLivelock(src)
		}
	}
	k.HWMigrations++
	k.noteMigProgress()
	k.HWMigrationCycles += busy
	if k.histHW != nil {
		k.histHW.Observe(busy)
	}
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvShootdownFree, src, uint64(k.cfg.Victims), busy)
		k.tp.Emit(k.tick, telemetry.EvMigrateComplete, src, dst, busy)
	}
	wasPinned := k.pt.rows[s].pinned
	if wasPinned {
		k.pm.SetPinned(src, false)
	}
	mustFree(k.owningBuddy(src), src)
	k.rehome(s, dst)
	if wasPinned {
		k.pm.SetPinned(dst, true)
	}
	return nil
}

// migrateTo relocates the allocation in row s onto dst with graceful
// degradation: when the hardware path is available it is preferred (the
// page stays accessible, no shootdown), and an exhausted hardware retry
// budget falls back to software migration when access to the page can
// be blocked (movable, not pinned). Unmovable and pinned pages have no
// software fallback — the caller defers and retries later. On error the
// caller owns dst.
func (k *Kernel) migrateTo(s uint32, dst uint64, allowHW bool) error {
	p := k.pt.rows[s]
	swOK := p.mt == mem.MigrateMovable && !p.pinned
	if allowHW && k.cfg.HWMover != nil {
		err := k.hwMigrateTo(s, dst)
		if err == nil {
			return nil
		}
		if !swOK {
			k.MigrationDeferred++
			if k.tp.Enabled() {
				k.tp.Emit(k.tick, telemetry.EvMigrateDefer, uint64(p.pfn), uint64(p.order), 0)
			}
			return err
		}
		k.SWFallbacks++
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvMigrateFallback, uint64(p.pfn), uint64(p.order), 0)
		}
	} else if !swOK {
		k.MigrationDeferred++
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvMigrateDefer, uint64(p.pfn), uint64(p.order), 0)
		}
		return fmt.Errorf("%w: unmovable pfn %d without hardware assist", ErrMigrationFailed, p.pfn)
	}
	return k.softwareMigrateTo(s, dst)
}

// restamp rewrites per-frame source/migratetype metadata after a move so
// physical scans attribute the block correctly.
func (k *Kernel) restamp(pfn uint64, p *pageRow) {
	pm := k.pm
	if pm.BlockOrder(pfn) != int(p.order) {
		panic(fmt.Sprintf("kernel: restamp order mismatch at %d: block=%d handle=%d",
			pfn, pm.BlockOrder(pfn), p.order))
	}
	pm.Restamp(pfn, int(p.order), p.mt, p.src)
}

// AnalyticMover is a Mover priced by constants derived from the
// event-driven Contiguitas-HW simulation (internal/hw/contighw): per-line
// BusRdX + copy across the sliced LLC. It is the kernel's default stand-in
// when a full hardware simulation is not attached.
type AnalyticMover struct {
	// CyclesPerLine covers BusRdX pairs, the line copy, and Ptr update.
	CyclesPerLine uint64
	// LinesPerPage is 4096/64.
	LinesPerPage uint64
}

// NewAnalyticMover returns a mover calibrated against the event-driven
// Contiguitas-HW simulation (internal/hw/platform.TestSimVsAnalyticMover):
// each line costs two BusRdX rounds plus the LLC write, ~128 cycles of
// copy-engine work. Pipelined across slices this yields the ~2 µs
// wall-clock 4 KB migration the paper reports.
func NewAnalyticMover() *AnalyticMover {
	return &AnalyticMover{CyclesPerLine: 128, LinesPerPage: 64}
}

// Migrate implements Mover. The analytic model never fails.
func (a *AnalyticMover) Migrate(src, dst uint64, order int) (uint64, error) {
	lines := a.LinesPerPage * mem.OrderPages(order)
	return lines * a.CyclesPerLine, nil
}
