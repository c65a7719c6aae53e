// Package kernel simulates the memory-management core of an operating
// system at page-allocator fidelity: GFP-style allocation with
// migratetypes, watermark-driven reclaim, compaction, software page
// migration with TLB-shootdown costs, THP and HugeTLB, and pinning.
//
// It runs in two modes mirroring the paper's comparison:
//
//   - ModeLinux: one zone with Linux-style fallback stealing between
//     migratetypes, which scatters unmovable allocations (§2.5), and
//   - ModeContiguitas: two confined regions (unmovable low, movable
//     high) with a dynamically-resized boundary driven by per-region PSI
//     pressure and Algorithm 1, plus optional Contiguitas-HW assisted
//     migration of unmovable pages (§3).
//
// Time advances in discrete ticks (1 tick ≈ 1 ms of virtual time).
// Workloads drive allocations between ticks; EndTick runs the background
// machinery (kswapd, the resizer).
package kernel

import (
	"errors"
	"fmt"

	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/pressure"
	"contiguitas/internal/psi"
	"contiguitas/internal/resize"
	"contiguitas/internal/stats"
	"contiguitas/internal/telemetry"
)

// Mode selects the memory-management design under simulation.
type Mode uint8

const (
	// ModeLinux is the baseline: one zone, fallback stealing enabled.
	ModeLinux Mode = iota
	// ModeContiguitas confines unmovable allocations to a dedicated,
	// dynamically-resized region.
	ModeContiguitas
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeLinux {
		return "linux"
	}
	return "contiguitas"
}

// Mover relocates a block of physical memory while it remains in use —
// the contract of Contiguitas-HW (§3.3). Implementations report the
// busy cycles the copy engine spent; the page is never unavailable.
// A migration may fail (the engine aborts on conflicting in-flight DMA
// or a full metadata table); the kernel retries with backoff and then
// degrades — software migration for movable pages, defer-and-retry for
// unmovable ones.
type Mover interface {
	// Migrate copies the block of 2^order pages at src to dst and
	// returns the cycles of copy-engine work. On error no page was
	// moved and the kernel's state is unchanged.
	Migrate(src, dst uint64, order int) (uint64, error)
}

// Config parameterises a simulated machine.
type Config struct {
	MemBytes uint64
	Mode     Mode

	// InitialUnmovableBytes sizes the unmovable region at boot
	// (ModeContiguitas). The paper uses 4 GB on 64 GB servers.
	InitialUnmovableBytes uint64
	// MinUnmovableBytes / MaxUnmovableBytes clamp resizing.
	MinUnmovableBytes uint64
	MaxUnmovableBytes uint64

	// WatermarkLow/High are free-memory fractions per region: kswapd
	// wakes below Low and reclaims until High.
	WatermarkLow  float64
	WatermarkHigh float64

	// PSIHalfLifeTicks controls pressure smoothing.
	PSIHalfLifeTicks float64

	// ResizePeriodTicks is how often the resizer thread evaluates
	// Algorithm 1 (0 disables resizing).
	ResizePeriodTicks uint64
	ResizeThresholds  resize.Thresholds
	ResizeCoeff       resize.Coefficients
	// MaxResizeStepBytes bounds the boundary movement per evaluation,
	// keeping resizing off the allocation critical path.
	MaxResizeStepBytes uint64

	// HWMover, when non-nil, provides Contiguitas-HW assisted migration
	// of unmovable pages (enables unmovable-region defragmentation and
	// unconditional shrinking).
	HWMover Mover

	// Victims is the number of remote TLBs a software page migration
	// must shoot down (cores - 1 on the simulated machine).
	Victims int

	// CompactBudgetPerTick bounds how many pages background/THP-path
	// compaction may migrate per tick, modelling kcompactd's rate
	// limiting and deferral (0 = unlimited). Explicit HugeTLB
	// reservations use direct compaction and ignore the budget.
	CompactBudgetPerTick uint64

	// Faults, when non-nil, injects deterministic failures at the
	// kernel's fault points (fault.Point*). The injector's clock is
	// bound to the kernel tick at boot.
	Faults *fault.Injector

	// MigrateRetryLimit is how many times a failed migration (hardware
	// or software) is retried before the kernel degrades (0 = default 3).
	MigrateRetryLimit int
	// MigrateBackoffCycles is the cycle price of the first retry
	// backoff; it doubles per attempt (0 = default 2000).
	MigrateBackoffCycles uint64

	// LivelockCycleDeadline arms the progress watchdog: when the
	// migration retry ladder or the compaction requeue loop burns this
	// many cycles without forward progress, the operation is abandoned
	// with ErrLivelock and escalated to the fallback/defer path
	// (0 = watchdog disabled).
	LivelockCycleDeadline uint64

	// Pressure, when non-nil, enables the memory-exhaustion survival
	// subsystem: the allocation ladder (throttled reclaim, emergency
	// region resize, OOM kill), the PSI-driven admission gate, and the
	// pressure counters/tracepoints. Nil keeps the legacy behaviour —
	// exhaustion fails with plain ErrNoMemory after the standard slow
	// path. Zero fields take pressure.DefaultConfig values.
	Pressure *pressure.Config

	// NoPlacementBias (ablation) disables §3.2's address bias: both
	// Contiguitas regions allocate LIFO instead of keeping long-lived
	// allocations away from the boundary.
	NoPlacementBias bool
	// NoFallbackStealing (ablation) disables Linux's inter-migratetype
	// stealing, isolating its contribution to scatter. Unmovable
	// allocations then fail once their own free lists empty.
	NoFallbackStealing bool

	Seed uint64
}

// DefaultConfig returns the paper's 64 GB production configuration.
func DefaultConfig(mode Mode) Config {
	const gb = 1 << 30
	return Config{
		MemBytes:              64 * gb,
		Mode:                  mode,
		InitialUnmovableBytes: 4 * gb,
		MinUnmovableBytes:     1 * gb,
		MaxUnmovableBytes:     32 * gb,
		WatermarkLow:          0.04,
		WatermarkHigh:         0.08,
		PSIHalfLifeTicks:      1000,
		ResizePeriodTicks:     100,
		ResizeThresholds:      resize.DefaultThresholds,
		ResizeCoeff:           resize.DefaultCoefficients,
		MaxResizeStepBytes:    512 << 20,
		Victims:               7,
		CompactBudgetPerTick:  256,
		Seed:                  1,
	}
}

// Counters aggregates the kernel's observable behaviour.
type Counters struct {
	AllocOK        uint64
	AllocFail      uint64
	DirectReclaim  uint64
	KswapdRuns     uint64
	ReclaimedPages uint64

	CompactRuns     uint64
	CompactSuccess  uint64
	CompactDeferred uint64

	SWMigrations      uint64
	SWMigrationCycles uint64
	HWMigrations      uint64
	HWMigrationCycles uint64
	PinMigrations     uint64

	// Robustness counters: how often migrations failed outright, how
	// many retry attempts ran (and what the backoff cost), how often a
	// failed hardware migration degraded to the software path, and how
	// often an unmovable page's migration was deferred for a later
	// retry instead.
	MigrationFailures uint64
	MigrationRetries  uint64
	BackoffCycles     uint64
	SWFallbacks       uint64
	MigrationDeferred uint64
	// CarveFails counts compaction/resize carves that failed and were
	// skipped; CompactRequeues counts failed compaction targets pushed
	// onto the retry queue; ResizeAborts counts resizer evaluations
	// aborted by an injected fault.
	CarveFails      uint64
	CompactRequeues uint64
	ResizeAborts    uint64
	// LivelockTrips counts progress-watchdog firings: retry loops that
	// burned their cycle deadline without forward progress and were
	// escalated to the fallback/defer path.
	LivelockTrips uint64

	Expands            uint64
	Shrinks            uint64
	ShrinkFails        uint64
	BoundaryMovedPages uint64

	// Pressure-ladder counters (all zero unless Config.Pressure is set,
	// except THPFallbacks which counts in every mode): throttle rounds
	// and their cycle price, admission-gate sheds, emergency
	// unmovable-region shrinks (and ones deferred by an in-flight
	// migration), OOM kills, and THP→4K fallbacks.
	AllocThrottled          uint64
	ThrottleStallCycles     uint64
	AllocShed               uint64
	EmergencyShrinks        uint64
	EmergencyShrinkPages    uint64
	EmergencyShrinkDeferred uint64
	OOMKills                uint64
	OOMKilledPages          uint64
	THPFallbacks            uint64
}

// Kernel is one simulated machine's memory manager.
type Kernel struct {
	cfg Config
	pm  *mem.PhysMem

	// ModeLinux: zone is the single allocator. ModeContiguitas: unmov
	// covers [0, boundary) and mov covers [boundary, NPages).
	zone     *mem.Buddy
	unmov    *mem.Buddy
	mov      *mem.Buddy
	boundary uint64

	psi  *psi.PerRegion
	tick uint64
	rng  *stats.RNG

	// pt is the page table: one row per live allocation, reached from
	// handles by row and from frames by block head, so relocations
	// update holders transparently.
	pt pageTable

	// reclaimable is a FIFO of droppable (page-cache-like) allocations,
	// stored as head PFNs, which reclaim tests for region ownership;
	// consumed or detached entries hold noCacheEntry. reclaimHead is the
	// consume cursor and reclaimablePages tracks the live total.
	reclaimable      []uint32
	reclaimHead      int
	reclaimablePages uint64

	migCost MigrationCostModel

	// compactUsed is this tick's consumed compaction budget;
	// directCompact marks an explicit HugeTLB reservation in progress,
	// which compacts without a budget. compactCursor remembers each
	// region's scanner position per requested order across calls, so
	// scanners resume where they left off instead of restarting (and a
	// 2 MB scan does not reset a 1 GB scan's progress).
	compactUsed   uint64
	directCompact bool
	compactCursor map[*mem.Buddy]*[mem.MaxOrder + 1]uint64
	compactDefer  map[*mem.Buddy]*compactDeferState
	// compactRetry queues compaction targets whose evacuation failed on
	// a skippable event (carve fault); they are retried before the
	// scanner looks for fresh candidates.
	compactRetry map[*mem.Buddy][]compactTarget

	// wdMigStall/wdCompactStall accumulate cycles burned without
	// forward progress in the migration retry ladder and the compaction
	// requeue loop; the progress watchdog compares them against
	// Config.LivelockCycleDeadline (see watchdog.go).
	wdMigStall     uint64
	wdCompactStall uint64

	// promoteSmall/promoteRest are scratch buffers reused across Promote
	// calls (khugepaged runs per mapping per tick).
	promoteSmall []Page
	promoteRest  []Page
	// spareBlocks holds the block lists of freed mappings for reuse:
	// churned and redeployed mappings otherwise allocate one per fill.
	spareBlocks [][]Page

	// bulkPFNs and freeQ are the bounded scratch of the bulk 4 KB paths
	// (bulk.go): one allocation step's PFNs, and the queued buddy frees
	// of each region (0: zone or unmovable, 1: movable). Both are empty
	// between kernel calls. singleCalls is the SetSingleCalls switch.
	bulkPFNs    []uint64
	freeQ       [2][]uint64
	singleCalls bool

	// noMemErr memoizes the per-(order, migratetype) ErrNoMemory values:
	// overcommitted studies fail millions of allocations, and formatting
	// a fresh error per failure dominated their allocation profiles.
	noMemErr [mem.MaxOrder + 1][mem.NumMigrateTypes]error

	// inCacheAlloc is set while Alloc serves an AllocPageCache call.
	inCacheAlloc bool

	// Pressure-survival machinery (nil/zero unless Config.Pressure is
	// set): pcfg is the normalized ladder config, gate the admission
	// state machine fed by gatePSI (a dedicated short-half-life movable
	// tracker), esc the run's ladder-escalation profile, and oomHistory
	// the kill log (bounded, oldest dropped). victims are the registered
	// OOM candidates in registration order — not serialized; owners
	// re-register on restore. migInFlight guards EmergencyShrink against
	// re-entry from a migration callback; it is always zero at the
	// EndTick quiesce boundary. shedErr memoizes the admission-refusal
	// error the way noMemErr memoizes allocation failures.
	pcfg        *pressure.Config
	gate        pressure.Gate
	gatePSI     *psi.Tracker
	esc         pressure.Escalation
	oomHistory  []pressure.Kill
	victims     []OOMVictim
	migInFlight int
	shedErr     error

	// Telemetry (see metrics.go): tp is the tracepoint ring — nil means
	// disabled, and the hot paths guard every Emit with tp.Enabled(), a
	// single predictable branch. reg is the lazily-built metric registry
	// binding the Counters fields; sampler snapshots it each EndTick. The
	// histograms record per-migration latencies once the registry exists.
	tp                                          *telemetry.Ring
	reg                                         *telemetry.Registry
	sampler                                     *telemetry.Sampler
	histSW, histHW, histBackoff, histAllocStall *telemetry.Histogram

	Counters
}

// Validate reports why New would refuse cfg. Its messages name the
// setting, not the package, so callers can prefix their own flag.
func (cfg Config) Validate() error {
	pb := mem.OrderBytes(mem.PageblockOrder)
	unmov := alignPageblock(mem.BytesToPages(cfg.InitialUnmovableBytes))
	switch {
	case cfg.MemBytes == 0:
		return errors.New("zero memory size")
	case cfg.MemBytes%pb != 0:
		return fmt.Errorf("memory size of %d KiB is not a whole number of 2 MiB pageblocks", cfg.MemBytes>>10)
	case cfg.WatermarkHigh < cfg.WatermarkLow:
		// kswapd reclaims high - free pages once free drops below low;
		// with high below low that difference wraps around.
		return fmt.Errorf("high watermark %g below low watermark %g", cfg.WatermarkHigh, cfg.WatermarkLow)
	case cfg.Mode != ModeLinux && cfg.Mode != ModeContiguitas:
		return fmt.Errorf("unknown mode %d", cfg.Mode)
	case cfg.Mode == ModeContiguitas && unmov == 0:
		return fmt.Errorf("needs an unmovable region of at least one 2 MiB pageblock; the initial one is %d KiB",
			cfg.InitialUnmovableBytes>>10)
	case cfg.Mode == ModeContiguitas && unmov >= cfg.MemBytes/mem.PageSize:
		return fmt.Errorf("initial unmovable region of %d MiB leaves no movable region in %d MiB",
			cfg.InitialUnmovableBytes>>20, cfg.MemBytes>>20)
	}
	return nil
}

// New boots a simulated machine. It panics on a config Validate
// refuses.
func New(cfg Config) *Kernel {
	if err := cfg.Validate(); err != nil {
		panic("kernel: " + err.Error())
	}
	pm := mem.NewPhysMem(cfg.MemBytes)
	k := &Kernel{
		cfg:     cfg,
		pm:      pm,
		psi:     psi.NewPerRegion(halfLifeOr(cfg.PSIHalfLifeTicks)),
		rng:     stats.NewRNG(cfg.Seed),
		pt:      newPageTable(pm.NPages),
		migCost: DefaultMigrationCostModel(),
	}
	switch cfg.Mode {
	case ModeLinux:
		k.zone = mem.NewBuddy(pm, 0, pm.NPages, mem.PolicyLIFO, !cfg.NoFallbackStealing, mem.MigrateMovable)
	case ModeContiguitas:
		b := alignPageblock(mem.BytesToPages(cfg.InitialUnmovableBytes))
		k.boundary = b
		unmovPolicy, movPolicy := mem.PolicyLowestPFN, mem.PolicyHighestPFN
		if cfg.NoPlacementBias {
			unmovPolicy, movPolicy = mem.PolicyLIFO, mem.PolicyLIFO
		}
		k.unmov = mem.NewBuddy(pm, 0, b, unmovPolicy, false, mem.MigrateUnmovable)
		k.mov = mem.NewBuddy(pm, b, pm.NPages, movPolicy, false, mem.MigrateMovable)
	}
	if cfg.Faults != nil {
		cfg.Faults.SetClock(func() uint64 { return k.tick })
	}
	if cfg.Pressure != nil {
		k.pcfg = cfg.Pressure.Normalized()
		k.gatePSI = psi.NewTracker(float64(k.pcfg.GateHalfLifeTicks))
	}
	return k
}

// faults returns the configured injector (nil is a valid, inert value).
func (k *Kernel) faults() *fault.Injector { return k.cfg.Faults }

// retryLimit returns the migration retry budget.
func (k *Kernel) retryLimit() int {
	if k.cfg.MigrateRetryLimit > 0 {
		return k.cfg.MigrateRetryLimit
	}
	return 3
}

// backoffCycles prices the backoff before retry number attempt (0-based):
// the base doubles per attempt, modelling exponential backoff.
func (k *Kernel) backoffCycles(attempt int) uint64 {
	base := k.cfg.MigrateBackoffCycles
	if base == 0 {
		base = 2000
	}
	if attempt > 20 {
		attempt = 20
	}
	return base << uint(attempt)
}

func halfLifeOr(h float64) float64 {
	if h <= 0 {
		return 1000
	}
	return h
}

func alignPageblock(pfn uint64) uint64 {
	return pfn &^ (mem.PageblockPages - 1)
}

// PM exposes the frame table for scanners.
func (k *Kernel) PM() *mem.PhysMem { return k.pm }

// Mode returns the kernel's mode.
func (k *Kernel) Mode() Mode { return k.cfg.Mode }

// Config returns the boot configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Tick returns the current virtual time in ticks.
func (k *Kernel) Tick() uint64 { return k.tick }

// Boundary returns the unmovable/movable boundary PFN (ModeContiguitas).
func (k *Kernel) Boundary() uint64 { return k.boundary }

// UnmovableRegionBytes returns the current unmovable-region size.
func (k *Kernel) UnmovableRegionBytes() uint64 {
	if k.cfg.Mode != ModeContiguitas {
		return 0
	}
	return k.boundary * mem.PageSize
}

// PSI exposes the per-region pressure trackers.
func (k *Kernel) PSI() *psi.PerRegion { return k.psi }

// FreePages returns total free frames across regions.
func (k *Kernel) FreePages() uint64 {
	if k.cfg.Mode == ModeLinux {
		return k.zone.FreePages()
	}
	return k.unmov.FreePages() + k.mov.FreePages()
}

// StealStats reports the fallback-stealing counters of the Linux zone.
type StealStats struct {
	Converting uint64 // steals that claimed whole pageblocks
	Polluting  uint64 // steals that mixed types within a pageblock
}

// ZoneSteals returns the zone's steal counters (zero in ModeContiguitas,
// which has no fallback stealing by construction).
func (k *Kernel) ZoneSteals() StealStats {
	if k.zone == nil {
		return StealStats{}
	}
	return StealStats{Converting: k.zone.StealsConverting, Polluting: k.zone.StealsPolluting}
}

// ReclaimablePages returns the frames held by live reclaimable
// (page-cache) allocations.
func (k *Kernel) ReclaimablePages() uint64 { return k.reclaimablePages }

// LiveAllocations returns the number of live allocation handles.
func (k *Kernel) LiveAllocations() int { return k.pt.n }

// buddyFor routes an allocation class to its region.
func (k *Kernel) buddyFor(mt mem.MigrateType) *mem.Buddy {
	if k.cfg.Mode == ModeLinux {
		return k.zone
	}
	if mt == mem.MigrateMovable {
		return k.mov
	}
	return k.unmov
}

func (k *Kernel) regionFor(mt mem.MigrateType) psi.Region {
	if mt == mem.MigrateMovable {
		return psi.RegionMovable
	}
	return psi.RegionUnmovable
}

// String summarises the machine.
func (k *Kernel) String() string {
	return fmt.Sprintf("kernel{%s mem=%dMB free=%d live=%d tick=%d}",
		k.cfg.Mode, k.cfg.MemBytes>>20, k.FreePages(), k.pt.n, k.tick)
}
