package kernel

import (
	"contiguitas/internal/psi"
	"contiguitas/internal/telemetry"
)

// Metrics returns the kernel's metric registry, building it on first
// use. This registration table is the single place counter names are
// defined: every Counters field is bound here by pointer, so the hot
// paths keep their plain `k.AllocOK++` increments while exporters,
// samplers, and telemetry.SnapshotRobustness all read through the registry.
// Counters carrying TagRobustness are the failure-handling set the
// chaos machinery snapshots.
func (k *Kernel) Metrics() *telemetry.Registry {
	if k.reg != nil {
		return k.reg
	}
	reg := telemetry.NewRegistry()
	c := &k.Counters
	rob := telemetry.TagRobustness

	reg.BindCounter("alloc_ok", &c.AllocOK)
	reg.BindCounter("alloc_fail", &c.AllocFail, rob)
	reg.BindCounter("direct_reclaim", &c.DirectReclaim)
	reg.BindCounter("kswapd_runs", &c.KswapdRuns)
	reg.BindCounter("reclaimed_pages", &c.ReclaimedPages)

	reg.BindCounter("compact_runs", &c.CompactRuns)
	reg.BindCounter("compact_success", &c.CompactSuccess)
	reg.BindCounter("compact_deferred", &c.CompactDeferred)

	reg.BindCounter("sw_migrations", &c.SWMigrations)
	reg.BindCounter("sw_migration_cycles", &c.SWMigrationCycles)
	reg.BindCounter("hw_migrations", &c.HWMigrations)
	reg.BindCounter("hw_migration_cycles", &c.HWMigrationCycles)
	reg.BindCounter("pin_migrations", &c.PinMigrations)

	reg.BindCounter("migration_failures", &c.MigrationFailures, rob)
	reg.BindCounter("migration_retries", &c.MigrationRetries, rob)
	reg.BindCounter("backoff_cycles", &c.BackoffCycles, rob)
	reg.BindCounter("sw_fallbacks", &c.SWFallbacks, rob)
	reg.BindCounter("migration_deferred", &c.MigrationDeferred, rob)
	reg.BindCounter("carve_fails", &c.CarveFails, rob)
	reg.BindCounter("compact_requeues", &c.CompactRequeues, rob)
	reg.BindCounter("resize_aborts", &c.ResizeAborts, rob)
	reg.BindCounter("livelock_trips", &c.LivelockTrips, rob)

	reg.BindCounter("expands", &c.Expands)
	reg.BindCounter("shrinks", &c.Shrinks)
	reg.BindCounter("shrink_fails", &c.ShrinkFails, rob)
	reg.BindCounter("boundary_moved_pages", &c.BoundaryMovedPages)

	reg.BindCounter("alloc_throttled", &c.AllocThrottled, rob)
	reg.BindCounter("throttle_stall_cycles", &c.ThrottleStallCycles, rob)
	reg.BindCounter("alloc_shed", &c.AllocShed, rob)
	reg.BindCounter("emergency_shrinks", &c.EmergencyShrinks, rob)
	reg.BindCounter("emergency_shrink_pages", &c.EmergencyShrinkPages)
	reg.BindCounter("emergency_shrink_deferred", &c.EmergencyShrinkDeferred, rob)
	reg.BindCounter("oom_kills", &c.OOMKills, rob)
	reg.BindCounter("oom_killed_pages", &c.OOMKilledPages)
	reg.BindCounter("thp_fallbacks", &c.THPFallbacks)

	// Fallback stealing lives in the Linux zone's buddy; ModeContiguitas
	// registers inert counters so the schema is mode-independent.
	if k.zone != nil {
		reg.BindCounter("steals_converting", &k.zone.StealsConverting)
		reg.BindCounter("steals_polluting", &k.zone.StealsPolluting)
	} else {
		reg.NewCounter("steals_converting")
		reg.NewCounter("steals_polluting")
	}

	reg.GaugeFunc("free_pages", func() float64 { return float64(k.FreePages()) })
	reg.GaugeFunc("boundary_pfn", func() float64 { return float64(k.boundary) })
	reg.GaugeFunc("psi_unmovable", func() float64 { return k.psi.Pressure(psi.RegionUnmovable) })
	reg.GaugeFunc("psi_movable", func() float64 { return k.psi.Pressure(psi.RegionMovable) })
	reg.GaugeFunc("reclaimable_pages", func() float64 { return float64(k.reclaimablePages) })
	reg.GaugeFunc("live_allocations", func() float64 { return float64(k.pt.n) })

	// The Fig. 13 latency breakdown: per-migration unavailable (software)
	// or busy (hardware) cycles, and retry-backoff prices.
	k.histSW = reg.NewHistogram("mig_sw_cycles")
	k.histHW = reg.NewHistogram("mig_hw_cycles")
	k.histBackoff = reg.NewHistogram("mig_backoff_cycles")
	// Per-allocation pressure-ladder stall, bounded by the throttle
	// ceiling; the sweep asserts its p99 against the configured cap.
	k.histAllocStall = reg.NewHistogram("alloc_stall_cycles")

	k.reg = reg
	return reg
}

// SetTracer attaches (nil detaches) a tracepoint ring. Attaching also
// builds the registry so the latency histograms start observing.
func (k *Kernel) SetTracer(tp *telemetry.Ring) {
	k.tp = tp
	if tp != nil {
		k.Metrics()
	}
}

// Tracer returns the attached tracepoint ring (nil when disabled).
func (k *Kernel) Tracer() *telemetry.Ring { return k.tp }

// AttachSampler creates, attaches, and returns a per-tick sampler over
// the kernel's registry; EndTick records one row per tick from then on.
func (k *Kernel) AttachSampler(capacity int) *telemetry.Sampler {
	k.sampler = telemetry.NewSampler(k.Metrics(), capacity)
	return k.sampler
}

// Sampler returns the attached sampler (nil when none).
func (k *Kernel) Sampler() *telemetry.Sampler { return k.sampler }
