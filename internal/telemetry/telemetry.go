// Package telemetry is the simulator's observability substrate: an
// ftrace-style tracepoint ring buffer of packed event records, a typed
// metrics registry (counters, gauges, log-linear latency histograms)
// sampled per tick into ring-buffered time series, and exporters that
// turn both into artifacts — metrics JSONL/CSV, a greppable text
// timeline, and Chrome trace_event JSON that loads in Perfetto.
//
// The design goal is a tracer cheap enough to leave on: the ring is
// fixed-size and allocation-free, one Emit is a handful of stores into a
// preallocated slot, and the disabled path is a single predictable
// branch — Enabled() on a nil *Ring returns false, so instrumented code
// reads
//
//	if tp.Enabled() {
//		tp.Emit(tick, telemetry.EvMigrateComplete, src, dst, cycles)
//	}
//
// and costs nothing measurable when no tracer is attached.
package telemetry

// EventID identifies one tracepoint. The set mirrors the kernel's hot
// paths: allocation, fallback stealing, reclaim, the compaction scanner,
// the migration ladder (start/retry/fallback/defer/fail/complete), the
// hardware mover, TLB shootdowns, and region resizing.
type EventID uint8

const (
	// EvAlloc: a, b, c = pfn, order, migratetype.
	EvAlloc EventID = iota
	// EvAllocFail: a, b, c = order, migratetype, region.
	EvAllocFail
	// EvFree: a, b, c = pfn, order, migratetype.
	EvFree
	// EvFallbackSteal: a, b, c = pfn, converting-delta, polluting-delta.
	EvFallbackSteal
	// EvDirectReclaim: a, b, c = region, want-pages, freed-pages.
	EvDirectReclaim
	// EvKswapd: a, b, c = region, want-pages, freed-pages.
	EvKswapd
	// EvCompactScan: a, b, c = order, blocks-scanned, found-pfn (all-ones
	// when the scanner came up empty).
	EvCompactScan
	// EvCompactSuccess: a, b, c = pfn, order, evacuation-cost-pages.
	EvCompactSuccess
	// EvCompactDefer: a, b, c = order, deferred-until-tick, budget-used.
	EvCompactDefer
	// EvCompactRequeue: a, b, c = pfn, order, queue-length.
	EvCompactRequeue
	// EvMigrateStart: a, b, c = pfn, order, path (0 = software, 1 = hw).
	EvMigrateStart
	// EvMigrateRetry: a, b, c = pfn, attempt, backoff-cycles.
	EvMigrateRetry
	// EvMigrateFallback: a, b, c = pfn, order, 0 (hardware degraded to
	// the software path).
	EvMigrateFallback
	// EvMigrateDefer: a, b, c = pfn, order, 0 (unmovable page parked for
	// a later retry).
	EvMigrateDefer
	// EvMigrateFail: a, b, c = pfn, attempts, path.
	EvMigrateFail
	// EvMigrateComplete: a, b, c = src-pfn, dst-pfn, cycles. The cycles
	// arg renders as the event duration in the Chrome trace.
	EvMigrateComplete
	// EvTLBShootdown: a, b, c = pfn, victims, unavailable-cycles — the
	// software path's synchronous IPI broadcast.
	EvTLBShootdown
	// EvShootdownFree: a, b, c = pfn, victims-avoided, busy-cycles — a
	// hardware migration completing with no IPIs (§3.3).
	EvShootdownFree
	// EvMoverBegin: a, b, c = src-pfn, dst-pfn, order.
	EvMoverBegin
	// EvMoverEnd: a, b, c = src-pfn, busy-cycles, ok (1 = success).
	EvMoverEnd
	// EvResizeEval: a, b, c = psi-unmovable-milli%, psi-movable-milli%,
	// target-boundary-pfn — Algorithm 1's inputs and verdict.
	EvResizeEval
	// EvResizeGrow: a, b, c = old-boundary, new-boundary, moved-pages.
	EvResizeGrow
	// EvResizeShrink: a, b, c = old-boundary, new-boundary, moved-pages.
	EvResizeShrink
	// EvResizeShrinkFail: a, b, c = old-boundary, wanted-boundary, 0.
	EvResizeShrinkFail
	// EvResizeAbort: a, b, c = boundary, 0, 0 (injected fault dropped the
	// resizer's evaluation slot).
	EvResizeAbort
	// EvLivelock: a, b, c = pfn-or-region, stalled-cycles, deadline — the
	// progress watchdog detected a retry loop burning cycles past its
	// deadline and escalated to the fallback/defer path.
	EvLivelock
	// EvCheckpoint: a, b, c = sequence, state-hash, chain-hash — a
	// crash-consistent snapshot of the full simulator state was taken.
	EvCheckpoint
	// EvAllocThrottle: a, b, c = order, round, stall-cycles — one round
	// of the pressure ladder's direct-reclaim throttle.
	EvAllocThrottle
	// EvAllocShed: a, b, c = order, migratetype, gate-psi-milli% — the
	// admission gate refused a new allocation under sustained pressure.
	EvAllocShed
	// EvAdmissionGate: a, b, c = shedding (1 = shut), gate-psi-milli%,
	// ticks-in-previous-state — the gate changed state.
	EvAdmissionGate
	// EvEmergencyShrink: a, b, c = want-pages, moved-pages, new-boundary
	// — the ladder's emergency unmovable-region shrink.
	EvEmergencyShrink
	// EvOOMKill: a, b, c = victim-index, badness, freed-pages — the OOM
	// killer freed a workload pool.
	EvOOMKill
	// EvTHPFallback: a, b, c = want-order, remaining-pages, 0 — a THP
	// allocation fell back to base pages.
	EvTHPFallback
	// EvShardCrash: a, b, c = shard, attempt, reason (0 = error, 1 =
	// panic, 2 = watchdog expiry) — a supervised fleet shard died.
	EvShardCrash
	// EvShardResume: a, b, c = shard, attempt, resumed-from (work units
	// already completed by the checkpoint the attempt restarts from).
	EvShardResume
	// EvShardQuarantine: a, b, c = shard, attempts, done — the supervisor
	// gave up on a shard after exhausting its retry budget.
	EvShardQuarantine
	// EvCacheHit: a, b, c = shard, cache-key, units — a shard's whole
	// result was served from the content-addressed result cache and its
	// simulation was skipped.
	EvCacheHit
	// EvCacheMiss: a, b, c = shard, cache-key, units — no usable cache
	// entry existed; the shard simulated and populated the cache.
	EvCacheMiss
	// EvCacheReject: a, b, c = shard, cache-key, reason (0 = corrupt or
	// tampered, 1 = stale schema) — a cache entry existed but failed
	// verification and was recomputed instead of trusted.
	EvCacheReject
	// EvScrubCorrupt: a, b, c = kind (0 = record, 1 = cell, 3 = result;
	// 2, once a result-cache entry, is retired), cell, digest-low — the
	// integrity scrubber or the merge-time digest check found a stored
	// artifact that failed verification.
	EvScrubCorrupt
	// EvStoreDegraded: a, b, c = consecutive-failures, 0, 0 — the store's
	// write path failed past the retry budget and the daemon entered
	// read-only degraded mode.
	EvStoreDegraded
	// EvStoreHealed: a, b, c = probes-failed, 0, 0 — the store's probe
	// succeeded and the daemon left degraded mode.
	EvStoreHealed

	// NumEvents bounds the ID space.
	NumEvents
)

// Track groups events into the timeline rows the Chrome trace exporter
// renders: one Perfetto track per Track value.
type Track uint8

const (
	TrackAlloc Track = iota
	TrackReclaim
	TrackCompact
	TrackMigrate
	TrackResize
	TrackHW
	TrackRecovery
	TrackPressure
	TrackCache
	TrackStorage
	NumTracks
)

// String names the track (the Perfetto thread name).
func (t Track) String() string {
	switch t {
	case TrackAlloc:
		return "alloc"
	case TrackReclaim:
		return "reclaim"
	case TrackCompact:
		return "compaction"
	case TrackMigrate:
		return "migration"
	case TrackResize:
		return "resize"
	case TrackHW:
		return "hw-mover"
	case TrackRecovery:
		return "recovery"
	case TrackPressure:
		return "pressure"
	case TrackCache:
		return "cache"
	case TrackStorage:
		return "storage"
	}
	return "track?"
}

// EventMeta is the schema of one event id: its stable name, timeline
// track, argument names, and which argument (if any) is a cycle count
// that should render as the event's duration.
type EventMeta struct {
	Name  string
	Track Track
	Args  [3]string // empty string = argument unused
	// DurArg is the index (0..2) of the cycles argument rendered as a
	// duration in the Chrome trace, or -1 for instantaneous events.
	DurArg int
}

// Meta is the event schema, indexed by EventID. Names and argument
// names are stable: the text timeline and the JSON exporters are
// greppable contracts.
var Meta = [NumEvents]EventMeta{
	EvAlloc:            {Name: "alloc", Track: TrackAlloc, Args: [3]string{"pfn", "order", "mt"}, DurArg: -1},
	EvAllocFail:        {Name: "alloc-fail", Track: TrackAlloc, Args: [3]string{"order", "mt", "region"}, DurArg: -1},
	EvFree:             {Name: "free", Track: TrackAlloc, Args: [3]string{"pfn", "order", "mt"}, DurArg: -1},
	EvFallbackSteal:    {Name: "fallback-steal", Track: TrackAlloc, Args: [3]string{"pfn", "converting", "polluting"}, DurArg: -1},
	EvDirectReclaim:    {Name: "direct-reclaim", Track: TrackReclaim, Args: [3]string{"region", "want", "freed"}, DurArg: -1},
	EvKswapd:           {Name: "kswapd", Track: TrackReclaim, Args: [3]string{"region", "want", "freed"}, DurArg: -1},
	EvCompactScan:      {Name: "compact-scan", Track: TrackCompact, Args: [3]string{"order", "scanned", "found"}, DurArg: -1},
	EvCompactSuccess:   {Name: "compact-success", Track: TrackCompact, Args: [3]string{"pfn", "order", "cost"}, DurArg: -1},
	EvCompactDefer:     {Name: "compact-defer", Track: TrackCompact, Args: [3]string{"order", "until", "used"}, DurArg: -1},
	EvCompactRequeue:   {Name: "compact-requeue", Track: TrackCompact, Args: [3]string{"pfn", "order", "queued"}, DurArg: -1},
	EvMigrateStart:     {Name: "migrate-start", Track: TrackMigrate, Args: [3]string{"pfn", "order", "path"}, DurArg: -1},
	EvMigrateRetry:     {Name: "migrate-retry", Track: TrackMigrate, Args: [3]string{"pfn", "attempt", "backoff"}, DurArg: 2},
	EvMigrateFallback:  {Name: "migrate-fallback", Track: TrackMigrate, Args: [3]string{"pfn", "order", ""}, DurArg: -1},
	EvMigrateDefer:     {Name: "migrate-defer", Track: TrackMigrate, Args: [3]string{"pfn", "order", ""}, DurArg: -1},
	EvMigrateFail:      {Name: "migrate-fail", Track: TrackMigrate, Args: [3]string{"pfn", "attempts", "path"}, DurArg: -1},
	EvMigrateComplete:  {Name: "migrate-complete", Track: TrackMigrate, Args: [3]string{"src", "dst", "cycles"}, DurArg: 2},
	EvTLBShootdown:     {Name: "tlb-shootdown", Track: TrackMigrate, Args: [3]string{"pfn", "victims", "cycles"}, DurArg: 2},
	EvShootdownFree:    {Name: "shootdown-free", Track: TrackHW, Args: [3]string{"pfn", "victims_avoided", "cycles"}, DurArg: 2},
	EvMoverBegin:       {Name: "mover-begin", Track: TrackHW, Args: [3]string{"src", "dst", "order"}, DurArg: -1},
	EvMoverEnd:         {Name: "mover-end", Track: TrackHW, Args: [3]string{"src", "busy", "ok"}, DurArg: 1},
	EvResizeEval:       {Name: "resize-eval", Track: TrackResize, Args: [3]string{"psi_unmov_m%", "psi_mov_m%", "target"}, DurArg: -1},
	EvResizeGrow:       {Name: "resize-grow", Track: TrackResize, Args: [3]string{"old", "new", "pages"}, DurArg: -1},
	EvResizeShrink:     {Name: "resize-shrink", Track: TrackResize, Args: [3]string{"old", "new", "pages"}, DurArg: -1},
	EvResizeShrinkFail: {Name: "resize-shrink-fail", Track: TrackResize, Args: [3]string{"old", "wanted", ""}, DurArg: -1},
	EvResizeAbort:      {Name: "resize-abort", Track: TrackResize, Args: [3]string{"boundary", "", ""}, DurArg: -1},
	EvLivelock:         {Name: "livelock", Track: TrackRecovery, Args: [3]string{"pfn", "stalled", "deadline"}, DurArg: 1},
	EvCheckpoint:       {Name: "checkpoint", Track: TrackRecovery, Args: [3]string{"seq", "state_hash", "chain_hash"}, DurArg: -1},
	EvAllocThrottle:    {Name: "alloc-throttle", Track: TrackPressure, Args: [3]string{"order", "round", "stall"}, DurArg: 2},
	EvAllocShed:        {Name: "alloc-shed", Track: TrackPressure, Args: [3]string{"order", "mt", "gate_psi_m%"}, DurArg: -1},
	EvAdmissionGate:    {Name: "admission-gate", Track: TrackPressure, Args: [3]string{"shedding", "gate_psi_m%", "held"}, DurArg: -1},
	EvEmergencyShrink:  {Name: "emergency-shrink", Track: TrackPressure, Args: [3]string{"want", "moved", "boundary"}, DurArg: -1},
	EvOOMKill:          {Name: "oom-kill", Track: TrackPressure, Args: [3]string{"victim", "badness", "freed"}, DurArg: -1},
	EvTHPFallback:      {Name: "thp-fallback", Track: TrackPressure, Args: [3]string{"order", "remaining", ""}, DurArg: -1},
	EvShardCrash:       {Name: "shard-crash", Track: TrackRecovery, Args: [3]string{"shard", "attempt", "reason"}, DurArg: -1},
	EvShardResume:      {Name: "shard-resume", Track: TrackRecovery, Args: [3]string{"shard", "attempt", "resumed_from"}, DurArg: -1},
	EvShardQuarantine:  {Name: "shard-quarantine", Track: TrackRecovery, Args: [3]string{"shard", "attempts", "done"}, DurArg: -1},
	EvCacheHit:         {Name: "cache-hit", Track: TrackCache, Args: [3]string{"shard", "key", "units"}, DurArg: -1},
	EvCacheMiss:        {Name: "cache-miss", Track: TrackCache, Args: [3]string{"shard", "key", "units"}, DurArg: -1},
	EvCacheReject:      {Name: "cache-reject", Track: TrackCache, Args: [3]string{"shard", "key", "reason"}, DurArg: -1},
	EvScrubCorrupt:     {Name: "scrub-corrupt", Track: TrackStorage, Args: [3]string{"kind", "cell", "digest"}, DurArg: -1},
	EvStoreDegraded:    {Name: "store-degraded", Track: TrackStorage, Args: [3]string{"failures", "", ""}, DurArg: -1},
	EvStoreHealed:      {Name: "store-healed", Track: TrackStorage, Args: [3]string{"probes_failed", "", ""}, DurArg: -1},
}

// String returns the event's stable name.
func (id EventID) String() string {
	if id < NumEvents {
		return Meta[id].Name
	}
	return "event?"
}

// Record is one packed trace entry: the tick it happened on, the event
// id, and up to three uint64 arguments whose meaning Meta defines.
type Record struct {
	Tick    uint64
	A, B, C uint64
	ID      EventID
}

// Ring is the fixed-size tracepoint buffer. Writes never allocate and
// never fail: when the buffer is full the oldest record is overwritten,
// exactly like the kernel's ftrace ring in overwrite mode. A nil *Ring
// is the disabled tracer — Enabled() is the guard the hot paths branch
// on.
//
// Ring is not synchronized; the simulator is single-threaded per kernel,
// which is the same contract the rest of the kernel state has.
type Ring struct {
	recs []Record
	mask uint64
	head uint64 // total records ever written
	// sink, when set, receives a copy of every record as it is emitted
	// (see SetSink).
	sink func(Record)
	// Unit documents the Tick field's unit for exporters ("tick" for the
	// kernel's virtual milliseconds, "cycle" for hardware-level rings).
	Unit string
}

// NewRing creates a tracer holding the next power-of-two ≥ capacity
// records (minimum 64).
func NewRing(capacity int) *Ring {
	n := uint64(64)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &Ring{recs: make([]Record, n), mask: n - 1, Unit: "tick"}
}

// Enabled reports whether a tracer is attached. Valid on nil receivers:
// the disabled path is this single branch.
func (r *Ring) Enabled() bool { return r != nil }

// Emit appends one record, overwriting the oldest when full.
func (r *Ring) Emit(tick uint64, id EventID, a, b, c uint64) {
	rec := &r.recs[r.head&r.mask]
	rec.Tick, rec.ID, rec.A, rec.B, rec.C = tick, id, a, b, c
	r.head++
	if r.sink != nil {
		r.sink(*rec)
	}
}

// SetSink attaches a live tap: every subsequent Emit also passes a copy
// of the record to sink, on the emitting goroutine. The sink must never
// block — it sits on the same hot path the ring was designed to keep
// cheap; the obsv event bus satisfies this with non-blocking sends that
// drop on slow subscribers. nil detaches (the default), restoring Emit
// to its store-and-bump fast path plus one predictable nil check.
//
// SetSink follows the Ring's single-writer contract: call it from the
// goroutine that emits, before concurrent readers exist (attach time).
func (r *Ring) SetSink(sink func(Record)) { r.sink = sink }

// Cap returns the buffer capacity in records.
func (r *Ring) Cap() int { return len(r.recs) }

// Len returns the number of records currently retained.
func (r *Ring) Len() int {
	if r.head < uint64(len(r.recs)) {
		return int(r.head)
	}
	return len(r.recs)
}

// Overwritten returns how many records were lost to wraparound.
func (r *Ring) Overwritten() uint64 {
	if r.head < uint64(len(r.recs)) {
		return 0
	}
	return r.head - uint64(len(r.recs))
}

// Snapshot appends the retained records, oldest first, to dst and
// returns it. Pass a reused buffer to keep exports allocation-free.
func (r *Ring) Snapshot(dst []Record) []Record {
	n := uint64(r.Len())
	start := r.head - n
	for i := start; i < r.head; i++ {
		dst = append(dst, r.recs[i&r.mask])
	}
	return dst
}

// Reset drops every record (the buffer is retained).
func (r *Ring) Reset() { r.head = 0 }
