// The campaign scheduler: bounded admission in front of a worker pool
// that drives each campaign's grid cells through fleet.RunSupervised,
// with per-campaign deadlines, retry with exponential backoff, startup
// recovery, and graceful drain.
//
// State machine (every transition is a durable store Put before the
// action it permits):
//
//	submit:   record{queued} → enqueue → 201
//	worker:   record{running} → run cells → journal each cell →
//	          write result.bin → record{done}
//	failure:  record{failed, error} (deadline, integrity verdict, or
//	          retry budget exhausted)
//	drain:    stop admitting (503), cancel in-flight runs (their shards
//	          checkpoint at the next server boundary), leave records
//	          queued/running on disk, return
//	recover:  running→queued, re-enqueue everything non-terminal
//
// Kill-safety argument, phase by phase: a SIGKILL before the queued Put
// means the client never got an acknowledgement (nothing to lose);
// between Put and completion the record is non-terminal and recovery
// re-runs it, resuming each cell from its fleet manifest (at most one
// shard's current attempt — never a checkpointed server — is redone);
// after result.bin's rename the campaign re-enters only to rewrite
// byte-identical state. The result bytes are fleet.CanonicalBytes per
// cell, so every replay converges on the same merged file.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"contiguitas/internal/fleet"
	"contiguitas/internal/obsv"
	"contiguitas/internal/seal"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/telemetry"
)

// SchedulerConfig wires a Scheduler. Zero values pick the defaults
// noted per field.
type SchedulerConfig struct {
	// Store journals campaigns (required).
	Store Store
	// Workers is the number of campaigns run concurrently (default 2).
	Workers int
	// QueueDepth bounds the admission queue; a submit that would exceed
	// it gets ErrQueueFull (default 8). Recovery re-admissions bypass
	// the bound — they were admitted before the restart.
	QueueDepth int
	// ShardWorkers passes through to fleet.SupervisedConfig.Workers
	// (0 picks that layer's default).
	ShardWorkers int
	// MaxAttempts is the default per-cell retry budget when a spec does
	// not set its own (default 3).
	MaxAttempts int
	// ShardMaxAttempts is the per-shard restart budget inside one cell
	// run (default 64 — generous so that under an injected fault plan
	// quarantine means "stuck", not "unlucky").
	ShardMaxAttempts int
	// BackoffBase/BackoffCap pace campaign-level retries (defaults
	// 100ms / 5s). Shard-level retries inside a run are paced by the
	// supervise layer independently.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// DefaultDeadline bounds campaigns whose spec sets no deadline
	// (0 = unbounded).
	DefaultDeadline time.Duration
	// Board, when set, registers each campaign run for the /campaigns
	// observability endpoints.
	Board *obsv.Board
	// Bus, when set, receives each run's tracepoint stream on /events.
	Bus *obsv.EventBus
	// Faults passes a fault plan into every cell run — the chaos hook
	// the soak tests and CI use to force shard kills and checkpoint
	// write failures under the service.
	Faults fleet.FaultPlan
	// StoreRetries is how many times a failing store write is attempted
	// (with BackoffBase/BackoffCap pacing) before the campaign is failed
	// with ErrStorage and the daemon degrades (default 3).
	StoreRetries int
	// ProbeInterval paces the degraded-mode store probe that decides
	// when storage has recovered (default 2s).
	ProbeInterval time.Duration
}

// Stats is a snapshot of the scheduler's monotonic counters, exposed
// at /api/stats and printed at drain.
type Stats struct {
	Submitted uint64 `json:"submitted"`
	Deduped   uint64 `json:"deduped"`
	Rejected  uint64 `json:"rejected"`
	Recovered uint64 `json:"recovered"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Retried   uint64 `json:"retried"`
	// Storage-plane counters: store write retries, store writes that
	// failed past the retry budget, journaled cells refused by their
	// digest and recomputed, and whether the daemon is currently in
	// read-only degraded mode.
	StoreRetried uint64 `json:"store_retried"`
	StoreErrors  uint64 `json:"store_errors"`
	CellsHealed  uint64 `json:"cells_healed"`
	Degraded     bool   `json:"degraded"`
	// Scrub counters, updated by the integrity scrubber's passes.
	ScrubScanned     uint64 `json:"scrub_scanned"`
	ScrubQuarantined uint64 `json:"scrub_quarantined"`
	ScrubRequeued    uint64 `json:"scrub_requeued"`
}

// Scheduler owns the queue, the worker pool, and the lifecycle of every
// campaign in the store.
type Scheduler struct {
	cfg    SchedulerConfig
	root   context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	pending []string
	stopped bool
	started bool

	draining atomic.Bool
	wg       sync.WaitGroup
	// probeWg tracks the degraded-mode probe loop separately from the
	// worker pool so drain can wait for both without an Add/Wait race.
	probeWg sync.WaitGroup

	stSubmitted atomic.Uint64
	stDeduped   atomic.Uint64
	stRejected  atomic.Uint64
	stRecovered atomic.Uint64
	stCompleted atomic.Uint64
	stFailed    atomic.Uint64
	stRetried   atomic.Uint64

	stStoreRetried atomic.Uint64
	stStoreErrors  atomic.Uint64
	stCellsHealed  atomic.Uint64
	stScrubScanned atomic.Uint64
	stScrubQuar    atomic.Uint64
	stScrubRequeue atomic.Uint64

	// degraded is the read-only mode flag; probeFails counts failed
	// recovery probes for the healed tracepoint.
	degraded   atomic.Bool
	probeFails atomic.Uint64

	// ring carries storage-plane tracepoints (degraded/healed/scrub) to
	// the event bus; ringMu serialises Emit, which is single-writer.
	ring   *telemetry.Ring
	ringMu sync.Mutex

	// Test hooks (package-internal). testKill simulates a SIGKILL at a
	// named phase boundary: when it returns true the campaign run
	// returns immediately, leaving the store exactly as a killed
	// process would. testKilled records that a simulated kill fired so
	// the runner knows not to mark the record failed.
	testKill   func(point, id string) bool
	testKilled atomic.Bool
	// now is swappable for deterministic timestamps in tests.
	now func() time.Time
}

// NewScheduler builds a Scheduler (call Start to launch workers).
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.ShardMaxAttempts <= 0 {
		cfg.ShardMaxAttempts = 64
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 5 * time.Second
	}
	if cfg.StoreRetries <= 0 {
		cfg.StoreRetries = 3
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{cfg: cfg, root: ctx, cancel: cancel, now: time.Now}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Bus != nil {
		s.ring = telemetry.NewRing(256)
		s.ring.SetSink(cfg.Bus.Sink())
	}
	return s
}

// emit publishes a storage-plane tracepoint (no-op without a bus).
func (s *Scheduler) emit(id telemetry.EventID, a, b, c uint64) {
	if s.ring == nil {
		return
	}
	s.ringMu.Lock()
	s.ring.Emit(uint64(s.now().Unix()), id, a, b, c)
	s.ringMu.Unlock()
}

// Recover re-admits every non-terminal campaign found in the store,
// returning how many it queued. Call before Start so recovered work is
// first in line; recovered campaigns bypass the admission bound (they
// were admitted by a previous process lifetime).
func (s *Scheduler) Recover() (int, error) {
	list, err := s.cfg.Store.List()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, c := range list {
		if c.State.Terminal() {
			continue
		}
		if c.State == StateRunning {
			// The worker that owned it is gone; make the observable
			// state truthful before it waits in the queue.
			c.State = StateQueued
			if err := s.cfg.Store.Put(c); err != nil {
				return n, err
			}
		}
		s.mu.Lock()
		s.pending = append(s.pending, c.ID)
		s.cond.Signal()
		s.mu.Unlock()
		s.stRecovered.Add(1)
		n++
	}
	return n, nil
}

// Start launches the worker pool. Idempotent.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain stops admission (new submits get ErrDraining), cancels
// in-flight campaign runs — their shards checkpoint at the next server
// boundary and their records stay non-terminal on disk for the next
// process to resume — and waits for every worker to return. Queued
// campaigns are left queued, not started.
func (s *Scheduler) Drain() {
	s.draining.Store(true)
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	s.probeWg.Wait()
}

// Stats snapshots the counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Submitted:        s.stSubmitted.Load(),
		Deduped:          s.stDeduped.Load(),
		Rejected:         s.stRejected.Load(),
		Recovered:        s.stRecovered.Load(),
		Completed:        s.stCompleted.Load(),
		Failed:           s.stFailed.Load(),
		Retried:          s.stRetried.Load(),
		StoreRetried:     s.stStoreRetried.Load(),
		StoreErrors:      s.stStoreErrors.Load(),
		CellsHealed:      s.stCellsHealed.Load(),
		Degraded:         s.degraded.Load(),
		ScrubScanned:     s.stScrubScanned.Load(),
		ScrubQuarantined: s.stScrubQuar.Load(),
		ScrubRequeued:    s.stScrubRequeue.Load(),
	}
}

// NoteScrub folds one scrub pass's tallies into the scrub_* counters
// served at /api/stats.
func (s *Scheduler) NoteScrub(r *ScrubReport) {
	s.stScrubScanned.Add(uint64(r.Scanned))
	s.stScrubQuar.Add(uint64(len(r.Quarantined)))
	s.stScrubRequeue.Add(uint64(len(r.Requeued)))
}

// Degraded reports whether the daemon is in read-only degraded mode.
func (s *Scheduler) Degraded() bool { return s.degraded.Load() }

// Health returns the /healthz status string: "ok", or "degraded" while
// the store's write path is down and only reads are served.
func (s *Scheduler) Health() string {
	if s.degraded.Load() {
		return "degraded"
	}
	return "ok"
}

// Get returns the record for id.
func (s *Scheduler) Get(id string) (*Campaign, error) { return s.cfg.Store.Get(id) }

// List returns every record.
func (s *Scheduler) List() ([]*Campaign, error) { return s.cfg.Store.List() }

// Result returns the merged result bytes for a done campaign.
func (s *Scheduler) Result(id string) ([]byte, error) {
	c, err := s.cfg.Store.Get(id)
	if err != nil {
		return nil, err
	}
	if c.State != StateDone {
		return nil, fmt.Errorf("%w: campaign %s is %s", ErrNotDone, id, c.State)
	}
	return s.cfg.Store.GetResult(id)
}

// Submit validates and admits a campaign. The bool is true when a new
// campaign was created, false when the idempotency key deduplicated to
// an existing one. The queued record is durable before Submit returns —
// an acknowledged submission survives any kill thereafter.
func (s *Scheduler) Submit(spec Spec, key string) (*Campaign, bool, error) {
	if key == "" {
		return nil, false, ErrNoKey
	}
	if !utf8.ValidString(key) {
		return nil, false, ErrBadKey
	}
	if s.draining.Load() {
		s.stRejected.Add(1)
		return nil, false, ErrDraining
	}
	if s.degraded.Load() {
		// Read-only degraded mode: an admission we cannot journal is an
		// admission we could silently lose — refuse it, loudly.
		s.stRejected.Add(1)
		return nil, false, ErrDegraded
	}
	spec = spec.normalized()
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	fp := fmt.Sprintf("%016x", spec.fingerprint())
	id := CampaignID(key)

	// One critical section covers dedupe-check, admission, journal, and
	// enqueue: two racing submits with the same key must resolve to one
	// record, and the queue bound must count the record we are adding.
	s.mu.Lock()
	defer s.mu.Unlock()
	existing, err := s.cfg.Store.Get(id)
	switch {
	case err == nil:
		if existing.SpecHash != fp {
			return nil, false, fmt.Errorf("%w: key %q", ErrKeyReuse, key)
		}
		s.stDeduped.Add(1)
		return existing, false, nil
	case !errors.Is(err, ErrNotFound):
		return nil, false, err
	}
	if len(s.pending) >= s.cfg.QueueDepth {
		s.stRejected.Add(1)
		return nil, false, fmt.Errorf("%w: %d campaigns queued", ErrQueueFull, len(s.pending))
	}
	c := &Campaign{
		ID:            id,
		Key:           key,
		SpecHash:      fp,
		Spec:          spec,
		State:         StateQueued,
		Cells:         len(spec.Cells()),
		SubmittedUnix: s.now().Unix(),
	}
	if err := s.storeWrite(func() error { return s.cfg.Store.Put(c) }); err != nil {
		s.degrade()
		return nil, false, err
	}
	s.pending = append(s.pending, id)
	s.cond.Signal()
	s.stSubmitted.Add(1)
	return c.clone(), true, nil
}

// Requeue re-admits a stored campaign (the scrub heal path), bypassing
// the admission bound — the campaign was admitted long ago.
func (s *Scheduler) Requeue(id string) {
	s.mu.Lock()
	s.pending = append(s.pending, id)
	s.cond.Signal()
	s.mu.Unlock()
}

// storeWrite runs op with a bounded retry-and-backoff loop so a
// transiently failing store (a chaos window, a hiccuping disk) does not
// fail a campaign. Exhausting the budget returns the last error wrapped
// in ErrStorage — the caller's signal to degrade.
func (s *Scheduler) storeWrite(op func() error) error {
	var err error
	for attempt := 0; attempt < s.cfg.StoreRetries; attempt++ {
		if attempt > 0 {
			s.stStoreRetried.Add(1)
			if serr := sleepCtx(s.root, backoff(s.cfg.BackoffBase, s.cfg.BackoffCap, attempt)); serr != nil {
				break
			}
		}
		if err = op(); err == nil {
			return nil
		}
	}
	s.stStoreErrors.Add(1)
	return fmt.Errorf("%w: %v", ErrStorage, err)
}

// degrade flips the daemon into read-only degraded mode (idempotent)
// and starts the probe loop that lifts it once the store heals.
func (s *Scheduler) degrade() {
	if s.degraded.Swap(true) {
		return
	}
	s.emit(telemetry.EvStoreDegraded, s.stStoreErrors.Load(), 0, 0)
	s.probeWg.Add(1)
	go s.probeLoop()
}

// probeLoop polls Store.Probe until it succeeds, then lifts degraded
// mode. It exits on drain; a daemon that shuts down degraded stays
// degraded into its logs.
func (s *Scheduler) probeLoop() {
	defer s.probeWg.Done()
	for {
		if err := sleepCtx(s.root, s.cfg.ProbeInterval); err != nil {
			return
		}
		if err := s.cfg.Store.Probe(); err != nil {
			s.probeFails.Add(1)
			continue
		}
		s.degraded.Store(false)
		s.emit(telemetry.EvStoreHealed, s.probeFails.Load(), 0, 0)
		return
	}
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.stopped {
			s.cond.Wait()
		}
		if s.stopped {
			// Draining: queued campaigns stay queued for the next
			// process lifetime; do not start new work.
			s.mu.Unlock()
			return
		}
		id := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.runCampaign(id)
	}
}

// kill consults the simulated-SIGKILL test hook.
func (s *Scheduler) kill(point, id string) bool {
	if s.testKill != nil && s.testKill(point, id) {
		s.testKilled.Store(true)
		return true
	}
	return false
}

// interrupted reports whether a run ended because the process is going
// away (drain or simulated kill) rather than because the campaign is
// wrong — in which case the record is left non-terminal for recovery.
func (s *Scheduler) interrupted() bool {
	return s.root.Err() != nil || s.testKilled.Load()
}

// fail marks a campaign terminally failed.
func (s *Scheduler) fail(c *Campaign, reason string) {
	c.State = StateFailed
	// A reason can quote input bytes; keep the record encodable.
	c.Error = strings.ToValidUTF8(reason, "\uFFFD")
	c.FinishedUnix = s.now().Unix()
	_ = s.cfg.Store.Put(c)
	s.stFailed.Add(1)
}

// failStorage marks a campaign failed with a typed storage reason and
// flips the daemon into degraded mode: the store's write path is not
// trustworthy, so new admissions would be acknowledgements we might
// lose. The terminal Put is best-effort — under a dead disk the record
// stays non-terminal on disk and recovery re-runs it once storage
// heals, which is the better outcome anyway.
func (s *Scheduler) failStorage(c *Campaign, reason string) {
	s.fail(c, fmt.Sprintf("%v: %s", ErrStorage, reason))
	s.degrade()
}

// runCampaign drives one campaign end to end. Every durable write is
// ordered so that a kill at any instant leaves a state recovery maps
// forward, never one that fabricates or loses progress.
func (s *Scheduler) runCampaign(id string) {
	c, err := s.cfg.Store.Get(id)
	if err != nil {
		// The record vanished out from under the queue (test teardown,
		// operator surgery); nothing to do.
		return
	}
	if c.State.Terminal() {
		return
	}

	ctx := s.root
	cancel := context.CancelFunc(func() {})
	deadline := s.cfg.DefaultDeadline
	if c.Spec.DeadlineSec > 0 {
		deadline = time.Duration(c.Spec.DeadlineSec) * time.Second
	}
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(s.root, deadline)
	}
	defer cancel()

	if s.kill("before-run", id) {
		return
	}
	c.State = StateRunning
	c.Attempts++
	if err := s.storeWrite(func() error { return s.cfg.Store.Put(c) }); err != nil {
		s.failStorage(c, fmt.Sprintf("journal running state: %v", err))
		return
	}

	cells := c.Spec.Cells()
	if len(c.CellDigests) < len(cells) {
		c.CellDigests = append(c.CellDigests, make([]string, len(cells)-len(c.CellDigests))...)
	}
	var merged bytes.Buffer
	for i, cell := range cells {
		data, done, err := s.cfg.Store.GetCell(id, i)
		if err != nil {
			s.failStorage(c, fmt.Sprintf("read cell %d journal: %v", i, err))
			return
		}
		if done && c.CellDigests[i] != "" && fmt.Sprintf("%016x", seal.Sum64(data)) != c.CellDigests[i] {
			// The journaled bytes no longer match the digest recorded
			// when the cell completed: rot or tamper at rest. Never merge
			// them — drop the entry and recompute the cell.
			s.stCellsHealed.Add(1)
			s.emit(telemetry.EvScrubCorrupt, 1, uint64(i), seal.Sum64(data))
			if err := s.cfg.Store.DropCell(id, i); err != nil {
				s.failStorage(c, fmt.Sprintf("drop corrupt cell %d: %v", i, err))
				return
			}
			done = false
		}
		if !done {
			data, err = s.runCell(ctx, c, i, cell)
			if err != nil {
				if s.interrupted() {
					return // record stays running; recovery resumes it
				}
				if errors.Is(err, context.DeadlineExceeded) {
					s.fail(c, fmt.Sprintf("deadline exceeded after %s in cell %d/%d", deadline, i, len(cells)))
					return
				}
				s.fail(c, fmt.Sprintf("cell %d: %v", i, err))
				return
			}
			if s.kill("before-cell-journal", id) {
				return
			}
			if err := s.storeWrite(func() error { return s.cfg.Store.PutCell(id, i, data) }); err != nil {
				s.failStorage(c, fmt.Sprintf("journal cell %d: %v", i, err))
				return
			}
			c.CellsDone = i + 1
			c.CellDigests[i] = fmt.Sprintf("%016x", seal.Sum64(data))
			// Progress is advisory — the cell file is the truth — but the
			// digest must be durable before the next cell: best effort
			// with retries, never fatal.
			_ = s.storeWrite(func() error { return s.cfg.Store.Put(c) })
		} else {
			c.CellsDone = i + 1
		}
		fmt.Fprintf(&merged, "cell design=%s mem_mib=%d jitter=%g bytes=%d\n",
			cell.Design, cell.MemMiB, cell.Jitter, len(data))
		merged.Write(data)
	}

	if s.kill("before-result", id) {
		return
	}
	if err := s.storeWrite(func() error { return s.cfg.Store.PutResult(id, merged.Bytes()) }); err != nil {
		s.failStorage(c, fmt.Sprintf("write result: %v", err))
		return
	}
	if s.kill("after-result", id) {
		return
	}
	c.State = StateDone
	c.CellsDone = len(cells)
	c.ResultDigest = fmt.Sprintf("%016x", seal.Sum64(merged.Bytes()))
	c.ResultBytes = int64(merged.Len())
	c.FinishedUnix = s.now().Unix()
	if err := s.storeWrite(func() error { return s.cfg.Store.Put(c) }); err == nil {
		s.stCompleted.Add(1)
	} else {
		s.degrade()
	}
}

// runCell runs one grid cell to completion, resuming from fleet
// checkpoints when they exist and retrying with backoff when a run
// comes back incomplete. Errors it returns are classified by the
// caller; integrity verdicts from the checkpoint layer are permanent
// and returned on first sight.
func (s *Scheduler) runCell(ctx context.Context, c *Campaign, idx int, cell Cell) ([]byte, error) {
	fcfg, err := c.Spec.FleetConfig(cell)
	if err != nil {
		return nil, err
	}
	var dir string
	if sd := s.cfg.Store.StateDir(c.ID); sd != "" {
		dir = filepath.Join(sd, fmt.Sprintf("cell-%03d", idx))
	}
	attempts := c.Spec.MaxAttempts
	if attempts <= 0 {
		attempts = s.cfg.MaxAttempts
	}

	var prog fleet.ProgressSink
	if s.cfg.Board != nil {
		prog = s.cfg.Board.Register(fmt.Sprintf("%s/cell-%03d", c.displayName(), idx))
	}
	var ring *telemetry.Ring
	if s.cfg.Bus != nil {
		ring = telemetry.NewRing(1 << 10)
		ring.SetSink(s.cfg.Bus.Sink())
	}

	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			s.stRetried.Add(1)
			if err := sleepCtx(ctx, backoff(s.cfg.BackoffBase, s.cfg.BackoffCap, attempt)); err != nil {
				return nil, err
			}
		}
		resume := false
		if dir != "" {
			if _, err := os.Stat(fleet.ManifestPath(dir)); err == nil {
				resume = true
			}
		}
		res, err := fleet.RunSupervised(ctx, fleet.SupervisedConfig{
			Fleet:       fcfg,
			Workers:     s.cfg.ShardWorkers,
			MaxAttempts: s.cfg.ShardMaxAttempts,
			BackoffBase: s.cfg.BackoffBase / 10,
			BackoffCap:  s.cfg.BackoffCap / 10,
			Heartbeat:   30 * time.Second,
			Dir:         dir,
			Resume:      resume,
			Faults:      s.cfg.Faults,
			Progress:    prog,
			Trace:       ring,
		})
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if err != nil {
			if permanent(err) {
				return nil, err
			}
			continue // transient: backoff and retry
		}
		if res.Report.Complete {
			return fleet.CanonicalBytes(res.Study), nil
		}
		// Incomplete without error: quarantined shards. Retrying with
		// Resume grants them a fresh attempt budget.
	}
	return nil, fmt.Errorf("incomplete after %d attempts (retry budget exhausted)", attempts)
}

// permanent reports whether an error from the fleet/checkpoint layers
// can never be fixed by retrying: the on-disk state itself has been
// judged corrupt, mismatched, or tampered with.
func permanent(err error) bool {
	return errors.Is(err, snapshot.ErrManifestTamper) ||
		errors.Is(err, snapshot.ErrShardCheckpoint) ||
		errors.Is(err, snapshot.ErrShardMismatch) ||
		errors.Is(err, snapshot.ErrCampaignMismatch) ||
		errors.Is(err, snapshot.ErrNoManifest)
}

func backoff(base, ceil time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d > ceil || d <= 0 {
		d = ceil
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Campaign) displayName() string {
	if c.Spec.Name != "" {
		return c.Spec.Name
	}
	return c.ID
}
