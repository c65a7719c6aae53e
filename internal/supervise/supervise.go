// Package supervise is a fault-tolerant sharded execution engine: a
// campaign of independent shards runs across a bounded worker pool, and
// a supervisor loop keeps the campaign alive when individual shards die.
//
// Each shard attempt runs in its own goroutine behind three layers of
// containment:
//
//   - panic recovery — a panicking Step (including deliberately injected
//     kills) is converted into a crash instead of taking the process down;
//   - a heartbeat watchdog — an attempt that stops returning from Step
//     within the configured deadline is abandoned and counted as crashed
//     (the stuck goroutine is asked to stop via Stoppable and otherwise
//     left behind, exactly like a wedged worker process would be);
//   - error propagation — a Step or Open returning an error fails only
//     that attempt.
//
// Crashed shards are retried with exponential backoff; the Open callback
// is expected to resume from the shard's last checkpoint, so a retry
// repeats only the work since then. A shard that exhausts its attempt
// budget is quarantined, and the campaign finishes with an explicit
// completeness report (finished / resumed / quarantined, per-shard
// attempt histories) instead of dying — partial results degrade, they do
// not disappear.
//
// Determinism contract: the engine decides only *when* work runs, never
// *what it computes*. Shards must derive all randomness from their shard
// index (stats.ShardSeed) and merge into disjoint output slots, so the
// merged campaign result is byte-identical regardless of worker count,
// scheduling, crashes, and retries. The fleet soak gate
// (cmd/fleetscan -soak) holds this property under injected kills.
//
// All supervision telemetry (EvShardCrash / EvShardResume /
// EvShardQuarantine, the shard_restart histogram and shard counters) is
// emitted from the single supervisor goroutine, preserving the
// single-writer contract of telemetry.Ring.
package supervise

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"contiguitas/internal/telemetry"
)

// Status is a shard's lifecycle state.
type Status uint8

const (
	// StatusPending: not yet run to completion (includes canceled work).
	StatusPending Status = iota
	// StatusRunning: an attempt is in flight.
	StatusRunning
	// StatusDone: the shard finished.
	StatusDone
	// StatusQuarantined: the retry budget is exhausted; the shard's work
	// is excluded from the campaign result.
	StatusQuarantined
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// CrashKind classifies how an attempt died.
type CrashKind uint8

const (
	// CrashError: Step or Open returned an error.
	CrashError CrashKind = iota
	// CrashPanic: the attempt panicked and was recovered.
	CrashPanic
	// CrashWatchdog: the heartbeat deadline expired with no Step return.
	CrashWatchdog
)

// String names the crash kind.
func (k CrashKind) String() string {
	switch k {
	case CrashError:
		return "error"
	case CrashPanic:
		return "panic"
	case CrashWatchdog:
		return "watchdog"
	}
	return fmt.Sprintf("crash(%d)", uint8(k))
}

// Shard is one supervised unit of work. Step advances the shard by one
// small unit (one simulated server, one tick batch) and is the heartbeat
// granularity: implementations must return from Step often enough to
// beat the configured watchdog deadline. Checkpointing is the shard's
// own business — the engine only guarantees that a retry re-Opens the
// shard, which is where resume-from-checkpoint happens.
type Shard interface {
	// Step runs one unit of work. done reports completion; a non-nil
	// error crashes the attempt.
	Step() (done bool, err error)
}

// Stoppable is an optional Shard extension: Stop is called exactly once
// when the supervisor abandons the attempt (watchdog expiry or campaign
// cancellation) so a blocked Step can unwedge itself. Stop may be called
// from a different goroutine than Step.
type Stoppable interface {
	Stop()
}

// Config parameterises a supervised campaign.
type Config struct {
	// Shards is the number of shards, addressed 0..Shards-1.
	Shards int
	// Workers bounds concurrent attempts (0 = GOMAXPROCS, capped at
	// Shards).
	Workers int
	// MaxAttempts quarantines a shard after this many failed attempts
	// (0 = DefaultMaxAttempts).
	MaxAttempts int
	// BackoffBase is the delay before attempt 2; it doubles per attempt
	// and is capped at BackoffCap. Zero values pick the defaults.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Heartbeat is the watchdog deadline between Step returns
	// (0 disables the watchdog).
	Heartbeat time.Duration
	// Open creates (attempt 1) or resumes (attempt > 1, or a process
	// restart) shard's next attempt. Resuming from the shard's last
	// checkpoint — and verifying it — happens here; an error counts as a
	// crashed attempt.
	Open func(shard, attempt int) (Shard, error)
	// OnEvent, when set, observes every supervision event from the
	// supervisor goroutine (single-threaded, ordered). Campaign owners
	// use it to act on lifecycle events in order.
	OnEvent func(Event)
	// Observer is the read-side progress hook: unlike OnEvent (the
	// campaign owner's own hook) it exists so an
	// observability plane can mirror the campaign live without joining
	// its ownership. All four methods are invoked from the supervisor
	// goroutine, in order; see the Observer contract.
	Observer Observer
	// Trace receives EvShardCrash/EvShardResume/EvShardQuarantine
	// tracepoints (nil disables). Emitted only from the supervisor
	// goroutine.
	Trace *telemetry.Ring
	// Metrics receives the shard_restart histogram and the
	// shard_crashes/shard_resumes/shard_quarantines counters
	// (nil disables). Reuses existing registrations by name, so one
	// registry can serve several campaigns.
	Metrics *telemetry.Registry
}

// Observer mirrors a campaign's live progress for read-side consumers
// (the obsv HTTP plane's campaign board). Every method is called from
// the single supervisor goroutine, strictly ordered: one ObserveCampaign
// first, then ObserveAttempt / ObserveEvent interleaved as the campaign
// runs, then exactly one ObserveEnd before Run returns.
//
// Implementations must not block — they run inside the supervisor's
// dispatch loop — and must copy anything they retain: the *Report passed
// to ObserveEnd (including its ShardState slices) remains owned by the
// campaign and is returned to Run's caller.
type Observer interface {
	// ObserveCampaign reports the campaign starting with this many shards.
	ObserveCampaign(shards int)
	// ObserveAttempt reports an attempt being dispatched to a worker
	// (attempt numbering starts at 1).
	ObserveAttempt(shard, attempt int)
	// ObserveEvent reports one supervision decision (crash, resume,
	// quarantine, done) — the same stream OnEvent sees.
	ObserveEvent(ev Event)
	// ObserveEnd reports the campaign finishing with its final report.
	ObserveEnd(rep *Report)
}

// Defaults for zero Config fields.
const (
	DefaultMaxAttempts = 5
	DefaultBackoffBase = 5 * time.Millisecond
	DefaultBackoffCap  = 500 * time.Millisecond
)

// EventKind discriminates supervision events.
type EventKind uint8

const (
	// EventCrash: an attempt died (Crash carries the detail).
	EventCrash EventKind = iota
	// EventResume: a retry attempt was scheduled after a crash.
	EventResume
	// EventQuarantine: the shard's retry budget is exhausted.
	EventQuarantine
	// EventDone: the shard finished.
	EventDone
)

// Event is one supervision decision, reported in order.
type Event struct {
	Kind    EventKind
	Shard   int
	Attempt int
	Crash   *Crash // set for EventCrash
	// Done counts shards finished so far (set for EventDone).
	Done int
}

// Crash records one failed attempt.
type Crash struct {
	Attempt int
	Kind    CrashKind
	Reason  string
}

// ShardState is one shard's final supervision record.
type ShardState struct {
	Shard    int
	Status   Status
	Attempts int // attempts started
	Crashes  []Crash
	// Resumed reports that at least one attempt after the first ran
	// (i.e. the shard was restarted from a checkpoint or from scratch).
	Resumed bool
}

// Report is the campaign's completeness report.
type Report struct {
	Shards []ShardState
	// Finished / Resumed / Quarantined count shards; Crashes counts
	// failed attempts across the campaign.
	Finished    int
	Resumed     int
	Quarantined int
	Crashes     int
	// Complete is true iff every shard finished. Canceled reports the
	// context expired before the campaign could complete.
	Complete bool
	Canceled bool
}

// String renders the one-line completeness summary.
func (r *Report) String() string {
	s := fmt.Sprintf("%d/%d shards finished (%d resumed, %d quarantined, %d crashes)",
		r.Finished, len(r.Shards), r.Resumed, r.Quarantined, r.Crashes)
	if r.Canceled {
		s += " [canceled]"
	}
	return s
}

// attemptResult is what a worker reports back to the supervisor.
type attemptResult struct {
	shard    int
	attempt  int
	err      error
	kind     CrashKind
	canceled bool
}

// workItem is one attempt dispatched to the worker pool.
type workItem struct {
	shard   int
	attempt int
	delay   time.Duration
}

// metricSet resolves the supervision metrics on a registry, reusing
// existing registrations so repeated campaigns share one schema.
type metricSet struct {
	restart                      *telemetry.Histogram
	crashes, resumes, quarantine *telemetry.Counter
}

func newMetricSet(reg *telemetry.Registry) *metricSet {
	if reg == nil {
		return nil
	}
	m := &metricSet{}
	if m.restart = reg.Histogram("shard_restart"); m.restart == nil {
		m.restart = reg.NewHistogram("shard_restart")
	}
	counter := func(name string) *telemetry.Counter {
		if c := reg.Counter(name); c != nil {
			return c
		}
		return reg.NewCounter(name)
	}
	m.crashes = counter("shard_crashes")
	m.resumes = counter("shard_resumes")
	m.quarantine = counter("shard_quarantines")
	return m
}

// Run executes the campaign and always returns a report — supervision
// failures degrade the report, they never surface as errors. Cancel ctx
// to stop early; in-flight attempts are asked to stop and the report
// comes back with Complete=false, Canceled=true.
func Run(ctx context.Context, cfg Config) *Report {
	if cfg.Shards <= 0 || cfg.Open == nil {
		return &Report{Complete: cfg.Shards == 0}
	}
	maxAttempts := cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	base := cfg.BackoffBase
	if base <= 0 {
		base = DefaultBackoffBase
	}
	cap := cfg.BackoffCap
	if cap <= 0 {
		cap = DefaultBackoffCap
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Shards {
		workers = cfg.Shards
	}

	rep := &Report{Shards: make([]ShardState, cfg.Shards)}
	for i := range rep.Shards {
		rep.Shards[i].Shard = i
	}
	metrics := newMetricSet(cfg.Metrics)

	work := make(chan workItem)
	results := make(chan attemptResult)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range work {
				results <- runAttempt(ctx, &cfg, item)
			}
		}()
	}

	// The supervisor loop: single goroutine, owns all state, emits all
	// telemetry. Dispatch and collection interleave over the same select
	// so a full worker pool never deadlocks the loop.
	queue := make([]workItem, 0, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		queue = append(queue, workItem{shard: s, attempt: 1})
	}
	inflight := 0
	emit := func(ev Event) {
		if cfg.OnEvent != nil {
			cfg.OnEvent(ev)
		}
		if cfg.Observer != nil {
			cfg.Observer.ObserveEvent(ev)
		}
	}
	if cfg.Observer != nil {
		cfg.Observer.ObserveCampaign(cfg.Shards)
	}
	canceled := false
	for rep.Finished+rep.Quarantined < cfg.Shards {
		// Stop feeding new work once the context is gone; whatever is in
		// flight is collected below and reported as canceled.
		if !canceled {
			select {
			case <-ctx.Done():
				canceled = true
				queue = queue[:0]
			default:
			}
		}
		if canceled && inflight == 0 {
			break
		}

		var dispatch chan<- workItem
		var next workItem
		if len(queue) > 0 && !canceled {
			dispatch = work
			next = queue[0]
		}
		select {
		case dispatch <- next:
			queue = queue[1:]
			rep.Shards[next.shard].Status = StatusRunning
			rep.Shards[next.shard].Attempts++
			inflight++
			if cfg.Observer != nil {
				cfg.Observer.ObserveAttempt(next.shard, next.attempt)
			}
		case res := <-results:
			inflight--
			st := &rep.Shards[res.shard]
			switch {
			case res.canceled:
				// Not a crash: the campaign was asked to stop.
				st.Status = StatusPending
			case res.err == nil:
				st.Status = StatusDone
				rep.Finished++
				if st.Attempts > 1 {
					rep.Resumed++
				}
				emit(Event{Kind: EventDone, Shard: res.shard, Attempt: res.attempt, Done: rep.Finished})
			default:
				crash := Crash{Attempt: res.attempt, Kind: res.kind, Reason: res.err.Error()}
				st.Crashes = append(st.Crashes, crash)
				rep.Crashes++
				if cfg.Trace.Enabled() {
					cfg.Trace.Emit(uint64(res.attempt), telemetry.EvShardCrash,
						uint64(res.shard), uint64(res.attempt), uint64(res.kind))
				}
				if metrics != nil {
					metrics.crashes.Inc()
				}
				emit(Event{Kind: EventCrash, Shard: res.shard, Attempt: res.attempt, Crash: &crash})
				if st.Attempts >= maxAttempts {
					st.Status = StatusQuarantined
					rep.Quarantined++
					if cfg.Trace.Enabled() {
						cfg.Trace.Emit(uint64(res.attempt), telemetry.EvShardQuarantine,
							uint64(res.shard), uint64(st.Attempts), 0)
					}
					if metrics != nil {
						metrics.quarantine.Inc()
					}
					emit(Event{Kind: EventQuarantine, Shard: res.shard, Attempt: res.attempt})
					continue
				}
				st.Status = StatusPending
				st.Resumed = true
				retry := workItem{shard: res.shard, attempt: res.attempt + 1, delay: backoff(base, cap, res.attempt)}
				queue = append(queue, retry)
				if cfg.Trace.Enabled() {
					cfg.Trace.Emit(uint64(retry.attempt), telemetry.EvShardResume,
						uint64(res.shard), uint64(retry.attempt), 0)
				}
				if metrics != nil {
					metrics.resumes.Inc()
					metrics.restart.Observe(uint64(retry.attempt))
				}
				emit(Event{Kind: EventResume, Shard: res.shard, Attempt: retry.attempt})
			}
		}
	}
	close(work)
	wg.Wait()
	// Drain any results workers managed to send before seeing the close.
	for {
		select {
		case res := <-results:
			if res.canceled {
				rep.Shards[res.shard].Status = StatusPending
			}
		default:
			rep.Complete = rep.Finished == cfg.Shards
			rep.Canceled = canceled
			if cfg.Observer != nil {
				cfg.Observer.ObserveEnd(rep)
			}
			return rep
		}
	}
}

// backoff returns the delay before retrying after `failed` failed
// attempts: base doubled per failure, capped.
func backoff(base, cap time.Duration, failed int) time.Duration {
	d := base
	for i := 1; i < failed && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// runAttempt executes one attempt on the calling worker: backoff sleep,
// Open, then the Step loop in a child goroutine watched for heartbeat
// staleness and cancellation.
func runAttempt(ctx context.Context, cfg *Config, item workItem) attemptResult {
	res := attemptResult{shard: item.shard, attempt: item.attempt}
	if item.delay > 0 {
		select {
		case <-time.After(item.delay):
		case <-ctx.Done():
			res.canceled = true
			return res
		}
	}
	sh, err := cfg.Open(item.shard, item.attempt)
	if err != nil {
		res.err = fmt.Errorf("open: %w", err)
		res.kind = CrashError
		return res
	}

	var beats atomic.Uint64
	var stopOnce sync.Once
	stopped := make(chan struct{})
	stop := func() {
		stopOnce.Do(func() {
			close(stopped)
			if s, ok := sh.(Stoppable); ok {
				s.Stop()
			}
		})
	}
	done := make(chan attemptResult, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- attemptResult{shard: item.shard, attempt: item.attempt,
					err: fmt.Errorf("panic: %v", p), kind: CrashPanic}
			}
		}()
		for {
			select {
			case <-stopped:
				done <- attemptResult{shard: item.shard, attempt: item.attempt, canceled: true}
				return
			default:
			}
			fin, err := sh.Step()
			beats.Add(1)
			if err != nil {
				done <- attemptResult{shard: item.shard, attempt: item.attempt, err: err, kind: CrashError}
				return
			}
			if fin {
				done <- attemptResult{shard: item.shard, attempt: item.attempt}
				return
			}
		}
	}()

	var watchdog <-chan time.Time
	var timer *time.Timer
	if cfg.Heartbeat > 0 {
		timer = time.NewTimer(cfg.Heartbeat)
		defer timer.Stop()
		watchdog = timer.C
	}
	lastBeats := uint64(0)
	for {
		select {
		case r := <-done:
			return r
		case <-ctx.Done():
			// Cooperative abandon: the attempt goroutine exits at its next
			// Step boundary (or immediately, if Stoppable unwedged it). A
			// truly wedged Step is abandoned after a grace period — its
			// goroutine leaks, the in-process analogue of a hung worker.
			stop()
			grace := cfg.Heartbeat
			if grace <= 0 {
				grace = time.Second
			}
			select {
			case r := <-done:
				r.canceled = true
				return r
			case <-time.After(grace):
				res.canceled = true
				return res
			}
		case <-watchdog:
			if b := beats.Load(); b != lastBeats {
				// Progress since the last check: re-arm.
				lastBeats = b
				timer.Reset(cfg.Heartbeat)
				continue
			}
			stop()
			// Grace period: the attempt may acknowledge the abandon, or may
			// turn out to have finished while the verdict was being reached.
			select {
			case r := <-done:
				if !r.canceled {
					return r
				}
			case <-time.After(cfg.Heartbeat):
			}
			res.err = fmt.Errorf("watchdog: no heartbeat within %v (attempt %d)", cfg.Heartbeat, item.attempt)
			res.kind = CrashWatchdog
			return res
		}
	}
}
