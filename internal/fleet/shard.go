// Supervised campaign layer: the fleet study partitioned into
// deterministic shards executed under internal/supervise, with per-shard
// CTGSHRD checkpoints, injected-fault points, and resume-from-disk for
// killed processes.
//
// Determinism: shard i owns servers [spans[i].lo, spans[i].lo+spans[i].n)
// and draws their plans from stats.ShardSeed(cfg.Seed, i), so each
// shard's samples are a pure function of (Config, shard index). Shards
// merge into disjoint slots of the campaign sample slice in canonical
// order, making the merged study byte-identical across worker counts,
// schedules, injected kills, retries, and checkpoint/resume cycles.
//
// Crash-consistency: each shard's checkpoint is the only durable record
// of its progress, written atomically (temp file, fsync, rename, dir
// fsync), so a kill at any instant leaves the previous complete link or
// the new one. A durable file certifies itself; resuming from whichever
// link survived recomputes the same bytes.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"sync"
	"time"

	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/seal"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/stats"
	"contiguitas/internal/supervise"
	"contiguitas/internal/telemetry"
)

// Default shard partition knobs. Config.Shards overrides the whole
// default: any positive value wins, including values above
// DefaultMaxShards. Shard granularity is also result-cache key
// granularity (see ShardCacheKey) — finer shards mean more, smaller
// units of reuse across sweeps, so campaigns tuned for cache sharing
// should pin Config.Shards rather than rely on the fleet-size default.
const (
	// DefaultServersPerShard is the target shard width when Config.Shards
	// is unset.
	DefaultServersPerShard = 16
	// DefaultMaxShards caps the *default* partition so small studies do
	// not fragment into per-server shards; it is not a limit on
	// Config.Shards.
	DefaultMaxShards = 16
)

// DefaultShards picks the shard count for a fleet size: one shard per
// DefaultServersPerShard servers, clamped to [1, DefaultMaxShards].
// Purely a function of the server count so the default partition never
// depends on the machine running the study.
func DefaultShards(servers int) int {
	if servers <= 0 {
		return 1
	}
	s := (servers + DefaultServersPerShard - 1) / DefaultServersPerShard
	if s > DefaultMaxShards {
		s = DefaultMaxShards
	}
	return s
}

// FaultPlan arms the campaign's injected faults. Each shard gets its own
// injector (seeded from stats.ShardSeed over the study seed), so one
// shard's crossings never perturb another's fault schedule, and the
// schedule is reproducible bit-for-bit.
//
// Injectors live in memory for the whole process and are shared across a
// shard's attempts — hit counts accumulate monotonically, so an EveryN
// crash trigger does not re-fire at the same server on replay and the
// campaign makes forward progress (EveryN must be >= 2: a trigger firing
// on every crossing can never get past the server it keeps killing and
// ends in quarantine, which is the correct diagnosis).
type FaultPlan struct {
	// CrashEveryN arms fault.PointFleetShardCrash: every Nth server
	// boundary the shard attempt panics, losing work since its last
	// checkpoint.
	CrashEveryN uint64
	// CheckpointFailProb arms fault.PointFleetCheckpointWrite: the
	// checkpoint write fails with this probability and the attempt
	// crashes with an error.
	CheckpointFailProb float64
}

func (p FaultPlan) armed() bool { return p.CrashEveryN > 0 || p.CheckpointFailProb > 0 }

func (p FaultPlan) injector(studySeed uint64, shard int) *fault.Injector {
	if !p.armed() {
		return nil
	}
	in := fault.New(stats.ShardSeed(studySeed^0xfa1107, shard))
	if p.CrashEveryN > 0 {
		in.Arm(fault.PointFleetShardCrash, fault.Trigger{EveryN: p.CrashEveryN})
	}
	if p.CheckpointFailProb > 0 {
		in.Arm(fault.PointFleetCheckpointWrite, fault.Trigger{Prob: p.CheckpointFailProb})
	}
	return in
}

// SupervisedConfig parameterises a supervised campaign around the plain
// study Config.
type SupervisedConfig struct {
	Fleet Config
	// Workers / MaxAttempts / Backoff* / Heartbeat pass through to
	// supervise.Config (zero values pick that package's defaults;
	// Heartbeat 0 disables the watchdog).
	Workers     int
	MaxAttempts int
	BackoffBase time.Duration
	BackoffCap  time.Duration
	Heartbeat   time.Duration
	// Dir is the campaign state directory: one checkpoint file per
	// shard, each written atomically. The run reads Dir once, at start:
	// finished shards replay from their final checkpoint without
	// recomputing and unfinished shards resume mid-stream, every one
	// with a fresh attempt budget. Empty keeps checkpoints in memory
	// (retries still resume; process kills lose everything). A shard
	// checkpoints after every server whenever Dir is set or faults are
	// armed.
	Dir string
	// Resume requires Dir to already hold this campaign's state: a run
	// that finds no checkpoint there fails with
	// snapshot.ErrNoCampaignState instead of starting fresh.
	Resume bool
	Faults FaultPlan
	// OnEvent observes supervision events (called from the supervisor
	// goroutine, in order).
	OnEvent func(supervise.Event)
	Trace   *telemetry.Ring
	Metrics *telemetry.Registry
	// Cache is the content-addressed shard result store (nil disables).
	// At shard open a trusted entry replaces the whole simulation; at
	// shard completion the fresh samples populate the store. Rejected
	// entries (corrupt, torn, stale schema) are counted and recomputed —
	// the cache can only ever cost correctness nothing.
	Cache resultcache.Cache
	// Progress, when set, receives the campaign's live progress: the
	// supervise.Observer lifecycle stream plus fleet-level unit counts
	// and cache tallies (nil disables). The obsv campaign board
	// implements it.
	Progress ProgressSink
}

// ProgressSink extends supervise.Observer with the fleet-level progress
// only this layer can see: per-shard completed work units (servers) and
// the campaign's cumulative result-cache tallies.
//
// Threading: the embedded supervise.Observer methods keep that
// interface's contract (supervisor goroutine, ordered), but ObserveUnits
// and ObserveCache are called from worker goroutines as checkpoints land
// and cache lookups resolve — implementations synchronize internally and
// must not block.
type ProgressSink interface {
	supervise.Observer
	// ObserveUnits reports shard having completed done of total work
	// units. Monotonic per shard within one process, except that a
	// crashed attempt resuming from an older checkpoint may briefly
	// report fewer done units than its dead predecessor reached.
	ObserveUnits(shard int, done, total uint64)
	// ObserveCache reports the campaign's cumulative cache tallies after
	// a lookup resolved.
	ObserveCache(hits, misses, rejects uint64)
}

// CampaignResult is what a supervised campaign produces: always a study
// and a report, even when shards were lost.
type CampaignResult struct {
	// Study holds every server when Report.Complete; otherwise only the
	// finished shards' servers, concatenated in canonical shard order —
	// a statistically valid (if smaller) fleet sample, never silently
	// padded with zero rows.
	Study  *Study
	Report *supervise.Report
	// MissingShards lists shards excluded from Study (quarantined, or
	// unfinished at cancellation).
	MissingShards []int
	// KillsInjected / CheckpointFaultsInjected total the fault firings
	// across all shard injectors.
	KillsInjected            uint64
	CheckpointFaultsInjected uint64
	// Cache tallies (zero when no cache is configured). These count
	// lookup events, not shards: a shard that crashes and retries looks
	// the cache up once per attempt. A reject is never also a miss.
	CacheHits    uint64
	CacheMisses  uint64
	CacheRejects uint64
}

func shardPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.ctgshrd", shard))
}

// campaignFingerprint digests every Config field that shapes results,
// plus the shard count; checkpoints never resume across a changed
// fingerprint.
func campaignFingerprint(cfg Config, shards int) uint64 {
	return seal.Sum64s(uint64(cfg.Servers), cfg.MemBytes, uint64(cfg.Design),
		cfg.TicksMin, cfg.TicksMax, math.Float64bits(cfg.JitterFrac),
		cfg.Seed, uint64(shards))
}

// span is one shard's slice of the fleet: servers [lo, lo+n).
type span struct{ lo, n uint64 }

// shardSpan is splitSpans(servers, shards)[i] in closed form: the first
// servers%shards shards take one server more than the rest.
func shardSpan(servers, shards, i int) span {
	base, rem := servers/shards, servers%shards
	sp := span{lo: uint64(i*base + min(i, rem)), n: uint64(base)}
	if i < rem {
		sp.n++
	}
	return sp
}

// splitSpans tiles servers into shards contiguous spans.
func splitSpans(servers, shards int) []span {
	out := make([]span, shards)
	base := servers / shards
	rem := servers % shards
	var lo uint64
	for i := range out {
		n := uint64(base)
		if i < rem {
			n++
		}
		out[i] = span{lo: lo, n: n}
		lo += n
	}
	return out
}

// campaign is the shared state of one supervised study: the sample merge
// slots, the per-shard injectors, and each shard's last checkpoint
// guarded by mu (checkpoints arrive from worker goroutines).
type campaign struct {
	cfg           SupervisedConfig
	fp            uint64
	spans         []span
	samples       []Sample
	checkpointing bool
	injectors     []*fault.Injector

	// Result cache (nil disables). cacheKeys holds one content address
	// per shard. puts feeds the campaign's cache writer, started by the
	// first entry to store; written closes when the writer has stored
	// every entry sent to it; putsClosed is set when the campaign stops
	// the writer. putMu guards the three.
	cache      resultcache.Cache
	cacheKeys  []uint64
	putMu      sync.Mutex
	puts       chan cacheEntry
	written    chan struct{}
	putsClosed bool

	mu sync.Mutex
	// last is each shard's newest checkpoint (nil before its first):
	// loaded from Dir at start, then replaced by every checkpoint this
	// run writes. A retried attempt resumes from it.
	last []*snapshot.ShardCheckpoint
	// Per-shard cache verdicts (written from worker goroutines, read by
	// the supervisor goroutine for tracepoints) and the campaign tallies
	// surfaced in CampaignResult.
	cacheState        []cacheOutcome
	cacheRejected     []bool
	cacheRejectReason []uint64
	cacheHits         uint64
	cacheMisses       uint64
	cacheRejects      uint64
}

// RunSupervised executes the study as a supervised sharded campaign.
// Setup and resume failures (unreadable or tampered checkpoint,
// fingerprint mismatch, no state to resume) return an error; execution
// failures never do — they degrade the CampaignResult's report instead.
func RunSupervised(ctx context.Context, scfg SupervisedConfig) (*CampaignResult, error) {
	// A pre-cancelled context is a setup error, not a degraded run: report
	// the cancellation instead of returning an empty "incomplete" result
	// (which would surface as fleet.Run's unfaulted-study panic).
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fleet: campaign canceled before start: %w", err)
	}
	fcfg := scfg.Fleet
	if fcfg.Servers <= 0 {
		return nil, fmt.Errorf("fleet: campaign needs at least one server")
	}
	if scfg.Resume && scfg.Dir == "" {
		return nil, fmt.Errorf("fleet: resume requires a state directory")
	}
	shards := resolveShards(fcfg)

	c := &campaign{
		cfg:     scfg,
		fp:      campaignFingerprint(fcfg, shards),
		spans:   splitSpans(fcfg.Servers, shards),
		samples: make([]Sample, fcfg.Servers),
		last:    make([]*snapshot.ShardCheckpoint, shards),
	}
	c.checkpointing = scfg.Dir != "" || scfg.Faults.armed()
	c.injectors = make([]*fault.Injector, shards)
	for i := range c.injectors {
		c.injectors[i] = scfg.Faults.injector(fcfg.Seed, i)
	}
	if scfg.Cache != nil {
		c.cache = scfg.Cache
		c.cacheKeys = make([]uint64, shards)
		for i := range c.cacheKeys {
			c.cacheKeys[i] = ShardCacheKey(fcfg, i)
		}
		c.cacheState = make([]cacheOutcome, shards)
		c.cacheRejected = make([]bool, shards)
		c.cacheRejectReason = make([]uint64, shards)
	}

	if scfg.Dir != "" {
		found, err := c.load(scfg.Dir)
		if err != nil {
			return nil, err
		}
		if scfg.Resume && found == 0 {
			return nil, fmt.Errorf("%w: %s holds no shard checkpoint", snapshot.ErrNoCampaignState, scfg.Dir)
		}
	}

	// Seed the progress board with every shard's span and the units its
	// checkpoint already holds before the first attempt dispatches, so
	// totals never appear as zero mid-flight.
	var observer supervise.Observer
	if scfg.Progress != nil {
		observer = scfg.Progress
		for i, ck := range c.last {
			var done uint64
			if ck != nil {
				done = ck.Done
			}
			scfg.Progress.ObserveUnits(i, done, c.spans[i].n)
		}
	}

	rep := supervise.Run(ctx, supervise.Config{
		Shards:      shards,
		Workers:     scfg.Workers,
		MaxAttempts: scfg.MaxAttempts,
		BackoffBase: scfg.BackoffBase,
		BackoffCap:  scfg.BackoffCap,
		Heartbeat:   scfg.Heartbeat,
		Open:        c.open,
		OnEvent:     c.onEvent,
		Observer:    observer,
		Trace:       scfg.Trace,
		Metrics:     scfg.Metrics,
	})

	res := &CampaignResult{Report: rep}
	for _, in := range c.injectors {
		res.KillsInjected += in.Fired(fault.PointFleetShardCrash)
		res.CheckpointFaultsInjected += in.Fired(fault.PointFleetCheckpointWrite)
	}
	if c.cache != nil {
		c.stopCacheWriter()
		c.mu.Lock()
		res.CacheHits, res.CacheMisses, res.CacheRejects = c.cacheHits, c.cacheMisses, c.cacheRejects
		c.mu.Unlock()
		if reg := scfg.Metrics; reg != nil {
			// Counters are single-writer; fold the campaign tallies in once,
			// here, after every worker has joined. Reuse-by-name so repeated
			// campaigns against one registry accumulate.
			counter := func(name string) *telemetry.Counter {
				if mc := reg.Counter(name); mc != nil {
					return mc
				}
				return reg.NewCounter(name)
			}
			counter("cache_hits").Add(res.CacheHits)
			counter("cache_misses").Add(res.CacheMisses)
			counter("cache_rejects").Add(res.CacheRejects)
		}
	}
	if rep.Complete {
		res.Study = &Study{Cfg: fcfg, Samples: c.samples}
		return res, nil
	}
	// Partial degradation: keep finished shards' servers in canonical
	// shard order, name the missing shards explicitly.
	partial := make([]Sample, 0, len(c.samples))
	for i := range rep.Shards {
		if rep.Shards[i].Status == supervise.StatusDone {
			sp := c.spans[i]
			partial = append(partial, c.samples[sp.lo:sp.lo+sp.n]...)
		} else {
			res.MissingShards = append(res.MissingShards, i)
		}
	}
	res.Study = &Study{Cfg: fcfg, Samples: partial}
	return res, nil
}

// load reads every shard's checkpoint from dir into c.last, returning
// how many it found. Each must pass its seal and chain, carry this
// campaign's fingerprint, name its own shard, and hold a payload of the
// samples it claims; anything else is a typed setup error.
func (c *campaign) load(dir string) (found int, err error) {
	for i, sp := range c.spans {
		ck, err := snapshot.ReadShard(shardPath(dir, i))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, err
		}
		if ck.Campaign != c.fp {
			return 0, fmt.Errorf("%w: shard %d checkpoint campaign %016x, configuration %016x",
				snapshot.ErrCampaignMismatch, i, ck.Campaign, c.fp)
		}
		if ck.Shard != i {
			return 0, fmt.Errorf("%w: shard %d's file holds shard %d's checkpoint",
				snapshot.ErrShardCheckpoint, i, ck.Shard)
		}
		if _, err := restore(ck, sp.n); err != nil {
			return 0, err
		}
		c.last[i] = ck
		found++
	}
	return found, nil
}

// restore decodes a checkpoint's samples, refusing a payload that does
// not hold exactly the Done samples its header claims, or more than the
// shard's units.
func restore(ck *snapshot.ShardCheckpoint, units uint64) ([]Sample, error) {
	done, err := DecodeCanonical(ck.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: shard %d payload: %v", snapshot.ErrShardCheckpoint, ck.Shard, err)
	}
	if uint64(len(done)) != ck.Done || ck.Done > units {
		return nil, fmt.Errorf("%w: shard %d payload holds %d samples, header says %d of %d",
			snapshot.ErrShardCheckpoint, ck.Shard, len(done), ck.Done, units)
	}
	return done, nil
}

// open creates or resumes one shard attempt. The result cache is
// consulted first (a trusted whole-shard entry finishes the shard before
// its first Step — no plans, no checkpoint restore); otherwise plans are
// redrawn from the shard's seed (cheap, deterministic) and progress is
// restored from the shard's last checkpoint.
func (c *campaign) open(shard, attempt int) (supervise.Shard, error) {
	sp := c.spans[shard]
	sr := &shardRun{c: c, shard: shard, units: sp.n, inj: c.injectors[shard]}
	sr.samples = make([]Sample, sp.n)
	if c.cache != nil && c.tryCache(sr) {
		return sr, nil
	}
	rng := stats.NewRNG(stats.ShardSeed(c.cfg.Fleet.Seed, shard))
	sr.plans = drawPlans(c.cfg.Fleet, rng, int(sp.n))
	c.mu.Lock()
	ck := c.last[shard]
	c.mu.Unlock()
	if ck == nil {
		return sr, nil
	}
	done, err := restore(ck, sp.n)
	if err != nil {
		return nil, err
	}
	copy(sr.samples, done)
	sr.done, sr.seq, sr.chain = ck.Done, ck.Seq, ck.ChainHash
	return sr, nil
}

// onEvent emits the cache tracepoints a finished shard earned before
// forwarding to the owner's callback. Runs on the supervisor goroutine
// only (the Ring's single-writer contract).
func (c *campaign) onEvent(ev supervise.Event) {
	if ev.Kind == supervise.EventDone && c.cache != nil && c.cfg.Trace.Enabled() {
		c.mu.Lock()
		rejected, reason, state := c.cacheRejected[ev.Shard], c.cacheRejectReason[ev.Shard], c.cacheState[ev.Shard]
		c.mu.Unlock()
		key := c.cacheKeys[ev.Shard]
		if rejected {
			c.cfg.Trace.Emit(uint64(ev.Attempt), telemetry.EvCacheReject, uint64(ev.Shard), key, reason)
		}
		switch state {
		case cacheHit:
			c.cfg.Trace.Emit(uint64(ev.Attempt), telemetry.EvCacheHit, uint64(ev.Shard), key, c.spans[ev.Shard].n)
		case cacheMiss:
			c.cfg.Trace.Emit(uint64(ev.Attempt), telemetry.EvCacheMiss, uint64(ev.Shard), key, c.spans[ev.Shard].n)
		}
	}
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(ev)
	}
}

// shardRun is one shard attempt: a supervise.Shard stepping one server
// at a time, checkpointing after each, and crossing the injected fault
// points at server boundaries.
type shardRun struct {
	c          *campaign
	shard      int
	units      uint64
	done       uint64
	seq, chain uint64
	plans      []serverPlan
	samples    []Sample
	scratch    mem.ContiguityStats
	inj        *fault.Injector
	// fromCache marks a shard served wholly from the result cache;
	// cachePut arms population at completion.
	fromCache bool
	cachePut  bool
}

// Step simulates the next server. The injected crash fires after the
// server completes but before it is checkpointed, so a kill genuinely
// loses work and the retry genuinely recomputes it.
func (sr *shardRun) Step() (bool, error) {
	if sr.done >= sr.units {
		sr.finish()
		return true, nil
	}
	sr.samples[sr.done] = runServer(sr.c.cfg.Fleet, sr.plans[sr.done], &sr.scratch)
	sr.done++
	if sr.inj.Should(fault.PointFleetShardCrash) {
		panic(fmt.Sprintf("fleet: injected shard crash (shard %d, %d/%d servers)",
			sr.shard, sr.done, sr.units))
	}
	if sr.c.checkpointing {
		if err := sr.checkpoint(); err != nil {
			return false, err
		}
	}
	if sr.done >= sr.units {
		sr.finish()
		return true, nil
	}
	return false, nil
}

// finish merges the completed shard and, when the cache missed or
// rejected the shard's entry, populates the result cache. A cache-hit
// shard (fromCache, cachePut unset) merges without re-writing the entry
// it was served from; a shard that resumed to completion from a
// checkpoint still populates — its samples are the same pure function
// of the inputs.
func (sr *shardRun) finish() {
	sr.publish()
	if p := sr.c.cfg.Progress; p != nil {
		p.ObserveUnits(sr.shard, sr.units, sr.units)
	}
	if sr.cachePut {
		sr.c.populateCache(sr)
	}
}

// checkpoint seals the next chain link over the completed samples,
// writes it to Dir when the campaign is durable, and keeps it as the
// shard's resume point.
func (sr *shardRun) checkpoint() error {
	if sr.inj.Should(fault.PointFleetCheckpointWrite) {
		return fmt.Errorf("fleet: injected checkpoint write failure (shard %d, seq %d)",
			sr.shard, sr.seq+1)
	}
	ck := &snapshot.ShardCheckpoint{
		Campaign: sr.c.fp,
		Shard:    sr.shard,
		Seq:      sr.seq + 1,
		Done:     sr.done,
		Payload:  encodeSamples(sr.samples[:sr.done]),
	}
	chain := ck.Seal(sr.chain)
	if dir := sr.c.cfg.Dir; dir != "" {
		if err := snapshot.WriteShard(shardPath(dir, sr.shard), ck); err != nil {
			return fmt.Errorf("fleet: write shard %d checkpoint: %w", sr.shard, err)
		}
	}
	sr.c.mu.Lock()
	sr.c.last[sr.shard] = ck
	sr.c.mu.Unlock()
	if p := sr.c.cfg.Progress; p != nil {
		p.ObserveUnits(sr.shard, ck.Done, sr.units)
	}
	sr.seq, sr.chain = ck.Seq, chain
	return nil
}

// publish merges the shard's samples into its disjoint campaign slot.
func (sr *shardRun) publish() {
	sp := sr.c.spans[sr.shard]
	copy(sr.c.samples[sp.lo:sp.lo+sp.n], sr.samples[:sr.units])
}
