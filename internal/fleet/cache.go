// Result-cache wiring: the campaign layer's use of the content-addressed
// shard cache (internal/resultcache).
//
// A shard's samples are a pure function of its input closure — the
// result-relevant Config fields, the stats.ShardSeed-derived RNG stream,
// and the shard span — so a cache entry keyed on the canonical digest of
// that closure can replace the shard's entire simulation. Lookup happens
// at shard open (a hit finishes the shard before its first Step),
// population at shard completion, and every rejection (corrupt, torn,
// swapped, or stale-schema entry) is counted and transparently
// recomputed; the recompute's Put overwrites the bad entry in place.
//
// Cache-key granularity equals shard granularity: two campaigns reuse
// each other's work only where their shard partitions agree, so sweeps
// that want maximal reuse should pin Config.Shards (finer shards → more,
// smaller units of reuse; see DefaultShards).
package fleet

import (
	"errors"
	"math"

	"contiguitas/internal/resultcache"
	"contiguitas/internal/seal"
	"contiguitas/internal/stats"
)

// CacheSchemaVersion versions the generative model behind shard samples:
// drawPlans' draw sequence, runServer's simulation semantics, and the
// Sample field set. Bump it whenever any of those change meaning, so
// entries written by older simulators are rejected (ErrStaleSchema) and
// recomputed instead of silently trusted. The version is deliberately
// NOT folded into the cache key: inside the key it would merely orphan
// old entries as misses, while in the envelope it makes staleness a
// detected, counted rejection.
const CacheSchemaVersion = 1

// resolveShards returns the effective shard count for cfg: Config.Shards
// when positive, the DefaultShards partition otherwise, never more than
// one shard per server.
func resolveShards(cfg Config) int {
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards(cfg.Servers)
	}
	if shards > cfg.Servers {
		shards = cfg.Servers
	}
	return shards
}

// ShardCacheKey digests shard's full input closure under cfg: every
// Config field the samples depend on, the shard's RNG stream seed
// (stats.ShardSeed — covering Seed and the shard index), and the shard's
// span in the fleet. Configs that differ only in supervision knobs
// (workers, backoff, state directory, fault plans) map to the same
// key, because they cannot change a single sample byte. The span is
// computed in closed form, so keying a cell's shards is linear in them.
func ShardCacheKey(cfg Config, shard int) uint64 {
	sp := shardSpan(cfg.Servers, resolveShards(cfg), shard)
	return seal.Sum64s(cfg.MemBytes, uint64(cfg.Design), cfg.TicksMin, cfg.TicksMax,
		math.Float64bits(cfg.JitterFrac), stats.ShardSeed(cfg.Seed, shard), sp.lo, sp.n)
}

// cacheOutcome is a shard's final cache verdict, reported as an
// EvCacheHit/EvCacheMiss tracepoint when the shard completes.
type cacheOutcome uint8

const (
	cacheNone cacheOutcome = iota
	cacheHit
	cacheMiss
)

// Tracepoint reason codes for EvCacheReject.
const (
	cacheRejectCorrupt = 0
	cacheRejectSchema  = 1
)

// tryCache serves sr wholly from the result cache when a trustworthy
// entry exists, returning true iff the shard is complete. On a miss or
// a rejected entry it arms sr to populate the cache at completion, so
// the recompute's Put fills or heals the entry.
func (c *campaign) tryCache(sr *shardRun) bool {
	payload, err := c.cache.Get(c.cacheKeys[sr.shard])
	switch {
	case err == nil && decodeSamplesInto(sr.samples[:sr.units], payload) == nil:
		sr.done = sr.units
		sr.fromCache = true
		c.noteCacheOutcome(sr.shard, cacheHit)
		return true
	case err == nil:
		// The envelope verified but the payload is not a shard of the
		// expected shape — still a lie, still recomputed.
		c.noteCacheReject(sr.shard, cacheRejectCorrupt)
	case errors.Is(err, resultcache.ErrStaleSchema):
		c.noteCacheReject(sr.shard, cacheRejectSchema)
	case resultcache.IsReject(err):
		c.noteCacheReject(sr.shard, cacheRejectCorrupt)
	default:
		// A miss, or an operational error (unreadable cache directory):
		// the cache is best-effort, so both are a miss rather than a
		// failed shard.
		c.noteCacheOutcome(sr.shard, cacheMiss)
	}
	sr.cachePut = true
	return false
}

// noteCacheOutcome records a shard's hit/miss and moves the campaign
// tallies. Called from worker goroutines, hence the lock.
func (c *campaign) noteCacheOutcome(shard int, o cacheOutcome) {
	c.mu.Lock()
	c.cacheState[shard] = o
	switch o {
	case cacheHit:
		c.cacheHits++
	case cacheMiss:
		c.cacheMisses++
	}
	hits, misses, rejects := c.cacheHits, c.cacheMisses, c.cacheRejects
	c.mu.Unlock()
	if p := c.cfg.Progress; p != nil {
		p.ObserveCache(hits, misses, rejects)
	}
}

// noteCacheReject records a refused entry: the rejection is tallied on
// its own counter (never as a miss) and the shard proceeds to recompute.
func (c *campaign) noteCacheReject(shard int, reason uint64) {
	c.mu.Lock()
	c.cacheState[shard] = cacheMiss
	c.cacheRejected[shard] = true
	c.cacheRejectReason[shard] = reason
	c.cacheRejects++
	hits, misses, rejects := c.cacheHits, c.cacheMisses, c.cacheRejects
	c.mu.Unlock()
	if p := c.cfg.Progress; p != nil {
		p.ObserveCache(hits, misses, rejects)
	}
}

// cacheQueue bounds the entries a campaign's workers may have computed
// ahead of its cache writer.
const cacheQueue = 64

// cacheEntry is one computed shard on its way into the cache.
type cacheEntry struct {
	key     uint64
	payload []byte
}

// populateCache hands a freshly computed shard to the campaign's cache
// writer and returns, so the worker goes on to its next shard while the
// entry is written. The first entry starts the writer: a warm campaign
// never needs one. One writer overlapping the workers' simulation costs
// less than each worker writing its own entries: on disk a Put is
// mostly the creation of a new file, which costs kernel CPU and
// serialises on the cache directory.
func (c *campaign) populateCache(sr *shardRun) {
	e := cacheEntry{c.cacheKeys[sr.shard], encodeSamples(sr.samples[:sr.units])}
	c.putMu.Lock()
	defer c.putMu.Unlock()
	switch {
	case c.putsClosed:
		// An attempt the supervisor abandoned, finishing after the
		// campaign returned.
		c.store(e)
		return
	case c.puts == nil:
		puts := make(chan cacheEntry, cacheQueue)
		c.puts, c.written = puts, make(chan struct{})
		go func() {
			for e := range puts {
				c.store(e)
			}
			close(c.written)
		}()
	}
	c.puts <- e
}

// stopCacheWriter returns once every entry handed to the writer is
// stored, so the next campaign over the same cache hits on it.
func (c *campaign) stopCacheWriter() {
	c.putMu.Lock()
	c.putsClosed = true
	puts := c.puts
	c.putMu.Unlock()
	if puts != nil {
		close(puts)
		<-c.written
	}
}

// store writes one entry. A failed Put degrades future runs to
// recompute, never this one — the result is already merged.
func (c *campaign) store(e cacheEntry) {
	_ = c.cache.Put(e.key, e.payload)
}
