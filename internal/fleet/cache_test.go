package fleet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"contiguitas/internal/core"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/seal"
	"contiguitas/internal/telemetry"
	"contiguitas/internal/vfs"
)

// runCached executes one supervised campaign over cfg with the given
// cache and fails the test on any setup error or incomplete report.
func runCached(t *testing.T, cfg Config, cache resultcache.Cache) *CampaignResult {
	t.Helper()
	res, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Complete {
		t.Fatalf("campaign incomplete: %s", res.Report)
	}
	return res
}

// TestCacheWarmRunIdentical: a warm run hits on every shard and its
// merged study is identical to both the cold run and an uncached run.
func TestCacheWarmRunIdentical(t *testing.T) {
	cfg := tinyConfig()
	cache := resultcache.NewDir(t.TempDir(), CacheSchemaVersion)

	uncached := Run(cfg)
	cold := runCached(t, cfg, cache)
	if cold.CacheHits != 0 || cold.CacheMisses != uint64(cfg.Shards) || cold.CacheRejects != 0 {
		t.Fatalf("cold tallies hits=%d misses=%d rejects=%d, want 0/%d/0",
			cold.CacheHits, cold.CacheMisses, cold.CacheRejects, cfg.Shards)
	}
	warm := runCached(t, cfg, cache)
	if warm.CacheHits != uint64(cfg.Shards) || warm.CacheMisses != 0 || warm.CacheRejects != 0 {
		t.Fatalf("warm tallies hits=%d misses=%d rejects=%d, want %d/0/0",
			warm.CacheHits, warm.CacheMisses, warm.CacheRejects, cfg.Shards)
	}
	if !reflect.DeepEqual(cold.Study.Samples, warm.Study.Samples) {
		t.Fatal("warm study differs from cold study")
	}
	if !reflect.DeepEqual(uncached.Samples, warm.Study.Samples) {
		t.Fatal("warm study differs from uncached study")
	}
}

// TestShardCacheKeyPinned pins every shard's cache key, for grids with
// and without a remainder, to the keys recorded before the span moved
// to closed form: each cached entry on disk is addressed by them.
// first and last are the end shards' keys; all digests every key in
// shard order.
func TestShardCacheKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		servers, shards  int
		first, last, all uint64
	}{
		{256, 256, 0xb498e7707259e731, 0x1d49255431d104ce, 0xa890874fcb4b6dff},
		{32, 4, 0x8d7458afbee4ee18, 0x6a0a9df8818fd63b, 0x37057c75627edbd6},
		{48, 5, 0xcb69e6c1d4c3825a, 0x1bf206b611dbe522, 0xfeed73ccef9dd48b},
		{7, 3, 0xf28e758288387b73, 0xf95f193d5c1faae2, 0x802d0c40c93b9d39},
		{120, 16, 0x8d7458afbee4ee18, 0xcd65a90c83fadc1b, 0x240714da9492a5b7},
	} {
		cfg := DefaultConfig()
		cfg.Servers, cfg.Shards = tc.servers, tc.shards
		cfg.MemBytes = 32 << 20
		cfg.Design = core.DesignContiguitas
		cfg.TicksMin, cfg.TicksMax = 1, 2
		cfg.JitterFrac = 0.1
		cfg.Seed = 7
		all := seal.NewDigest()
		for i := 0; i < tc.shards; i++ {
			all.Uint64s(ShardCacheKey(cfg, i))
		}
		first, last := ShardCacheKey(cfg, 0), ShardCacheKey(cfg, tc.shards-1)
		if first != tc.first || last != tc.last || all.Sum64() != tc.all {
			t.Errorf("(%d,%d): keys first %016x last %016x all %016x; want %016x %016x %016x",
				tc.servers, tc.shards, first, last, all.Sum64(), tc.first, tc.last, tc.all)
		}
	}
}

// TestShardSpanClosedForm: the closed-form span of every shard equals
// the tiling splitSpans builds.
func TestShardSpanClosedForm(t *testing.T) {
	for servers := 1; servers <= 64; servers++ {
		for shards := 1; shards <= servers; shards++ {
			for i, want := range splitSpans(servers, shards) {
				if got := shardSpan(servers, shards, i); got != want {
					t.Fatalf("shardSpan(%d, %d, %d) = %+v, want %+v", servers, shards, i, got, want)
				}
			}
		}
	}
}

// TestCacheDistinctConfigsDistinctKeys: changing any result-relevant
// Config field changes every shard key; changing a supervision knob
// changes none.
func TestCacheDistinctConfigsDistinctKeys(t *testing.T) {
	base := tinyConfig()
	variants := []func(*Config){
		func(c *Config) { c.Seed++ },
		func(c *Config) { c.MemBytes *= 2 },
		func(c *Config) { c.TicksMax++ },
		func(c *Config) { c.JitterFrac += 0.01 },
	}
	for vi, mutate := range variants {
		cfg := base
		mutate(&cfg)
		for shard := 0; shard < base.Shards; shard++ {
			if ShardCacheKey(cfg, shard) == ShardCacheKey(base, shard) {
				t.Fatalf("variant %d shard %d: key unchanged by result-relevant field", vi, shard)
			}
		}
	}
	// Shard identity separates keys within one config.
	seen := make(map[uint64]int)
	for shard := 0; shard < base.Shards; shard++ {
		k := ShardCacheKey(base, shard)
		if prev, dup := seen[k]; dup {
			t.Fatalf("shards %d and %d share key %016x", prev, shard, k)
		}
		seen[k] = shard
	}
}

// TestCacheCorruptEntryRecomputed: a tampered entry is rejected
// (counted, never trusted), the shard recomputes, the campaign stays
// correct, and the recompute heals the entry in place.
func TestCacheCorruptEntryRecomputed(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	cache := resultcache.NewDir(dir, CacheSchemaVersion)
	want := runCached(t, cfg, cache).Study.Samples

	path := cache.EntryPath(ShardCacheKey(cfg, 1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	res := runCached(t, cfg, cache)
	if res.CacheRejects < 1 {
		t.Fatalf("rejects = %d, want >= 1", res.CacheRejects)
	}
	if res.CacheHits != uint64(cfg.Shards-1) {
		t.Fatalf("hits = %d, want %d (every untouched shard)", res.CacheHits, cfg.Shards-1)
	}
	if !reflect.DeepEqual(res.Study.Samples, want) {
		t.Fatal("study changed after cache corruption")
	}
	// Healed: the next run hits on every shard, including the tampered one.
	if res := runCached(t, cfg, cache); res.CacheHits != uint64(cfg.Shards) {
		t.Fatalf("post-heal hits = %d, want %d", res.CacheHits, cfg.Shards)
	}
}

// TestCacheStaleSchemaRecomputed: entries written under an older cache
// schema are rejected wholesale and rewritten under the current one.
func TestCacheStaleSchemaRecomputed(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	old := resultcache.NewDir(dir, CacheSchemaVersion)
	want := runCached(t, cfg, old).Study.Samples

	cur := resultcache.NewDir(dir, CacheSchemaVersion+1)
	res := runCached(t, cfg, cur)
	if res.CacheRejects != uint64(cfg.Shards) || res.CacheHits != 0 {
		t.Fatalf("stale run hits=%d rejects=%d, want 0/%d", res.CacheHits, res.CacheRejects, cfg.Shards)
	}
	if !reflect.DeepEqual(res.Study.Samples, want) {
		t.Fatal("study changed across schema bump (generative model did not change)")
	}
	if res := runCached(t, cfg, cur); res.CacheHits != uint64(cfg.Shards) {
		t.Fatalf("post-rewrite hits = %d, want %d", res.CacheHits, cfg.Shards)
	}
}

// TestCacheLRUBackendAndMetrics: the in-memory backend behaves like the
// disk backend for in-process sweeps, and the campaign folds its tallies
// into the cache_hits/cache_misses/cache_rejects registry counters.
func TestCacheLRUBackendAndMetrics(t *testing.T) {
	cfg := tinyConfig()
	cache := resultcache.NewLRU(64, CacheSchemaVersion)
	reg := telemetry.NewRegistry()
	run := func() *CampaignResult {
		res, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Cache: cache, Metrics: reg})
		if err != nil || !res.Report.Complete {
			t.Fatalf("run: %v, %v", err, res)
		}
		return res
	}
	cold, warm := run(), run()
	if !reflect.DeepEqual(cold.Study.Samples, warm.Study.Samples) {
		t.Fatal("LRU warm study differs from cold")
	}
	if warm.CacheHits != uint64(cfg.Shards) {
		t.Fatalf("LRU warm hits = %d, want %d", warm.CacheHits, cfg.Shards)
	}
	if got := reg.Counter("cache_hits").Value(); got != warm.CacheHits {
		t.Fatalf("cache_hits counter = %d, want %d", got, warm.CacheHits)
	}
	if got := reg.Counter("cache_misses").Value(); got != cold.CacheMisses {
		t.Fatalf("cache_misses counter = %d, want %d", got, cold.CacheMisses)
	}
	if got := reg.Counter("cache_rejects").Value(); got != 0 {
		t.Fatalf("cache_rejects counter = %d, want 0", got)
	}
}

// TestCacheTracepoints: cold runs trace cache-miss, warm runs cache-hit,
// all on the cache track, emitted from the supervisor goroutine.
func TestCacheTracepoints(t *testing.T) {
	cfg := tinyConfig()
	cache := resultcache.NewLRU(64, CacheSchemaVersion)
	countEvents := func(ring *telemetry.Ring, id telemetry.EventID) int {
		n := 0
		for _, rec := range ring.Snapshot(nil) {
			if rec.ID == id {
				n++
			}
		}
		return n
	}
	cold := telemetry.NewRing(1 << 10)
	if _, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Cache: cache, Trace: cold}); err != nil {
		t.Fatal(err)
	}
	if got := countEvents(cold, telemetry.EvCacheMiss); got != cfg.Shards {
		t.Fatalf("cold run traced %d cache-miss events, want %d", got, cfg.Shards)
	}
	warm := telemetry.NewRing(1 << 10)
	if _, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Cache: cache, Trace: warm}); err != nil {
		t.Fatal(err)
	}
	if got := countEvents(warm, telemetry.EvCacheHit); got != cfg.Shards {
		t.Fatalf("warm run traced %d cache-hit events, want %d", got, cfg.Shards)
	}
	if got := countEvents(warm, telemetry.EvCacheMiss); got != 0 {
		t.Fatalf("warm run traced %d cache-miss events, want 0", got)
	}
}

// TestCacheConcurrentCampaigns: many campaigns over the same
// configuration race on one cache, with no coordination between them;
// all must complete with identical samples. Concurrent Puts of a key
// are last-writer-wins and every writer stores the same bytes, so a
// campaign run after the race hits on every shard and rejects none.
// (Which campaign computes which shard is timing-dependent; the
// samples are not.)
func TestCacheConcurrentCampaigns(t *testing.T) {
	cfg := tinyConfig()
	want := Run(cfg).Samples
	for _, tc := range []struct {
		name  string
		cache func(t *testing.T) resultcache.Cache
	}{
		{"lru", func(*testing.T) resultcache.Cache { return resultcache.NewLRU(64, CacheSchemaVersion) }},
		{"dir", func(t *testing.T) resultcache.Cache { return resultcache.NewDir(t.TempDir(), CacheSchemaVersion) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := tc.cache(t)
			const campaigns = 6
			results := make([][]Sample, campaigns)
			var wg sync.WaitGroup
			for i := 0; i < campaigns; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Cache: cache})
					if err != nil {
						t.Error(err)
						return
					}
					results[i] = res.Study.Samples
				}(i)
			}
			wg.Wait()
			for i, got := range results {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("campaign %d samples differ from uncached reference", i)
				}
			}
			after := runCached(t, cfg, cache)
			if after.CacheHits != uint64(cfg.Shards) || after.CacheRejects != 0 {
				t.Fatalf("run after the race: hits=%d rejects=%d, want hits=%d rejects=0",
					after.CacheHits, after.CacheRejects, cfg.Shards)
			}
			if !reflect.DeepEqual(after.Study.Samples, want) {
				t.Fatal("run after the race diverged from uncached reference")
			}
		})
	}
}

// TestCacheWithCheckpointResume: a durable, fault-injected campaign and
// the cache coexist — the resumed-to-completion shards still produce the
// canonical study, and a following cached run hits everywhere.
func TestCacheWithCheckpointResume(t *testing.T) {
	cfg := tinyConfig()
	cache := resultcache.NewDir(t.TempDir(), CacheSchemaVersion)
	want := Run(cfg).Samples
	res, err := RunSupervised(context.Background(), SupervisedConfig{
		Fleet: cfg,
		Dir:   t.TempDir(),
		Cache: cache,
		// 3 servers per shard: the third crossing kills each shard once,
		// after its last server but before the final checkpoint.
		Faults: FaultPlan{CrashEveryN: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Complete {
		t.Fatalf("faulted campaign incomplete: %s", res.Report)
	}
	if res.KillsInjected == 0 {
		t.Fatal("fault plan never fired; test is vacuous")
	}
	if !reflect.DeepEqual(res.Study.Samples, want) {
		t.Fatal("faulted cached campaign diverged from canonical study")
	}
	warm := runCached(t, cfg, cache)
	if warm.CacheHits != uint64(cfg.Shards) {
		t.Fatalf("warm-after-faults hits = %d, want %d", warm.CacheHits, cfg.Shards)
	}
	if !reflect.DeepEqual(warm.Study.Samples, want) {
		t.Fatal("warm-after-faults study diverged")
	}
}

// TestRunSupervisedPreCancelledContext: a context cancelled before the
// campaign starts is a reported setup error, not an empty degraded
// result (and therefore never fleet.Run's assertion panic).
func TestRunSupervisedPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunSupervised(ctx, SupervisedConfig{Fleet: tinyConfig()})
	if err == nil {
		t.Fatalf("pre-cancelled campaign returned %+v, want error", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(context.Canceled)", err)
	}
}

// TestCachePowerLoss fills the result cache for a two-cell sweep of
// eight one-server shards each through vfs.PowerLossFS, then puts every
// entry, one at a time, into every state a power loss after the fill
// may leave it in: absent, empty, short, zero-tailed or complete. For
// each state the next sweep must reproduce the clean fill's canonical
// bytes, count an absent entry as a miss and a damaged one as a reject,
// and heal the entry, so the sweep after it is all hits.
func TestCachePowerLoss(t *testing.T) {
	var cells []Config
	for _, mib := range []uint64{32, 64} {
		cfg := tinyConfig()
		cfg.Servers, cfg.Shards = 8, 8
		cfg.MemBytes = mib << 20
		cfg.TicksMin, cfg.TicksMax = 2, 6
		cells = append(cells, cfg)
	}
	entries := uint64(len(cells) * cells[0].Shards)
	cache := resultcache.NewDir(t.TempDir(), CacheSchemaVersion)
	type tally struct{ hits, misses, rejects uint64 }
	sweep := func() ([]byte, tally) {
		var canon []byte
		var n tally
		for _, cfg := range cells {
			res := runCached(t, cfg, cache)
			canon = append(canon, CanonicalBytes(res.Study)...)
			n.hits += res.CacheHits
			n.misses += res.CacheMisses
			n.rejects += res.CacheRejects
		}
		return canon, n
	}

	p := vfs.NewPowerLossFS(vfs.Active())
	restore := vfs.SetDefault(p)
	want, n := sweep()
	restore()
	if n != (tally{misses: entries}) {
		t.Fatalf("clean fill tallies %+v, want %d misses", n, entries)
	}
	if syncs := p.Count(vfs.OpSync) + p.Count(vfs.OpSyncDir); syncs != 0 || p.Count(vfs.OpRename) != int(entries) {
		t.Fatalf("the fill made %d fsyncs and %d renames, want 0 and %d", syncs, p.Count(vfs.OpRename), entries)
	}

	seen := map[vfs.OutcomeKind]int{}
	for _, e := range p.Crash(p.Ops()) {
		if filepath.Ext(e.Path) != ".ctgcach" {
			continue // a temp file: the cache never reads one
		}
		var complete []byte
		for _, o := range e.Outcomes {
			if o.Kind == vfs.Complete {
				complete = o.Data
			}
		}
		for _, o := range e.Outcomes {
			if err := o.Show(vfs.OS{}, e.Path); err != nil {
				t.Fatal(err)
			}
			got, n := sweep()
			wantN := tally{hits: entries - 1, rejects: 1}
			switch o.Kind {
			case vfs.Absent:
				wantN = tally{hits: entries - 1, misses: 1}
			case vfs.Complete:
				wantN = tally{hits: entries}
			}
			if n != wantN {
				t.Fatalf("%s %s: sweep tallies %+v, want %+v", filepath.Base(e.Path), o.Kind, n, wantN)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s: sweep bytes differ from the clean fill", filepath.Base(e.Path), o.Kind)
			}
			if _, n := sweep(); n != (tally{hits: entries}) {
				t.Fatalf("%s %s: the sweep after the heal tallies %+v, want all hits", filepath.Base(e.Path), o.Kind, n)
			}
			if data, err := os.ReadFile(e.Path); err != nil || !bytes.Equal(data, complete) {
				t.Fatalf("%s %s: healed entry differs from the clean fill's (%v)", filepath.Base(e.Path), o.Kind, err)
			}
			seen[o.Kind]++
		}
	}
	for _, kind := range []vfs.OutcomeKind{vfs.Absent, vfs.Empty, vfs.Prefix, vfs.ZeroTail, vfs.Complete} {
		if seen[kind] < int(entries) {
			t.Errorf("%d entries showed %s, want all %d", seen[kind], kind, entries)
		}
	}
}

// TestCacheWriterStoresEveryEntry: entries handed to the campaign's
// cache writer are all stored once stopCacheWriter returns, and an
// entry from an abandoned attempt that finishes after the campaign
// returned is stored directly, never sent to the stopped writer.
func TestCacheWriterStoresEveryEntry(t *testing.T) {
	cache := resultcache.NewLRU(2*cacheQueue, CacheSchemaVersion)
	c := &campaign{cache: cache, cacheKeys: make([]uint64, 1001)}
	for i := range c.cacheKeys {
		c.cacheKeys[i] = uint64(i)
	}
	put := func(key uint64) {
		c.populateCache(&shardRun{c: c, shard: int(key)})
	}
	for key := uint64(0); key < cacheQueue+8; key++ {
		put(key)
	}
	c.stopCacheWriter()
	put(1000)
	for _, key := range []uint64{0, cacheQueue + 7, 1000} {
		if _, err := cache.Get(key); err != nil {
			t.Fatalf("entry %d after the writer stopped: %v", key, err)
		}
	}
	if cache.Len() != cacheQueue+9 {
		t.Fatalf("%d entries stored, want %d", cache.Len(), cacheQueue+9)
	}
}
