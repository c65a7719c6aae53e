package fleet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"contiguitas/internal/core"
	"contiguitas/internal/seal"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/supervise"
)

// tinyConfig is sized for supervision tests: enough servers for several
// shards, small enough that a full campaign stays under a second.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Servers = 12
	cfg.MemBytes = 64 << 20
	cfg.TicksMin = 20
	cfg.TicksMax = 60
	cfg.Design = core.DesignLinux
	cfg.Shards = 4
	return cfg
}

func TestDefaultShardsAndSpans(t *testing.T) {
	for _, tc := range []struct{ servers, want int }{
		{0, 1}, {1, 1}, {16, 1}, {17, 2}, {120, 8}, {100000, 16},
	} {
		if got := DefaultShards(tc.servers); got != tc.want {
			t.Fatalf("DefaultShards(%d) = %d, want %d", tc.servers, got, tc.want)
		}
	}
	spans := splitSpans(10, 4)
	var total uint64
	var next uint64
	for i, sp := range spans {
		if sp.lo != next {
			t.Fatalf("span %d starts at %d, want %d (spans must tile)", i, sp.lo, next)
		}
		next += sp.n
		total += sp.n
	}
	if total != 10 {
		t.Fatalf("spans cover %d servers, want 10", total)
	}
}

// TestSupervisedIdenticalUnderKills is the in-process version of the
// fleetscan -soak gate: injected shard kills and checkpoint-write
// failures must not change a single sample of the merged study.
func TestSupervisedIdenticalUnderKills(t *testing.T) {
	cfg := tinyConfig()
	want := Run(cfg)

	res, err := RunSupervised(context.Background(), SupervisedConfig{
		Fleet:       cfg,
		MaxAttempts: 64,
		BackoffBase: time.Microsecond,
		BackoffCap:  time.Millisecond,
		Faults:      FaultPlan{CrashEveryN: 2, CheckpointFailProb: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Complete {
		t.Fatalf("faulted campaign incomplete: %s", res.Report)
	}
	if res.KillsInjected == 0 {
		t.Fatal("fault plan injected no kills — the test exercised nothing")
	}
	if res.Report.Crashes == 0 || res.Report.Resumed == 0 {
		t.Fatalf("no supervision happened: %s", res.Report)
	}
	if !reflect.DeepEqual(res.Study.Samples, want.Samples) {
		t.Fatalf("supervised samples diverged from plain Run after %d kills", res.KillsInjected)
	}
}

// TestCancellationPartialNeverComplete pins the degradation contract:
// cancelling a campaign yields a report that is never Complete, a study
// holding only finished shards, and no leaked goroutines.
func TestCancellationPartialNeverComplete(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := tinyConfig()
	cfg.Servers = 24
	cfg.Shards = 8

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as soon as the first shard finishes: with 2 workers and 8
	// shards, most of the campaign is still pending, so the result must
	// degrade to a strict subset.
	res, err := RunSupervised(ctx, SupervisedConfig{
		Fleet:   cfg,
		Workers: 2,
		OnEvent: func(ev supervise.Event) {
			if ev.Kind == supervise.EventDone {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Complete {
		t.Fatalf("canceled campaign reported complete: %s", res.Report)
	}
	if !res.Report.Canceled {
		t.Fatalf("canceled campaign not marked canceled: %s", res.Report)
	}
	if len(res.Study.Samples) == 0 || len(res.Study.Samples) >= cfg.Servers {
		t.Fatalf("partial study has %d samples of %d, want a strict non-empty subset",
			len(res.Study.Samples), cfg.Servers)
	}
	if res.Report.Finished*3 != len(res.Study.Samples) {
		t.Fatalf("%d finished shards but %d samples (3 servers/shard)",
			res.Report.Finished, len(res.Study.Samples))
	}
	if len(res.MissingShards)+res.Report.Finished != cfg.Shards {
		t.Fatalf("missing %v + finished %d != %d shards",
			res.MissingShards, res.Report.Finished, cfg.Shards)
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancellation: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestResumeFromDiskCompletesIdentically kills a durable campaign
// mid-flight (context timeout), then resumes it in a "new process"
// (fresh RunSupervised) and requires the final study to match an
// uninterrupted run exactly.
func TestResumeFromDiskCompletesIdentically(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()

	// Kill the campaign at the first injected crash: the crashed shard is
	// mid-flight, so the on-disk state is guaranteed partial.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first, err := RunSupervised(ctx, SupervisedConfig{
		Fleet:       cfg,
		Workers:     2,
		Dir:         dir,
		MaxAttempts: 64,
		BackoffBase: time.Microsecond,
		Faults:      FaultPlan{CrashEveryN: 2},
		OnEvent: func(ev supervise.Event) {
			if ev.Kind == supervise.EventCrash {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Report.Complete {
		t.Fatalf("campaign canceled at first crash still completed: %s", first.Report)
	}

	res, err := RunSupervised(context.Background(), SupervisedConfig{
		Fleet:  cfg,
		Dir:    dir,
		Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Complete {
		t.Fatalf("resumed campaign incomplete: %s", res.Report)
	}
	want := Run(cfg)
	if !reflect.DeepEqual(res.Study.Samples, want.Samples) {
		t.Fatal("resumed study diverged from uninterrupted run")
	}
	for _, s := range res.Manifest.Shards {
		if s.Status != snapshot.ShardDone {
			t.Fatalf("manifest shard %d not done after resume: %+v", s.Shard, s)
		}
	}
}

// TestManifestTamperRejectedOnResume pins the typed sentinels: editing
// the manifest's bytes on disk — a flipped chain digest, a rolled-back
// attempt count — must fail resume with ErrManifestTamper before any
// shard state is trusted.
func TestManifestTamperRejectedOnResume(t *testing.T) {
	// Byte offset of shard 0's field f in a CTGMANI file: the 11-byte
	// frame header, campaign and record count, then the record's u64s
	// (Shard, Units, Done, Seq, Chain, Attempts, Status).
	field := func(f int) int { return 11 + 8 + 8 + 8*f }
	tamper := []struct {
		name string
		edit func(data []byte)
	}{
		{"flipped chain digest", func(data []byte) { data[field(4)] ^= 1 }},
		{"stale attempt count", func(data []byte) { clear(data[field(5) : field(5)+8]) }},
	}
	for _, tc := range tamper {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			dir := t.TempDir()
			if _, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Dir: dir}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(ManifestPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			orig := bytes.Clone(data)
			tc.edit(data)
			if bytes.Equal(data, orig) {
				t.Fatal("edit left the manifest unchanged")
			}
			if err := os.WriteFile(ManifestPath(dir), data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Dir: dir, Resume: true})
			if !errors.Is(err, snapshot.ErrManifestTamper) {
				t.Fatalf("resume returned %v, want ErrManifestTamper", err)
			}
		})
	}
}

// TestResealedTamperQuarantinesShard covers the adversary who edits the
// manifest and rewrites it through the real writer: the frame verifies,
// but the shard checkpoint no longer matches the manifest record, so the
// shard's every attempt fails verification and it is quarantined — its
// data never enters the study.
func TestResealedTamperQuarantinesShard(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	if _, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.ReadManifest(ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	m.Shards[1].Chain ^= 0xdead
	if err := snapshot.WriteManifest(ManifestPath(dir), m); err != nil {
		t.Fatal(err)
	}
	res, err := RunSupervised(context.Background(), SupervisedConfig{
		Fleet:       cfg,
		Dir:         dir,
		Resume:      true,
		MaxAttempts: 2,
		BackoffBase: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Complete || res.Report.Quarantined != 1 {
		t.Fatalf("report = %s, want exactly shard 1 quarantined", res.Report)
	}
	if len(res.MissingShards) != 1 || res.MissingShards[0] != 1 {
		t.Fatalf("missing shards %v, want [1]", res.MissingShards)
	}
	if len(res.Study.Samples) != cfg.Servers-3 {
		t.Fatalf("partial study has %d samples, want %d", len(res.Study.Samples), cfg.Servers-3)
	}
}

// TestResumeWrongConfigRejected: campaign state never resumes across a
// changed configuration.
func TestResumeWrongConfigRejected(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	if _, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	_, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: other, Dir: dir, Resume: true})
	if !errors.Is(err, snapshot.ErrCampaignMismatch) {
		t.Fatalf("resume with changed seed returned %v, want ErrCampaignMismatch", err)
	}
}

// TestResumeMissingManifestTyped: resuming from a directory that never
// held a campaign (or whose manifest is a zero-byte torn file) must
// return the typed ErrNoManifest, not silently start fresh and not
// surface a generic decode error — callers route this to a usage exit.
func TestResumeMissingManifestTyped(t *testing.T) {
	cfg := tinyConfig()

	_, err := RunSupervised(context.Background(), SupervisedConfig{
		Fleet: cfg, Dir: t.TempDir(), Resume: true,
	})
	if !errors.Is(err, snapshot.ErrNoManifest) {
		t.Fatalf("resume from empty dir returned %v, want ErrNoManifest", err)
	}

	dir := t.TempDir()
	if werr := os.WriteFile(ManifestPath(dir), nil, 0o644); werr != nil {
		t.Fatal(werr)
	}
	_, err = RunSupervised(context.Background(), SupervisedConfig{
		Fleet: cfg, Dir: dir, Resume: true,
	})
	if !errors.Is(err, snapshot.ErrNoManifest) {
		t.Fatalf("resume from empty manifest returned %v, want ErrNoManifest", err)
	}
}

// TestCanonicalBytesIdentity: CanonicalBytes is the byte identity every
// robustness gate compares on — equal studies serialise equal, and any
// sample divergence changes the bytes (and the digest).
func TestCanonicalBytesIdentity(t *testing.T) {
	cfg := tinyConfig()
	a, b := Run(cfg), Run(cfg)
	if !bytes.Equal(CanonicalBytes(a), CanonicalBytes(b)) {
		t.Fatal("same-seed studies produced different canonical bytes")
	}
	if CanonicalDigest(a) != CanonicalDigest(b) {
		t.Fatal("same-seed studies produced different canonical digests")
	}
	other := cfg
	other.Seed++
	c := Run(other)
	if bytes.Equal(CanonicalBytes(a), CanonicalBytes(c)) {
		t.Fatal("different-seed studies produced identical canonical bytes")
	}
}

// TestCanonicalBytesPinned pins the canonical encoding and the cache key
// derivation to values recorded before either moved onto internal/seal:
// every cached entry, journaled cell and CI cmp gate depends on them.
func TestCanonicalBytesPinned(t *testing.T) {
	s := Run(tinyConfig())
	if n, d := len(CanonicalBytes(s)), CanonicalDigest(s); n != 1905 || d != 0x05c331c5074b2f3a {
		t.Fatalf("canonical bytes: %d bytes, digest %016x; want 1905, 05c331c5074b2f3a", n, d)
	}
	if k := ShardCacheKey(tinyConfig(), 0); k != 0x6948880c44769075 {
		t.Fatalf("ShardCacheKey = %016x, want 6948880c44769075", k)
	}
}

// TestDecodeCanonical: DecodeCanonical inverts CanonicalBytes exactly
// and refuses every truncation, a profile name without its NUL, and
// trailing bytes.
func TestDecodeCanonical(t *testing.T) {
	s := Run(tinyConfig())
	data := CanonicalBytes(s)
	got, err := DecodeCanonical(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s.Samples) {
		t.Fatal("decoded samples differ from the study's")
	}
	if !bytes.Equal(CanonicalBytes(&Study{Samples: got}), data) {
		t.Fatal("re-encoding the decoded samples changed the bytes")
	}
	for n := 0; n < len(data); n++ {
		if _, err := DecodeCanonical(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
	if _, err := DecodeCanonical(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// One sample whose profile name runs to the end without a NUL.
	noNUL := append([]byte{1, 0, 0, 0, 0, 0, 0, 0}, bytes.Repeat([]byte{'w'}, minSampleBytes)...)
	if _, err := DecodeCanonical(noNUL); err == nil {
		t.Fatal("profile name without NUL accepted")
	}

	// decodeSamplesInto, the cache-hit decode, fills a slice of exactly
	// the encoded count and leaves nothing behind when it refuses.
	dst := make([]Sample, len(s.Samples))
	if err := decodeSamplesInto(dst, data); err != nil || !reflect.DeepEqual(dst, s.Samples) {
		t.Fatalf("decodeSamplesInto: %v", err)
	}
	for _, n := range []int{len(s.Samples) - 1, len(s.Samples) + 1} {
		if err := decodeSamplesInto(make([]Sample, n), data); err == nil {
			t.Fatalf("%d samples decoded into a %d-sample slice", len(s.Samples), n)
		}
	}
	if err := decodeSamplesInto(dst, data[:len(data)-1]); err == nil || !reflect.DeepEqual(dst, make([]Sample, len(dst))) {
		t.Fatalf("truncated payload: %v, slice not cleared", err)
	}
	if got, want := CanonicalDigest(s), seal.Sum64(data); got != want {
		t.Fatalf("CanonicalDigest %016x, digest of CanonicalBytes %016x", got, want)
	}
}
