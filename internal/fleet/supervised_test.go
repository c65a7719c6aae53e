package fleet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"contiguitas/internal/core"
	"contiguitas/internal/fault"
	"contiguitas/internal/seal"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/supervise"
	"contiguitas/internal/vfs"
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
	for i := 0; i < cfg.Shards; i++ {
		ck, err := snapshot.ReadShard(shardPath(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if n := shardSpan(cfg.Servers, cfg.Shards, i).n; ck.Done != n {
			t.Fatalf("shard %d's final checkpoint holds %d of %d servers", i, ck.Done, n)
		}
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

// copyDir copies every file of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumeStateDir pins what a resume accepts from a state directory
// whose shard checkpoints are the only durable record: any intact link
// of this campaign's own chain resumes byte-identical, even one older
// than the last written, and every other file is a typed setup error.
func TestResumeStateDir(t *testing.T) {
	cfg := tinyConfig()
	want := Run(cfg)
	full := t.TempDir()
	if _, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Dir: full}); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	otherDir := t.TempDir()
	if _, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: other, Dir: otherDir}); err != nil {
		t.Fatal(err)
	}
	copyFile := func(src, dst string) {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name string
		edit func(dir string)
		want error // nil: the resume completes byte-identical
	}{
		{"intact", func(string) {}, nil},
		{"checkpoint rolled back to an older seq", func(dir string) {
			sp := shardSpan(cfg.Servers, cfg.Shards, 1)
			ck := &snapshot.ShardCheckpoint{Campaign: campaignFingerprint(cfg, cfg.Shards), Shard: 1,
				Seq: 1, Done: 1, Payload: encodeSamples(want.Samples[sp.lo : sp.lo+1])}
			ck.Seal(0)
			if err := snapshot.WriteShard(shardPath(dir, 1), ck); err != nil {
				t.Fatal(err)
			}
		}, nil},
		{"shard never checkpointed", func(dir string) {
			if err := os.Remove(shardPath(dir, 2)); err != nil {
				t.Fatal(err)
			}
		}, nil},
		{"checkpoint copied onto another shard", func(dir string) {
			copyFile(shardPath(dir, 0), shardPath(dir, 1))
		}, snapshot.ErrShardCheckpoint},
		{"checkpoint of another campaign", func(dir string) {
			copyFile(shardPath(otherDir, 2), shardPath(dir, 2))
		}, snapshot.ErrCampaignMismatch},
		{"flipped checkpoint byte", func(dir string) {
			data, err := os.ReadFile(shardPath(dir, 3))
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(shardPath(dir, 3), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, snapshot.ErrShardCheckpoint},
		{"empty directory", func(dir string) {
			for i := 0; i < cfg.Shards; i++ {
				if err := os.Remove(shardPath(dir, i)); err != nil {
					t.Fatal(err)
				}
			}
		}, snapshot.ErrNoCampaignState},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, full, dir)
			tc.edit(dir)
			res, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Dir: dir, Resume: true})
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("resume returned %v, want %v", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !res.Report.Complete || !bytes.Equal(CanonicalBytes(res.Study), CanonicalBytes(want)) {
				t.Fatalf("resume did not reproduce the uninterrupted study: %s", res.Report)
			}
		})
	}
}

// TestCrashPointEnumeration kills a durable campaign at every storage
// operation it makes. From op k on, every write, fsync, rename and
// remove fails (vfs.DeadFS): that is what the disk keeps of a process
// that died at k.
// Resuming on the real filesystem must then reproduce the uninterrupted
// study byte for byte or, when no checkpoint became durable, refuse with
// ErrNoCampaignState. Any other error, a panic or different bytes fail.
func TestCrashPointEnumeration(t *testing.T) {
	cfg := tinyConfig()
	want := CanonicalBytes(Run(cfg))
	// run drives one single-worker campaign on an InjectFS over the real
	// filesystem and returns the storage ops it crossed. The first crash
	// ends it: past the dead op nothing reaches the disk anyway.
	run := func(dir string, in *fault.Injector) uint64 {
		inj := vfs.NewInjectFS(vfs.Active(), in, vfs.InjectConfig{})
		defer vfs.SetDefault(vfs.DeadFS{InjectFS: inj})()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err := RunSupervised(ctx, SupervisedConfig{
			Fleet: cfg, Workers: 1, Dir: dir, MaxAttempts: 1,
			OnEvent: func(ev supervise.Event) {
				if ev.Kind == supervise.EventCrash {
					cancel()
				}
			},
		})
		if err != nil {
			t.Fatalf("campaign setup failed: %v", err)
		}
		return inj.Ops()
	}
	// A clean run reads each shard's file once at start, then makes one
	// write, two fsyncs (file and directory) and one rename per server.
	ops := run(t.TempDir(), fault.New(1))
	if wantOps := uint64(cfg.Shards + 4*cfg.Servers); ops != wantOps {
		t.Fatalf("clean run crossed %d storage ops, want %d", ops, wantOps)
	}
	var empty, resumed int
	for k := uint64(1); k <= ops; k++ {
		dir := t.TempDir()
		in := fault.New(k)
		for _, p := range []string{fault.PointFSWrite, fault.PointFSFsync, fault.PointFSRename} {
			in.Arm(p, fault.Trigger{EveryN: 1, From: k})
		}
		run(dir, in)
		res, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Dir: dir, Resume: true})
		if errors.Is(err, snapshot.ErrNoCampaignState) {
			if files, _ := filepath.Glob(filepath.Join(dir, "*.ctgshrd")); len(files) > 0 {
				t.Fatalf("k=%d: resume found no state beside %v", k, files)
			}
			empty++
			continue
		}
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if !res.Report.Complete || !bytes.Equal(CanonicalBytes(res.Study), want) {
			t.Fatalf("k=%d: resumed study differs from the uninterrupted one: %s", k, res.Report)
		}
		resumed++
	}
	if empty == 0 || resumed == 0 {
		t.Fatalf("%d crash points left no state and %d resumed; want both kinds", empty, resumed)
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
