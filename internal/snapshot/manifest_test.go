package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func shardCkpt(campaign uint64, shard int, seq, done uint64, payload []byte, prev uint64) *ShardCheckpoint {
	c := &ShardCheckpoint{Campaign: campaign, Shard: shard, Seq: seq, Done: done, Payload: payload}
	c.Seal(prev)
	return c
}

func TestShardCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-000.ctgshrd")
	c1 := shardCkpt(42, 0, 1, 3, []byte("three servers"), 0)
	if err := WriteShard(path, c1); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShard(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Campaign != 42 || got.Seq != 1 || got.Done != 3 || string(got.Payload) != "three servers" {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// The chain links: checkpoint 2 seals over checkpoint 1's chain, and
	// the recomputation must notice a severed link.
	c2 := shardCkpt(42, 0, 2, 6, []byte("six servers"), c1.ChainHash)
	if c2.PrevChainHash != c1.ChainHash {
		t.Fatalf("chain not linked: prev %016x, want %016x", c2.PrevChainHash, c1.ChainHash)
	}
	if c2.ChainHash == c1.ChainHash {
		t.Fatal("chain did not advance")
	}
}

func TestShardCheckpointCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.ctgshrd")

	c := shardCkpt(1, 0, 1, 2, []byte("payload"), 0)
	c.Payload = []byte("pAyload") // bit flip after sealing
	if err := WriteShard(path, c); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShard(path); !errors.Is(err, ErrShardCheckpoint) {
		t.Fatalf("payload corruption -> %v, want ErrShardCheckpoint", err)
	}

	c = shardCkpt(1, 0, 1, 2, []byte("payload"), 0)
	c.Done = 99 // identity edit after sealing breaks the chain recomputation
	if err := WriteShard(path, c); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShard(path); !errors.Is(err, ErrShardCheckpoint) {
		t.Fatalf("field edit -> %v, want ErrShardCheckpoint", err)
	}

	if _, err := ReadShard(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

func testManifest(campaign uint64, shards int) *Manifest {
	m := &Manifest{Campaign: campaign, Shards: make([]ManifestShard, shards)}
	for i := range m.Shards {
		m.Shards[i] = ManifestShard{Shard: i, Units: 10, Done: uint64(i), Seq: uint64(i), Chain: uint64(1000 + i), Attempts: uint64(1 + i)}
	}
	return m
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ctgmani")
	m := testManifest(7, 3)
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Campaign != 7 || len(got.Shards) != 3 || got.Shards[2].Chain != 1002 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestManifestTamperDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ctgmani")
	if err := WriteManifest(path, testManifest(7, 3)); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// at returns the byte offset of field f of record i: the 11-byte
	// frame header, campaign and record count, then seven u64s per
	// record (Shard, Units, Done, Seq, Chain, Attempts, Status).
	at := func(i, f int) int { return 11 + 16 + 8*(7*i+f) }
	tamper := []struct {
		name string
		edit func(b []byte)
	}{
		{"flipped chain digest", func(b []byte) { b[at(1, 4)] ^= 1 }},
		{"rolled-back attempt count", func(b []byte) { b[at(1, 5)]-- }},
		{"rolled-back progress", func(b []byte) { b[at(2, 2)], b[at(2, 3)] = 0, 0 }},
		{"status edit", func(b []byte) { b[at(0, 6)] = byte(ShardDone) }},
		{"campaign swap", func(b []byte) { b[11]++ }},
		{"magic", func(b []byte) { copy(b, "NOTMANI") }},
		{"version", func(b []byte) { b[7]++ }},
	}
	for _, tc := range tamper {
		b := append([]byte(nil), orig...)
		tc.edit(b)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(path); !errors.Is(err, ErrManifestTamper) {
			t.Fatalf("%s -> %v, want ErrManifestTamper", tc.name, err)
		}
	}

	// Shard records must be indexed by position even in an intact file.
	m := testManifest(7, 3)
	m.Shards[0].Shard = 2
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); !errors.Is(err, ErrManifestTamper) {
		t.Fatalf("record index swap -> want ErrManifestTamper")
	}
}

func TestVerifyShardAgainstManifest(t *testing.T) {
	m := &Manifest{Campaign: 9, Shards: make([]ManifestShard, 2)}
	ck := shardCkpt(9, 1, 3, 5, []byte("p"), 77)
	m.Shards[0] = ManifestShard{Shard: 0}
	m.Shards[1] = ManifestShard{Shard: 1, Units: 8, Done: 5, Seq: 3, Chain: ck.ChainHash}

	if err := VerifyShardAgainstManifest(m, ck); err != nil {
		t.Fatalf("agreeing checkpoint rejected: %v", err)
	}

	wrongCampaign := shardCkpt(10, 1, 3, 5, []byte("p"), 77)
	if err := VerifyShardAgainstManifest(m, wrongCampaign); !errors.Is(err, ErrCampaignMismatch) {
		t.Fatalf("campaign mismatch -> %v, want ErrCampaignMismatch", err)
	}

	stale := shardCkpt(9, 1, 2, 4, []byte("old"), 0)
	if err := VerifyShardAgainstManifest(m, stale); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("stale checkpoint -> %v, want ErrShardMismatch", err)
	}

	outOfRange := shardCkpt(9, 5, 1, 1, []byte("p"), 0)
	if err := VerifyShardAgainstManifest(m, outOfRange); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("out-of-range shard -> %v, want ErrShardMismatch", err)
	}
}
