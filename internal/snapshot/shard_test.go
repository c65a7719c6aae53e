package snapshot

import (
	"errors"
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
