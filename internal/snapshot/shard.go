// Per-shard checkpoints: the on-disk state of a supervised sharded
// campaign (internal/supervise driving internal/fleet).
//
// A campaign directory holds one CTGSHRD checkpoint file per shard and
// nothing else. Each is a sealed record (internal/seal, DESIGN.md
// "Sealed records") written atomically, so the frame digest covers
// every byte and a torn or flipped file is refused before any field is
// trusted. Checkpoints are hash-chained (chain_n = shardMix(chain_{n-1},
// identity, payload digest)), and the file certifies itself: no other
// record vouches for it.
//
// Trust model on resume: a checkpoint must carry an intact frame and a
// chain value that recomputes from its fields (ErrShardCheckpoint
// otherwise), and the campaign fingerprint must match the resuming
// configuration (ErrCampaignMismatch). The owner checks that the file
// names its own shard. A stale but intact checkpoint is accepted: a
// shard's samples are a pure function of (config, shard), so resuming
// from an older link recomputes the same bytes. The FNV framing defends
// against storage faults, not against an adversary holding the writer.
package snapshot

import (
	"errors"
	"fmt"

	"contiguitas/internal/seal"
)

// Typed campaign decode/resume failures.
var (
	// ErrShardCheckpoint reports a shard checkpoint that fails
	// verification, whose chain value does not recompute from its
	// contents, or that sits at another shard's path.
	ErrShardCheckpoint = errors.New("snapshot: shard checkpoint corrupt")
	// ErrCampaignMismatch reports campaign state written by a different
	// campaign configuration than the one resuming it.
	ErrCampaignMismatch = errors.New("snapshot: campaign fingerprint mismatch")
	// ErrNoCampaignState reports a resume target holding no checkpoint
	// at all: a missing or empty directory. Distinct from
	// ErrShardCheckpoint (a checkpoint exists but lies) so callers can
	// diagnose "not a campaign state directory", a usage error, apart
	// from corruption.
	ErrNoCampaignState = errors.New("snapshot: no campaign state")
)

// shardFormat frames shard checkpoints; version 2 is the sealed-record
// frame.
var shardFormat = seal.Format{Magic: "CTGSHRD", Version: 2, Err: ErrShardCheckpoint}

// ShardCheckpoint is one shard's durable progress record. Payload is
// owner-defined (the fleet stores its canonical sample bytes); the
// checkpoint layer sees only bytes and digests them. On disk the body
// is Campaign, Shard, Seq, Done, PrevChainHash, ChainHash, Payload.
type ShardCheckpoint struct {
	// Campaign fingerprints the campaign configuration (FNV over the
	// config fields); checkpoints never resume across configurations.
	Campaign uint64
	Shard    int
	// Seq numbers this shard's checkpoints (1-based); Done counts the
	// work units (servers) completed at the quiesce point.
	Seq  uint64
	Done uint64
	// PayloadHash digests Payload (recomputed on read, not stored);
	// PrevChainHash/ChainHash hash-chain the shard's checkpoint history
	// exactly like Envelope does.
	PayloadHash   uint64
	PrevChainHash uint64
	ChainHash     uint64
	Payload       []byte
}

// shardMix folds a shard checkpoint's identity and payload digest into
// the running chain, binding shard index, sequence, and progress — not
// just the payload bytes — into every link.
func (c *ShardCheckpoint) shardMix() uint64 {
	return seal.Sum64s(c.PrevChainHash, c.Campaign, uint64(c.Shard), c.Seq, c.Done, c.PayloadHash)
}

// Seal fills the digest fields from the payload and the previous chain
// value, returning the new chain value.
func (c *ShardCheckpoint) Seal(prevChain uint64) uint64 {
	c.PayloadHash = seal.Sum64(c.Payload)
	c.PrevChainHash = prevChain
	c.ChainHash = c.shardMix()
	return c.ChainHash
}

// WriteShard encodes the sealed checkpoint to path atomically and
// durably (temp file, file fsync, rename, parent-directory fsync).
func WriteShard(path string, c *ShardCheckpoint) error {
	var w seal.Writer
	w.U64(c.Campaign, uint64(c.Shard), c.Seq, c.Done, c.PrevChainHash, c.ChainHash)
	w.Bytes(c.Payload)
	return shardFormat.WriteFile(path, w.Body())
}

// DecodeShard verifies and decodes sealed shard-checkpoint bytes: the
// frame, then the chain recomputed through the payload digest.
func DecodeShard(data []byte) (*ShardCheckpoint, error) {
	r, err := shardFormat.Reader(data)
	if err != nil {
		return nil, err
	}
	c := &ShardCheckpoint{Campaign: r.U64(), Shard: int(r.U64()), Seq: r.U64(), Done: r.U64(),
		PrevChainHash: r.U64(), ChainHash: r.U64(), Payload: r.Bytes()}
	if err := r.Done(); err != nil {
		return nil, err
	}
	c.PayloadHash = seal.Sum64(c.Payload)
	if got := c.shardMix(); got != c.ChainHash {
		return nil, fmt.Errorf("%w: recomputed chain %016x, recorded %016x",
			ErrShardCheckpoint, got, c.ChainHash)
	}
	return c, nil
}

// ReadShard reads and verifies the shard checkpoint at path (see
// DecodeShard).
func ReadShard(path string) (*ShardCheckpoint, error) { return seal.ReadFile(path, DecodeShard) }
