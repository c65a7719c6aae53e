// Campaign manifests and per-shard checkpoints: the on-disk state of a
// supervised sharded campaign (internal/supervise driving internal/fleet).
//
// A campaign directory holds one CTGMANI manifest plus one CTGSHRD
// checkpoint file per shard. Both are sealed records (internal/seal,
// DESIGN.md "Sealed records"): the frame digest covers every byte, so a
// flipped chain value, a rolled-back attempt count or an edited status
// byte is refused before any field is trusted. Shard checkpoints are
// hash-chained (chain_n = shardMix(chain_{n-1}, identity, payload
// digest)), and every way a file can lie maps to a typed sentinel.
//
// Trust model on resume, mirroring the envelope rules:
//
//   - a shard checkpoint must carry an intact frame and a chain value
//     that recomputes from its fields (ErrShardCheckpoint otherwise);
//   - the manifest must carry an intact frame with one record per shard
//     in shard order (ErrManifestTamper);
//   - manifest and shard checkpoint must agree on (seq, chain, done) —
//     a stale or swapped checkpoint file is rejected (ErrShardMismatch);
//   - the campaign fingerprint must match the resuming configuration
//     (ErrCampaignMismatch).
package snapshot

import (
	"errors"
	"fmt"
	"io/fs"

	"contiguitas/internal/seal"
)

// Typed campaign decode/resume failures.
var (
	// ErrManifestTamper reports a manifest that fails verification —
	// corruption or tampering.
	ErrManifestTamper = errors.New("snapshot: manifest integrity check failed")
	// ErrShardCheckpoint reports a shard checkpoint that fails
	// verification, or whose chain value does not recompute from its
	// contents.
	ErrShardCheckpoint = errors.New("snapshot: shard checkpoint corrupt")
	// ErrShardMismatch reports a shard checkpoint that is internally
	// consistent but disagrees with the manifest record for its shard —
	// a stale or swapped file.
	ErrShardMismatch = errors.New("snapshot: shard checkpoint does not match manifest")
	// ErrCampaignMismatch reports campaign state written by a different
	// campaign configuration than the one resuming it.
	ErrCampaignMismatch = errors.New("snapshot: campaign fingerprint mismatch")
	// ErrNoManifest reports a resume target with no usable campaign
	// manifest: the file is missing or empty. Distinct from
	// ErrManifestTamper (a manifest exists but lies) so callers can
	// diagnose "not a campaign state directory" — a usage error — apart
	// from corruption.
	ErrNoManifest = errors.New("snapshot: campaign manifest missing or empty")
)

// The campaign formats; version 2 is the sealed-record frame.
var (
	shardFormat    = seal.Format{Magic: "CTGSHRD", Version: 2, Err: ErrShardCheckpoint}
	manifestFormat = seal.Format{Magic: "CTGMANI", Version: 2, Err: ErrManifestTamper}
)

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

// ShardStatus is a manifest record's lifecycle state.
type ShardStatus uint8

const (
	// ShardPending: not finished; Done units are checkpointed.
	ShardPending ShardStatus = iota
	// ShardDone: all units finished and checkpointed.
	ShardDone
	// ShardQuarantined: the supervisor gave up on this shard.
	ShardQuarantined
)

// ManifestShard is one shard's manifest record: where its checkpoint
// chain currently ends and how hard it has been to get there.
type ManifestShard struct {
	Shard int
	// Units is the shard's total work size; Done of them are completed
	// at checkpoint Seq whose chain digest is Chain (all zero before the
	// first checkpoint).
	Units uint64
	Done  uint64
	Seq   uint64
	Chain uint64
	// Attempts counts attempts started across the whole campaign,
	// surviving process restarts.
	Attempts uint64
	Status   ShardStatus
}

// Manifest is the campaign's durable index: one record per shard. On
// disk the body is Campaign and the shard records, every field a u64.
type Manifest struct {
	Campaign uint64
	Shards   []ManifestShard
}

// WriteManifest encodes the manifest to path atomically and durably
// (temp file, file fsync, rename, parent-directory fsync).
func WriteManifest(path string, m *Manifest) error {
	var w seal.Writer
	w.U64(m.Campaign, uint64(len(m.Shards)))
	for _, s := range m.Shards {
		w.U64(uint64(s.Shard), s.Units, s.Done, s.Seq, s.Chain, s.Attempts, uint64(s.Status))
	}
	return manifestFormat.WriteFile(path, w.Body())
}

// DecodeManifest verifies and decodes sealed manifest bytes. Any byte
// edit — a flipped chain digest, a rolled-back attempt count, a changed
// status — fails the frame digest; records must be in shard order.
func DecodeManifest(data []byte) (*Manifest, error) {
	r, err := manifestFormat.Reader(data)
	if err != nil {
		return nil, err
	}
	m := &Manifest{Campaign: r.U64()}
	m.Shards = make([]ManifestShard, r.Count(7*8)) // seven u64s per record
	for i := range m.Shards {
		m.Shards[i] = ManifestShard{Shard: int(r.U64()), Units: r.U64(), Done: r.U64(), Seq: r.U64(),
			Chain: r.U64(), Attempts: r.U64(), Status: ShardStatus(r.U64())}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	for i, s := range m.Shards {
		if s.Shard != i {
			return nil, fmt.Errorf("%w: record %d claims shard %d", ErrManifestTamper, i, s.Shard)
		}
	}
	return m, nil
}

// ReadManifest reads and verifies the manifest at path (see
// DecodeManifest). A missing or empty file is ErrNoManifest.
func ReadManifest(path string) (*Manifest, error) {
	m, err := seal.ReadFile(path, func(data []byte) (*Manifest, error) {
		if len(data) == 0 {
			return nil, ErrNoManifest
		}
		return DecodeManifest(data)
	})
	if errors.Is(err, fs.ErrNotExist) {
		// Keep the fs sentinel in the chain so callers probing for "any
		// state at all" via fs.ErrNotExist still work.
		return nil, fmt.Errorf("%w: %s: %w", ErrNoManifest, path, err)
	}
	return m, err
}

// VerifyShardAgainstManifest cross-checks an intact shard checkpoint
// against the manifest record for its shard: campaign fingerprints and
// the (seq, chain, done) triple must agree. This is the resume-time
// "state hash versus manifest" gate — a checkpoint file that is valid
// but stale (or copied from another shard) is refused.
func VerifyShardAgainstManifest(m *Manifest, c *ShardCheckpoint) error {
	if c.Campaign != m.Campaign {
		return fmt.Errorf("%w: shard %d checkpoint campaign %016x, manifest %016x",
			ErrCampaignMismatch, c.Shard, c.Campaign, m.Campaign)
	}
	if c.Shard < 0 || c.Shard >= len(m.Shards) {
		return fmt.Errorf("%w: shard %d out of range (%d shards)", ErrShardMismatch, c.Shard, len(m.Shards))
	}
	rec := m.Shards[c.Shard]
	if rec.Seq != c.Seq || rec.Chain != c.ChainHash || rec.Done != c.Done {
		return fmt.Errorf("%w: shard %d checkpoint (seq %d chain %016x done %d), manifest (seq %d chain %016x done %d)",
			ErrShardMismatch, c.Shard, c.Seq, c.ChainHash, c.Done, rec.Seq, rec.Chain, rec.Done)
	}
	return nil
}
