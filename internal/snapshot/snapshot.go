// Package snapshot is the versioned, crash-consistent checkpoint
// envelope for the full simulator: kernel state (internal/kernel),
// workload runner state (internal/workload), and fault-injector state
// (internal/fault), bound together with a canonical state hash and a
// per-checkpoint chain digest.
//
// On disk an envelope is a sealed record (internal/seal, DESIGN.md
// "Sealed records"): the frame refuses a wrong magic, an old version,
// truncation and any flipped byte before the body is parsed. Decoding
// then re-verifies the state hash (recomputed from the decoded machine
// state) and the chain digest (recomputed from PrevChainHash and the
// state hash). Writes are durable temp-file-plus-rename, so the file at
// the checkpoint path is always absent, the previous complete
// checkpoint, or the new one — never a torn write.
//
// Hash-chain semantics. Each checkpoint's StateHash is the canonical
// digest of the full machine (kernel state hash extended with the
// runner and injector digests). ChainHash links checkpoints:
//
//	chain_0 = mix(0, stateHash_0)
//	chain_n = mix(chain_{n-1}, stateHash_n)
//
// so two runs that produce the same chain value at checkpoint n agree
// on every checkpointed state up to n, not just the last one — the
// property the kill-and-resume equivalence tests lean on.
package snapshot

import (
	"errors"
	"fmt"

	"contiguitas/internal/fault"
	"contiguitas/internal/kernel"
	"contiguitas/internal/seal"
	"contiguitas/internal/slab"
	"contiguitas/internal/workload"
)

// envelopeFormat frames snapshot files; decoding any other version is
// refused. Version history:
//
//	1 — initial format.
//	2 — pressure-ladder state: kernel HasPressure fingerprint +
//	    PressureState (gate, gate PSI tracker, escalation profile, OOM
//	    history), runner OOMBackoffUntil/OOMKillsTaken, and the nine
//	    pressure counters in the kernel counter block.
//	3 — sealed-record frame: flat header fields, gob only for Machine.
//	4 — no gob: the kernel's hashed and witness sections, then the
//	    runner and injector layers, all written by the walks the state
//	    hashes digest.
var envelopeFormat = seal.Format{Magic: "CTGSNAP", Version: 4, Err: ErrHashMismatch}

// Typed decode failures. ErrBadMagic and ErrBadVersion are the frame's
// own kinds; every other refusal wraps ErrHashMismatch.
var (
	// ErrBadMagic reports a file that is not a contiguitas snapshot.
	ErrBadMagic = seal.ErrMagic
	// ErrBadVersion reports an unsupported format revision.
	ErrBadVersion = seal.ErrVersion
	// ErrHashMismatch reports a snapshot whose frame digest, recorded
	// state hash or chain digest disagrees with its bytes — truncation,
	// corruption, or tampering.
	ErrHashMismatch = errors.New("snapshot: integrity check failed")
)

// Machine bundles the three state layers of one checkpoint. Runner and
// Faults are nil for kernel-only and faultless runs respectively.
type Machine struct {
	Kernel *kernel.State
	Runner *workload.RunnerState
	Faults *fault.InjectorState
}

// Envelope is one checkpoint. On disk its body is Seq, Tick, StateHash,
// PrevChainHash, ChainHash, then Machine: the kernel state's hashed and
// witness sections (kernel.State.Encode), then the runner and injector
// layers (walkLayers).
type Envelope struct {
	// Seq numbers checkpoints within a run (0-based); Tick is the
	// virtual time the machine was quiesced at.
	Seq  uint64
	Tick uint64
	// StateHash is the canonical digest of Machine; PrevChainHash and
	// ChainHash are the chain links (see the package comment).
	StateHash     uint64
	PrevChainHash uint64
	ChainHash     uint64
	Machine       Machine
}

// mix folds a state hash into the running chain digest.
func mix(chain, stateHash uint64) uint64 { return seal.Sum64s(chain, stateHash) }

// HashMachine computes the canonical digest of a full machine state:
// FNV-1a 64 of the machine's hashed section, which is the kernel's own
// state hash followed by the runner and injector layers (walkLayers).
// Nil layers contribute a fixed marker, so a faultless checkpoint and a
// faulted one can never collide by omission.
func HashMachine(m *Machine) uint64 {
	w := seal.HashWriter()
	w.U64(m.Kernel.Hash())
	walkLayers(seal.NewEncoder(&w), m)
	return w.Sum64()
}

// walkLayers is the schema of the runner and injector layers, each
// behind a 0/1 presence marker. Every field is hashed.
func walkLayers(c *seal.Codec, m *Machine) {
	if seal.Opt(c, &m.Runner) {
		walkRunner(c, m.Runner)
	}
	if seal.Opt(c, &m.Faults) {
		walkInjector(c, m.Faults)
	}
}

func walkRunner(c *seal.Codec, r *workload.RunnerState) {
	c.U64s(&r.RNGS0, &r.RNGS1)
	seal.Slice(c, &r.Mappings, func(ms *workload.MappingState) {
		c.U64(&ms.Bytes)
		seal.Slice(c, &ms.Blocks, c.U64)
	})
	seal.Slice(c, &r.Unmov, c.U64)
	seal.Slice(c, &r.Small, c.U64)
	c.U64s(&r.UnmovHeld, &r.MappingHeld)
	seal.Slice(c, &r.Slab, func(cs *slab.CacheState) {
		c.String(&cs.Name)
		seal.Slice(c, &cs.Pages, func(ps *slab.SlabPageState) {
			c.U64(&ps.PFN)
			seal.Slice(c, &ps.Used, c.U64)
			seal.Int(c, &ps.Live)
			c.Bool(&ps.Partial)
		})
		seal.Int(c, &cs.Objects)
		seal.Int(c, &cs.PagesHeld)
		c.U64s(&cs.PagesGrown, &cs.PagesFreed, &cs.AllocCalls, &cs.FreeCalls)
	})
	seal.Slice(c, &r.SlabObjs, func(so *workload.SlabObjState) {
		seal.Int(c, &so.Cache)
		c.U64(&so.PFN)
		seal.Int(c, &so.Slot)
	})
	c.U64s(&r.UnmovableAllocFailures, &r.TicksRun)
	c.F64(&r.ChurnCarry)
	seal.Slice(c, &r.OOMBackoffUntil, c.U64)
	c.U64(&r.OOMKillsTaken)
}

func walkInjector(c *seal.Codec, f *fault.InjectorState) {
	c.U64(&f.Seed)
	seal.Slice(c, &f.Points, func(p *fault.PointState) {
		c.String(&p.Name)
		c.F64(&p.Trig.Prob)
		c.U64(&p.Trig.EveryN)
		seal.Slice(c, &p.Trig.OnHits, c.U64)
		c.U64s(&p.Trig.From, &p.Trig.Until, &p.S0, &p.S1, &p.Hits, &p.Fired)
	})
	seal.Slice(c, &f.Retired, func(p *fault.PointStats) {
		c.String(&p.Name)
		c.U64s(&p.Hits, &p.Fired)
	})
}

// Seal fills an envelope's hash fields from its machine state and the
// previous chain value, returning the new chain value.
func (e *Envelope) Seal(prevChain uint64) uint64 {
	e.StateHash = HashMachine(&e.Machine)
	e.PrevChainHash = prevChain
	e.ChainHash = mix(prevChain, e.StateHash)
	return e.ChainHash
}

// Write seals the envelope to path atomically and durably (temp file,
// file fsync, rename, parent-directory fsync).
func Write(path string, e *Envelope) error {
	var w seal.Writer
	w.U64(e.Seq, e.Tick, e.StateHash, e.PrevChainHash, e.ChainHash)
	e.Machine.Kernel.Encode(&w)
	walkLayers(seal.NewEncoder(&w), &e.Machine)
	return envelopeFormat.WriteFile(path, w.Body())
}

// Decode verifies and decodes sealed envelope bytes: the frame, the
// body (refused unless Write would produce exactly these bytes), then
// both hash fields against the decoded state. Arbitrary bytes are
// rejected with an error, never a panic (FuzzSealedRecords).
func Decode(data []byte) (*Envelope, error) {
	r, err := envelopeFormat.Reader(data)
	if err != nil {
		return nil, err
	}
	e := &Envelope{Seq: r.U64(), Tick: r.U64(), StateHash: r.U64(), PrevChainHash: r.U64(), ChainHash: r.U64()}
	if e.Machine.Kernel, err = kernel.DecodeState(r); err != nil {
		return nil, err
	}
	walkLayers(seal.NewDecoder(r), &e.Machine)
	if err := r.Done(); err != nil {
		return nil, err
	}
	if got := HashMachine(&e.Machine); got != e.StateHash {
		return nil, fmt.Errorf("%w: recomputed state hash %016x, recorded %016x",
			ErrHashMismatch, got, e.StateHash)
	}
	if got := mix(e.PrevChainHash, e.StateHash); got != e.ChainHash {
		return nil, fmt.Errorf("%w: recomputed chain %016x, recorded %016x",
			ErrHashMismatch, got, e.ChainHash)
	}
	return e, nil
}

// Read decodes and verifies the envelope at path (see Decode). The read
// goes through the active FS so injected read faults and bit-rot land
// on the verification path that exists to catch them.
func Read(path string) (*Envelope, error) { return seal.ReadFile(path, Decode) }
