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
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"contiguitas/internal/fault"
	"contiguitas/internal/kernel"
	"contiguitas/internal/seal"
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
var envelopeFormat = seal.Format{Magic: "CTGSNAP", Version: 3, Err: ErrHashMismatch}

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
// PrevChainHash, ChainHash, then the gob encoding of Machine.
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
// the kernel's own state hash extended with the runner and injector
// digests. Nil layers contribute a fixed marker, so a faultless
// checkpoint and a faulted one can never collide by omission.
func HashMachine(m *Machine) uint64 {
	h := seal.NewDigest()
	w := func(vs ...uint64) { h.Uint64s(vs...) }
	ws := func(s string) {
		w(uint64(len(s)))
		h.WriteString(s)
	}

	w(m.Kernel.Hash())

	if m.Runner == nil {
		w(0)
	} else {
		r := m.Runner
		w(1, r.RNGS0, r.RNGS1)
		w(uint64(len(r.Mappings)))
		for _, ms := range r.Mappings {
			w(ms.Bytes, uint64(len(ms.Blocks)))
			w(ms.Blocks...)
		}
		w(uint64(len(r.Unmov)))
		w(r.Unmov...)
		w(uint64(len(r.Small)))
		w(r.Small...)
		w(r.UnmovHeld, r.MappingHeld)
		w(uint64(len(r.Slab)))
		for _, cs := range r.Slab {
			ws(cs.Name)
			w(uint64(len(cs.Pages)))
			for _, ps := range cs.Pages {
				w(ps.PFN, uint64(len(ps.Used)))
				w(ps.Used...)
				w(uint64(ps.Live))
				if ps.Partial {
					w(1)
				} else {
					w(0)
				}
			}
			w(uint64(cs.Objects), uint64(cs.PagesHeld),
				cs.PagesGrown, cs.PagesFreed, cs.AllocCalls, cs.FreeCalls)
		}
		w(uint64(len(r.SlabObjs)))
		for _, so := range r.SlabObjs {
			w(uint64(so.Cache), so.PFN, uint64(so.Slot))
		}
		w(r.UnmovableAllocFailures, r.TicksRun, math.Float64bits(r.ChurnCarry))
		w(uint64(len(r.OOMBackoffUntil)))
		w(r.OOMBackoffUntil...)
		w(r.OOMKillsTaken)
	}

	if m.Faults == nil {
		w(0)
	} else {
		f := m.Faults
		w(1, f.Seed, uint64(len(f.Points)))
		for _, p := range f.Points {
			ws(p.Name)
			w(math.Float64bits(p.Trig.Prob), p.Trig.EveryN)
			w(uint64(len(p.Trig.OnHits)))
			w(p.Trig.OnHits...)
			w(p.Trig.From, p.Trig.Until)
			w(p.S0, p.S1, p.Hits, p.Fired)
		}
		w(uint64(len(f.Retired)))
		for _, p := range f.Retired {
			ws(p.Name)
			w(p.Hits, p.Fired)
		}
	}
	return h.Sum64()
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
	var machine bytes.Buffer
	if err := gob.NewEncoder(&machine).Encode(&e.Machine); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	var w seal.Writer
	w.U64(e.Seq, e.Tick, e.StateHash, e.PrevChainHash, e.ChainHash)
	w.Bytes(machine.Bytes())
	return envelopeFormat.WriteFile(path, w.Body())
}

// Decode verifies and decodes sealed envelope bytes: the frame, then
// both hash fields against the decoded state. Arbitrary bytes are
// rejected with an error, never a panic (FuzzSealedRecords).
func Decode(data []byte) (*Envelope, error) {
	r, err := envelopeFormat.Reader(data)
	if err != nil {
		return nil, err
	}
	e := &Envelope{Seq: r.U64(), Tick: r.U64(), StateHash: r.U64(), PrevChainHash: r.U64(), ChainHash: r.U64()}
	machine := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := gob.NewDecoder(bytes.NewReader(machine)).Decode(&e.Machine); err != nil {
		return nil, fmt.Errorf("%w: decode machine: %v", ErrHashMismatch, err)
	}
	if e.Machine.Kernel == nil {
		return nil, fmt.Errorf("%w: envelope carries no kernel state", ErrHashMismatch)
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
