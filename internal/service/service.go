// Package service is the resident campaign service: the long-lived
// daemon layer (cmd/contigd) that accepts fleet-study campaign
// submissions over HTTP, schedules them through the supervised sharded
// engine (internal/fleet + internal/supervise), journals every state
// transition durably, and survives both graceful drains (SIGTERM) and
// outright kills (SIGKILL) without losing a completed shard or
// producing a result that differs from an uninterrupted run.
//
// The layering mirrors the rest of the repository:
//
//	HTTP API (http.go)            idempotent submits, typed rejections
//	Scheduler (sched.go)          bounded admission, worker pool,
//	                              deadlines, retry/backoff, drain,
//	                              startup recovery
//	Store (store.go)              campaign records + results; memory.go
//	                              and disk.go backends
//	fleet.RunSupervised           the actual computation, checkpointed
//	                              per server through CTGSHRD
//
// Durability invariant: the disk store acknowledges a submission only
// after the sealed CTGCAMP record is on stable storage (temp file,
// fsync, rename, parent-dir fsync), and every later transition rewrites
// the record the same way. A process killed at any instant therefore
// restarts into one of a small set of on-disk states, each of which
// recovery maps back into the queue; results are canonical study bytes
// (fleet.CanonicalBytes), so a resumed campaign's merged result is
// byte-identical to an uninterrupted run of the same spec.
package service

import (
	"errors"
	"fmt"
	"math"
	"unicode/utf8"

	"contiguitas/internal/core"
	"contiguitas/internal/fleet"
	"contiguitas/internal/mem"
	"contiguitas/internal/seal"
)

// State is a campaign's lifecycle state. String-typed so records and
// API responses read the same in JSON, logs, and CI greps.
type State string

const (
	// StateQueued: durably recorded, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker owns it. A record found in this state at
	// startup belonged to a killed process and is re-queued.
	StateRunning State = "running"
	// StateDone: result written; terminal.
	StateDone State = "done"
	// StateFailed: terminal failure; Error says why.
	StateFailed State = "failed"
)

// Typed service errors. The HTTP layer maps each to a status code; the
// scheduler and store return them for programmatic callers.
var (
	// ErrBadSpec reports a submission that fails validation (400).
	ErrBadSpec = errors.New("service: invalid campaign spec")
	// ErrNoKey reports a submission without an idempotency key (400).
	ErrNoKey = errors.New("service: idempotency key required")
	// ErrBadKey reports an idempotency key that is not valid UTF-8; its
	// record could not be stored and read back unchanged (400).
	ErrBadKey = errors.New("service: idempotency key is not valid UTF-8")
	// ErrKeyReuse reports an idempotency key resubmitted with a
	// different spec — the one thing an idempotent endpoint must never
	// silently accept (409).
	ErrKeyReuse = errors.New("service: idempotency key reused with a different spec")
	// ErrQueueFull reports admission-control rejection: the bounded
	// queue is at capacity (429 + Retry-After).
	ErrQueueFull = errors.New("service: campaign queue full")
	// ErrDraining reports a submission during graceful shutdown (503).
	ErrDraining = errors.New("service: draining, not admitting campaigns")
	// ErrNotFound reports an unknown campaign ID (404).
	ErrNotFound = errors.New("service: campaign not found")
	// ErrNotDone reports a result request for a campaign that has not
	// finished (409).
	ErrNotDone = errors.New("service: campaign has no result yet")
	// ErrCorruptRecord reports a stored campaign record whose integrity
	// check failed — torn write survivors are detected, never trusted.
	ErrCorruptRecord = errors.New("service: campaign record corrupt")
	// ErrStorage reports a campaign failed because the store's write
	// path failed persistently (after the scheduler's retry budget). It
	// is the typed terminal reason a campaign carries when the disk —
	// not the computation — was the problem (503).
	ErrStorage = errors.New("service: storage backend failing")
	// ErrDegraded reports an admission refused because the daemon is in
	// read-only degraded mode after a storage failure; reads still work,
	// and admission resumes automatically once the store's probe passes
	// (503 + Retry-After).
	ErrDegraded = errors.New("service: degraded (read-only): storage backend unavailable")
	// ErrScrubQuarantine reports a stored artifact the integrity
	// scrubber refused and moved to quarantine.
	ErrScrubQuarantine = errors.New("service: scrub quarantined corrupt artifact")
)

// Spec is a client-submitted campaign: one fleet study per cell of the
// designs × mems × jitters grid (every grid defaults to one cell). The
// zero value of every field picks the repository default, so the
// minimal useful submission is `{}` plus an idempotency key.
type Spec struct {
	// Name labels the campaign on the observability board.
	Name string `json:"name,omitempty"`
	// Servers per cell (0 → the fleet default).
	Servers int `json:"servers,omitempty"`
	// Designs are memory-management designs ("linux", "contiguitas");
	// empty → ["linux"].
	Designs []string `json:"designs,omitempty"`
	// MemsMiB are per-server memory sizes in MiB; empty → [1024].
	MemsMiB []uint64 `json:"mems_mib,omitempty"`
	// Jitters are per-server jitter fractions in [0, 1); empty → [0.5].
	Jitters []float64 `json:"jitters,omitempty"`
	// TicksMin/TicksMax bound each server's uptime draw (0 → defaults).
	TicksMin uint64 `json:"ticks_min,omitempty"`
	TicksMax uint64 `json:"ticks_max,omitempty"`
	// Seed is the study seed (0 → 1).
	Seed uint64 `json:"seed,omitempty"`
	// Shards per cell (0 → fleet.DefaultShards).
	Shards int `json:"shards,omitempty"`
	// DeadlineSec bounds the campaign's total wall-clock runtime across
	// retries (0 → the scheduler's default; the scheduler's default may
	// itself be "none").
	DeadlineSec uint64 `json:"deadline_sec,omitempty"`
	// MaxAttempts is the campaign-level retry budget per cell (0 → the
	// scheduler's default).
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// Cell is one point of the spec's grid, in canonical iteration order
// (designs outermost, jitters innermost — the same order the fleetscan
// -sweep mode walks).
type Cell struct {
	Design string  `json:"design"`
	MemMiB uint64  `json:"mem_mib"`
	Jitter float64 `json:"jitter"`
}

// normalized returns the spec with every defaultable zero value filled
// in, so fingerprints, fleet configs, and stored records all agree on
// what was actually run.
func (sp Spec) normalized() Spec {
	def := fleet.DefaultConfig()
	if sp.Servers == 0 {
		sp.Servers = def.Servers
	}
	if len(sp.Designs) == 0 {
		sp.Designs = []string{"linux"}
	}
	if len(sp.MemsMiB) == 0 {
		sp.MemsMiB = []uint64{def.MemBytes >> 20}
	}
	if len(sp.Jitters) == 0 {
		sp.Jitters = []float64{def.JitterFrac}
	}
	if sp.TicksMin == 0 {
		sp.TicksMin = def.TicksMin
	}
	if sp.TicksMax == 0 {
		sp.TicksMax = def.TicksMax
	}
	if sp.Seed == 0 {
		sp.Seed = def.Seed
	}
	return sp
}

// Validate rejects a spec with a typed, human-readable reason. Bounds
// are generous — this is admission sanity, not policy. The service
// validates normalized specs; fleetscan validates its flags as given.
func (sp Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
	}
	if !utf8.ValidString(sp.Name) {
		return bad("name %q is not valid UTF-8", sp.Name)
	}
	if sp.Servers < 1 || sp.Servers > 1_000_000 {
		return bad("servers %d out of range [1, 1000000]", sp.Servers)
	}
	for _, d := range sp.Designs {
		if _, err := core.ParseDesign(d); err != nil {
			return bad("%v", err)
		}
	}
	for _, m := range sp.MemsMiB {
		if m < 16 || m > 1<<20 {
			return bad("mem %d MiB out of range [16, 1048576]", m)
		}
		if m<<20%mem.OrderBytes(mem.PageblockOrder) != 0 {
			return bad("mem %d MiB is not a whole number of 2 MiB pageblocks", m)
		}
	}
	for _, d := range sp.Designs {
		design, _ := core.ParseDesign(d)
		if design == core.DesignLinux {
			continue
		}
		for _, m := range sp.MemsMiB {
			// A Contiguitas machine boots its unmovable region at the
			// default share core gives it; that must hold at least one
			// pageblock, or kernel.New refuses the machine.
			kc := core.MachineConfig{Design: design, MemBytes: m << 20}.KernelConfig()
			if kc.InitialUnmovableBytes < mem.OrderBytes(mem.PageblockOrder) {
				return bad("design %s needs an unmovable region of at least one 2 MiB pageblock; mem %d MiB gives %d KiB",
					d, m, kc.InitialUnmovableBytes>>10)
			}
		}
	}
	for _, j := range sp.Jitters {
		if j < 0 || j >= 1 || math.IsNaN(j) {
			return bad("jitter %g out of range [0, 1)", j)
		}
	}
	if sp.TicksMin > sp.TicksMax {
		return bad("ticks_min %d > ticks_max %d", sp.TicksMin, sp.TicksMax)
	}
	if sp.TicksMax > 1_000_000 {
		return bad("ticks_max %d out of range (max 1000000)", sp.TicksMax)
	}
	if sp.Shards < 0 || sp.Shards > 4096 {
		return bad("shards %d out of range [0, 4096]", sp.Shards)
	}
	if sp.MaxAttempts < 0 || sp.MaxAttempts > 1024 {
		return bad("max_attempts %d out of range [0, 1024]", sp.MaxAttempts)
	}
	if len(sp.Designs)*len(sp.MemsMiB)*len(sp.Jitters) > 256 {
		return bad("grid has %d cells (max 256)", len(sp.Designs)*len(sp.MemsMiB)*len(sp.Jitters))
	}
	return nil
}

// Cells expands the grid in canonical order.
func (sp Spec) Cells() []Cell {
	cells := make([]Cell, 0, len(sp.Designs)*len(sp.MemsMiB)*len(sp.Jitters))
	for _, d := range sp.Designs {
		for _, m := range sp.MemsMiB {
			for _, j := range sp.Jitters {
				cells = append(cells, Cell{Design: d, MemMiB: m, Jitter: j})
			}
		}
	}
	return cells
}

// FleetConfig builds the per-cell fleet configuration of a validated
// spec. A cell whose design does not parse is refused with ErrBadSpec,
// never run as some other design.
func (sp Spec) FleetConfig(cell Cell) (fleet.Config, error) {
	design, err := core.ParseDesign(cell.Design)
	if err != nil {
		return fleet.Config{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	cfg := fleet.DefaultConfig()
	cfg.Servers = sp.Servers
	cfg.MemBytes = cell.MemMiB << 20
	cfg.Design = design
	cfg.TicksMin = sp.TicksMin
	cfg.TicksMax = sp.TicksMax
	cfg.JitterFrac = cell.Jitter
	cfg.Seed = sp.Seed
	cfg.Shards = sp.Shards
	return cfg, nil
}

// fingerprint digests every result-shaping field of a normalized spec.
// Idempotent resubmission compares fingerprints: same key + same
// fingerprint dedupes, same key + different fingerprint is ErrKeyReuse.
// Name and DeadlineSec/MaxAttempts are deliberately included — a
// resubmission that changes *anything* is not the same request.
func (sp Spec) fingerprint() uint64 {
	h := seal.NewDigest()
	w := func(vs ...uint64) { h.Uint64s(vs...) }
	h.WriteString(sp.Name + "\x00")
	w(uint64(sp.Servers), sp.TicksMin, sp.TicksMax, sp.Seed,
		uint64(sp.Shards), sp.DeadlineSec, uint64(sp.MaxAttempts))
	w(uint64(len(sp.Designs)))
	for _, d := range sp.Designs {
		h.WriteString(d + "\x00")
	}
	w(uint64(len(sp.MemsMiB)))
	w(sp.MemsMiB...)
	w(uint64(len(sp.Jitters)))
	for _, j := range sp.Jitters {
		w(math.Float64bits(j))
	}
	return h.Sum64()
}

// ParseDesign forwards to core.ParseDesign, the one design-name table;
// it stays for perfbench, a separate module that names designs here.
func ParseDesign(name string) (core.Design, error) { return core.ParseDesign(name) }

// Campaign is the durable record of one submission: spec, lifecycle
// state, attempt counts, and the result identity once done. This is
// what the store journals and the API returns.
type Campaign struct {
	// ID is derived from the idempotency key (FNV-1a, hex), so a
	// resubmission addresses the same record with no index.
	ID string `json:"id"`
	// Key is the client idempotency key.
	Key string `json:"key"`
	// SpecHash fingerprints the normalized spec (hex) for key-reuse
	// detection across restarts.
	SpecHash string `json:"spec_hash"`
	Spec     Spec   `json:"spec"`
	State    State  `json:"state"`
	// Error holds the terminal failure reason when State is failed.
	Error string `json:"error,omitempty"`
	// Attempts counts scheduler-level run attempts (across process
	// lifetimes; shard-level retries live in the fleet run's report).
	Attempts uint64 `json:"attempts"`
	// Cells is the grid size; CellsDone of them have durable results.
	Cells     int `json:"cells"`
	CellsDone int `json:"cells_done"`
	// CellDigests holds the FNV-1a digest (hex) of each completed
	// cell's canonical bytes, indexed by cell, "" while pending. The
	// scheduler checks a journaled cell against its digest before
	// reusing it, and the scrubber uses the same digests to detect
	// rotted cell files at rest.
	CellDigests []string `json:"cell_digests,omitempty"`
	// ResultDigest is the FNV-1a digest (hex) of the merged result
	// bytes, and ResultBytes their length, once State is done.
	ResultDigest string `json:"result_digest,omitempty"`
	ResultBytes  int64  `json:"result_bytes,omitempty"`
	// SubmittedUnix / FinishedUnix are informational wall-clock stamps
	// (unix seconds); they do not participate in any result identity.
	SubmittedUnix int64 `json:"submitted_unix,omitempty"`
	FinishedUnix  int64 `json:"finished_unix,omitempty"`
}

// CampaignID derives the record ID for an idempotency key.
func CampaignID(key string) string {
	return fmt.Sprintf("c%016x", seal.Sum64([]byte(key)))
}

// clone deep-copies a campaign so store backends never alias
// caller-visible slices.
func (c *Campaign) clone() *Campaign {
	cp := *c
	cp.Spec.Designs = append([]string(nil), c.Spec.Designs...)
	cp.Spec.MemsMiB = append([]uint64(nil), c.Spec.MemsMiB...)
	cp.Spec.Jitters = append([]float64(nil), c.Spec.Jitters...)
	cp.CellDigests = append([]string(nil), c.CellDigests...)
	return &cp
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }
