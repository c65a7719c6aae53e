// Package trace records and replays allocation traces: the allocation,
// free, pin and unpin events a workload issues against the simulated
// kernel, with its tick boundaries. A trace captured once replays
// bit-identically against both memory-management designs, and serves
// as a golden input for regression tests.
//
// A Recorder taps the kernel's one event stream, its tracepoint ring
// (Tap). A trace file is a sealed CTGTRAC record (internal/seal) whose
// body carries the recording's profile, memory size, seed, tick count
// and event count, then the events as fixed-width records.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"

	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/seal"
	"contiguitas/internal/telemetry"
)

// Kind discriminates events.
type Kind uint8

const (
	// KindAlloc allocates a block; ID names it for later events.
	KindAlloc Kind = iota
	// KindAllocCache allocates a reclaimable (page-cache) block.
	KindAllocCache
	// KindFree releases a block by ID.
	KindFree
	// KindPin pins a block by ID.
	KindPin
	// KindUnpin unpins a block by ID.
	KindUnpin
	// KindTick ends a simulation tick.
	KindTick
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindAlloc:
		return "alloc"
	case KindAllocCache:
		return "alloc-cache"
	case KindFree:
		return "free"
	case KindPin:
		return "pin"
	case KindUnpin:
		return "unpin"
	case KindTick:
		return "tick"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record. ID is the recording kernel's packed page
// handle (kernel.Page.ID), unique for that kernel's lifetime, and PFN
// the block's head frame there; a tick carries neither. Allocs and
// frees carry the block's order, migratetype and source.
type Event struct {
	ID    uint64
	PFN   uint64
	Kind  Kind
	Order uint8
	MT    mem.MigrateType
	Src   mem.Source
}

// Trace is one recording: the workload profile, machine size and seed
// it was taken with, its tick count, and its events in order.
type Trace struct {
	Profile  string
	MemBytes uint64
	Seed     uint64
	Ticks    uint64
	Events   []Event
}

// ErrCorrupt is wrapped by every refusal of a trace file.
var ErrCorrupt = errors.New("trace: corrupt trace file")

var format = seal.Format{Magic: "CTGTRAC", Version: 1, Err: ErrCorrupt}

// recordSize is the encoded size of one event: kind, order,
// migratetype and source bytes, then the ID and PFN words.
const recordSize = 4 + 8 + 8

func (t *Trace) body() []byte {
	var w seal.Writer
	w.String(t.Profile)
	w.U64(t.MemBytes, t.Seed, t.Ticks, uint64(len(t.Events)))
	recs := make([]byte, 0, recordSize*len(t.Events))
	for _, e := range t.Events {
		recs = append(recs, byte(e.Kind), e.Order, byte(e.MT), byte(e.Src))
		recs = binary.LittleEndian.AppendUint64(recs, e.ID)
		recs = binary.LittleEndian.AppendUint64(recs, e.PFN)
	}
	w.Bytes(recs)
	return w.Body()
}

// WriteFile seals t to path.
func (t *Trace) WriteFile(path string) error { return format.WriteFile(path, t.body()) }

// ReadFile reads and decodes the trace at path. A missing or unreadable
// file's error comes back unwrapped; every other refusal wraps
// ErrCorrupt.
func ReadFile(path string) (*Trace, error) { return seal.ReadFile(path, Decode) }

// Decode verifies a sealed trace and decodes it, refusing an event no
// recording writes and any count the events do not bear out.
func Decode(data []byte) (*Trace, error) {
	r, err := format.Reader(data)
	if err != nil {
		return nil, err
	}
	t := &Trace{Profile: string(r.Bytes())}
	t.MemBytes, t.Seed, t.Ticks = r.U64(), r.U64(), r.U64()
	n := r.U64()
	recs := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(recs)%recordSize != 0 || uint64(len(recs)/recordSize) != n {
		return nil, fmt.Errorf("%w: %d events recorded, %d bytes of events", ErrCorrupt, n, len(recs))
	}
	t.Events = make([]Event, n)
	var ticks uint64
	for i := range t.Events {
		p := recs[i*recordSize : (i+1)*recordSize]
		e := Event{
			Kind: Kind(p[0]), Order: p[1], MT: mem.MigrateType(p[2]), Src: mem.Source(p[3]),
			ID: binary.LittleEndian.Uint64(p[4:]), PFN: binary.LittleEndian.Uint64(p[12:]),
		}
		if e.Kind > KindTick || e.Order > mem.MaxOrder || e.MT >= mem.NumMigrateTypes || e.Src >= mem.NumSources {
			return nil, fmt.Errorf("%w: event %d: kind %d order %d mt %d src %d", ErrCorrupt, i, e.Kind, e.Order, e.MT, e.Src)
		}
		if e.Kind == KindTick {
			ticks++
		}
		t.Events[i] = e
	}
	if ticks != t.Ticks {
		return nil, fmt.Errorf("%w: %d tick events, %d ticks recorded", ErrCorrupt, ticks, t.Ticks)
	}
	return t, nil
}

// Tap passes each public kernel event — every successful Alloc,
// AllocPageCache, Free, Pin and Unpin, as the kernel's tracepoints
// report it — to fn with the tick it happened on. It attaches a minimal
// ring when k has none and forwards every record to the tap the ring
// had. Internal kernel activity (compaction moves, resizing
// evacuations, reclaim) is not public: a replayed trace must trigger
// that machinery in the replaying kernel, not duplicate it.
func Tap(k *kernel.Kernel, fn func(e Event, tick uint64)) {
	ring := k.Tracer()
	if ring == nil {
		ring = telemetry.NewRing(0)
		k.SetTracer(ring)
	}
	next := ring.Sink()
	ring.SetSink(func(rec telemetry.Record) {
		kind := KindTick // not public
		switch rec.ID {
		case telemetry.EvAlloc:
			kind = KindAlloc
		case telemetry.EvFree:
			kind = KindFree
		case telemetry.EvPin:
			kind = KindPin
		case telemetry.EvUnpin:
			kind = KindUnpin
		}
		if kind != KindTick {
			// Pin and unpin records carry a zero class.
			order, mt, src, pageCache := kernel.SplitClass(rec.C)
			if kind == KindAlloc && pageCache {
				kind = KindAllocCache
			}
			fn(Event{Kind: kind, ID: rec.B, PFN: rec.A, Order: uint8(order), MT: mt, Src: src}, rec.Tick)
		}
		if next != nil {
			next(rec)
		}
	})
}

// Recorder records a kernel's public events from the moment it is
// attached. Any driver of the kernel — including the workload runner —
// is recorded transparently.
type Recorder struct {
	k *kernel.Kernel
	// tick is the tick the recorded events have reached.
	tick uint64
	t    Trace
}

// Attach starts recording k.
func Attach(k *kernel.Kernel) *Recorder {
	r := &Recorder{k: k, tick: k.Tick(), t: Trace{MemBytes: k.Config().MemBytes}}
	Tap(k, func(e Event, tick uint64) {
		r.ticksTo(tick)
		r.t.Events = append(r.t.Events, e)
	})
	return r
}

// ticksTo records the tick boundaries up to tick.
func (r *Recorder) ticksTo(tick uint64) {
	for ; r.tick < tick; r.tick++ {
		r.t.Events = append(r.t.Events, Event{Kind: KindTick})
		r.t.Ticks++
	}
}

// Trace returns the recording up to the kernel's current tick. Profile
// and Seed are the caller's to fill in.
func (r *Recorder) Trace() *Trace {
	r.ticksTo(r.k.Tick())
	return &r.t
}

// Replay feeds a trace into a kernel and returns how many allocations
// and pins failed. Failures are tolerated (the receiving design may
// have different capacity behaviour); events referencing failed
// allocations are skipped.
func Replay(k *kernel.Kernel, t *Trace) (failed uint64) {
	live := make(map[uint64]kernel.Page)
	for _, e := range t.Events {
		switch e.Kind {
		case KindAlloc, KindAllocCache:
			var p kernel.Page
			var err error
			if e.Kind == KindAlloc {
				p, err = k.Alloc(int(e.Order), e.MT, e.Src)
			} else {
				p, err = k.AllocPageCache(int(e.Order), e.Src)
			}
			if err != nil {
				failed++
				continue
			}
			live[e.ID] = p
		case KindFree:
			if p, ok := live[e.ID]; ok {
				if k.Live(p) {
					k.Unpin(p)
					k.Free(p)
				}
				delete(live, e.ID)
			}
		case KindPin:
			if p, ok := live[e.ID]; ok && k.Live(p) {
				if err := k.Pin(p); err != nil {
					failed++
				}
			}
		case KindUnpin:
			if p, ok := live[e.ID]; ok {
				k.Unpin(p)
			}
		case KindTick:
			k.EndTick()
		}
	}
	return failed
}
