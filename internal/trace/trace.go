// Package trace records and replays allocation traces: the sequence of
// allocation, free, pin and tick events a workload issues against the
// simulated kernel. Traces make experiments portable — a fleet-sampled
// allocation pattern can be captured once and replayed bit-identically
// against both memory-management designs — and serve as the golden
// inputs for regression tests.
//
// The format is a compact binary stream (little-endian, fixed-width
// records) with a versioned header.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
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

// Event is one trace record.
type Event struct {
	Kind  Kind
	ID    uint64
	Order uint8
	MT    mem.MigrateType
	Src   mem.Source
}

const (
	magic   = uint32(0xC0471AB5)
	version = uint16(1)
	// recordSize is the on-disk size of one event.
	recordSize = 1 + 8 + 1 + 1 + 1
)

// Writer streams events to an io.Writer.
type Writer struct {
	w      *bufio.Writer
	events uint64
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	var hdr [6]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint16(hdr[4:], version)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one event.
func (w *Writer) Write(e Event) error {
	var rec [recordSize]byte
	rec[0] = byte(e.Kind)
	binary.LittleEndian.PutUint64(rec[1:], e.ID)
	rec[9] = e.Order
	rec[10] = byte(e.MT)
	rec[11] = byte(e.Src)
	if _, err := w.w.Write(rec[:]); err != nil {
		return err
	}
	w.events++
	return nil
}

// Events returns the number written so far.
func (w *Writer) Events() uint64 { return w.events }

// Flush drains the buffer.
func (w *Writer) Flush() error { return w.w.Flush() }

// ErrBadHeader reports a stream that is not a trace.
var ErrBadHeader = errors.New("trace: bad header")

// Reader streams events from an io.Reader.
type Reader struct {
	r *bufio.Reader
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, ErrBadHeader
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadHeader, v)
	}
	return &Reader{r: br}, nil
}

// Read returns the next event or io.EOF.
func (r *Reader) Read() (Event, error) {
	var rec [recordSize]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Event{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		return Event{}, err
	}
	return Event{
		Kind:  Kind(rec[0]),
		ID:    binary.LittleEndian.Uint64(rec[1:]),
		Order: rec[9],
		MT:    mem.MigrateType(rec[10]),
		Src:   mem.Source(rec[11]),
	}, nil
}

// Recorder is a kernel.EventSink that mirrors every public kernel
// operation into a trace. Attach it with Attach; from then on any
// driver of the kernel — including the workload runner — is recorded
// transparently.
type Recorder struct {
	W      *Writer
	k      *kernel.Kernel
	nextID uint64
	// ids holds each live handle's event ID, indexed by its page-table
	// slot. A slot is reused only through a fresh OnAlloc, which
	// overwrites the entry, so handles the kernel lets go without an
	// OnFree (reclaimed page cache) need no cleanup.
	ids []uint64
	err error
}

// Attach creates a Recorder writing to w and registers it as k's event
// sink. Detach with k.SetEventSink(nil).
func Attach(k *kernel.Kernel, w *Writer) *Recorder {
	r := &Recorder{W: w, k: k}
	k.SetEventSink(r)
	return r
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error { return r.err }

func (r *Recorder) emit(e Event) {
	if r.err == nil {
		r.err = r.W.Write(e)
	}
}

// OnAlloc implements kernel.EventSink.
func (r *Recorder) OnAlloc(p kernel.Page, pageCache bool) {
	r.nextID++
	s := p.Slot()
	if s >= len(r.ids) {
		r.ids = append(r.ids, make([]uint64, s+1-len(r.ids))...)
	}
	r.ids[s] = r.nextID
	kind := KindAlloc
	if pageCache {
		kind = KindAllocCache
	}
	info := r.k.Info(p)
	r.emit(Event{Kind: kind, ID: r.nextID, Order: uint8(info.Order), MT: info.MT, Src: info.Src})
}

// id returns p's event ID (0 for a handle allocated before Attach).
func (r *Recorder) id(p kernel.Page) uint64 {
	if s := p.Slot(); s < len(r.ids) {
		return r.ids[s]
	}
	return 0
}

// OnFree implements kernel.EventSink.
func (r *Recorder) OnFree(p kernel.Page) { r.emit(Event{Kind: KindFree, ID: r.id(p)}) }

// OnPin implements kernel.EventSink.
func (r *Recorder) OnPin(p kernel.Page) { r.emit(Event{Kind: KindPin, ID: r.id(p)}) }

// OnUnpin implements kernel.EventSink.
func (r *Recorder) OnUnpin(p kernel.Page) { r.emit(Event{Kind: KindUnpin, ID: r.id(p)}) }

// OnTick implements kernel.EventSink.
func (r *Recorder) OnTick() { r.emit(Event{Kind: KindTick}) }

// ReplayStats summarises a replay.
type ReplayStats struct {
	Events      uint64
	AllocFailed uint64
	Ticks       uint64
}

// Replay feeds a trace into a kernel. Allocation failures are tolerated
// (the receiving design may have different capacity behaviour); events
// referencing failed allocations are skipped.
func Replay(k *kernel.Kernel, r *Reader) (ReplayStats, error) {
	var st ReplayStats
	live := make(map[uint64]kernel.Page)
	for {
		e, err := r.Read()
		if errors.Is(err, io.EOF) {
			return st, nil
		}
		if err != nil {
			return st, err
		}
		st.Events++
		switch e.Kind {
		case KindAlloc:
			p, err := k.Alloc(int(e.Order), e.MT, e.Src)
			if err != nil {
				st.AllocFailed++
				continue
			}
			live[e.ID] = p
		case KindAllocCache:
			p, err := k.AllocPageCache(int(e.Order), e.Src)
			if err != nil {
				st.AllocFailed++
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
					st.AllocFailed++
				}
			}
		case KindUnpin:
			if p, ok := live[e.ID]; ok {
				k.Unpin(p)
			}
		case KindTick:
			k.EndTick()
			st.Ticks++
		default:
			return st, fmt.Errorf("trace: unknown event kind %d", e.Kind)
		}
	}
}
