// Package resultcache is a content-addressed store for deterministic
// simulation results. A key is the canonical digest of a computation's
// full input closure (the fleet layer derives it from the result-relevant
// config fields, the shard's stats.ShardSeed stream, the shard span, and
// a cache-schema version); the value is an opaque payload the owner
// serialises. Because the simulator is a pure function of its inputs, a
// hit may replace the whole computation — the BuildKit-LLB idea applied
// to sweep campaigns that revisit configurations.
//
// Trust model. Cached bytes are never trusted on faith:
//
//   - the on-disk backend stores every entry as a CTGCACH sealed
//     record (internal/seal), written atomically (temp file renamed into
//     place) but not durably: no fsync. On every Get the frame digest
//     over every byte is verified before anything is decoded, then the
//     key binding — a tampered, torn, or swapped file is rejected with
//     ErrCorrupt, never decoded into results. So whatever a power loss
//     leaves of an entry (nothing, an empty or short file, a zero-filled
//     tail) is a miss or a reject, never a wrong answer;
//   - an entry written under an older cache-schema version (the
//     simulator's generative model changed) is internally intact but
//     semantically stale and is rejected with ErrStaleSchema;
//   - rejection is always recoverable: callers treat it exactly like a
//     miss (recompute, then Put to overwrite the bad entry) and account
//     for it separately (the fleet's cache_rejects counter).
//
// Concurrency. Both backends are safe for concurrent use. Flight adds
// singleflight deduplication on top: concurrent computations of the same
// key elect one leader, and followers wait for the leader's Put instead
// of simulating the same inputs again.
package resultcache

import (
	"container/list"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"contiguitas/internal/seal"
	"contiguitas/internal/vfs"
)

// Typed lookup outcomes. ErrMiss is the only benign one; the other two
// mean an entry existed and was refused.
var (
	// ErrMiss reports that no entry exists for the key.
	ErrMiss = errors.New("resultcache: miss")
	// ErrCorrupt reports an entry whose envelope failed verification —
	// truncation, corruption, tampering, or a file stored under the
	// wrong key. The entry must not be trusted.
	ErrCorrupt = errors.New("resultcache: entry corrupt")
	// ErrStaleSchema reports an intact entry written under a different
	// cache-schema version: the simulator's generative model changed, so
	// the payload no longer means what the key promises.
	ErrStaleSchema = errors.New("resultcache: entry schema stale")
)

// IsReject reports whether a Get error is a rejection (a present but
// untrustworthy entry) rather than a plain miss. Callers recompute in
// both cases; rejections are additionally counted as integrity events.
func IsReject(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrStaleSchema)
}

// Cache is a content-addressed payload store. Implementations must be
// safe for concurrent use.
type Cache interface {
	// Get returns the payload stored under key: ErrMiss when absent,
	// ErrCorrupt/ErrStaleSchema when present but refused. The returned
	// slice must be treated as read-only.
	Get(key uint64) ([]byte, error)
	// Put stores payload under key, overwriting any existing entry
	// (including a rejected one — recompute heals the cache in place).
	Put(key uint64, payload []byte) error
}

// entryFormat frames every entry. Its version is the entry layout's
// (3: the sealed-record frame), distinct from the caller's cache-schema
// version, which versions the *meaning* of payloads.
var entryFormat = seal.Format{Magic: "CTGCACH", Version: 3, Err: ErrCorrupt}

// Dir is the on-disk backend: one CTGCACH file per key inside a
// directory (body: key, cache schema, payload), written atomically and
// verified on every read. Safe for concurrent use by any number of
// processes — atomic renames make concurrent Puts last-writer-wins,
// never torn.
type Dir struct {
	dir    string
	prefix string // filepath.Join(dir, name) minus name
	schema uint32
}

// entrySuffix ends every entry file name: 16 lower-case hex digits of
// the key, then the suffix.
const entrySuffix = ".ctgcach"

// NewDir returns a disk cache rooted at dir, accepting only entries
// written under the given cache-schema version.
func NewDir(dir string, schema uint32) *Dir {
	// Joining a plain name appends it to the cleaned dir, so the prefix
	// of one join serves every entry.
	prefix := strings.TrimSuffix(filepath.Join(dir, "x"), "x")
	return &Dir{dir: dir, prefix: prefix, schema: schema}
}

// EntryPath returns the file path an entry for key lives at:
// filepath.Join(dir, fmt.Sprintf("%016x.ctgcach", key)), in one
// allocation.
func (d *Dir) EntryPath(key uint64) string {
	var b strings.Builder
	b.Grow(len(d.prefix) + 16 + len(entrySuffix))
	b.WriteString(d.prefix)
	var hex [16]byte
	for i := len(hex) - 1; i >= 0; i-- {
		hex[i] = "0123456789abcdef"[key&0xf]
		key >>= 4
	}
	b.Write(hex[:])
	b.WriteString(entrySuffix)
	return b.String()
}

// Keys lists the key of every entry file in the directory, in file-name
// order; other files are ignored.
func (d *Dir) Keys() ([]uint64, error) {
	ents, err := vfs.Active().ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var keys []uint64
	for _, e := range ents {
		hex, ok := strings.CutSuffix(e.Name(), entrySuffix)
		if key, err := strconv.ParseUint(hex, 16, 64); ok && err == nil && len(hex) == 16 {
			keys = append(keys, key)
		}
	}
	return keys, nil
}

// Decode verifies sealed entry bytes for key and returns the payload:
// ErrCorrupt for a broken frame or a key mismatch, ErrStaleSchema for
// an intact entry of another cache-schema version.
func (d *Dir) Decode(key uint64, data []byte) ([]byte, error) {
	r, err := entryFormat.Reader(data)
	if err != nil {
		return nil, err
	}
	gotKey, schema, payload := r.U64(), r.U64(), r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if gotKey != key {
		return nil, fmt.Errorf("%w: entry for key %016x stored under %016x", ErrCorrupt, gotKey, key)
	}
	if schema != uint64(d.schema) {
		return nil, fmt.Errorf("%w: entry schema %d, want %d", ErrStaleSchema, schema, d.schema)
	}
	return payload, nil
}

// Get implements Cache. The read goes through the active FS, so
// injected read faults surface as plain errors and injected bit-rot is
// caught by the frame digest.
func (d *Dir) Get(key uint64) ([]byte, error) {
	payload, err := seal.ReadFile(d.EntryPath(key), func(data []byte) ([]byte, error) {
		return d.Decode(key, data)
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrMiss
	}
	return payload, err
}

// Put implements Cache: seal the entry and write it atomically on the
// active FS — temp file renamed into place — with no file or directory
// fsync. Durability would buy nothing: a power loss may drop or tear
// the entry, and Get turns every such state into ErrMiss or ErrCorrupt,
// which the caller recomputes and Puts again (TestDirPowerLoss and
// fleet's TestCachePowerLoss enumerate the states), while the two
// fsyncs per entry were 4,096 of the 4,098 a 2048-entry sweep fill made.
func (d *Dir) Put(key uint64, payload []byte) error {
	var w seal.Writer
	w.U64(key, uint64(d.schema))
	w.Bytes(payload)
	return vfs.WriteFileAtomic(vfs.Active(), d.EntryPath(key), entryFormat.Seal(w.Body()))
}

// LRU is the in-process backend: a bounded map evicting the
// least-recently-used entry, for sweeps that revisit configurations
// within one process. Entries cannot rot in memory, so Get can only
// miss or hit — the schema version is recorded per entry anyway to keep
// the two backends interchangeable in tests.
type LRU struct {
	mu     sync.Mutex
	cap    int
	schema uint32
	byKey  map[uint64]*list.Element
	order  *list.List // front = most recent
}

type lruEntry struct {
	key     uint64
	schema  uint32
	payload []byte
}

// NewLRU returns an in-memory cache bounded to capacity entries
// (minimum 1).
func NewLRU(capacity int, schema uint32) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{
		cap:    capacity,
		schema: schema,
		byKey:  make(map[uint64]*list.Element),
		order:  list.New(),
	}
}

// Get implements Cache.
func (c *LRU) Get(key uint64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, ErrMiss
	}
	c.order.MoveToFront(el)
	e := el.Value.(*lruEntry)
	if e.schema != c.schema {
		return nil, fmt.Errorf("%w: entry schema %d, want %d", ErrStaleSchema, e.schema, c.schema)
	}
	return e.payload, nil
}

// Put implements Cache.
func (c *LRU) Put(key uint64, payload []byte) error {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruEntry).payload = cp
		el.Value.(*lruEntry).schema = c.schema
		c.order.MoveToFront(el)
		return nil
	}
	c.byKey[key] = c.order.PushFront(&lruEntry{key: key, schema: c.schema, payload: cp})
	for len(c.byKey) > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*lruEntry).key)
	}
	return nil
}

// Len returns the number of live entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

// Flight deduplicates concurrent computations of one key: the first
// Join for a key becomes the leader and computes; later Joins become
// followers and wait for the leader's Finish, then re-Get the value the
// leader cached.
//
// Flight is an optimization, never a correctness gate: followers wait
// with a bounded timeout and fall back to computing themselves, so a
// crashed or wedged leader can delay followers but can never deadlock
// them. Leadership is owner-scoped (owner is any comparable value, e.g.
// a campaign pointer): a leader's retry attempt re-Joins as leader
// instead of deadlocking on itself, and Finish only releases entries the
// caller actually leads.
type Flight struct {
	mu    sync.Mutex
	calls map[uint64]*flightCall
}

type flightCall struct {
	owner any
	done  chan struct{}
}

// NewFlight returns an empty dedup group.
func NewFlight() *Flight {
	return &Flight{calls: make(map[uint64]*flightCall)}
}

// Join registers interest in key. leader=true means the caller (or a
// previous attempt of the same owner) owns the computation and must call
// Finish on every exit path. leader=false returns a wait function that
// blocks until the leader finishes or the timeout expires; its return
// reports whether the leader actually finished.
func (f *Flight) Join(key uint64, owner any) (leader bool, wait func(timeout time.Duration) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.calls[key]
	if !ok {
		f.calls[key] = &flightCall{owner: owner, done: make(chan struct{})}
		return true, nil
	}
	if c.owner == owner {
		return true, nil
	}
	done := c.done
	return false, func(timeout time.Duration) bool {
		if timeout <= 0 {
			<-done
			return true
		}
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-done:
			return true
		case <-t.C:
			return false
		}
	}
}

// Finish releases the followers of key. Idempotent, and a no-op unless
// owner is the current leader — so a blanket campaign-end sweep over
// every key an owner may lead is always safe.
func (f *Flight) Finish(key uint64, owner any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok && c.owner == owner {
		close(c.done)
		delete(f.calls, key)
	}
}
