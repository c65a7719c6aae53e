package resultcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDirRoundTrip(t *testing.T) {
	c := NewDir(t.TempDir(), 3)
	if _, err := c.Get(42); !errors.Is(err, ErrMiss) {
		t.Fatalf("empty cache Get = %v, want ErrMiss", err)
	}
	want := []byte("shard samples")
	if err := c.Put(42, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload %q, want %q", got, want)
	}
	// Overwrite is last-writer-wins.
	if err := c.Put(42, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get(42); string(got) != "v2" {
		t.Fatalf("after overwrite: %q", got)
	}
}

// TestDirRejectsEveryByteFlip corrupts the entry file at several offsets
// and requires every flip to be refused as ErrCorrupt (a broken file
// digest — never trusted bytes).
func TestDirRejectsEveryByteFlip(t *testing.T) {
	c := NewDir(t.TempDir(), 1)
	payload := bytes.Repeat([]byte("abcdefgh"), 32)
	if err := c.Put(7, payload); err != nil {
		t.Fatal(err)
	}
	path := c.EntryPath(7)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 1, len(orig) / 4, len(orig) / 2, len(orig) - 1} {
		bad := append([]byte(nil), orig...)
		bad[off] ^= 0xFF
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := c.Get(7)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: Get = %v, want ErrCorrupt", off, err)
		}
		if !IsReject(err) {
			t.Fatalf("flip at %d not classified as reject", off)
		}
	}
	// A truncated (torn) file is also refused.
	if err := os.WriteFile(path, orig[:len(orig)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated Get = %v, want ErrCorrupt", err)
	}
	// Recompute heals in place: Put overwrites, Get trusts again.
	if err := c.Put(7, payload); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(7); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("healed Get = %q, %v", got, err)
	}
}

// TestDirRejectsEverySingleBitFlip flips each bit of an entry file in
// turn. Every flip must be refused as ErrCorrupt — including flips in
// the key and schema fields, which the frame digest catches before the
// key binding or schema check could misread them.
func TestDirRejectsEverySingleBitFlip(t *testing.T) {
	c := NewDir(t.TempDir(), 1)
	if err := c.Put(0xabc, []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	path := c.EntryPath(0xabc)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*len(orig); bit++ {
		bad := append([]byte(nil), orig...)
		bad[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(0xabc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip of bit %d of %d: Get = %v, want ErrCorrupt", bit, 8*len(orig), err)
		}
	}
}

// TestDirRejectsStaleSchema: an intact entry written under schema N is
// refused by a schema N+1 reader with the dedicated sentinel, and a
// recompute under the new schema overwrites it.
func TestDirRejectsStaleSchema(t *testing.T) {
	dir := t.TempDir()
	old := NewDir(dir, 1)
	if err := old.Put(9, []byte("old model")); err != nil {
		t.Fatal(err)
	}
	cur := NewDir(dir, 2)
	_, err := cur.Get(9)
	if !errors.Is(err, ErrStaleSchema) {
		t.Fatalf("Get = %v, want ErrStaleSchema", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatal("stale schema must not be conflated with corruption")
	}
	if !IsReject(err) {
		t.Fatal("stale schema must classify as reject")
	}
	if err := cur.Put(9, []byte("new model")); err != nil {
		t.Fatal(err)
	}
	if got, err := cur.Get(9); err != nil || string(got) != "new model" {
		t.Fatalf("after re-Put: %q, %v", got, err)
	}
	// The old reader now sees the entry as stale from its side.
	if _, err := old.Get(9); !errors.Is(err, ErrStaleSchema) {
		t.Fatalf("old reader Get = %v, want ErrStaleSchema", err)
	}
}

// TestDirRejectsSwappedKey: a valid entry file renamed over another
// key's path carries the wrong content address and must be refused.
func TestDirRejectsSwappedKey(t *testing.T) {
	c := NewDir(t.TempDir(), 1)
	if err := c.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(c.EntryPath(1), c.EntryPath(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("swapped Get = %v, want ErrCorrupt", err)
	}
}

// TestDirKeys: Keys lists exactly the entry files, by key, and ignores
// anything else in the directory.
func TestDirKeys(t *testing.T) {
	dir := t.TempDir()
	c := NewDir(dir, 1)
	for _, k := range []uint64{0xfe, 3, 1 << 63} {
		if err := c.Put(k, []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	for _, junk := range []string{"notes.txt", "abc.ctgcach", "zzzzzzzzzzzzzzzz.ctgcach"} {
		if err := os.WriteFile(filepath.Join(dir, junk), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != fmt.Sprint([]uint64{3, 0xfe, 1 << 63}) {
		t.Fatalf("Keys = %x", keys)
	}
}

// TestDirEntryPath holds EntryPath to the path it has always named,
// filepath.Join(dir, "%016x.ctgcach"), for dirs that join cleans.
func TestDirEntryPath(t *testing.T) {
	for _, dir := range []string{"", ".", "/", "cache", "cache/", "./a//b/../c", "/tmp/x/", ".."} {
		for _, key := range []uint64{0, 1, 0xabc, 0x0123456789abcdef, ^uint64(0)} {
			want := filepath.Join(dir, fmt.Sprintf("%016x.ctgcach", key))
			if got := NewDir(dir, 1).EntryPath(key); got != want {
				t.Errorf("NewDir(%q).EntryPath(%x) = %q, want %q", dir, key, got, want)
			}
		}
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewLRU(2, 1)
	for k := uint64(1); k <= 2; k++ {
		if err := c.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 becomes the eviction victim.
	if _, err := c.Get(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(3, []byte{3}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, err := c.Get(2); !errors.Is(err, ErrMiss) {
		t.Fatalf("evicted Get = %v, want ErrMiss", err)
	}
	for _, k := range []uint64{1, 3} {
		if _, err := c.Get(k); err != nil {
			t.Fatalf("retained key %d: %v", k, err)
		}
	}
}

// TestLRUCopiesPayload: the cache must not alias the caller's buffer —
// fleet reuses encode buffers across shards.
func TestLRUCopiesPayload(t *testing.T) {
	c := NewLRU(4, 1)
	buf := []byte("original")
	if err := c.Put(5, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!")
	got, err := c.Get(5)
	if err != nil || string(got) != "original" {
		t.Fatalf("Get = %q, %v; cache aliased the caller's buffer", got, err)
	}
}

func TestLRUConcurrentAccess(t *testing.T) {
	c := NewLRU(64, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := uint64(i % 32)
				if err := c.Put(k, []byte{byte(g), byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Get(k); err != nil && !errors.Is(err, ErrMiss) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFlightSingleComputation: many goroutines race to compute one key;
// exactly one becomes the leader, everyone else waits and then reads the
// leader's Put.
func TestFlightSingleComputation(t *testing.T) {
	f := NewFlight()
	c := NewLRU(8, 1)
	const goroutines = 16
	var computations atomic.Uint64
	var wg sync.WaitGroup
	results := make([][]byte, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := fmt.Sprintf("owner-%d", g)
			for {
				if payload, err := c.Get(1); err == nil {
					results[g] = payload
					return
				}
				leader, wait := f.Join(1, owner)
				if leader {
					computations.Add(1)
					time.Sleep(10 * time.Millisecond) // widen the race window
					if err := c.Put(1, []byte("computed")); err != nil {
						t.Error(err)
					}
					f.Finish(1, owner)
					results[g] = []byte("computed")
					return
				}
				wait(0) // no timeout: the leader is guaranteed to Finish
			}
		}(g)
	}
	wg.Wait()
	if n := computations.Load(); n != 1 {
		t.Fatalf("%d computations, want exactly 1", n)
	}
	for g, r := range results {
		if string(r) != "computed" {
			t.Fatalf("goroutine %d got %q", g, r)
		}
	}
}

// TestFlightLeaderRetryAndOwnerScoping: a leader's retry re-Joins as
// leader (no self-deadlock), a different owner stays a follower, and
// Finish by a non-leader is a no-op.
func TestFlightLeaderRetryAndOwnerScoping(t *testing.T) {
	f := NewFlight()
	if leader, _ := f.Join(7, "a"); !leader {
		t.Fatal("first Join must lead")
	}
	if leader, _ := f.Join(7, "a"); !leader {
		t.Fatal("same-owner re-Join must still lead")
	}
	leader, wait := f.Join(7, "b")
	if leader {
		t.Fatal("second owner must follow")
	}
	f.Finish(7, "b") // non-leader: no-op
	if finished := wait(time.Millisecond); finished {
		t.Fatal("non-leader Finish released the followers")
	}
	f.Finish(7, "a")
	if finished := wait(time.Second); !finished {
		t.Fatal("leader Finish did not release the follower")
	}
	f.Finish(7, "a") // idempotent
	// Key is free again: a new owner leads immediately.
	if leader, _ := f.Join(7, "c"); !leader {
		t.Fatal("released key must elect a fresh leader")
	}
}

// TestFlightWaitTimeout: a follower's bounded wait returns false when
// the leader never finishes — the no-deadlock guarantee.
func TestFlightWaitTimeout(t *testing.T) {
	f := NewFlight()
	if leader, _ := f.Join(3, "wedged"); !leader {
		t.Fatal("setup: first Join must lead")
	}
	_, wait := f.Join(3, "victim")
	start := time.Now()
	if wait(5 * time.Millisecond) {
		t.Fatal("wait reported finished under a wedged leader")
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout wait blocked far past its bound")
	}
}
