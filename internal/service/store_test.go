package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The Store contract suite: every behaviour the scheduler depends on,
// run identically against both backends. A backend that passes this
// suite can be swapped in without the scheduler noticing.
func storeBackends(t *testing.T) map[string]func(t *testing.T) Store {
	return map[string]func(t *testing.T) Store{
		"memory": func(t *testing.T) Store { return NewMemory() },
		"disk": func(t *testing.T) Store {
			d, err := OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
}

func testCampaign(key string) *Campaign {
	spec := Spec{Servers: 4, Seed: 7}.normalized()
	return &Campaign{
		ID:       CampaignID(key),
		Key:      key,
		SpecHash: fmt.Sprintf("%016x", spec.fingerprint()),
		Spec:     spec,
		State:    StateQueued,
		Cells:    len(spec.Cells()),
	}
}

func TestStoreContract(t *testing.T) {
	for name, open := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			defer st.Close()

			// Unknown IDs are typed.
			if _, err := st.Get("c0000000000000ff"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(unknown) = %v, want ErrNotFound", err)
			}
			if _, err := st.GetResult("c0000000000000ff"); !errors.Is(err, ErrNotDone) {
				t.Fatalf("GetResult(unknown) = %v, want ErrNotDone", err)
			}

			// Put/Get round-trips every field.
			c := testCampaign("k1")
			if err := st.Put(c); err != nil {
				t.Fatal(err)
			}
			got, err := st.Get(c.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.Key != "k1" || got.State != StateQueued || got.SpecHash != c.SpecHash {
				t.Fatalf("round-trip mismatch: %+v", got)
			}
			if len(got.Spec.Designs) != 1 || got.Spec.Designs[0] != "linux" {
				t.Fatalf("spec grid lost in round-trip: %+v", got.Spec)
			}

			// Put is an overwrite (idempotent re-put, state updates).
			c.State = StateRunning
			c.Attempts = 3
			if err := st.Put(c); err != nil {
				t.Fatal(err)
			}
			got, _ = st.Get(c.ID)
			if got.State != StateRunning || got.Attempts != 3 {
				t.Fatalf("overwrite lost: %+v", got)
			}

			// The store copies; caller mutations must not leak in.
			got.Spec.Designs[0] = "mutated"
			again, _ := st.Get(c.ID)
			if again.Spec.Designs[0] != "linux" {
				t.Fatal("store aliased a caller-visible slice")
			}

			// List is sorted by ID and sees everything.
			c2 := testCampaign("k2")
			if err := st.Put(c2); err != nil {
				t.Fatal(err)
			}
			list, err := st.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(list) != 2 {
				t.Fatalf("List returned %d records, want 2", len(list))
			}
			if list[0].ID > list[1].ID {
				t.Fatalf("List unsorted: %s > %s", list[0].ID, list[1].ID)
			}

			// Cell journal: absent is (nil, false, nil), present round-trips.
			if _, ok, err := st.GetCell(c.ID, 0); ok || err != nil {
				t.Fatalf("GetCell(absent) = ok=%v err=%v, want false, nil", ok, err)
			}
			cell0 := []byte("cell-zero-bytes")
			if err := st.PutCell(c.ID, 0, cell0); err != nil {
				t.Fatal(err)
			}
			data, ok, err := st.GetCell(c.ID, 0)
			if err != nil || !ok || !bytes.Equal(data, cell0) {
				t.Fatalf("GetCell = %q ok=%v err=%v", data, ok, err)
			}

			// Result round-trip.
			res := []byte("merged-result")
			if err := st.PutResult(c.ID, res); err != nil {
				t.Fatal(err)
			}
			data, err = st.GetResult(c.ID)
			if err != nil || !bytes.Equal(data, res) {
				t.Fatalf("GetResult = %q, %v", data, err)
			}

			// Concurrent writers must not corrupt records (run with -race).
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cc := testCampaign(fmt.Sprintf("conc-%d", i))
					for j := 0; j < 5; j++ {
						cc.Attempts = uint64(j)
						if err := st.Put(cc); err != nil {
							t.Error(err)
							return
						}
						if _, err := st.Get(cc.ID); err != nil {
							t.Error(err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			list, err = st.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(list) != 10 {
				t.Fatalf("after concurrent writers List has %d records, want 10", len(list))
			}
		})
	}
}

// TestMemoryStoreDropsCellsWithResult: the memory backend frees a
// campaign's cell journal once its merged result lands, leaving other
// campaigns' cells and the result itself untouched.
func TestMemoryStoreDropsCellsWithResult(t *testing.T) {
	st := NewMemory()
	a, b := testCampaign("a"), testCampaign("b")
	for _, c := range []*Campaign{a, b} {
		if err := st.Put(c); err != nil {
			t.Fatal(err)
		}
		for cell := 0; cell < 2; cell++ {
			if err := st.PutCell(c.ID, cell, []byte(fmt.Sprintf("%s-%d", c.Key, cell))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.PutResult(a.ID, []byte("merged-a")); err != nil {
		t.Fatal(err)
	}
	for cell := 0; cell < 2; cell++ {
		if data, ok, err := st.GetCell(a.ID, cell); ok || err != nil || data != nil {
			t.Fatalf("cell %d of finished campaign = %q ok=%v err=%v, want dropped", cell, data, ok, err)
		}
		want := fmt.Sprintf("b-%d", cell)
		if data, ok, err := st.GetCell(b.ID, cell); !ok || err != nil || string(data) != want {
			t.Fatalf("cell %d of running campaign = %q ok=%v err=%v, want %q", cell, data, ok, err, want)
		}
	}
	if len(st.cells) != 1 {
		t.Fatalf("memory store holds cell journals for %d campaigns, want 1", len(st.cells))
	}
	if data, err := st.GetResult(a.ID); err != nil || string(data) != "merged-a" {
		t.Fatalf("GetResult = %q, %v", data, err)
	}
}

// TestDiskStoreSurvivesReopen: the disk backend's whole point — a fresh
// open over the same root sees every acknowledged write.
func TestDiskStoreSurvivesReopen(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	c := testCampaign("persist")
	c.State = StateRunning
	if err := d.Put(c); err != nil {
		t.Fatal(err)
	}
	if err := d.PutCell(c.ID, 0, []byte("cell")); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.Get(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateRunning || got.Key != "persist" {
		t.Fatalf("reopened record: %+v", got)
	}
	if data, ok, _ := d2.GetCell(c.ID, 0); !ok || string(data) != "cell" {
		t.Fatalf("reopened cell journal: %q ok=%v", data, ok)
	}
}

// TestDiskStoreCorruptRecordTyped: a torn or edited record must decode
// to ErrCorruptRecord — and a corrupt record must fail List loudly, not
// silently vanish from recovery.
func TestDiskStoreCorruptRecordTyped(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	c := testCampaign("corrupt-me")
	if err := d.Put(c); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(d.StateDir(c.ID), "record.ctgjob")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(c.ID); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("Get(corrupt) = %v, want ErrCorruptRecord", err)
	}
	if _, err := d.List(); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("List with corrupt record = %v, want ErrCorruptRecord", err)
	}
}

// TestDiskStoreSkipsUnacknowledgedDirs: a campaign directory without a
// record belongs to a submission killed before acknowledgement; List
// must skip it rather than error or invent a campaign.
func TestDiskStoreSkipsUnacknowledgedDirs(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "campaigns", "c00deadbeef00000"), 0o755); err != nil {
		t.Fatal(err)
	}
	list, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("List = %d records, want 0", len(list))
	}
}
