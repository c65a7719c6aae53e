package mem

import (
	"math/rand"
	"sort"
	"testing"
)

// TestPFNSetMatchesSortedReference is a differential property test of
// the bitmap-indexed PFN set against a sorted slice: random pushes,
// removals and pops, ascending and descending, at every order, over
// frame tables whose size is not a multiple of 64 (so the last word of
// each level is partial).
func TestPFNSetMatchesSortedReference(t *testing.T) {
	for _, npages := range []uint64{1, 63, 100, 4097, 70001} {
		for order := 0; order <= MaxOrder; order++ {
			for _, desc := range []bool{false, true} {
				seed := int64(npages)*1000 + int64(order)*2
				if desc {
					seed++
				}
				checkPFNSetAgainstReference(t, npages, order, desc, rand.New(rand.NewSource(seed)))
			}
		}
	}
}

func checkPFNSetAgainstReference(t *testing.T, npages uint64, order int, desc bool, rng *rand.Rand) {
	t.Helper()
	pm := &PhysMem{NPages: npages, flIdx: make([]int32, npages)}
	s := &pfnSet{order: uint(order), desc: desc}
	blocks := (npages + OrderPages(order) - 1) >> order
	in := make(map[uint64]bool)
	var ref []uint64 // sorted ascending

	insert := func(pfn uint64) {
		i := sort.Search(len(ref), func(i int) bool { return ref[i] >= pfn })
		ref = append(ref, 0)
		copy(ref[i+1:], ref[i:])
		ref[i] = pfn
	}
	drop := func(pfn uint64) {
		i := sort.Search(len(ref), func(i int) bool { return ref[i] >= pfn })
		ref = append(ref[:i], ref[i+1:]...)
	}

	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // push a block not yet in the set
			pfn := uint64(rng.Int63n(int64(blocks))) << order
			if in[pfn] {
				continue
			}
			s.push(pm, pfn)
			in[pfn] = true
			insert(pfn)
		case op < 7 && len(ref) > 0: // remove an arbitrary member
			pfn := ref[rng.Intn(len(ref))]
			s.remove(pm, pfn)
			delete(in, pfn)
			drop(pfn)
		default: // pop the extreme member
			got, ok := s.pop(pm)
			if ok != (len(ref) > 0) {
				t.Fatalf("npages=%d order=%d desc=%v step %d: pop ok=%v with %d members",
					npages, order, desc, step, ok, len(ref))
			}
			if !ok {
				continue
			}
			want := ref[0]
			if desc {
				want = ref[len(ref)-1]
			}
			if got != want {
				t.Fatalf("npages=%d order=%d desc=%v step %d: pop %d, want %d",
					npages, order, desc, step, got, want)
			}
			delete(in, got)
			drop(got)
		}
		if s.len() != len(ref) {
			t.Fatalf("npages=%d order=%d step %d: len %d, want %d", npages, order, step, s.len(), len(ref))
		}
	}
	all := s.appendTo(nil)
	if len(all) != len(ref) {
		t.Fatalf("npages=%d order=%d: appendTo returned %d heads, want %d", npages, order, len(all), len(ref))
	}
	for i := range all {
		if all[i] != ref[i] || !s.has(all[i]) {
			t.Fatalf("npages=%d order=%d: appendTo[%d] = %d, want %d", npages, order, i, all[i], ref[i])
		}
	}
	// Drain: pops come out in strict order and empty the set.
	for len(ref) > 0 {
		want := ref[0]
		if desc {
			want = ref[len(ref)-1]
		}
		if got, ok := s.pop(pm); !ok || got != want {
			t.Fatalf("npages=%d order=%d drain: pop %d,%v, want %d", npages, order, got, ok, want)
		}
		drop(want)
	}
	if _, ok := s.pop(pm); ok || s.len() != 0 {
		t.Fatalf("npages=%d order=%d: set not empty after drain", npages, order)
	}
}

// TestPFNSetLevels pins the level geometry the 8 GiB cost bound rests
// on: one bit per block, one bit per word above, a single top word.
func TestPFNSetLevels(t *testing.T) {
	s := &pfnSet{}
	s.init(8 << 30 / PageSize)
	var got []int
	for _, l := range s.levels {
		got = append(got, len(l))
	}
	want := []int{32768, 512, 8, 1}
	if len(got) != len(want) {
		t.Fatalf("levels %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("levels %v, want %v", got, want)
		}
	}
}
