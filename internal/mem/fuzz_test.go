package mem

import (
	"testing"
)

// FuzzBuddyAllocFree drives a buddy allocator with an arbitrary
// alloc/free op stream and checks the structural invariants after
// every few ops. The allocator must never panic and never corrupt its
// free lists, whatever interleaving (including frees of arbitrary —
// possibly interior or already-free — pfns) the fuzzer invents. Every
// stream runs under all three allocation policies, so both free-list
// kinds (LIFO stacks and PFN sets) see it.
func FuzzBuddyAllocFree(f *testing.F) {
	f.Add([]byte{0x00, 0x81, 0x02, 0x93, 0x44, 0xff})
	f.Add([]byte{0x80, 0x80, 0x80, 0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, policy := range []AllocPolicy{PolicyLIFO, PolicyLowestPFN, PolicyHighestPFN} {
			fuzzBuddyOps(t, policy, data)
		}
	})
}

func fuzzBuddyOps(t *testing.T, policy AllocPolicy, data []byte) {
	pm := NewPhysMem(16 << 20) // 4096 pages
	b := NewBuddy(pm, 0, pm.NPages, policy, true, MigrateMovable)

	var live []uint64
	for i, op := range data {
		if op&0x80 == 0 {
			// Alloc: low bits pick order and migratetype.
			order := int(op) % 10
			mt := MigrateType(op>>4) % NumMigrateTypes
			if pfn, ok := b.Alloc(order, mt, SrcUser); ok {
				live = append(live, pfn)
			}
		} else if op&0x40 == 0 && len(live) > 0 {
			// Free a tracked allocation head — must succeed exactly once.
			idx := int(op&0x3f) % len(live)
			pfn := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			if err := b.Free(pfn); err != nil {
				t.Fatalf("op %d: free of live head %d: %v", i, pfn, err)
			}
		} else {
			// Free an arbitrary pfn — interior pages, free pages, and
			// out-of-range pfns must all be rejected with an error, never
			// a panic or silent corruption. Skip tracked heads: those are
			// the one class of pfn this Free would legitimately release,
			// which would desync the drain below.
			pfn := uint64(op&0x3f) * 67 % pm.NPages
			tracked := false
			for _, h := range live {
				if h == pfn {
					tracked = true
					break
				}
			}
			if !tracked {
				if err := b.Free(pfn); err == nil {
					t.Fatalf("op %d: free of untracked pfn %d succeeded", i, pfn)
				}
			}
		}
		if i%16 == 15 {
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("final: %v", err)
	}
	for _, pfn := range live {
		if err := b.Free(pfn); err != nil {
			t.Fatalf("drain free %d: %v", pfn, err)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	if b.FreePages() != b.Pages() {
		t.Fatalf("after drain: %d of %d pages free", b.FreePages(), b.Pages())
	}
}
