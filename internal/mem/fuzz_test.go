package mem

import (
	"errors"
	"reflect"
	"slices"
	"testing"
)

// FuzzBuddyAllocFree drives a buddy allocator with an arbitrary op
// stream and checks the structural invariants after every few ops. The
// allocator must never panic and never corrupt its free lists, whatever
// interleaving (including frees of arbitrary — possibly interior or
// already-free — pfns) the fuzzer invents. Every stream runs under all
// three allocation policies, so both free-list kinds (LIFO stacks and
// PFN sets) see it.
//
// Each stream runs on two allocators from the same boot state. Bulk ops
// (AllocBulk4K, FreeBatch, Recycle4K) run on the first; the second runs
// the same work as single Alloc/Free calls. Both must hand out the same
// PFN sequence and end every few ops in the same exported state: frame
// table, flIdx witness, dirty pageblocks, and free lists.
//
// Op encoding (one byte each):
//
//	0x00-0x7f  single Alloc: order op%10, migratetype (op>>4)%3
//	0x80-0xbf  Free of a tracked head
//	0xc0-0xdf  Free of an untracked pfn, (op&0x1f)*131 (must be rejected)
//	0xe0-0xef  n 4 KB allocations: n = 1+(op&7)*79, movable unless op&8
//	0xf0-0xf7  batch Free of the last 1+(op&7) tracked heads, plus one
//	           duplicate and one untracked odd pfn (both must be rejected)
//	0xf8-0xff  Recycle4K of tracked head (op&7)/8 of the way in
func FuzzBuddyAllocFree(f *testing.F) {
	f.Add([]byte{0x00, 0x81, 0x02, 0x93, 0x44, 0xff})
	f.Add([]byte{0x80, 0x80, 0x80, 0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{})
	f.Add([]byte{0x05, 0xe3, 0xf5, 0xea, 0x19, 0xe0, 0xf7, 0x84, 0xee, 0xf2})
	// Fill the region with 4 KB pages, then recycle and batch-free.
	f.Add([]byte{0xe7, 0xe7, 0xe7, 0xe7, 0xe7, 0xe7, 0xe7, 0xe7, 0xf8, 0xfb, 0xf7, 0xf8, 0xe0})

	// Batch frees that merge while other blocks of the same orders sit
	// on the lists: a LIFO batch must replay every push and remove.
	f.Add([]byte{0xe7, 0x80, 0x81, 0x82, 0x90, 0xf7, 0xf7, 0xf3, 0xf7, 0xe2, 0xf7})
	// Free every other page of a bulk run, then the rest: the merged
	// blocks carry stale LIFO positions in flIdx, which the next bulk
	// run and the recycles must overwrite as single calls do.
	stale := []byte{0xe7}
	for i := byte(0); i <= 20; i++ {
		stale = append(stale, 0x80+i)
	}
	for i := 0; i <= 20; i++ {
		stale = append(stale, 0x80)
	}
	stale = append(stale, 0xe7, 0xe7, 0xe7, 0xe7, 0xe7, 0xe7, 0xe7, 0xe7)
	f.Add(append(stale, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xfe, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, policy := range []AllocPolicy{PolicyLIFO, PolicyLowestPFN, PolicyHighestPFN} {
			fuzzBuddyOps(t, policy, data)
		}
	})
}

func fuzzBuddyOps(t *testing.T, policy AllocPolicy, data []byte) {
	pm := NewPhysMem(16 << 20) // 4096 pages
	b := NewBuddy(pm, 0, pm.NPages, policy, true, MigrateMovable)
	// s is the single-call twin of b.
	s := NewBuddy(NewPhysMem(16<<20), 0, pm.NPages, policy, true, MigrateMovable)

	var live []uint64
	var got, want []uint64
	for i, op := range data {
		switch {
		case op&0x80 == 0:
			// Alloc: low bits pick order and migratetype.
			order := int(op) % 10
			mt := MigrateType(op>>4) % NumMigrateTypes
			pfn, ok := b.Alloc(order, mt, SrcUser)
			spfn, sok := s.Alloc(order, mt, SrcUser)
			if ok != sok || pfn != spfn {
				t.Fatalf("op %d: twins diverged on Alloc: %d,%v vs %d,%v", i, pfn, ok, spfn, sok)
			}
			if ok {
				live = append(live, pfn)
			}
		case op&0x40 == 0:
			if len(live) == 0 {
				break
			}
			// Free a tracked allocation head — must succeed exactly once.
			idx := int(op&0x3f) % len(live)
			pfn := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			if err := b.Free(pfn); err != nil {
				t.Fatalf("op %d: free of live head %d: %v", i, pfn, err)
			}
			if err := s.Free(pfn); err != nil {
				t.Fatalf("op %d: twin free of live head %d: %v", i, pfn, err)
			}
		case op&0x20 == 0:
			// Free an arbitrary pfn — interior pages, free pages, and
			// out-of-range pfns must all be rejected with an error, never
			// a panic or silent corruption. Skip tracked heads: those are
			// the one class of pfn this Free would legitimately release,
			// which would desync the drain below.
			// 131 spreads the 32 probes over the whole region, so the
			// upper half, where HighestPFN allocates, is probed too.
			pfn := uint64(op&0x1f) * 131 % pm.NPages
			if !slices.Contains(live, pfn) {
				if err := b.Free(pfn); err == nil {
					t.Fatalf("op %d: free of untracked pfn %d succeeded", i, pfn)
				}
				s.Free(pfn)
			}
		case op&0x10 == 0:
			n := 1 + int(op&7)*79
			mt := MigrateMovable
			if op&8 != 0 {
				mt = MigrateType(i) % 2
			}
			got = b.AllocBulk4K(got[:0], n, mt, SrcUser)
			if len(got) < n && b.HasFree(mt) {
				t.Fatalf("op %d: bulk stopped at %d of %d with mt %v lists non-empty", i, len(got), n, mt)
			}
			// Past the fast path, the bulk twin continues with single
			// calls (fallback steals), as the kernel does.
			for len(got) < n {
				pfn, ok := b.Alloc(Order4K, mt, SrcUser)
				if !ok {
					break
				}
				got = append(got, pfn)
			}
			want = want[:0]
			for len(want) < n {
				pfn, ok := s.Alloc(Order4K, mt, SrcUser)
				if !ok {
					break
				}
				want = append(want, pfn)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: bulk alloc handed out %v, single calls %v", i, got, want)
			}
			live = append(live, got...)
		case op&8 == 0:
			m := min(1+int(op&7), len(live))
			batch := append([]uint64(nil), live[len(live)-m:]...)
			live = live[:len(live)-m]
			if m > 0 {
				batch = append(batch, batch[0]) // duplicate: rejected the second time
			}
			batch = append(batch, uint64(i)*131%pm.NPages|1) // odd pfn: never a tracked head of order > 0
			if slices.Contains(live, batch[len(batch)-1]) {
				batch = batch[:len(batch)-1]
			}
			var serr error
			for j, pfn := range batch {
				err := s.Free(pfn)
				// The m heads free; the duplicate and the odd pfn
				// after them must be rejected.
				if (err == nil) != (j < m) {
					t.Fatalf("op %d: free %d of batch %v (%d heads): %v", i, j, batch, m, err)
				}
				if err != nil && serr == nil {
					serr = err
				}
			}
			berr := b.FreeBatch(slices.Clone(batch))
			if (berr == nil) != (serr == nil) || berr != nil && berr.Error() != serr.Error() {
				t.Fatalf("op %d: FreeBatch(%v) error %v, single calls %v", i, batch, berr, serr)
			}
		default:
			if len(live) == 0 {
				break
			}
			pfn := live[int(op&7)*len(live)/8]
			if err := b.Recycle4K(pfn, MigrateMovable, SrcFilesystem); err != nil {
				if !errors.Is(err, ErrNotRecyclable) && !errors.Is(err, ErrNotAllocated) {
					t.Fatalf("op %d: Recycle4K(%d): %v", i, pfn, err)
				}
				if s.FreePages() == 0 && s.pm.PageblockMT(pfn) == MigrateMovable && s.pm.BlockOrder(pfn) == Order4K {
					t.Fatalf("op %d: Recycle4K(%d) refused a recyclable page: %v", i, pfn, err)
				}
				break
			}
			if err := s.Free(pfn); err != nil {
				t.Fatalf("op %d: twin free of recycled %d: %v", i, pfn, err)
			}
			if spfn, ok := s.Alloc(Order4K, MigrateMovable, SrcFilesystem); !ok || spfn != pfn {
				t.Fatalf("op %d: Recycle4K(%d) kept the frame, Free+Alloc moved to %d,%v", i, pfn, spfn, ok)
			}
		}
		if i%16 == 15 {
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			requireSameBuddy(t, i, b, s)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("final: %v", err)
	}
	requireSameBuddy(t, len(data), b, s)
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

// requireSameBuddy fails unless two regions over two frame tables hold
// the same exported state, the same flIdx values (the snapshot witness
// copies them verbatim, stale ones included) and the same dirty
// pageblocks.
func requireSameBuddy(t *testing.T, op int, a, b *Buddy) {
	t.Helper()
	if !reflect.DeepEqual(a.ExportState(), b.ExportState()) {
		t.Fatalf("op %d: buddy states differ:\n%+v\n%+v", op, a.ExportState(), b.ExportState())
	}
	pa, pb := a.pm, b.pm
	if !slices.Equal(pa.meta, pb.meta) {
		i := 0
		for pa.meta[i] == pb.meta[i] {
			i++
		}
		t.Fatalf("op %d: frame %d meta %#x vs %#x", op, i, pa.meta[i], pb.meta[i])
	}
	if !slices.Equal(pa.flIdx, pb.flIdx) {
		t.Fatalf("op %d: flIdx differs", op)
	}
	if !slices.Equal(pa.pbMT, pb.pbMT) || !slices.Equal(pa.dirty, pb.dirty) || pa.dirtyCount != pb.dirtyCount {
		t.Fatalf("op %d: pageblock types or dirty bits differ", op)
	}
	if a.blockCount != b.blockCount || a.mtMask != b.mtMask {
		t.Fatalf("op %d: block histograms differ", op)
	}
}
