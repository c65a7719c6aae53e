package kernel

import "contiguitas/internal/mem"

// The buddy allocator's Free/Donate/AdjustBounds return typed errors so
// external callers can misuse them safely, but every kernel-internal
// call operates on state the kernel just validated (a live page-table row,
// a block it allocated moments ago, bounds it computed from the frame
// table). A failure here means kernel bookkeeping is already corrupt —
// continuing would silently lose memory — so these wrappers treat it as
// a provably-unreachable invariant violation and panic.

func mustFree(b *mem.Buddy, pfn uint64) {
	if err := b.Free(pfn); err != nil {
		panic("kernel: invariant violation: " + err.Error())
	}
}

func mustDonate(b *mem.Buddy, start, n uint64) {
	if err := b.Donate(start, n); err != nil {
		panic("kernel: invariant violation: " + err.Error())
	}
}

func mustAdjustBounds(b *mem.Buddy, start, end uint64) {
	if err := b.AdjustBounds(start, end); err != nil {
		panic("kernel: invariant violation: " + err.Error())
	}
}
