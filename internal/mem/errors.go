package mem

import "errors"

// Typed sentinel errors for reachable buddy-allocator failure paths,
// mirroring internal/kernel/errors.go. Each is recoverable: the buddy
// state is untouched when one is returned, so callers may retry, route
// around, or surface the condition. Panics remain only for boot-time
// configuration validation (NewBuddy, NewPhysMem) and provably
// unreachable invariant violations, each marked with a comment at the
// panic site.
var (
	// ErrOutOfRange reports an operation on a PFN range that falls
	// outside the buddy region's [start, end) bounds.
	ErrOutOfRange = errors.New("mem: range outside buddy region")

	// ErrNotAllocated reports a Free of a block that is not currently
	// allocated (already free, a tail frame, or limbo).
	ErrNotAllocated = errors.New("mem: block not allocated")

	// ErrNotInLimbo reports a ClaimCarved over frames that are not in
	// the carved limbo state (still free, or already allocated).
	ErrNotInLimbo = errors.New("mem: frames not in limbo")

	// ErrMisaligned reports a block operation whose PFN is not naturally
	// aligned for the requested order.
	ErrMisaligned = errors.New("mem: misaligned block")

	// ErrDuplicateHead reports a snapshot that lists the same free
	// block head twice on one PFN-ordered free list.
	ErrDuplicateHead = errors.New("mem: free head listed twice")

	// ErrBadBounds reports an AdjustBounds to an empty or out-of-table
	// range.
	ErrBadBounds = errors.New("mem: invalid region bounds")
)
