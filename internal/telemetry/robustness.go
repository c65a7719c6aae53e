package telemetry

import (
	"strconv"
	"strings"
)

// Robustness is a snapshot of a registry's failure-handling counters
// (its TagRobustness set) — the observability companion to the
// fault-injection machinery. The chaos soak takes one of the kernel's
// registry per checkpoint.
//
// The counter names exist in exactly one place: the kernel's
// registration table (kernel.Metrics). Adding a failure counter there
// automatically extends every chaos report.
type Robustness struct {
	names []string
	vals  []uint64
}

// SnapshotRobustness captures reg's current TagRobustness counters.
func SnapshotRobustness(reg *Registry) Robustness {
	cs := reg.Tagged(TagRobustness)
	r := Robustness{names: make([]string, len(cs)), vals: make([]uint64, len(cs))}
	for i, c := range cs {
		r.names[i] = c.Name()
		r.vals[i] = c.Value()
	}
	return r
}

// Value returns the named counter's value (0 when absent).
func (r Robustness) Value(name string) uint64 {
	for i, n := range r.names {
		if n == name {
			return r.vals[i]
		}
	}
	return 0
}

// Equal reports whether two snapshots agree on every counter.
func (r Robustness) Equal(o Robustness) bool {
	if len(r.names) != len(o.names) {
		return false
	}
	for i := range r.names {
		if r.names[i] != o.names[i] || r.vals[i] != o.vals[i] {
			return false
		}
	}
	return true
}

// String renders the snapshot as one stable, greppable line of
// name=value pairs in registration order.
func (r Robustness) String() string {
	var b strings.Builder
	for i, n := range r.names {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.FormatUint(r.vals[i], 10))
	}
	return b.String()
}
