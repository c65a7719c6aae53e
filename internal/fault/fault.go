// Package fault provides deterministic, seedable fault injection for
// the simulators. Code under test declares named fault points and asks
// the injector whether the fault should fire at each crossing; tests and
// the chaos driver arm points with triggers — per-hit probability,
// every-Nth-hit, specific hit numbers, or a virtual-clock window.
//
// Determinism is the design constraint: every armed point draws from its
// own RNG stream (derived from the injector seed and the point name), so
// the firing pattern of one point never depends on how often other
// points are crossed, and the same seed reproduces the same fault
// schedule bit-for-bit. Unarmed points never draw and cost one map
// lookup.
//
// A nil *Injector is valid and never fires, so production code can keep
// an injector field without nil checks at every point.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"contiguitas/internal/stats"
)

// Well-known fault points wired into the kernel simulator. Points are
// plain strings, so packages may also declare their own.
const (
	// PointHWMover fails a Contiguitas-HW assisted migration (the copy
	// engine aborts: in-flight DMA conflict, metadata-table overflow).
	PointHWMover = "hw.mover.migrate"
	// PointSWMigrate fails a software page migration (racing access
	// re-faults the page mid-copy and the migration is aborted).
	PointSWMigrate = "kernel.migrate.sw"
	// PointCompactCarve fails a compaction carve (an allocation landed
	// in the target range between the scan and the carve).
	PointCompactCarve = "kernel.compact.carve"
	// PointRegionResize aborts a resizer evaluation before it moves the
	// boundary (resizer thread preempted / lock contention).
	PointRegionResize = "kernel.region.resize"
	// PointReclaimProgress makes a direct-reclaim pass reclaim nothing
	// (every cache page is being written back / re-referenced), forcing
	// the allocation ladder to escalate past the reclaim rung.
	PointReclaimProgress = "kernel.reclaim.progress"
	// PointFleetShardCrash kills a supervised fleet shard at a server
	// boundary (the whole shard worker dies mid-campaign and must be
	// restarted from its last checkpoint).
	PointFleetShardCrash = "fleet.shard.crash"
	// PointFleetCheckpointWrite fails a fleet shard's checkpoint write
	// (disk full, torn I/O); the shard treats it as fatal and the
	// supervisor retries the attempt from the last good checkpoint.
	PointFleetCheckpointWrite = "fleet.checkpoint.write"
	// PointFSWrite fails a write(2) into a temp file inside the
	// durable-write discipline (short write; ENOSPC when the injecting
	// filesystem is in ENOSPC mode).
	PointFSWrite = "vfs.fs.write"
	// PointFSFsync fails an fsync — of a temp file before its rename, or
	// of a parent directory after one (the failure mode behind
	// "fsyncgate": a write acknowledged but never durable).
	PointFSFsync = "vfs.fs.fsync"
	// PointFSRename fails the atomic rename that publishes a durable
	// file (EIO from the journal, torn directory update).
	PointFSRename = "vfs.fs.rename"
	// PointFSRead fails — or, in bit-rot mode, silently corrupts — a
	// read of a stored file, modelling latent sector errors and media
	// rot that only integrity verification can catch.
	PointFSRead = "vfs.fs.read"
)

// Trigger describes when an armed point fires. Conditions compose: the
// point must be inside the clock window (when one is set), and then any
// of Prob / EveryN / OnHits may fire it.
type Trigger struct {
	// Prob fires with this per-hit probability (0 disables).
	Prob float64
	// EveryN fires on every Nth hit of the point (0 disables).
	EveryN uint64
	// OnHits fires on these exact hit numbers (1-based).
	OnHits []uint64
	// From/Until restrict firing to clock values in [From, Until);
	// Until == 0 means unbounded. The clock is whatever the owner
	// registered with SetClock (the kernel registers its tick).
	From, Until uint64
}

// PointStats reports one point's lifetime accounting.
type PointStats struct {
	Name  string
	Hits  uint64 // times the point was crossed while armed
	Fired uint64 // times the fault fired
}

type point struct {
	trig  Trigger
	rng   *stats.RNG
	hits  uint64
	fired uint64
}

// Injector is a registry of armed fault points. It is not safe for
// concurrent use, matching the single-threaded simulators.
type Injector struct {
	seed   uint64
	clock  func() uint64
	points map[string]*point
	// retired keeps accounting for disarmed points so reports survive
	// Disarm.
	retired map[string]PointStats
}

// New returns an injector whose fault schedule is fully determined by
// seed.
func New(seed uint64) *Injector {
	return &Injector{
		seed:    seed,
		points:  make(map[string]*point),
		retired: make(map[string]PointStats),
	}
}

// SetClock registers the virtual-time source used by window triggers.
func (in *Injector) SetClock(fn func() uint64) {
	if in != nil {
		in.clock = fn
	}
}

// Arm registers (or replaces) the trigger for a point. Hit accounting
// restarts from zero; the point's RNG stream depends only on the
// injector seed and the point name, so arming order is irrelevant.
func (in *Injector) Arm(name string, t Trigger) {
	in.points[name] = &point{
		trig: t,
		rng:  stats.NewRNG(in.seed ^ hashName(name)),
	}
}

// Disarm removes a point; its accounting is preserved for Snapshot.
func (in *Injector) Disarm(name string) {
	if in == nil {
		return
	}
	if p, ok := in.points[name]; ok {
		st := in.retired[name]
		st.Name = name
		st.Hits += p.hits
		st.Fired += p.fired
		in.retired[name] = st
		delete(in.points, name)
	}
}

// DisarmAll disarms every point.
func (in *Injector) DisarmAll() {
	if in == nil {
		return
	}
	for name := range in.points {
		in.Disarm(name)
	}
}

// Armed reports whether the named point is armed. Crossing an unarmed
// point has no effect, so a caller may skip crossings while it is not.
func (in *Injector) Armed(name string) bool {
	if in == nil {
		return false
	}
	_, ok := in.points[name]
	return ok
}

// Should reports whether the named fault fires at this crossing. Safe on
// a nil injector (never fires) and on unarmed points.
func (in *Injector) Should(name string) bool {
	if in == nil {
		return false
	}
	p, ok := in.points[name]
	if !ok {
		return false
	}
	p.hits++
	t := &p.trig
	if t.From != 0 || t.Until != 0 {
		var now uint64
		if in.clock != nil {
			now = in.clock()
		}
		if now < t.From || (t.Until != 0 && now >= t.Until) {
			// Consume the draw so the sequence stays a pure function
			// of the hit number regardless of window placement.
			if t.Prob > 0 {
				p.rng.Float64()
			}
			return false
		}
	}
	fire := false
	if t.Prob > 0 && p.rng.Float64() < t.Prob {
		fire = true
	}
	if t.EveryN > 0 && p.hits%t.EveryN == 0 {
		fire = true
	}
	for _, h := range t.OnHits {
		if p.hits == h {
			fire = true
			break
		}
	}
	if fire {
		p.fired++
	}
	return fire
}

// Hits returns how many times the point was crossed while armed
// (including any disarmed accounting).
func (in *Injector) Hits(name string) uint64 {
	if in == nil {
		return 0
	}
	n := in.retired[name].Hits
	if p, ok := in.points[name]; ok {
		n += p.hits
	}
	return n
}

// Fired returns how many times the point's fault fired.
func (in *Injector) Fired(name string) uint64 {
	if in == nil {
		return 0
	}
	n := in.retired[name].Fired
	if p, ok := in.points[name]; ok {
		n += p.fired
	}
	return n
}

// TotalFired sums firings across all points, armed and retired.
func (in *Injector) TotalFired() uint64 {
	if in == nil {
		return 0
	}
	var n uint64
	for _, st := range in.Snapshot() {
		n += st.Fired
	}
	return n
}

// Snapshot returns per-point accounting sorted by name, merging armed
// and retired points, for deterministic reporting.
func (in *Injector) Snapshot() []PointStats {
	if in == nil {
		return nil
	}
	merged := make(map[string]PointStats, len(in.points)+len(in.retired))
	for name, st := range in.retired {
		merged[name] = st
	}
	for name, p := range in.points {
		st := merged[name]
		st.Name = name
		st.Hits += p.hits
		st.Fired += p.fired
		merged[name] = st
	}
	out := make([]PointStats, 0, len(merged))
	for _, st := range merged {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the snapshot as "name hits/fired" pairs.
func (in *Injector) String() string {
	var b strings.Builder
	for i, st := range in.Snapshot() {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d/%d", st.Name, st.Fired, st.Hits)
	}
	return b.String()
}

// PointState is the full serializable state of one armed fault point:
// its trigger, its private RNG stream position, and its accounting.
type PointState struct {
	Name   string
	Trig   Trigger
	S0, S1 uint64 // RNG stream position
	Hits   uint64
	Fired  uint64
}

// InjectorState is the full serializable state of an Injector. Points
// and Retired are sorted by name so the encoding is deterministic. The
// clock is configuration, not state: the restoring owner re-binds it
// with SetClock (the kernel does this in New).
type InjectorState struct {
	Seed    uint64
	Points  []PointState
	Retired []PointStats
}

// State captures the injector's full state for checkpointing. Nil
// injectors export nil, and FromState(nil) restores nil, so a faultless
// run round-trips without special cases.
func (in *Injector) State() *InjectorState {
	if in == nil {
		return nil
	}
	st := &InjectorState{Seed: in.seed}
	names := make([]string, 0, len(in.points))
	for name := range in.points {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := in.points[name]
		s0, s1 := p.rng.State()
		st.Points = append(st.Points, PointState{
			Name: name, Trig: p.trig, S0: s0, S1: s1,
			Hits: p.hits, Fired: p.fired,
		})
	}
	rnames := make([]string, 0, len(in.retired))
	for name := range in.retired {
		rnames = append(rnames, name)
	}
	sort.Strings(rnames)
	for _, name := range rnames {
		st.Retired = append(st.Retired, in.retired[name])
	}
	return st
}

// FromState rebuilds an injector from captured state, resuming every
// armed point's RNG stream exactly where it left off. The caller must
// re-bind the clock with SetClock before window triggers can see time.
func FromState(st *InjectorState) *Injector {
	if st == nil {
		return nil
	}
	in := New(st.Seed)
	for _, ps := range st.Points {
		p := &point{trig: ps.Trig, hits: ps.Hits, fired: ps.Fired}
		p.rng = stats.NewRNG(0)
		p.rng.SetState(ps.S0, ps.S1)
		in.points[ps.Name] = p
	}
	for _, rs := range st.Retired {
		in.retired[rs.Name] = rs
	}
	return in
}

// hashName is FNV-1a, folding the point name into the RNG seed.
func hashName(name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return h
}
