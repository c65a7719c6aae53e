package workload

import (
	"math"

	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/slab"
	"contiguitas/internal/stats"
	"contiguitas/internal/trans"
)

// Runner drives one simulated kernel with a service profile: every tick
// it churns the unmovable pool toward its steady-state target, tops up
// the page cache, and periodically redeploys the service (freeing and
// re-faulting its mappings — the fragmentation driver the paper calls
// out for partial fragmentation).
type Runner struct {
	K   *kernel.Kernel
	P   Profile
	rng *stats.RNG

	mappings []*kernel.Mapping
	unmov    []kernel.Page
	small    []kernel.Page
	// freeBatch is the reused queue of one churn pass's frees.
	freeBatch []kernel.Page
	// unmovHeld and mappingHeld cache the frame counts of the unmovable
	// pool and the user mappings (both are refilled in loops; recomputing
	// the sums would be quadratic in pool size).
	unmovHeld   uint64
	mappingHeld uint64

	// The slab share of unmovable memory is driven as real object churn
	// through the slab allocator, so its page population emerges from
	// object lifetimes and packing (one survivor pins a page).
	slabMgr  *slab.Manager
	slabObjs []slabObj
	slabFrac float64

	srcWeights []float64
	srcValues  []mem.Source

	// UnmovableAllocFailures counts unmovable allocations the kernel
	// could not serve — the cost of a mis-sized unmovable region.
	UnmovableAllocFailures uint64
	// OOMKillsTaken counts kills the kernel's OOM killer landed on this
	// runner's pools (see oom.go).
	OOMKillsTaken uint64
	ticksRun      uint64
	churnCarry    float64

	// oomBackoffUntil[pool] is the tick at which the pool may refill
	// again after an OOM kill (nil when the ladder is disabled);
	// promoting guards the mappings victim against a kill landing under
	// an in-flight khugepaged collapse.
	oomBackoffUntil []uint64
	promoting       bool
}

// slabObj pairs a live slab object with its cache index.
type slabObj struct {
	obj   slab.Obj
	cache int
}

// NewRunner attaches a profile to a kernel.
func NewRunner(k *kernel.Kernel, p Profile, seed uint64) *Runner {
	r := &Runner{K: k, P: p, rng: stats.NewRNG(seed)}
	for src, w := range p.SourceMix {
		if src == int(mem.SrcSlab) && w > 0 {
			// Slab demand goes through the object allocator below.
			r.slabFrac = w
			r.slabMgr = slab.NewManager(k)
			continue
		}
		if w > 0 {
			r.srcWeights = append(r.srcWeights, w)
			r.srcValues = append(r.srcValues, mem.Source(src))
		}
	}
	r.registerVictims()
	return r
}

// targetPages converts a fraction of machine memory into frames.
func (r *Runner) targetPages(frac float64) uint64 {
	return uint64(frac * float64(r.K.PM().NPages))
}

// unmovablePages returns the frames currently held by the unmovable pool.
func (r *Runner) unmovablePages() uint64 { return r.unmovHeld }

// Step advances one tick of service activity: all churn first (opening
// holes, including whole freed mappings), then refills — kernel
// allocations first, users last. The freed pageblocks are partially
// consumed by base-page allocations before the THP refill sees them,
// which is how huge-page coverage decays on packed machines.
func (r *Runner) Step() {
	r.churnMappings()
	r.churnSmall()
	r.stepSlab()
	r.stepUnmovable()
	r.stepPageCache()
	r.fillSmall()
	r.stepUser()
	r.K.EndTick()
	r.ticksRun++
}

// Run advances n ticks.
func (r *Runner) Run(n uint64) {
	for i := uint64(0); i < n; i++ {
		r.Step()
	}
}

// stepUnmovable churns the unmovable pool: a fraction is freed and the
// pool refilled to target with fresh allocations drawn from the source
// mix. Under ModeLinux the refill lands wherever fallback stealing puts
// it — the scattering mechanism; under ModeContiguitas it is confined.
func (r *Runner) stepUnmovable() {
	churn := int(float64(len(r.unmov)) * r.P.UnmovableChurn)
	batch := r.freeBatch[:0]
	for i := 0; i < churn && len(r.unmov) > 0; i++ {
		j := r.rng.Intn(len(r.unmov))
		p := r.unmov[j]
		info := r.K.Info(p)
		if info.Pinned {
			// Free what is queued first, so the unpin lands between the
			// same frees as it would one call at a time.
			batch = r.flushFrees(batch)
			r.K.Unpin(p)
		}
		batch = append(batch, p)
		r.unmovHeld -= info.Pages()
		r.unmov[j] = r.unmov[len(r.unmov)-1]
		r.unmov = r.unmov[:len(r.unmov)-1]
	}
	r.freeBatch = r.flushFrees(batch)
	target := r.unmovableTarget()
	// The slab allocator holds its share as backing pages; direct
	// unmovable allocations cover the remainder.
	if held := r.slabPages(); held >= target {
		target = 0
	} else {
		target -= held
	}
	for r.unmovablePages() < target && !r.suppressed(vicUnmov) {
		src := r.srcValues[r.rng.WeightedChoice(r.srcWeights)]
		order := sourceOrder(src, r.rng.Float64())
		if src == mem.SrcNetworking && r.rng.Bool(r.P.PinFraction) {
			// Pinned networking buffer: allocated movable (it starts
			// life as a regular buffer) and then pinned for DMA.
			p, err := r.K.Alloc(order, mem.MigrateMovable, src)
			if err != nil {
				r.UnmovableAllocFailures++
				return
			}
			if err := r.K.Pin(p); err != nil {
				r.K.Free(p)
				r.UnmovableAllocFailures++
				return
			}
			r.unmov = append(r.unmov, p)
			r.unmovHeld += mem.OrderPages(order)
			continue
		}
		p, err := r.K.Alloc(order, mem.MigrateUnmovable, src)
		if err != nil {
			r.UnmovableAllocFailures++
			return
		}
		r.unmov = append(r.unmov, p)
		r.unmovHeld += mem.OrderPages(order)
	}
}

// slabPages returns the frames held by the slab allocator.
func (r *Runner) slabPages() uint64 {
	if r.slabMgr == nil {
		return 0
	}
	return uint64(r.slabMgr.PagesHeld())
}

// stepSlab churns kernel objects through the slab caches: a fraction of
// live objects dies each tick (random lifetimes — survivors pin their
// pages) and the population refills until the slab share of the
// unmovable target is held as backing pages.
func (r *Runner) stepSlab() {
	if r.slabMgr == nil {
		return
	}
	if r.slabObjs == nil {
		// Presize for the objects that fill the slab share of the peak
		// (burst) target when packed: the append growth was a visible
		// slice-growth churn source in study heap profiles.
		frames := float64(r.targetPages(r.P.UnmovableFrac)) * (1 + r.P.UnmovBurst) * r.slabFrac
		r.slabObjs = make([]slabObj, 0, int(frames*r.slabMgr.ObjectsPerFrame()))
	}
	churn := int(float64(len(r.slabObjs)) * r.P.UnmovableChurn)
	for i := 0; i < churn && len(r.slabObjs) > 0; i++ {
		j := r.rng.Intn(len(r.slabObjs))
		so := r.slabObjs[j]
		r.slabMgr.Cache(so.cache).Free(so.obj)
		r.slabObjs[j] = r.slabObjs[len(r.slabObjs)-1]
		r.slabObjs = r.slabObjs[:len(r.slabObjs)-1]
	}
	target := uint64(float64(r.unmovableTarget()) * r.slabFrac)
	// Track held frames incrementally: most object allocations land in an
	// existing backing page, so recomputing the per-cache sum every
	// iteration would make the refill quadratic in object count.
	held := r.slabPages()
	for held < target {
		ci := r.rng.Intn(r.slabMgr.NumCaches())
		c := r.slabMgr.Cache(ci)
		before := c.Frames()
		o, err := c.Alloc()
		if err != nil {
			r.UnmovableAllocFailures++
			return
		}
		held += uint64(c.Frames() - before)
		r.slabObjs = append(r.slabObjs, slabObj{obj: o, cache: ci})
	}
}

// unmovableTarget modulates the steady-state unmovable footprint with
// the profile's demand burst: swings force the allocator to repeatedly
// grow into movable memory and hand blocks back, stranding residue.
func (r *Runner) unmovableTarget() uint64 {
	base := float64(r.targetPages(r.P.UnmovableFrac))
	if r.P.UnmovBurst > 0 && r.P.UnmovBurstPeriod > 0 {
		phase := 2 * math.Pi * float64(r.ticksRun%r.P.UnmovBurstPeriod) / float64(r.P.UnmovBurstPeriod)
		base *= 1 + r.P.UnmovBurst*math.Sin(phase)
	}
	return uint64(base)
}

// churnSmall frees a slice of the 4 KB user pool, punching base-page
// holes across the address space.
func (r *Runner) churnSmall() {
	churn := int(float64(len(r.small)) * r.P.SmallChurn)
	batch := r.freeBatch[:0]
	for i := 0; i < churn && len(r.small) > 0; i++ {
		j := r.rng.Intn(len(r.small))
		batch = append(batch, r.small[j])
		r.small[j] = r.small[len(r.small)-1]
		r.small = r.small[:len(r.small)-1]
	}
	r.freeBatch = r.flushFrees(batch)
}

// flushFrees frees the queued handles in order (Kernel.FreeBatch) and
// returns the emptied queue.
func (r *Runner) flushFrees(batch []kernel.Page) []kernel.Page {
	if len(batch) > 0 {
		r.K.FreeBatch(batch)
	}
	return batch[:0]
}

// fillSmall tops the 4 KB user pool back up to target.
func (r *Runner) fillSmall() {
	target := r.targetPages(r.P.SmallUserFrac)
	if r.small == nil && target > 0 {
		r.small = make([]kernel.Page, 0, target)
	}
	for uint64(len(r.small)) < target && !r.suppressed(vicSmall) {
		// The bulk path serves the pages single calls would serve
		// without a slow path; the slow one, which may OOM-kill this
		// very pool, stays a single call against r.small.
		r.small = r.K.AllocBulk4K(r.small, int(target)-len(r.small), mem.MigrateMovable, mem.SrcUser)
		if uint64(len(r.small)) >= target {
			return
		}
		p, err := r.K.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			return
		}
		r.small = append(r.small, p)
	}
}

// stepPageCache tops the page cache up to target; the kernel reclaims it
// under pressure, so overshoot self-corrects.
func (r *Runner) stepPageCache() {
	target := r.targetPages(r.P.PageCacheFrac)
	if have := r.cachePagesEstimate(); have < target {
		r.K.AllocPageCacheBulk4K(int(target-have), mem.SrcFilesystem)
	}
}

// cachePagesEstimate asks the kernel how much reclaimable memory is
// live; the runner does not keep cache handles (the kernel owns them).
func (r *Runner) cachePagesEstimate() uint64 {
	return r.K.ReclaimablePages()
}

// stepUser maintains the service's anonymous memory and handles the
// periodic redeploy.
func (r *Runner) stepUser() {
	if r.P.RedeployPeriodTicks > 0 && r.ticksRun > 0 &&
		r.ticksRun%r.P.RedeployPeriodTicks == 0 {
		r.Redeploy()
		return
	}
	r.fillUser()
	r.khugepaged()
}

// khugepaged runs the background promotion pass: a bounded number of
// base-page groups in existing mappings collapse into 2 MB blocks.
func (r *Runner) khugepaged() {
	budget := r.P.KhugepagedCollapses
	if budget <= 0 || len(r.mappings) == 0 {
		return
	}
	// Rotate through mappings so promotion pressure spreads.
	r.promoting = true
	start := r.rng.Intn(len(r.mappings))
	for i := 0; i < len(r.mappings) && budget > 0; i++ {
		m := r.mappings[(start+i)%len(r.mappings)]
		budget -= r.K.Promote(m, budget)
	}
	r.promoting = false
}

// churnMappings releases a fraction of mappings each tick (arena
// turnover); the refill happens at the end of the tick in stepUser, so
// base-page noise gets first pick of the freed pageblocks.
func (r *Runner) churnMappings() {
	r.churnCarry += r.P.UserChurn * float64(len(r.mappings))
	for r.churnCarry >= 1 && len(r.mappings) > 0 {
		r.churnCarry--
		i := r.rng.Intn(len(r.mappings))
		held, _ := r.mappings[i].Frames(0)
		r.mappingHeld -= held
		r.K.FreeMapping(r.mappings[i])
		r.mappings[i] = r.mappings[len(r.mappings)-1]
		r.mappings = r.mappings[:len(r.mappings)-1]
	}
}

// fillUser allocates user mappings up to the target footprint (the
// THP-eligible share; the small-page pool covers the rest).
func (r *Runner) fillUser() {
	target := r.targetPages(r.P.UserFrac - r.P.SmallUserFrac)
	have := r.mappingPages()
	chunk := r.P.MappingChunkBytes
	if chunk == 0 {
		chunk = 64 << 20
	}
	// Keep at least ~32 mappings on small simulated machines so churn
	// granularity stays meaningful.
	if maxChunk := r.K.Config().MemBytes / 32; chunk > maxChunk && maxChunk >= mem.PageSize {
		chunk = maxChunk
	}
	for have < target && !r.suppressed(vicMappings) {
		want := chunk
		if deficit := (target - have) * mem.PageSize; deficit < want {
			want = deficit
		}
		if want < mem.PageSize {
			break
		}
		m, err := r.K.AllocUser(want, true)
		if err != nil {
			break
		}
		r.mappings = append(r.mappings, m)
		// AllocUser delivers exactly the requested pages or fails whole.
		r.mappingHeld += mem.BytesToPages(want)
		have = r.mappingHeld
	}
}

// mappingPages returns frames held in THP-eligible user mappings. The
// count is maintained incrementally as mappings come and go; promotion
// preserves it (512 base pages collapse into one 512-page block).
func (r *Runner) mappingPages() uint64 { return r.mappingHeld }

// userPages returns all frames held as user memory (mappings plus the
// small-page pool).
func (r *Runner) userPages() uint64 {
	return r.mappingPages() + uint64(len(r.small))
}

// Redeploy simulates a code push: all mappings are torn down and
// re-faulted.
func (r *Runner) Redeploy() {
	for _, m := range r.mappings {
		r.K.FreeMapping(m)
	}
	r.mappings = r.mappings[:0]
	r.mappingHeld = 0
	r.fillUser()
}

// THPCoverage returns the fraction of user memory backed by 2 MB pages.
func (r *Runner) THPCoverage() float64 {
	var total, covered uint64
	for _, m := range r.mappings {
		t, c := m.Frames(mem.Order2M)
		total += t
		covered += c
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// Coverage converts the runner's achieved huge-page backing into the
// translation model's coverage terms, optionally adding a dynamically
// allocated 1 GB HugeTLB reservation.
func (r *Runner) Coverage(huge1G *kernel.HugeTLBResult) trans.Coverage {
	cov := trans.Coverage{Frac2M: r.THPCoverage()}
	if huge1G != nil && huge1G.Allocated > 0 {
		user := r.userPages()
		if user > 0 {
			f1g := float64(uint64(huge1G.Allocated)*mem.OrderPages(mem.Order1G)) / float64(user)
			if f1g > 1 {
				f1g = 1
			}
			cov.Frac1G = f1g
			cov.Frac2M *= 1 - f1g // 1GB pages replace part of the heap
		}
	}
	return cov
}

// TearDown frees everything the runner holds.
func (r *Runner) TearDown() {
	for _, m := range r.mappings {
		r.K.FreeMapping(m)
	}
	r.mappings = nil
	r.mappingHeld = 0
	for _, p := range r.small {
		r.K.Free(p)
	}
	r.small = nil
	for _, p := range r.unmov {
		r.K.Unpin(p)
		r.K.Free(p)
	}
	r.unmov = nil
	r.unmovHeld = 0
	for _, so := range r.slabObjs {
		r.slabMgr.Cache(so.cache).Free(so.obj)
	}
	r.slabObjs = nil
}
