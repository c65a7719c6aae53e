package workload

// OOM-victim adapters: the runner's handle pools double as the kill
// candidates the kernel's pressure ladder selects among. A kill frees
// the whole pool synchronously (Free/FreeMapping only — never Alloc, so
// kills cannot re-enter the ladder) and arms a per-pool backoff; the
// pool's refill loops sit out until the backoff tick passes, modelling
// the killed service staying down before the supervisor restarts it.
//
// Victims register in NewRunner in a fixed order — registration order
// is the kernel's deterministic tie-break — and are rebuilt the same
// way on restore; only the backoff deadlines serialize.

// Pool indices, also the victim registration order.
const (
	vicMappings = iota // THP-backed anonymous memory: the big, killable heap
	vicSmall           // 4 KB user pool
	vicUnmov           // kernel/unmovable pool, badness-protected
	numVictims
)

// oomScoreAdj per pool, in thousandths of machine memory (the
// oom_score_adj convention): user pools are fair game, the unmovable
// pool is protected the way kernel memory is — it only scores positive
// if it somehow exceeds half the machine.
var victimAdj = [numVictims]int64{0, 0, -500}

var victimNames = [numVictims]string{"user-mappings", "user-small", "unmov-pool"}

// poolVictim adapts one runner pool to kernel.OOMVictim.
type poolVictim struct {
	r   *Runner
	idx int
}

func (v *poolVictim) OOMName() string    { return victimNames[v.idx] }
func (v *poolVictim) OOMScoreAdj() int64 { return victimAdj[v.idx] }

func (v *poolVictim) OOMPages() uint64 {
	r := v.r
	switch v.idx {
	case vicMappings:
		if r.promoting {
			// khugepaged is mid-collapse over a mapping; killing the pool
			// under it would orphan the collapse's target block. The other
			// victims remain eligible.
			return 0
		}
		return r.mappingHeld
	case vicSmall:
		return uint64(len(r.small))
	default:
		return r.unmovHeld
	}
}

func (v *poolVictim) OOMKill(tick uint64) uint64 {
	r := v.r
	var freed uint64
	switch v.idx {
	case vicMappings:
		freed = r.mappingHeld
		for _, m := range r.mappings {
			r.K.FreeMapping(m)
		}
		r.mappings = r.mappings[:0]
		r.mappingHeld = 0
	case vicSmall:
		freed = uint64(len(r.small))
		for _, p := range r.small {
			r.K.Free(p)
		}
		r.small = r.small[:0]
	default:
		freed = r.unmovHeld
		for _, p := range r.unmov {
			r.K.Unpin(p)
			r.K.Free(p)
		}
		r.unmov = r.unmov[:0]
		r.unmovHeld = 0
	}
	r.oomBackoffUntil[v.idx] = tick + r.K.PressureConfig().OOMBackoffTicks
	r.OOMKillsTaken++
	return freed
}

// registerVictims wires the runner's pools into the kernel's OOM killer
// when the pressure ladder is enabled. Called from NewRunner, so plain
// and restored runners register identically.
func (r *Runner) registerVictims() {
	if r.K.PressureConfig() == nil {
		return
	}
	r.oomBackoffUntil = make([]uint64, numVictims)
	for i := 0; i < numVictims; i++ {
		r.K.RegisterOOMVictim(&poolVictim{r: r, idx: i})
	}
}

// suppressed reports whether the pool is sitting out its post-kill
// backoff; refill loops check it each iteration so a kill fired from
// inside the loop's own allocation stops the refill immediately.
func (r *Runner) suppressed(idx int) bool {
	return r.oomBackoffUntil != nil && r.K.Tick() < r.oomBackoffUntil[idx]
}
