package main

import (
	"fmt"

	"contiguitas"
	"contiguitas/internal/core"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/telemetry"
	"contiguitas/internal/workload"
)

// traceRepresentative boots one server with the study's design and
// memory size, runs it for the study's maximum uptime under the Web
// profile with full telemetry attached, and exports the Chrome trace
// plus the per-tick metrics JSONL. The fleet study itself stays
// uninstrumented — its servers are too many and too short-lived for a
// per-server timeline to mean anything.
//
// With ckptEvery > 0 the representative server is checkpointed to
// ckptOut every ckptEvery ticks; with resume set it restores from that
// file and continues to the study's maximum uptime.
func traceRepresentative(cfg contiguitas.FleetConfig, ticks uint64, traceOut, metricsOut string, ckptEvery uint64, ckptOut, resume string) error {
	mc := core.DefaultMachineConfig(cfg.Design)
	mc.MemBytes = cfg.MemBytes
	mc.Seed = cfg.Seed

	cp := &snapshot.Checkpointer{Path: ckptOut}
	var m *core.Machine
	var r *workload.Runner
	startTick := uint64(0)
	if resume != "" {
		e, err := snapshot.Read(resume)
		if err != nil {
			return err
		}
		m, err = core.RestoreMachine(mc, e.Machine.Kernel)
		if err != nil {
			return fmt.Errorf("fleetscan: resume: %w", err)
		}
		r, err = workload.RestoreRunner(m.K, workload.Web(), cfg.Seed, e.Machine.Runner)
		if err != nil {
			return fmt.Errorf("fleetscan: resume: %w", err)
		}
		startTick = e.Tick
		cp.SetChain(e.Seq+1, e.ChainHash)
		fmt.Printf("resumed representative server from %s: seq=%d tick=%d state=%016x\n",
			resume, e.Seq, e.Tick, e.StateHash)
	} else {
		m = core.NewMachine(mc)
		r = m.Attach(workload.Web(), cfg.Seed)
	}

	tp := telemetry.NewRing(1 << 15)
	m.K.SetTracer(tp)
	sampler := m.K.AttachSampler(int(ticks) + 1)
	pub := obsvHandle.Attach(m.K.Metrics(), tp)
	pub.Publish(startTick)

	for tick := startTick; tick < ticks; tick++ {
		r.Step()
		pub.Pump(tick)
		if ckptEvery > 0 && (tick+1)%ckptEvery == 0 {
			if _, err := cp.Take(tick+1, m.K, r, nil); err != nil {
				return fmt.Errorf("fleetscan: checkpoint: %w", err)
			}
		}
	}
	pub.Publish(ticks)

	// Both artifacts flush even if one fails — a bad trace path must not
	// swallow the metrics file.
	if err := telemetry.ExportAll(
		telemetry.ChromeTraceArtifact(traceOut, tp, sampler),
		telemetry.MetricsJSONLArtifact(metricsOut, sampler),
	); err != nil {
		return fmt.Errorf("fleetscan: telemetry export: %w", err)
	}
	fmt.Printf("instrumented representative server: %s (%d events, %d overwritten), %s (%d rows)\n",
		traceOut, tp.Len(), tp.Overwritten(), metricsOut, sampler.Len())
	if last := cp.Last(); last != nil {
		fmt.Printf("last snapshot: %s seq=%d tick=%d state=%016x chain=%016x\n",
			ckptOut, last.Seq, last.Tick, last.StateHash, last.ChainHash)
	}
	return nil
}
