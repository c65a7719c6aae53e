package cli

import (
	"testing"

	"contiguitas/internal/core"
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/workload"
)

// TestLoopResumeEquivalence: a traced run checkpointed at tick k and
// resumed to n ends on the state hash, chain value and counters of an
// uninterrupted n-tick run — on a kernel-only machine with a per-tick
// pulse (contigsim -trace) and on a core machine (fleetscan -trace).
func TestLoopResumeEquivalence(t *testing.T) {
	const k, n = 10, 30
	kcfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	kcfg.MemBytes = 64 << 20
	kcfg.InitialUnmovableBytes = 8 << 20
	kcfg.MinUnmovableBytes = 2 << 20
	kcfg.MaxUnmovableBytes = 32 << 20
	kcfg.HWMover = kernel.NewAnalyticMover()
	mc := core.DefaultMachineConfig(core.DesignLinux)
	mc.MemBytes = 64 << 20
	for _, tc := range []struct {
		name  string
		cfg   kernel.Config
		pulse bool
	}{
		{"kernel", kcfg, true},
		{"core", mc.KernelConfig(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			trace := func(f *TraceRun, end uint64) (*kernel.Kernel, *snapshot.Envelope) {
				t.Helper()
				run := f.Start("test", nil)
				kn, r, err := run.Boot(tc.cfg, workload.Web(), 7)
				if err != nil {
					t.Fatal(err)
				}
				run.Instrument(kn, 1<<10, int(end)+1)
				var pulse func(uint64)
				if tc.pulse {
					pulse = func(tick uint64) {
						if tick%4 == 0 {
							huge := kn.AllocHugeTLB(mem.Order2M, 1)
							kn.FreeHugeTLB(&huge)
						}
					}
				}
				if err := run.Loop(kn, r, end, pulse); err != nil {
					t.Fatal(err)
				}
				if err := run.Finish(end); err != nil {
					t.Fatal(err)
				}
				return kn, run.cp.Last()
			}
			gk, golden := trace(&TraceRun{CheckpointEvery: k, CheckpointOut: dir + "/golden.snap"}, n)
			trace(&TraceRun{CheckpointEvery: k, CheckpointOut: dir + "/killed.snap"}, k)
			rk, resumed := trace(&TraceRun{CheckpointEvery: k, CheckpointOut: dir + "/resumed.snap", Resume: dir + "/killed.snap"}, n)

			if golden.Seq != resumed.Seq || golden.Tick != n || resumed.Tick != n {
				t.Fatalf("last checkpoints seq/tick %d/%d and %d/%d, want equal at tick %d",
					golden.Seq, golden.Tick, resumed.Seq, resumed.Tick, n)
			}
			if golden.StateHash != resumed.StateHash || golden.ChainHash != resumed.ChainHash {
				t.Fatalf("resumed state=%016x chain=%016x, uninterrupted state=%016x chain=%016x",
					resumed.StateHash, resumed.ChainHash, golden.StateHash, golden.ChainHash)
			}
			if gk.StateHash() != rk.StateHash() || gk.Counters != rk.Counters {
				t.Fatalf("resumed kernel diverged:\n golden  %+v\n resumed %+v", gk.Counters, rk.Counters)
			}
		})
	}
}
