package workload

import (
	"reflect"
	"testing"

	"contiguitas/internal/fault"
	"contiguitas/internal/kernel"
	"contiguitas/internal/pressure"
)

// TestRunnerBulkMatchesSingleCalls drives the same profile on two
// kernels booted alike, one with the bulk 4 KB paths and one with
// kernel.SetSingleCalls routing them through single calls. The runner's
// 4 KB loops (page-cache top-up, small-pool fill and churn, unmovable
// churn, mapping teardown) and the kernel's reclaim batches must leave
// the same kernel and runner state every tick, under every free-list
// policy, with faults armed and the pressure ladder on.
func TestRunnerBulkMatchesSingleCalls(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   kernel.Mode
		noBias bool
	}{
		{"linux", kernel.ModeLinux, false},
		{"contiguitas", kernel.ModeContiguitas, false},
		{"contiguitas-nobias", kernel.ModeContiguitas, true},
	} {
		for _, p := range []Profile{Web(), CacheA(), CI()} {
			t.Run(tc.name+"/"+p.Name, func(t *testing.T) {
				boot := func(single bool) *Runner {
					cfg := kernel.DefaultConfig(tc.mode)
					cfg.MemBytes = 32 * mb
					cfg.InitialUnmovableBytes = 4 * mb
					cfg.MinUnmovableBytes = 2 * mb
					cfg.MaxUnmovableBytes = 16 * mb
					cfg.MaxResizeStepBytes = 4 * mb
					cfg.ResizePeriodTicks = 20
					cfg.NoPlacementBias = tc.noBias
					cfg.Pressure = pressure.DefaultConfig()
					in := fault.New(3)
					in.Arm(fault.PointSWMigrate, fault.Trigger{Prob: 0.1})
					in.Arm(fault.PointCompactCarve, fault.Trigger{Prob: 0.1})
					cfg.Faults = in
					k := kernel.New(cfg)
					k.SetSingleCalls(single)
					return NewRunner(k, p, 9)
				}
				bulk, single := boot(false), boot(true)
				for tick := 0; tick < 120; tick++ {
					bulk.Step()
					single.Step()
					if bh, sh := bulk.K.StateHash(), single.K.StateHash(); bh != sh {
						t.Fatalf("tick %d: kernel state hash %x vs %x", tick, bh, sh)
					}
				}
				if !reflect.DeepEqual(bulk.K.ExportState(), single.K.ExportState()) {
					t.Fatal("exported kernel states differ")
				}
				if !reflect.DeepEqual(bulk.ExportState(), single.ExportState()) {
					t.Fatal("exported runner states differ")
				}
				if err := bulk.K.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
