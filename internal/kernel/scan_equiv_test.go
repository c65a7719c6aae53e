package kernel

import (
	"reflect"
	"testing"

	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/stats"
)

// requireKernelScanEquiv compares the incremental scan against the
// from-scratch reference over every order class the fleet study uses
// plus sub-pageblock orders.
func requireKernelScanEquiv(t *testing.T, k *Kernel, when string) {
	t.Helper()
	orders := []int{0, 4, mem.Order2M, mem.Order4M, mem.Order32M, mem.Order1G}
	inc := k.PM().Scan(orders)
	full := k.PM().ScanFull(orders)
	if !reflect.DeepEqual(inc, full) {
		t.Fatalf("%s: incremental scan diverged from full scan\nincremental: %+v\nfull:        %+v", when, inc, full)
	}
}

// TestKernelScanEquivalenceUnderFaults soaks both kernel modes with a
// randomized workload — allocations across classes, frees, pins,
// mappings with promotion, HugeTLB reservations, ticks that trigger
// reclaim/compaction/resizing — while every fault point misfires, and
// requires the ContigIndex-backed Scan to stay identical to ScanFull at
// every checkpoint. Faulted paths abort mid-evacuation and leave limbo
// frames around, which is exactly the state the incremental accounting
// must not misclassify.
func TestKernelScanEquivalenceUnderFaults(t *testing.T) {
	for _, mode := range []Mode{ModeLinux, ModeContiguitas} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg, inj := faultyConfig(mode, 128*mb, 99)
			cfg.HWMover = NewAnalyticMover()
			inj.Arm(fault.PointHWMover, fault.Trigger{Prob: 0.3})
			inj.Arm(fault.PointSWMigrate, fault.Trigger{Prob: 0.2})
			inj.Arm(fault.PointCompactCarve, fault.Trigger{Prob: 0.2})
			inj.Arm(fault.PointRegionResize, fault.Trigger{Prob: 0.3})
			k := New(cfg)
			rng := stats.NewRNG(1234)

			var live []Page
			var mappings []*Mapping
			for step := 0; step < 4000; step++ {
				switch r := rng.Float64(); {
				case r < 0.35:
					order := rng.Intn(10)
					mt := mem.MigrateMovable
					src := mem.SrcUser
					switch rng.Intn(4) {
					case 1:
						mt, src = mem.MigrateUnmovable, mem.SrcSlab
					case 2:
						mt, src = mem.MigrateReclaimable, mem.SrcFilesystem
					}
					if p, err := k.Alloc(order, mt, src); err == nil {
						live = append(live, p)
					}
				case r < 0.55 && len(live) > 0:
					i := rng.Intn(len(live))
					p := live[i]
					if k.Info(p).Pinned {
						k.Unpin(p)
					}
					if k.Live(p) {
						if err := k.Free(p); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				case r < 0.62 && len(live) > 0:
					p := live[rng.Intn(len(live))]
					if k.Live(p) && !k.Info(p).Pinned {
						k.Pin(p)
					}
				case r < 0.70:
					if m, err := k.AllocUser(uint64(1+rng.Intn(8))*mb, true); err == nil {
						mappings = append(mappings, m)
					}
				case r < 0.76 && len(mappings) > 0:
					i := rng.Intn(len(mappings))
					k.FreeMapping(mappings[i])
					mappings[i] = mappings[len(mappings)-1]
					mappings = mappings[:len(mappings)-1]
				case r < 0.82 && len(mappings) > 0:
					k.Promote(mappings[rng.Intn(len(mappings))], 2)
				case r < 0.86:
					res := k.AllocHugeTLB(mem.Order2M, 1)
					k.FreeHugeTLB(&res)
				default:
					k.EndTick()
				}
				if step%400 == 399 {
					requireKernelScanEquiv(t, k, mode.String())
					if err := k.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			requireKernelScanEquiv(t, k, mode.String()+" final")
		})
	}
}
