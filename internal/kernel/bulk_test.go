package kernel

import (
	"reflect"
	"testing"

	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/pressure"
	"contiguitas/internal/stats"
	"contiguitas/internal/telemetry"
)

// diffTwin is one side of the differential test: a kernel with its
// own fault injector, tracepoint stream, and handle pools.
type diffTwin struct {
	k        *Kernel
	faults   *fault.Injector
	trace    []telemetry.Record
	pages    []Page
	mappings []*Mapping
}

func newDiffTwin(mode Mode, noBias, reclaimFault, single bool) *diffTwin {
	cfg := testConfig(mode, 32*mb)
	cfg.NoPlacementBias = noBias
	cfg.HWMover = NewAnalyticMover()
	cfg.LivelockCycleDeadline = 1 << 20
	// A low shed band, so the admission gate trips under the stream's
	// direct-reclaim stalls and reopens within the run.
	pc := pressure.DefaultConfig()
	pc.ShedEnterPSI, pc.ShedExitPSI = 30, 15
	pc.GateHalfLifeTicks = 4
	cfg.Pressure = pc
	in := fault.New(77)
	in.Arm(fault.PointSWMigrate, fault.Trigger{Prob: 0.2})
	in.Arm(fault.PointHWMover, fault.Trigger{Prob: 0.2})
	in.Arm(fault.PointCompactCarve, fault.Trigger{Prob: 0.2})
	in.Arm(fault.PointRegionResize, fault.Trigger{Prob: 0.3})
	if reclaimFault {
		in.Arm(fault.PointReclaimProgress, fault.Trigger{Prob: 0.3})
	}
	cfg.Faults = in
	tw := &diffTwin{k: New(cfg), faults: in}
	tw.k.SetSingleCalls(single)
	ring := telemetry.NewRing(64)
	ring.SetSink(func(r telemetry.Record) { tw.trace = append(tw.trace, r) })
	tw.k.SetTracer(ring)
	return tw
}

// TestBulkMatchesSingleCalls runs one mixed op stream on two kernels
// booted alike: the bulk twin through AllocBulk4K,
// AllocPageCacheBulk4K and FreeBatch, the single twin as the same
// single Alloc/AllocPageCache/Free calls, with SetSingleCalls
// unbatching the kernel's own loops (AllocUser, FreeMapping, Promote,
// reclaim). Both run with tracing, armed faults and a pressure
// ladder whose shed gate trips, under every free-list policy. After
// every tick they must agree on the PFNs handed out, the full exported
// state (frame table with the flIdx witness, free lists, FIFO, PSI,
// counters, pressure state), the tracepoint streams — which carry
// every handle, pin and unpin — and the fault-injector accounting.
func TestBulkMatchesSingleCalls(t *testing.T) {
	for _, tc := range []struct {
		name         string
		mode         Mode
		noBias       bool
		reclaimFault bool
	}{
		{"linux", ModeLinux, false, false},
		{"linux/reclaim-fault", ModeLinux, false, true},
		{"contiguitas", ModeContiguitas, false, false},
		{"contiguitas/reclaim-fault", ModeContiguitas, false, true},
		{"contiguitas-nobias", ModeContiguitas, true, false},
		{"contiguitas-nobias/reclaim-fault", ModeContiguitas, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bulk := newDiffTwin(tc.mode, tc.noBias, tc.reclaimFault, false)
			single := newDiffTwin(tc.mode, tc.noBias, tc.reclaimFault, true)
			runDiffStream(t, bulk, single, 160)
			k := bulk.k
			if k.DirectReclaim == 0 || k.AllocShed == 0 || k.KswapdRuns == 0 || k.ReclaimedPages == 0 {
				t.Fatalf("stream missed a path: direct=%d shed=%d kswapd=%d reclaimed=%d",
					k.DirectReclaim, k.AllocShed, k.KswapdRuns, k.ReclaimedPages)
			}
		})
	}
}

func runDiffStream(t *testing.T, bulk, single *diffTwin, ticks int) {
	t.Helper()
	rng := stats.NewRNG(5)
	mts := []mem.MigrateType{mem.MigrateMovable, mem.MigrateMovable, mem.MigrateUnmovable, mem.MigrateReclaimable}
	for tick := 0; tick < ticks; tick++ {
		for op := 0; op < 12; op++ {
			switch rng.Intn(9) {
			case 0, 1:
				// n 4 KB allocations: bulk, then a single call where the
				// bulk path stops, as the workload's fillSmall does.
				n := 1 + rng.Intn(400)
				mt := mts[rng.Intn(len(mts))]
				want := len(bulk.pages) + n
				var berr, serr error
				for len(bulk.pages) < want {
					bulk.pages = bulk.k.AllocBulk4K(bulk.pages, want-len(bulk.pages), mt, mem.SrcUser)
					if len(bulk.pages) == want {
						break
					}
					var p Page
					if p, berr = bulk.k.Alloc(mem.Order4K, mt, mem.SrcUser); berr != nil {
						break
					}
					bulk.pages = append(bulk.pages, p)
				}
				for len(single.pages) < want {
					var p Page
					if p, serr = single.k.Alloc(mem.Order4K, mt, mem.SrcUser); serr != nil {
						break
					}
					single.pages = append(single.pages, p)
				}
				requireSameErr(t, tick, "bulk alloc", berr, serr)
			case 2:
				n := 1 + rng.Intn(600)
				got, berr := bulk.k.AllocPageCacheBulk4K(n, mem.SrcFilesystem)
				var serr error
				sgot := 0
				for ; sgot < n; sgot++ {
					if _, serr = single.k.AllocPageCache(mem.Order4K, mem.SrcFilesystem); serr != nil {
						break
					}
				}
				if got != sgot {
					t.Fatalf("tick %d: page-cache bulk served %d, single calls %d", tick, got, sgot)
				}
				requireSameErr(t, tick, "page-cache bulk", berr, serr)
			case 3:
				// A batch of random handles, with one duplicate, one
				// handle the batch already freed and a nil.
				if len(bulk.pages) == 0 {
					break
				}
				var bb, sb []Page
				for m := 1 + rng.Intn(300); m > 0 && len(bulk.pages) > 0; m-- {
					j := rng.Intn(len(bulk.pages))
					bb, sb = append(bb, bulk.pages[j]), append(sb, single.pages[j])
					bulk.pages = swapRemove(bulk.pages, j)
					single.pages = swapRemove(single.pages, j)
				}
				bb, sb = append(bb, bb[0], Page{}), append(sb, sb[0], Page{})
				berr := bulk.k.FreeBatch(bb)
				var serr error
				for _, p := range sb {
					if err := single.k.Free(p); err != nil && serr == nil {
						serr = err
					}
				}
				requireSameErr(t, tick, "batch free", berr, serr)
			case 4:
				bytes := uint64(1+rng.Intn(3*512)) * mem.PageSize
				thp := rng.Bool(0.5)
				bm, berr := bulk.k.AllocUser(bytes, thp)
				sm, serr := single.k.AllocUser(bytes, thp)
				requireSameErr(t, tick, "AllocUser", berr, serr)
				if berr == nil {
					requireSamePages(t, tick, "AllocUser", bulk, single, bm.Blocks, sm.Blocks)
					bulk.mappings, single.mappings = append(bulk.mappings, bm), append(single.mappings, sm)
				}
			case 5:
				if len(bulk.mappings) == 0 {
					break
				}
				j := rng.Intn(len(bulk.mappings))
				bulk.k.FreeMapping(bulk.mappings[j])
				single.k.FreeMapping(single.mappings[j])
				bulk.mappings = swapRemove(bulk.mappings, j)
				single.mappings = swapRemove(single.mappings, j)
			case 6:
				if len(bulk.mappings) == 0 {
					break
				}
				j := rng.Intn(len(bulk.mappings))
				budget := rng.Intn(3)
				if b, s := bulk.k.Promote(bulk.mappings[j], budget), single.k.Promote(single.mappings[j], budget); b != s {
					t.Fatalf("tick %d: Promote collapsed %d vs %d", tick, b, s)
				}
				requireSamePages(t, tick, "Promote", bulk, single, bulk.mappings[j].Blocks, single.mappings[j].Blocks)
			case 7:
				if len(bulk.pages) == 0 {
					break
				}
				j := rng.Intn(len(bulk.pages))
				if bulk.k.Info(bulk.pages[j]).Pinned {
					bulk.k.Unpin(bulk.pages[j])
					single.k.Unpin(single.pages[j])
				} else {
					requireSameErr(t, tick, "Pin", bulk.k.Pin(bulk.pages[j]), single.k.Pin(single.pages[j]))
				}
			case 8:
				order := []int{mem.Order2M, 1, 3}[rng.Intn(3)]
				bp, berr := bulk.k.Alloc(order, mem.MigrateMovable, mem.SrcUser)
				sp, serr := single.k.Alloc(order, mem.MigrateMovable, mem.SrcUser)
				requireSameErr(t, tick, "Alloc", berr, serr)
				if berr == nil {
					bulk.pages, single.pages = append(bulk.pages, bp), append(single.pages, sp)
				}
			}
		}
		requireSamePages(t, tick, "pool", bulk, single, bulk.pages, single.pages)
		bulk.k.EndTick()
		single.k.EndTick()
		requireSameTwins(t, tick, bulk, single)
		if tick%40 == 39 {
			if err := bulk.k.CheckInvariants(); err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
		}
	}
}

func swapRemove[T any](s []T, j int) []T {
	s[j] = s[len(s)-1]
	return s[:len(s)-1]
}

func requireSameErr(t *testing.T, tick int, what string, b, s error) {
	t.Helper()
	if (b == nil) != (s == nil) || b != nil && b.Error() != s.Error() {
		t.Fatalf("tick %d: %s: bulk error %v, single %v", tick, what, b, s)
	}
}

func requireSamePages(t *testing.T, tick int, what string, bulk, single *diffTwin, b, s []Page) {
	t.Helper()
	if len(b) != len(s) {
		t.Fatalf("tick %d: %s: %d handles vs %d", tick, what, len(b), len(s))
	}
	for i := range b {
		if bi, si := bulk.k.Info(b[i]), single.k.Info(s[i]); bi != si {
			t.Fatalf("tick %d: %s: handle %d is %+v vs %+v", tick, what, i, bi, si)
		}
	}
}

func requireSameTwins(t *testing.T, tick int, bulk, single *diffTwin) {
	t.Helper()
	bs, ss := bulk.k.ExportState(), single.k.ExportState()
	if bs.Hash() != ss.Hash() {
		t.Fatalf("tick %d: state hash %x vs %x", tick, bs.Hash(), ss.Hash())
	}
	if !reflect.DeepEqual(bs.Phys, ss.Phys) {
		t.Fatalf("tick %d: frame tables (or the flIdx witness) differ", tick)
	}
	if !reflect.DeepEqual(bs, ss) {
		t.Fatalf("tick %d: exported states differ:\n%+v\n%+v", tick, bs.Counters, ss.Counters)
	}
	// The streams are compared tick by tick, then dropped.
	if !reflect.DeepEqual(bulk.trace, single.trace) {
		t.Fatalf("tick %d: tracepoint streams differ (%d vs %d records)", tick, len(bulk.trace), len(single.trace))
	}
	bulk.trace, single.trace = bulk.trace[:0], single.trace[:0]
	if !reflect.DeepEqual(bulk.faults.Snapshot(), single.faults.Snapshot()) {
		t.Fatalf("tick %d: fault accounting differs", tick)
	}
	if bulk.k.Escalation() != single.k.Escalation() {
		t.Fatalf("tick %d: escalation profiles differ", tick)
	}
}

// TestWatermarkHighBelowLowRefused: kswapd reclaims high - free pages
// once free drops below low, so a high watermark below the low one
// would wrap that difference around and reclaim the whole page cache.
// Boot refuses such a config.
func TestWatermarkHighBelowLowRefused(t *testing.T) {
	cfg := testConfig(ModeLinux, 32*mb)
	cfg.WatermarkLow, cfg.WatermarkHigh = 0.08, 0.04
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("New accepted WatermarkHigh < WatermarkLow")
		}
	}()
	New(cfg)
}
