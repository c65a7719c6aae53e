package snapshot

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"contiguitas/internal/fault"
	"contiguitas/internal/kernel"
	"contiguitas/internal/pressure"
	"contiguitas/internal/workload"
)

// pinnedLinuxMachine is a kernel-only Linux machine churned by a runner
// whose state is then dropped: the checkpoint carries no runner and no
// injector.
func pinnedLinuxMachine(testing.TB) *Machine {
	cfg := kernel.DefaultConfig(kernel.ModeLinux)
	cfg.MemBytes = 16 << 20
	cfg.Seed = 5
	k := kernel.New(cfg)
	workload.NewRunner(k, workload.Web(), 6).Run(30)
	return &Machine{Kernel: k.ExportState()}
}

// pinnedContiguitasMachine is a Contiguitas machine driven past its
// memory by a slab-bearing Web runner with the pressure ladder on, so
// the state carries slab caches, an OOM-kill log (Victim strings),
// armed fault points and one retired point.
func pinnedContiguitasMachine(tb testing.TB) *Machine {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 32 << 20
	cfg.InitialUnmovableBytes = 4 << 20
	cfg.MinUnmovableBytes = 1 << 20
	cfg.MaxUnmovableBytes = 16 << 20
	cfg.HWMover = kernel.NewAnalyticMover()
	cfg.Seed = 8
	cfg.Pressure = pressure.DefaultConfig()
	inj := fault.New(8)
	inj.Arm(fault.PointHWMover, fault.Trigger{Prob: 0.05})
	inj.Arm(fault.PointSWMigrate, fault.Trigger{EveryN: 7, OnHits: []uint64{2, 3}, Until: 1 << 20})
	inj.Arm(fault.PointCompactCarve, fault.Trigger{Prob: 0.1})
	cfg.Faults = inj
	k := kernel.New(cfg)

	p := workload.Web()
	p.UserFrac *= 2.5
	p.PageCacheFrac *= 2.5
	r := workload.NewRunner(k, p, 9)
	r.Run(20)
	inj.Disarm(fault.PointCompactCarve)
	r.Run(20)
	m := &Machine{Kernel: k.ExportState(), Runner: r.ExportState(), Faults: inj.State()}
	if kills := m.Kernel.Pressure.OOMHistory; len(m.Runner.Slab) == 0 || len(kills) == 0 ||
		kills[0].Victim == "" || len(m.Faults.Points) == 0 || len(m.Faults.Retired) == 0 {
		tb.Fatalf("machine lacks a layer the pin must cover: slab %d, kills %d, points %d, retired %d",
			len(m.Runner.Slab), len(kills), len(m.Faults.Points), len(m.Faults.Retired))
	}
	return m
}

// TestStateHashPinned holds the kernel state hash, the machine hash and
// the chain link of two fixed machines to literal values, so any change
// to what the hashes cover, their field order or their widths fails
// here rather than silently forking every recorded chain.
func TestStateHashPinned(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		machine                 func(testing.TB) *Machine
		kernel, machineH, chain uint64
	}{
		{"linux kernel-only", pinnedLinuxMachine, 0xf47a7629d394ce15, 0xdde5b66cf59c610e, 0xb804fb975051ee40},
		{"contiguitas full", pinnedContiguitasMachine, 0xf706204c9d4bdd13, 0x2e7f10111e05f687, 0xba688fa80f6d2dc0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.machine(t)
			e := &Envelope{Seq: 2, Tick: m.Kernel.Tick, Machine: *m}
			e.Seal(0x5eed)
			if got := m.Kernel.Hash(); got != tc.kernel {
				t.Errorf("kernel state hash %#016x, pinned %#016x", got, tc.kernel)
			}
			if e.StateHash != tc.machineH {
				t.Errorf("machine hash %#016x, pinned %#016x", e.StateHash, tc.machineH)
			}
			if e.ChainHash != tc.chain {
				t.Errorf("chain %#016x, pinned %#016x", e.ChainHash, tc.chain)
			}
		})
	}
}

// TestSnapshotBytesReproducible: two same-seed runs checkpointed at the
// same tick write byte-identical files — a snapshot is a pure function
// of the machine state it carries.
func TestSnapshotBytesReproducible(t *testing.T) {
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		cfg, inj := propConfig(true, 41)
		k := kernel.New(cfg)
		r := workload.NewRunner(k, propProfile(), cfg.Seed+1)
		r.Run(30)
		path := filepath.Join(dir, fmt.Sprintf("run%d.ctgsnap", i))
		if _, err := (&Checkpointer{Path: path}).Take(k.Tick(), k, r, inj); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		n := 0
		for i := range min(len(files[0]), len(files[1])) {
			if files[0][i] != files[1][i] {
				n++
			}
		}
		t.Fatalf("same-seed snapshots differ: %d vs %d bytes, %d differing positions",
			len(files[0]), len(files[1]), n)
	}
}
