package workload

import (
	"testing"

	"contiguitas/internal/kernel"
)

// TestRunnerSnapshotRebuildsMappingCounters: a runner restored from a
// snapshot rebuilds every mapping through kernel.RestoreMapping, so the
// per-mapping 4 KB count and partition bit that let khugepaged skip
// passes are exact, and the restored run continues bit-for-bit.
func TestRunnerSnapshotRebuildsMappingCounters(t *testing.T) {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 128 * mb
	cfg.InitialUnmovableBytes = 8 * mb
	cfg.MinUnmovableBytes = 2 * mb
	cfg.MaxUnmovableBytes = 32 * mb
	cfg.Seed = 3
	p := Web()
	p.KhugepagedCollapses = 4

	k := kernel.New(cfg)
	r := NewRunner(k, p, 17)
	r.Run(40)

	ks, rs := k.ExportState(), r.ExportState()
	k2, err := kernel.Restore(cfg, ks)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RestoreRunner(k2, p, 17, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.mappings) == 0 || len(r2.mappings) != len(r.mappings) {
		t.Fatalf("restored %d mappings, original %d", len(r2.mappings), len(r.mappings))
	}
	mixed := 0
	for i, m := range r2.mappings {
		if err := m.CheckCounters(k2); err != nil {
			t.Fatalf("restored mapping %d: %v", i, err)
		}
		if n := m.BlockCount(0); n != r.mappings[i].BlockCount(0) {
			t.Fatalf("restored mapping %d holds %d base pages, original %d", i, n, r.mappings[i].BlockCount(0))
		}
		if n := m.BlockCount(0); n > 0 && n < len(m.Blocks) {
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatal("no mapping mixes 2 MB and 4 KB blocks; the round trip proves nothing")
	}

	for i := 0; i < 30; i++ {
		r.Step()
		r2.Step()
	}
	if h1, h2 := k.StateHash(), k2.StateHash(); h1 != h2 {
		t.Fatalf("restored run diverged: %016x vs %016x", h1, h2)
	}
	for i, m := range r2.mappings {
		if err := m.CheckCounters(k2); err != nil {
			t.Fatalf("mapping %d after continuing: %v", i, err)
		}
	}
}
