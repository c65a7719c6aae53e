package main

import (
	"path/filepath"
	"testing"

	"contiguitas/internal/fleet"
	"contiguitas/internal/kernel"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/vfs"
)

// TestWhoPaysForDurability pins, per writer, the fsyncs and renames a
// write costs, counted by a vfs.PowerLossFS. A file that certifies
// completion (a campaign record, a journaled cell, a merged result, a
// shard or machine checkpoint, a -sweep-out file) takes one file fsync
// and one directory fsync, so a power loss cannot undo it once the
// write returned. A result-cache entry takes neither: every Get
// verifies it and the caller recomputes what Get refuses. A sweep that
// fills its cache pays only for -sweep-out.
func TestWhoPaysForDurability(t *testing.T) {
	dir := t.TempDir()
	store, err := service.OpenDisk(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	campaign := &service.Campaign{ID: service.CampaignID("k"), Key: "k", State: service.StateQueued}
	kcfg := kernel.DefaultConfig(kernel.ModeLinux)
	kcfg.MemBytes = 32 << 20
	machine, err := (&snapshot.Checkpointer{}).Take(0, kernel.New(kcfg), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	shard := &snapshot.ShardCheckpoint{Shard: 1, Seq: 1, Done: 1, Payload: []byte("samples")}
	shard.Seal(0)
	cache := resultcache.NewDir(filepath.Join(dir, "cache"), fleet.CacheSchemaVersion)
	sweepSpec := service.Spec{Servers: 2, Designs: []string{"linux"}, MemsMiB: []uint64{32, 64},
		Jitters: []float64{0}, TicksMin: 1, TicksMax: 2, Seed: 1, Shards: 2}
	cells := len(sweepSpec.Cells()) * sweepSpec.Shards

	for _, tc := range []struct {
		name                     string
		write                    func() error
		fsyncs, dirSyncs, rename int
	}{
		{"result-cache entry", func() error { return cache.Put(1, []byte("payload")) }, 0, 0, 1},
		{"campaign record", func() error { return store.Put(campaign) }, 1, 1, 1},
		{"journaled cell", func() error { return store.PutCell(campaign.ID, 0, []byte("cell")) }, 1, 1, 1},
		{"merged result", func() error { return store.PutResult(campaign.ID, []byte("result")) }, 1, 1, 1},
		{"shard checkpoint", func() error { return snapshot.WriteShard(filepath.Join(dir, "shard.ctgshrd"), shard) }, 1, 1, 1},
		{"machine checkpoint", func() error { return snapshot.Write(filepath.Join(dir, "m.snap"), machine) }, 1, 1, 1},
		{"-sweep-out", func() error { runSweep(sweepSpec, filepath.Join(dir, "sweep.txt"), nil); return nil }, 1, 1, 1},
		{"cold cached sweep with -sweep-out", func() error {
			runSweep(sweepSpec, filepath.Join(dir, "sweep-cached.txt"), cache)
			return nil
		}, 1, 1, cells + 1},
	} {
		p := vfs.NewPowerLossFS(vfs.Active())
		restore := vfs.SetDefault(p)
		err := tc.write()
		restore()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := [3]int{p.Count(vfs.OpSync), p.Count(vfs.OpSyncDir), p.Count(vfs.OpRename)}
		if want := [3]int{tc.fsyncs, tc.dirSyncs, tc.rename}; got != want {
			t.Errorf("%s: %d file fsyncs, %d directory fsyncs, %d renames; want %d, %d, %d",
				tc.name, got[0], got[1], got[2], want[0], want[1], want[2])
		}
	}
}
