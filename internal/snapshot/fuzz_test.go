package snapshot

import (
	"os"
	"path/filepath"
	"testing"

	"contiguitas/internal/kernel"
	"contiguitas/internal/workload"
)

// FuzzSnapshotDecode throws arbitrary byte streams at the envelope
// decoder. Decode must either return a fully verified envelope or an
// error — never panic, whatever the bytes. The seed corpus includes a
// genuine sealed envelope and single-bit corruptions of it so the
// fuzzer starts from inside the frame rather than failing at the magic
// check every time.
func FuzzSnapshotDecode(f *testing.F) {
	cfg, inj := propConfig(false, 33)
	k := kernel.New(cfg)
	r := workload.NewRunner(k, propProfile(), cfg.Seed+1)
	r.Run(20)
	e := &Envelope{Tick: k.Tick(), Machine: Machine{
		Kernel: k.ExportState(), Runner: r.ExportState(), Faults: inj.State(),
	}}
	e.Seal(0)
	path := filepath.Join(f.TempDir(), "seed.ctgsnap")
	if err := Write(path, e); err != nil {
		f.Fatalf("write seed envelope: %v", err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatalf("read seed envelope: %v", err)
	}

	f.Add([]byte{})
	f.Add([]byte("CTGSNAP"))
	f.Add(valid)
	for _, off := range []int{1, len(valid) / 3, len(valid) / 2, len(valid) - 1} {
		corrupt := append([]byte(nil), valid...)
		corrupt[off] ^= 0xFF
		f.Add(corrupt)
	}
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err != nil {
			return
		}
		// A successful decode means full verification passed: the recorded
		// hashes must agree with a recomputation over the decoded machine.
		if got := HashMachine(&e.Machine); got != e.StateHash {
			t.Fatalf("decode accepted an envelope whose state hash does not verify: %016x vs %016x",
				got, e.StateHash)
		}
	})
}
