package seal_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"contiguitas/internal/kernel"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
	"contiguitas/internal/snapshot"
)

// sealedFormat is one of the five on-disk formats, seen through its
// public write and read API.
type sealedFormat struct {
	name string
	// file is a valid sealed file written by the format's writer.
	file []byte
	// decode runs the format's decoder. On success it returns the
	// decoded value re-encoded through the writer, or nil when the
	// encoding is not canonical (CTGSNAP's gob-encoded machine).
	decode func(data []byte) ([]byte, error)
	// family reports whether err is one of the format's sentinels.
	family func(err error) bool
}

// readBack writes path with write and returns the file's bytes. It
// panics on I/O failure: that is the test's environment failing, not a
// format.
func readBack(path string, write func(path string) error) []byte {
	if err := write(path); err != nil {
		panic(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	return data
}

func isAny(err error, sentinels ...error) bool {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// sealedFormats returns the five formats with a small valid file each.
func sealedFormats(tb testing.TB) []sealedFormat {
	scratch := filepath.Join(tb.TempDir(), "record")
	writeRead := func(write func(path string) error) []byte { return readBack(scratch, write) }
	kcfg := kernel.DefaultConfig(kernel.ModeLinux)
	kcfg.MemBytes = 4 << 20
	kcfg.InitialUnmovableBytes, kcfg.MinUnmovableBytes, kcfg.MaxUnmovableBytes = 2<<20, 2<<20, 2<<20
	env := &snapshot.Envelope{Seq: 3, Tick: 40, Machine: snapshot.Machine{Kernel: kernel.New(kcfg).ExportState()}}
	env.Seal(0xfeed)

	shard := &snapshot.ShardCheckpoint{Campaign: 7, Shard: 2, Seq: 4, Done: 3, Payload: []byte("three servers")}
	shard.Seal(0xbeef)

	man := &snapshot.Manifest{Campaign: 7, Shards: []snapshot.ManifestShard{
		{Shard: 0, Units: 4, Done: 4, Seq: 2, Chain: 11, Attempts: 1, Status: snapshot.ShardDone},
		{Shard: 1, Units: 4, Done: 1, Seq: 1, Chain: 12, Attempts: 3},
	}}

	const cacheKey = 0xabc
	cacheDir := resultcache.NewDir(tb.TempDir(), 1)
	putCache := func(path string, payload []byte) error {
		if err := cacheDir.Put(cacheKey, payload); err != nil {
			return err
		}
		return os.Rename(cacheDir.EntryPath(cacheKey), path)
	}

	camp := &service.Campaign{
		ID: "c0123456789abcdef", Key: "k", SpecHash: "00000000deadbeef",
		Spec:  service.Spec{Servers: 8, Designs: []string{"linux"}, MemsMiB: []uint64{64}, Jitters: []float64{0.2}},
		State: service.StateDone, Attempts: 2, Cells: 1, CellsDone: 1,
		CellDigests: []string{"0123456789abcdef"},
	}
	campFile, err := service.EncodeRecord(camp)
	if err != nil {
		tb.Fatal(err)
	}

	return []sealedFormat{
		{
			name: "CTGSNAP",
			file: writeRead(func(p string) error { return snapshot.Write(p, env) }),
			decode: func(data []byte) ([]byte, error) {
				e, err := snapshot.Decode(data)
				if err == nil && snapshot.HashMachine(&e.Machine) != e.StateHash {
					return nil, errors.New("accepted an envelope whose state hash does not verify")
				}
				return nil, err
			},
			family: func(err error) bool {
				return isAny(err, snapshot.ErrBadMagic, snapshot.ErrBadVersion, snapshot.ErrHashMismatch)
			},
		},
		{
			name: "CTGSHRD",
			file: writeRead(func(p string) error { return snapshot.WriteShard(p, shard) }),
			decode: func(data []byte) ([]byte, error) {
				c, err := snapshot.DecodeShard(data)
				if err != nil {
					return nil, err
				}
				return writeRead(func(p string) error { return snapshot.WriteShard(p, c) }), nil
			},
			family: func(err error) bool { return errors.Is(err, snapshot.ErrShardCheckpoint) },
		},
		{
			name: "CTGMANI",
			file: writeRead(func(p string) error { return snapshot.WriteManifest(p, man) }),
			decode: func(data []byte) ([]byte, error) {
				m, err := snapshot.DecodeManifest(data)
				if err != nil {
					return nil, err
				}
				return writeRead(func(p string) error { return snapshot.WriteManifest(p, m) }), nil
			},
			family: func(err error) bool { return errors.Is(err, snapshot.ErrManifestTamper) },
		},
		{
			name: "CTGCACH",
			file: writeRead(func(p string) error { return putCache(p, []byte("payload-a")) }),
			decode: func(data []byte) ([]byte, error) {
				payload, err := cacheDir.Decode(cacheKey, data)
				if err != nil {
					return nil, err
				}
				return writeRead(func(p string) error { return putCache(p, payload) }), nil
			},
			family: resultcache.IsReject,
		},
		{
			name: "CTGCAMP",
			file: campFile,
			decode: func(data []byte) ([]byte, error) {
				c, err := service.DecodeRecord(data)
				if err != nil {
					return nil, err
				}
				return service.EncodeRecord(c)
			},
			family: func(err error) bool { return errors.Is(err, service.ErrCorruptRecord) },
		},
	}
}

// TestSealedRecordsRejectEveryEdit holds all five formats to the frame
// contract: every single-bit flip, one appended byte and one truncated
// byte is refused with the format's own sentinel, and the untouched
// file decodes and re-encodes to itself.
func TestSealedRecordsRejectEveryEdit(t *testing.T) {
	for _, f := range sealedFormats(t) {
		t.Run(f.name, func(t *testing.T) {
			re, err := f.decode(f.file)
			if err != nil {
				t.Fatalf("valid file refused: %v", err)
			}
			if re != nil && !bytes.Equal(re, f.file) {
				t.Fatal("re-encoding the decoded value changed the bytes")
			}
			refused := func(what string, data []byte) {
				t.Helper()
				_, err := f.decode(data)
				if err == nil || !f.family(err) {
					t.Fatalf("%s: got %v, want the format's sentinel", what, err)
				}
			}
			data := bytes.Clone(f.file)
			for bit := 0; bit < 8*len(data); bit++ {
				data[bit/8] ^= 1 << (bit % 8)
				_, err := f.decode(data)
				data[bit/8] ^= 1 << (bit % 8)
				if err == nil || !f.family(err) {
					t.Fatalf("flip of bit %d of %d: got %v, want the format's sentinel", bit, 8*len(data), err)
				}
			}
			refused("appended byte", append(bytes.Clone(f.file), 0))
			refused("truncated byte", f.file[:len(f.file)-1])
			refused("empty file", nil)
		})
	}
}

// FuzzSealedRecords throws arbitrary bytes at all five decoders. Each
// must refuse with its own sentinel or accept, never panic; an accepted
// record must re-encode to the same bytes (CTGSNAP: its state hash must
// verify). The corpus seeds a valid file of each format plus a
// truncated and a bit-flipped copy, so mutation starts inside every
// frame.
func FuzzSealedRecords(f *testing.F) {
	formats := sealedFormats(f)
	f.Add([]byte{})
	for _, sf := range formats {
		f.Add(sf.file)
		f.Add(sf.file[:len(sf.file)-1])
		flipped := bytes.Clone(sf.file)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sf := range formats {
			re, err := sf.decode(data)
			if err != nil {
				if !sf.family(err) {
					t.Fatalf("%s: refusal without the format's sentinel: %v", sf.name, err)
				}
				continue
			}
			if re != nil && !bytes.Equal(re, data) {
				t.Fatalf("%s: accepted record re-encodes to different bytes", sf.name)
			}
		}
	})
}
