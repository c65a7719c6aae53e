package seal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"contiguitas/internal/fault"
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/seal"
	"contiguitas/internal/service"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/workload"
)

// sealedFormat is one of the four on-disk formats, seen through its
// public write and read API.
type sealedFormat struct {
	name string
	// file is a valid sealed file written by the format's writer.
	file []byte
	// decode runs the format's decoder. On success it returns the
	// decoded value re-encoded through the writer.
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

// sealedFormats returns the four formats with a small valid file each.
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
				if err != nil {
					return nil, err
				}
				if snapshot.HashMachine(&e.Machine) != e.StateHash {
					return nil, errors.New("accepted an envelope whose state hash does not verify")
				}
				return writeRead(func(p string) error { return snapshot.Write(p, e) }), nil
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

// TestSealedRecordsRejectEveryEdit holds all four formats to the frame
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
			if !bytes.Equal(re, f.file) {
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

// reseal frames body the way the format's writer does: its magic and
// version, the body, then the FNV-1a trailer over all three.
func (sf sealedFormat) reseal(body []byte) []byte {
	header := sf.file[:11] // 7-byte magic, u32 version
	return seal.Format{Magic: string(header[:7]), Version: binary.LittleEndian.Uint32(header[7:])}.Seal(body)
}

// FuzzSealedRecords throws arbitrary bytes at all four decoders. Each
// must refuse with its own sentinel or accept, never panic; an accepted
// record must re-encode to the same bytes. With reseal unset the input
// is a whole file, and the frame check refuses nearly every edit before
// a body parser runs; with reseal set the input is a body, framed with
// each format's magic, version and a correct digest, so the fuzzer
// drives the body decoders themselves. The corpus seeds a valid file and
// body of each format plus a truncated and a bit-flipped copy of each,
// so mutation starts inside every frame and every body. A shard's first
// checkpoint (Seq 1, no previous chain) is seeded the same way, so the
// CTGSHRD decoder is also driven from the head of a chain.
func FuzzSealedRecords(f *testing.F) {
	formats := sealedFormats(f)
	files := make([][]byte, 0, len(formats)+1)
	for _, sf := range formats {
		files = append(files, sf.file)
	}
	first := &snapshot.ShardCheckpoint{Campaign: 7, Seq: 1, Done: 1, Payload: []byte("one server")}
	first.Seal(0)
	files = append(files, readBack(filepath.Join(f.TempDir(), "first"),
		func(p string) error { return snapshot.WriteShard(p, first) }))
	f.Add(false, []byte{})
	f.Add(true, []byte{})
	for _, file := range files {
		body := file[11 : len(file)-8]
		for _, seed := range []struct {
			reseal bool
			data   []byte
		}{{false, file}, {true, body}} {
			f.Add(seed.reseal, seed.data)
			f.Add(seed.reseal, seed.data[:len(seed.data)-1])
			flipped := bytes.Clone(seed.data)
			flipped[len(flipped)/2] ^= 0x40
			f.Add(seed.reseal, flipped)
		}
	}
	f.Fuzz(func(t *testing.T, reseal bool, data []byte) {
		for _, sf := range formats {
			file := data
			if reseal {
				file = sf.reseal(data)
			}
			re, err := sf.decode(file)
			if err != nil {
				if !sf.family(err) {
					t.Fatalf("%s: refusal without the format's sentinel: %v", sf.name, err)
				}
				continue
			}
			if !bytes.Equal(re, file) {
				t.Fatalf("%s: accepted record re-encodes to different bytes", sf.name)
			}
		}
	})
}

// codecBase is the machine TestSnapshotCodecCoversEveryField mutates:
// every optional layer present, every implicit-length array sized from
// NPages, and the scan maps keyed by exactly mem.ScanOrders, so that
// each leaf is reachable and the unmutated machine round-trips.
func codecBase() *snapshot.Machine {
	npages := uint64(mem.PageblockPages)
	orders := func() map[int]uint64 {
		m := make(map[int]uint64)
		for _, o := range mem.ScanOrders {
			m[o] = 0
		}
		return m
	}
	return &snapshot.Machine{
		Kernel: &kernel.State{
			Phys: mem.PhysMemState{NPages: npages, Meta: make([]uint32, npages),
				PbMT: make([]uint8, npages/mem.PageblockPages), FlIdx: make([]int32, npages)},
			Scan: &mem.ContiguityStats{FreeContigPages: orders(), UnmovableBlocks: orders(),
				TotalBlocks: orders(), PotentialBlocks: orders()},
			HasPressure: true,
			Pressure:    &kernel.PressureState{},
		},
		Runner: &workload.RunnerState{},
		Faults: &fault.InjectorState{},
	}
}

// codecImplied re-sizes the arrays whose length the schema derives from
// a field, after a mutation moved that field.
var codecImplied = map[string]func(m *snapshot.Machine){
	"Kernel.Phys.NPages": func(m *snapshot.Machine) {
		ph := &m.Kernel.Phys
		ph.NPages = 2 * mem.PageblockPages
		ph.Meta, ph.PbMT, ph.FlIdx = make([]uint32, ph.NPages), make([]uint8, 2), make([]int32, ph.NPages)
	},
}

// codecWitness lists the fields the snapshot stores but the state hash
// leaves out, by path with indices dropped.
var codecWitness = map[string]bool{"Kernel.Phys.FlIdx": true}

// mutateLeaf finds the target-th leaf of v (counting from *seen) and
// changes it, returning its path; a leaf is a scalar field, an array
// element, element 0 of a slice (allocated when empty), a map value, or
// an optional pointer (set to nil). Scalars move to an edge of their
// width: all ones unsigned, -2 signed, so narrowing and sign extension
// are exercised too.
func mutateLeaf(t *testing.T, v reflect.Value, path string, target int, seen *int) (string, bool) {
	leaf := func(set func()) (string, bool) {
		if *seen == target {
			set()
			return path, true
		}
		*seen++
		return "", false
	}
	switch v.Kind() {
	case reflect.Pointer:
		if path != "Kernel" {
			if p, ok := leaf(func() { v.SetZero() }); ok {
				return p, ok
			}
		}
		return mutateLeaf(t, v.Elem(), path, target, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s is unexported: the snapshot cannot carry it", path, f.Name)
			}
			if p, ok := mutateLeaf(t, v.Field(i), strings.TrimPrefix(path+"."+f.Name, "."), target, seen); ok {
				return p, ok
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p, ok := mutateLeaf(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), target, seen); ok {
				return p, ok
			}
		}
	case reflect.Slice:
		elems := v
		if v.Len() == 0 {
			elems = reflect.MakeSlice(v.Type(), 1, 1)
		}
		p, ok := mutateLeaf(t, elems.Index(0), path+"[0]", target, seen)
		if ok {
			v.Set(elems)
		}
		return p, ok
	case reflect.Map:
		keys := v.MapKeys()
		if len(keys) == 0 {
			t.Fatalf("%s: base map is empty", path)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Int() < keys[j].Int() })
		for _, k := range keys {
			val := reflect.New(v.Type().Elem()).Elem()
			val.Set(v.MapIndex(k))
			if p, ok := mutateLeaf(t, val, fmt.Sprintf("%s[%d]", path, k.Int()), target, seen); ok {
				v.SetMapIndex(k, val)
				return p, ok
			}
		}
	case reflect.Bool:
		return leaf(func() { v.SetBool(!v.Bool()) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return leaf(func() { v.SetInt(-2) })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return leaf(func() { v.SetUint(^uint64(0) >> (64 - v.Type().Bits())) })
	case reflect.Float64:
		return leaf(func() { v.SetFloat(v.Float() + 1.5) })
	case reflect.String:
		return leaf(func() { v.SetString(v.String() + "x") })
	default:
		t.Fatalf("%s: no mutation for kind %v", path, v.Kind())
	}
	return "", false
}

// TestSnapshotCodecCoversEveryField changes each leaf of kernel.State,
// workload.RunnerState and fault.InjectorState in turn. The change must
// survive a CTGSNAP write and read, and must move the state hash unless
// the field is on the witness list — so a field added to any of these
// structs fails here until the codec's walk carries and hashes it.
func TestSnapshotCodecCoversEveryField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ctgsnap")
	roundTrip := func(field string, m *snapshot.Machine) (*snapshot.Envelope, uint64) {
		t.Helper()
		e := &snapshot.Envelope{Machine: *m}
		e.Seal(0)
		if err := snapshot.Write(path, e); err != nil {
			t.Fatal(err)
		}
		got, err := snapshot.Read(path)
		if err != nil {
			t.Fatalf("%s: read back: %v", field, err)
		}
		return got, e.StateHash
	}
	base := codecBase()
	got, baseHash := roundTrip("base", base)
	if !reflect.DeepEqual(got.Machine, *base) {
		t.Fatal("the unmutated machine did not survive the round trip")
	}

	leaves := 0
	for ; ; leaves++ {
		m := codecBase()
		seen := 0
		field, ok := mutateLeaf(t, reflect.ValueOf(m).Elem(), "", leaves, &seen)
		if !ok {
			break
		}
		if fix := codecImplied[field]; fix != nil {
			fix(m)
		}
		got, hash := roundTrip(field, m)
		if !reflect.DeepEqual(got.Machine, *m) {
			t.Errorf("%s: changed value did not survive encode and decode", field)
		}
		witness := codecWitness[strings.Split(field, "[")[0]]
		if hash == baseHash && !witness {
			t.Errorf("%s: change does not move the state hash", field)
		}
		if hash != baseHash && witness {
			t.Errorf("%s: witness field moves the state hash", field)
		}
	}
	if leaves < 100 {
		t.Fatalf("walked only %d leaves", leaves)
	}
	t.Logf("%d leaves", leaves)
}
