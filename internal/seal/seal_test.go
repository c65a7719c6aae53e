package seal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestDigestMatchesHashFNV pins Digest to the standard library's
// FNV-1a 64 on bytes, strings and little-endian integers: every digest
// this repository stores or compares was computed with hash/fnv.
func TestDigestMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		p := make([]byte, n)
		rng.Read(p)
		vs := []uint64{rng.Uint64(), uint64(n), 0, ^uint64(0)}

		ref := fnv.New64a()
		ref.Write(p)
		if got, want := Sum64(p), ref.Sum64(); got != want {
			t.Fatalf("Sum64 of %d bytes: %016x, want %016x", n, got, want)
		}
		for _, v := range vs {
			ref.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
		ref.Write(p)
		d := NewDigest()
		d.WriteString(string(p))
		d.Uint64s(vs...)
		d.WriteString(string(p))
		if got, want := d.Sum64(), ref.Sum64(); got != want {
			t.Fatalf("streamed digest: %016x, want %016x", got, want)
		}

		ref.Reset()
		for _, v := range vs {
			ref.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
		if got, want := Sum64s(vs...), ref.Sum64(); got != want {
			t.Fatalf("Sum64s: %016x, want %016x", got, want)
		}
	}
}

var errTest = errors.New("test: record corrupt")

func TestSealOpenRoundTripAndRefusals(t *testing.T) {
	f := Format{Magic: "CTGTEST", Version: 2, Err: errTest}
	body := []byte("body bytes")
	data := f.Seal(body)
	if len(data) != headerLen+len(body)+digestLen || string(data[:magicLen]) != f.Magic {
		t.Fatalf("frame layout: %q", data)
	}
	got, err := f.Open(data)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("Open = %q, %v", got, err)
	}
	if got, err := f.Open(f.Seal(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty body: %q, %v", got, err)
	}

	other := f
	other.Version = 1
	cases := []struct {
		name string
		data []byte
		kind error
	}{
		{"short", data[:headerLen+digestLen-1], ErrShort},
		{"magic", Format{Magic: "CTGELSE", Version: 2}.Seal(body), ErrMagic},
		{"version", other.Seal(body), ErrVersion},
		{"flipped body", func() []byte { b := bytes.Clone(data); b[headerLen] ^= 4; return b }(), ErrDigest},
		{"flipped digest", func() []byte { b := bytes.Clone(data); b[len(b)-1] ^= 1; return b }(), ErrDigest},
		{"appended", append(bytes.Clone(data), 0), ErrDigest},
		{"truncated", data[:len(data)-1], ErrDigest},
	}
	for _, tc := range cases {
		_, err := f.Open(tc.data)
		if !errors.Is(err, tc.kind) || !errors.Is(err, errTest) {
			t.Fatalf("%s: Open = %v, want %v wrapped with the format sentinel", tc.name, err, tc.kind)
		}
	}
}

func TestReaderRoundTrip(t *testing.T) {
	var w Writer
	w.U64(7, 1<<40)
	w.Bytes([]byte("payload"))
	w.Bytes(nil)
	w.CString("web")
	r := NewReader(w.Body())
	if a, b, c, d, e := r.U64(), r.U64(), r.Bytes(), r.Bytes(), r.CString(); a != 7 || b != 1<<40 ||
		string(c) != "payload" || len(d) != 0 || e != "web" {
		t.Fatalf("read back %d %d %q %q %q", a, b, c, d, e)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestHashWriterMatchesBody: a HashWriter digests exactly the bytes a
// Writer given the same calls would build, and keeps none of them.
func TestHashWriterMatchesBody(t *testing.T) {
	var w Writer
	h := HashWriter()
	for _, x := range []*Writer{&w, &h} {
		x.U64(7, 1<<40)
		x.Bytes([]byte("payload"))
		x.Bytes(nil)
		x.CString("web")
		x.CString("")
	}
	if got, want := h.Sum64(), Sum64(w.Body()); got != want {
		t.Fatalf("HashWriter digest %016x, want %016x", got, want)
	}
	if h.Body() != nil {
		t.Fatalf("HashWriter kept %d bytes", len(h.Body()))
	}
}

// TestReaderRefusals: every malformed body is refused with ErrBody, the
// first failure sticks, and a Format reader also wraps the sentinel.
func TestReaderRefusals(t *testing.T) {
	var w Writer
	w.U64(1 << 62) // a length prefix far past the end
	w.U64(5)
	cases := []struct {
		name string
		body []byte
		read func(r *Reader)
	}{
		{"truncated u64", []byte{1, 2, 3}, func(r *Reader) { r.U64() }},
		{"oversized length prefix", w.Body(), func(r *Reader) { r.Bytes() }},
		{"oversized count", w.Body(), func(r *Reader) { r.Count(8) }},
		{"unterminated string", []byte("web"), func(r *Reader) { r.CString() }},
		{"trailing bytes", []byte{1, 0, 0, 0, 0, 0, 0, 0, 9}, func(r *Reader) { r.U64() }},
	}
	for _, tc := range cases {
		r := NewReader(tc.body)
		tc.read(r)
		if err := r.Done(); !errors.Is(err, ErrBody) {
			t.Fatalf("%s: Done = %v, want ErrBody", tc.name, err)
		}
	}

	r := NewReader([]byte{1, 2})
	r.U64()
	first := r.Done()
	if v := r.U64(); v != 0 || r.Done() != first {
		t.Fatalf("error not sticky: read %d, Done %v then %v", v, first, r.Done())
	}

	f := Format{Magic: "CTGTEST", Version: 1, Err: errTest}
	fr, err := f.Reader(f.Seal([]byte{1}))
	if err != nil {
		t.Fatal(err)
	}
	fr.U64()
	if err := fr.Done(); !errors.Is(err, ErrBody) || !errors.Is(err, errTest) {
		t.Fatalf("format reader: %v, want ErrBody and the format sentinel", err)
	}
}

// TestCodecRefusesNonCanonical: a decoded value must re-encode to the
// bytes it came from, so every u64 its field cannot reproduce — and any
// count the remaining bytes cannot hold — is refused.
func TestCodecRefusesNonCanonical(t *testing.T) {
	body := func(vs ...uint64) *Reader {
		var w Writer
		w.U64(vs...)
		return NewReader(w.Body())
	}
	for _, tc := range []struct {
		name string
		r    *Reader
		walk func(c *Codec)
	}{
		{"bool 2", body(2), func(c *Codec) { var b bool; c.Bool(&b) }},
		{"uint8 256", body(256), func(c *Codec) { var v uint8; Uint(c, &v) }},
		{"uint32 2^32", body(1 << 32), func(c *Codec) { var v uint32; Uint(c, &v) }},
		{"int8 +128", body(128), func(c *Codec) { var v int8; Int(c, &v) }},
		{"int32 below range", body(^uint64(1 << 31)), func(c *Codec) { var v int32; Int(c, &v) }},
		{"slice count past end", body(3, 1, 2), func(c *Codec) { var s []uint64; Slice(c, &s, c.U64) }},
		{"array length past end", body(1, 2), func(c *Codec) { var s []uint64; Array(c, &s, 3, c.U64) }},
		{"presence marker 2", body(2), func(c *Codec) { var p *uint64; Opt(c, &p) }},
	} {
		tc.walk(NewDecoder(tc.r))
		if err := tc.r.Done(); !errors.Is(err, ErrBody) {
			t.Errorf("%s: got %v, want ErrBody", tc.name, err)
		}
	}

	// The edges of every width survive the round trip.
	var w Writer
	i8, i32, u8, f, s := int8(-128), int32(-1), uint8(255), -0.5, "edge"
	enc := NewEncoder(&w)
	Int(enc, &i8)
	Int(enc, &i32)
	Uint(enc, &u8)
	enc.F64(&f)
	enc.String(&s)
	var (
		gi8, gi32, gu8 = int8(0), int32(0), uint8(0)
		gf, gs         = 0.0, ""
	)
	r := NewReader(w.Body())
	dec := NewDecoder(r)
	Int(dec, &gi8)
	Int(dec, &gi32)
	Uint(dec, &gu8)
	dec.F64(&gf)
	dec.String(&gs)
	if err := r.Done(); err != nil || gi8 != i8 || gi32 != i32 || gu8 != u8 || gf != f || gs != s {
		t.Fatalf("edge values: %v %v %v %v %q, %v", gi8, gi32, gu8, gf, gs, err)
	}
}
