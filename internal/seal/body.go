package seal

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Writer builds a flat little-endian body: u64 integers,
// u64-length-prefixed byte strings and NUL-terminated strings, with no
// type metadata — the schema is the code that writes and reads it.
//
// A Writer from HashWriter keeps no bytes: it folds each one into a
// running FNV-1a digest, so a body's Sum64 costs no buffer.
type Writer struct {
	buf  []byte
	hash bool
	sum  Digest
}

// HashWriter returns a Writer that only digests what is written.
func HashWriter() Writer { return Writer{hash: true, sum: NewDigest()} }

// U64 appends each value.
func (w *Writer) U64(vs ...uint64) {
	if w.hash {
		w.sum.Uint64s(vs...)
		return
	}
	for _, v := range vs {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
}

// Bytes appends p behind its u64 length.
func (w *Writer) Bytes(p []byte) {
	w.U64(uint64(len(p)))
	if w.hash {
		w.sum.Write(p)
		return
	}
	w.buf = append(w.buf, p...)
}

// String appends s behind its u64 length, as Bytes would.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	if w.hash {
		w.sum.WriteString(s)
		return
	}
	w.buf = append(w.buf, s...)
}

// CString appends s and a NUL; s must not contain NUL.
func (w *Writer) CString(s string) {
	if w.hash {
		w.sum.WriteString(s)
		w.sum.WriteString("\x00")
		return
	}
	w.buf = append(append(w.buf, s...), 0)
}

// Body returns the bytes written so far (nil from a HashWriter).
func (w *Writer) Body() []byte { return w.buf }

// Sum64 is the FNV-1a 64 digest of the bytes a HashWriter was given.
func (w *Writer) Sum64() uint64 { return w.sum.Sum64() }

// Reader parses a Writer body. Errors are sticky: after the first
// failure every read returns a zero value and Done reports the failure,
// so a decoder reads its whole schema and checks once.
type Reader struct {
	buf    []byte
	err    error
	family error // format sentinel errors also wrap; nil from NewReader
}

// NewReader returns a reader over body.
func NewReader(body []byte) *Reader { return &Reader{buf: body} }

func (r *Reader) fail(format string, args ...any) {
	if r.err != nil {
		return
	}
	r.err = fmt.Errorf("%w: "+format, append([]any{ErrBody}, args...)...)
	if r.family != nil {
		r.err = fmt.Errorf("%w: %w", r.family, r.err)
	}
}

// take consumes n bytes, failing when fewer remain.
func (r *Reader) take(n uint64) []byte {
	if n > uint64(len(r.buf)) {
		r.fail("%d-byte field, %d bytes left", n, len(r.buf))
	}
	if r.err != nil {
		return nil
	}
	p := r.buf[:n:n]
	r.buf = r.buf[n:]
	return p
}

// U64 reads a u64.
func (r *Reader) U64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Count reads a u64 element count, refusing one whose elements (each at
// least minSize bytes) cannot fit in what remains — a corrupt count
// never sizes an allocation.
func (r *Reader) Count(minSize int) int { return r.fit(r.U64(), minSize) }

// fit returns n, refusing it when n elements of minSize bytes each
// cannot fit in what remains.
func (r *Reader) fit(n uint64, minSize int) int {
	if n > uint64(len(r.buf))/uint64(max(minSize, 1)) {
		r.fail("count %d of %d-byte elements, %d bytes left", n, minSize, len(r.buf))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Bytes reads a u64-length-prefixed byte string, aliasing the body.
func (r *Reader) Bytes() []byte { return r.take(uint64(r.Count(1))) }

// Section reads a u64-length-prefixed byte string as a reader of its
// own, whose errors wrap the same format sentinel.
func (r *Reader) Section() *Reader { return &Reader{buf: r.Bytes(), family: r.family} }

// CString reads a NUL-terminated string.
func (r *Reader) CString() string {
	i := bytes.IndexByte(r.buf, 0)
	if i < 0 {
		r.fail("unterminated string")
	}
	if r.err != nil {
		return ""
	}
	s := string(r.buf[:i])
	r.buf = r.buf[i+1:]
	return s
}

// Done returns the first failure, or a refusal if bytes remain unread.
func (r *Reader) Done() error {
	if len(r.buf) > 0 {
		r.fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}
