// Package seal is the one record frame every on-disk format in this
// repository uses (CTGSNAP, CTGSHRD, CTGCACH, CTGCAMP):
//
//	magic (7 bytes) | version (u32 LE) | body | digest (u64 LE)
//
// The digest is FNV-1a 64 over every preceding byte. Each FNV-1a step
// (xor a byte, multiply by an odd prime) is a bijection of the running
// state, so an edit confined to one byte — any single-bit flip — always
// changes it, and truncation or appended bytes move the trailer. Open
// verifies the whole frame before a body byte is parsed; every refusal
// wraps one typed kind below plus the format's own sentinel.
package seal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"contiguitas/internal/vfs"
)

// Typed refusals; Open and Reader errors wrap exactly one.
var (
	ErrShort   = errors.New("seal: truncated frame")
	ErrMagic   = errors.New("seal: bad magic")
	ErrVersion = errors.New("seal: unsupported version")
	ErrDigest  = errors.New("seal: digest mismatch")
	// ErrBody reports a verified frame whose body does not parse.
	ErrBody = errors.New("seal: malformed body")
)

const (
	magicLen  = 7
	headerLen = magicLen + 4
	digestLen = 8
)

// Format names one record kind: its 7-byte magic, the only version Open
// accepts, and the sentinel every refusal wraps.
type Format struct {
	Magic   string
	Version uint32
	Err     error
}

// Seal frames body.
func (f Format) Seal(body []byte) []byte {
	out := make([]byte, 0, headerLen+len(body)+digestLen)
	out = append(out, f.Magic...)
	out = binary.LittleEndian.AppendUint32(out, f.Version)
	out = append(out, body...)
	return binary.LittleEndian.AppendUint64(out, Sum64(out))
}

// Open checks data's length, magic, version and digest, in that order,
// and returns the body (aliasing data).
func (f Format) Open(data []byte) ([]byte, error) {
	if len(data) < headerLen+digestLen {
		return nil, f.refuse(ErrShort, "%d-byte file", len(data))
	}
	if m := string(data[:magicLen]); m != f.Magic {
		return nil, f.refuse(ErrMagic, "%q", m)
	}
	if v := binary.LittleEndian.Uint32(data[magicLen:]); v != f.Version {
		return nil, f.refuse(ErrVersion, "%d (support %d)", v, f.Version)
	}
	n := len(data) - digestLen
	if got, want := Sum64(data[:n]), binary.LittleEndian.Uint64(data[n:]); got != want {
		return nil, f.refuse(ErrDigest, "computed %016x, recorded %016x", got, want)
	}
	return data[headerLen:n], nil
}

func (f Format) refuse(kind error, format string, args ...any) error {
	return fmt.Errorf("%w: %s %w: "+format, append([]any{f.Err, f.Magic, kind}, args...)...)
}

// Reader opens data and returns a reader over its body whose errors
// also wrap the format's sentinel.
func (f Format) Reader(data []byte) (*Reader, error) {
	body, err := f.Open(data)
	if err != nil {
		return nil, err
	}
	return &Reader{buf: body, family: f.Err}, nil
}

// WriteFile seals body to path with the durable-write discipline on the
// active FS (temp file, fsync, rename, directory fsync).
func (f Format) WriteFile(path string, body []byte) error {
	return vfs.WriteFileDurable(vfs.Active(), path, f.Seal(body))
}

// ReadFile reads path through the active FS and decodes it. Read errors
// come back unwrapped (fs.ErrNotExist stays testable); decode errors
// name the path.
func ReadFile[T any](path string, decode func(data []byte) (T, error)) (T, error) {
	data, err := vfs.Active().ReadFile(path)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := decode(data)
	if err != nil {
		return v, fmt.Errorf("%w in %s", err, path)
	}
	return v, nil
}

// Digest is a running FNV-1a 64 hash — hash/fnv's New64a without the
// interface. Integers are hashed as their eight little-endian bytes.
type Digest uint64

// NewDigest returns the empty-input state (the FNV offset basis).
func NewDigest() Digest { return 14695981039346656037 }

const prime64 = 1099511628211

// WriteString hashes the bytes of s.
func (d *Digest) WriteString(s string) {
	for i := 0; i < len(s); i++ {
		*d = (*d ^ Digest(s[i])) * prime64
	}
}

// Write hashes the bytes of p.
func (d *Digest) Write(p []byte) {
	for _, c := range p {
		*d = (*d ^ Digest(c)) * prime64
	}
}

// Uint64s hashes each value as eight little-endian bytes.
func (d *Digest) Uint64s(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 64; i += 8 {
			*d = (*d ^ Digest(byte(v>>i))) * prime64
		}
	}
}

// Sum64 returns the digest value.
func (d Digest) Sum64() uint64 { return uint64(d) }

// Sum64 is the FNV-1a 64 digest of p.
func Sum64(p []byte) uint64 {
	h := NewDigest()
	h.Write(p)
	return uint64(h)
}

// Sum64s is the FNV-1a 64 digest of vs as little-endian u64s.
func Sum64s(vs ...uint64) uint64 {
	d := NewDigest()
	d.Uint64s(vs...)
	return d.Sum64()
}
