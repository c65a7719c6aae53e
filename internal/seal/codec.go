package seal

import "math"

// Codec runs one field walk in either direction. Encoding, each call
// appends its field to a Writer; decoding, the same call reads the
// field back from a Reader into the same pointer. A state type's walk
// is therefore its whole schema, written once: the encoder, the decoder
// and a digest of the encoding cannot drift apart.
//
// Every field is one u64 — unsigned integers zero-extended, signed ones
// sign-extended, booleans 0 or 1, floats as their bit patterns — or a
// u64-length-prefixed byte string. Decoding refuses any value that
// would not re-encode to the same bytes, so a decoded value's encoding
// is the input. Encoding never writes through the pointers it is given.
type Codec struct {
	w *Writer
	r *Reader
}

// NewEncoder returns a codec that appends to w.
func NewEncoder(w *Writer) *Codec { return &Codec{w: w} }

// NewDecoder returns a codec that reads from r.
func NewDecoder(r *Reader) *Codec { return &Codec{r: r} }

// Decoding reports whether the walk is reading.
func (c *Codec) Decoding() bool { return c.r != nil }

// U64 codes *p.
func (c *Codec) U64(p *uint64) {
	if c.r != nil {
		*p = c.r.U64()
	} else {
		c.w.U64(*p)
	}
}

// U64s codes each value in order.
func (c *Codec) U64s(ps ...*uint64) {
	for _, p := range ps {
		c.U64(p)
	}
}

// Bool codes *p as 0 or 1.
func (c *Codec) Bool(p *bool) {
	if c.r == nil {
		v := uint64(0)
		if *p {
			v = 1
		}
		c.w.U64(v)
		return
	}
	v := c.r.U64()
	if v > 1 {
		c.r.fail("boolean %d", v)
	}
	*p = v == 1
}

// F64 codes *p as its bit pattern.
func (c *Codec) F64(p *float64) {
	if c.r != nil {
		*p = math.Float64frombits(c.r.U64())
	} else {
		c.w.U64(math.Float64bits(*p))
	}
}

// String codes *p as a u64 length and its bytes (Writer.Bytes).
func (c *Codec) String(p *string) {
	if c.r != nil {
		*p = string(c.r.Bytes())
	} else {
		c.w.String(*p)
	}
}

// Uint codes an unsigned integer zero-extended to a u64; decoding
// refuses a value T cannot hold.
func Uint[T ~uint8 | ~uint16 | ~uint32 | ~uint | ~uint64](c *Codec, p *T) {
	if c.r == nil {
		c.w.U64(uint64(*p))
		return
	}
	v := c.r.U64()
	if uint64(T(v)) != v {
		c.r.fail("%d overflows %T", v, *p)
	}
	*p = T(v)
}

// Int codes a signed integer sign-extended to a u64; decoding refuses a
// value T cannot hold.
func Int[T ~int8 | ~int16 | ~int32 | ~int | ~int64](c *Codec, p *T) {
	if c.r == nil {
		c.w.U64(uint64(*p))
		return
	}
	v := c.r.U64()
	if int64(T(v)) != int64(v) {
		c.r.fail("%d overflows %T", int64(v), *p)
	}
	*p = T(v)
}

// Slice codes a u64 element count, then each element through elem (see
// Array for the decoding bounds).
func Slice[T any](c *Codec, s *[]T, elem func(*T)) {
	n := uint64(len(*s))
	c.U64(&n)
	Array(c, s, n, elem)
}

// Array codes the elements of a slice whose length n the schema already
// carries, with no count of its own: encoding writes every element of
// *s, decoding reads n of them. Every element codes at least one u64,
// so decoding refuses an n the bytes left cannot hold before it
// allocates; an empty slice decodes as nil.
func Array[T any](c *Codec, s *[]T, n uint64, elem func(*T)) {
	if c.r != nil {
		*s = nil
		if n := c.r.fit(n, 8); n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

// Opt codes whether *p is set as 0 or 1 and, decoding a set marker,
// allocates *p. It reports whether the walk goes on to code *p's
// fields — possibly through another codec than the marker's.
func Opt[T any](c *Codec, p **T) bool {
	set := *p != nil
	c.Bool(&set)
	if c.r != nil {
		*p = nil
		if set {
			*p = new(T)
		}
	}
	return set
}
