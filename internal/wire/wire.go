// Package wire holds the primitives of the repository's binary codecs:
// append-style writers and a bounds-checked Reader for uvarints, zigzag
// varints, fixed-width big-endian fields and nil-marked counts.
//
// Every encoding is canonical — minimal varints, a count's nil marker kept
// apart from its length — so a decoder built on Reader accepts exactly the
// bytes its encoder produces, and an accepted input re-encodes to itself.
// A Reader never allocates: callers size their allocations from Count,
// which refuses any count the remaining bytes cannot hold.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShort reports a read past the end of the input.
var ErrShort = errors.New("wire: unexpected end of input")

// AppendUvarint appends v as a minimal uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendCount appends a slice or map length with its nil marker: 0 for a
// nil value, n+1 for a value of length n (empty or not).
func AppendCount(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// Reader decodes from a byte slice. The first error sticks: every later
// read returns a zero value, so a decoder can read a whole value and check
// Err once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first error met.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an earlier error is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.b = nil
	}
}

// Done returns the first error met, or an error if bytes remain unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(r.b))
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) < 1 {
		r.Fail(ErrShort)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Uint16 reads a 2-byte big-endian value.
func (r *Reader) Uint16() uint16 {
	if len(r.b) < 2 {
		r.Fail(ErrShort)
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

// Uint32 reads a 4-byte big-endian value.
func (r *Reader) Uint32() uint32 {
	if len(r.b) < 4 {
		r.Fail(ErrShort)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// Uvarint reads a uvarint, refusing a truncated, overflowing or
// non-minimal one (a multi-byte encoding whose last byte is zero).
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.Fail(ErrShort)
		return 0
	case n < 0:
		r.Fail(errors.New("wire: varint overflows 64 bits"))
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.Fail(errors.New("wire: non-minimal varint"))
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zigzag varint into an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail(fmt.Errorf("wire: %d overflows int", v))
		return 0
	}
	return int(v)
}

// Int32 reads a zigzag varint that must fit 32 bits.
func (r *Reader) Int32() int32 {
	v := r.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.Fail(fmt.Errorf("wire: %d overflows int32", v))
		return 0
	}
	return int32(v)
}

// Uvarint32 reads a uvarint that must fit 32 bits.
func (r *Reader) Uvarint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Fail(fmt.Errorf("wire: %d overflows uint32", v))
		return 0
	}
	return uint32(v)
}

// Count reads a nil-marked count (see AppendCount). minSize is the fewest
// bytes one element can encode to (at least 1); a count the remaining
// input cannot hold is refused before the caller allocates for it.
func (r *Reader) Count(minSize int) (n int, isNil bool) {
	c := r.Uvarint()
	if r.err != nil {
		return 0, true
	}
	if c == 0 {
		return 0, true
	}
	if c-1 > uint64(len(r.b)/minSize) {
		r.Fail(fmt.Errorf("wire: count %d exceeds the %d bytes left", c-1, len(r.b)))
		return 0, true
	}
	return int(c - 1), false
}
