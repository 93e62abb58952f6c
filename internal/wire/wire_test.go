package wire

import (
	"errors"
	"math"
	"testing"
)

// TestRoundTrip: every writer's output reads back to the value written,
// leaving no bytes behind.
func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, math.MinInt64)
	b = AppendVarint(b, -1)
	b = AppendCount(b, 0, true)
	b = AppendCount(b, 0, false)
	b = AppendCount(b, 2, false)
	b = append(b, 7, 0xab, 0xcd, 1, 2, 3, 4)
	r := NewReader(b)
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("uvarint %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Fatalf("varint %d", v)
	}
	if v := r.Int32(); v != -1 {
		t.Fatalf("int32 %d", v)
	}
	if n, isNil := r.Count(1); n != 0 || !isNil {
		t.Fatalf("nil count = %d, %v", n, isNil)
	}
	if n, isNil := r.Count(1); n != 0 || isNil {
		t.Fatalf("empty count = %d, %v", n, isNil)
	}
	if n, isNil := r.Count(1); n != 2 || isNil {
		t.Fatalf("count = %d, %v", n, isNil)
	}
	if r.Byte() != 7 || r.Uint16() != 0xabcd || r.Uint32() != 0x01020304 {
		t.Fatal("fixed-width fields misread")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusals: the Reader refuses what its writers never produce, and a
// first error sticks.
func TestRefusals(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		read func(*Reader)
	}{
		"short":            {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"non-minimal":      {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"overflow":         {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uvarint() }},
		"int32 range":      {AppendVarint(nil, math.MaxInt32+1), func(r *Reader) { r.Int32() }},
		"uint32 range":     {AppendUvarint(nil, math.MaxUint32+1), func(r *Reader) { r.Uvarint32() }},
		"count > bytes":    {[]byte{4, 1, 2}, func(r *Reader) { r.Count(1) }},
		"count > min size": {[]byte{2, 1, 2, 3}, func(r *Reader) { r.Count(4) }},
		"trailing":         {[]byte{1, 9}, func(r *Reader) { r.Byte() }},
	} {
		r := NewReader(tc.in)
		tc.read(&r)
		if r.Done() == nil {
			t.Errorf("%s: accepted %x", name, tc.in)
		}
	}
	r := NewReader([]byte{5})
	r.Uint16()
	if r.Byte() != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Fatal("a read after an error must return zero and keep the first error")
	}
}
