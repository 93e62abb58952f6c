package flowrec

import (
	"bytes"
	"reflect"
	"testing"

	"switchpointer/internal/simtime"
	"switchpointer/internal/wire"
)

// TestWireRoundTrip: an absorbed record reads back identical from its wire
// form, whose per-epoch counts are written in ascending epoch order.
func TestWireRoundTrip(t *testing.T) {
	rec := New(samplePacket(0, 0).Flow)
	rec.Absorb(samplePacket(1000, 3), sampleDecoded(), simtime.Millisecond)
	d2 := sampleDecoded()
	d2.Epochs = []simtime.EpochRange{{Lo: 1, Hi: 2}, {Lo: 2, Hi: 2}, {Lo: 2, Hi: 3}}
	rec.Absorb(samplePacket(500, 3), d2, 2*simtime.Millisecond)
	rec.TagLink = 9

	b := AppendWire(nil, rec)
	r := wire.NewReader(b)
	got := ReadWire(&r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip\n%+v\n!= %+v", got, rec)
	}
	if again := AppendWire(nil, got); !bytes.Equal(again, b) {
		t.Fatal("re-encoding differs")
	}

	// Swap the two per-epoch entries (epoch 2, then 5) into descending
	// order: the reader must refuse what the encoder never writes.
	tail := len(b) - len(wire.AppendVarint(wire.AppendVarint(nil, int64(rec.FirstSeen)), int64(rec.LastSeen)))
	e2 := wire.AppendUvarint(wire.AppendVarint(nil, 2), rec.EpochBytes[2])
	e5 := wire.AppendUvarint(wire.AppendVarint(nil, 5), rec.EpochBytes[5])
	start := tail - len(e2) - len(e5)
	if !bytes.Equal(b[start:tail], append(append([]byte{}, e2...), e5...)) {
		t.Fatal("fixture layout changed")
	}
	bad := append(append(append(append([]byte{}, b[:start]...), e5...), e2...), b[tail:]...)
	r = wire.NewReader(bad)
	if ReadWire(&r) != nil || r.Err() == nil {
		t.Fatal("descending per-epoch counts accepted")
	}
}
