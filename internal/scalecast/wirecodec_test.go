package scalecast

import (
	"reflect"
	"testing"
	"time"

	"catocs/internal/transport"
	"catocs/internal/wire"
)

func sampleLinkMsgs() []any {
	flood := &FloodMsg{
		Group: "sc", Origin: 4, Seq: 12, SentAt: 90 * time.Millisecond,
		Hops: 2, Payload: []byte("xyz"), PayloadSize: 3,
	}
	barrier := &FloodMsg{
		Group: "sc", Origin: 1, Seq: 3,
		Payload: barrierPayload{From: 1, To: 5, Gen: 2}, PayloadSize: barrierPayloadSize,
	}
	return []any{
		&LinkPacket{Group: "sc", Session: 2, Seq: 41, Msg: flood},
		&LinkPacket{Group: "sc", Session: 1, Seq: 1, Msg: barrier},
		&LinkPacket{Group: "sc", Session: 1, Seq: 2, Msg: &FloodMsg{Group: "sc", Origin: 0, Seq: 1}},
		&LinkPacket{Group: "sc", Session: 1, Seq: 3, Msg: &FloodMsg{Group: "sc", Origin: 2, Seq: 1, Payload: []byte{}}},
		&LinkAck{Group: "sc", Session: 2, Cum: 40},
		&LinkNack{Group: "sc", Session: 2, From: 38, To: 41},
		&LinkHeartbeat{Group: "sc", Session: 2, Top: 44},
		&LinkBarrier{Group: "sc", Session: 3, Fresh: true, Cut: map[transport.NodeID]uint64{0: 4, 7: 1}},
		&LinkBarrier{Group: "sc", Session: 3},
		&LinkBarrierAck{Group: "sc", Session: 3},
	}
}

func TestScalecastWireRoundTrip(t *testing.T) {
	for _, in := range sampleLinkMsgs() {
		kind, buf, err := wire.Marshal(in)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", in, err)
		}
		out, err := wire.Unmarshal(kind, buf)
		if err != nil {
			t.Fatalf("Unmarshal(%T): %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip %T:\n in: %+v\nout: %+v", in, in, out)
		}
	}
}

// TestScalecastWireSizeExact pins the size model of every kind this
// package registers to the bytes its encoder writes, and charges an
// in-process payload as PayloadSize bytes.
func TestScalecastWireSizeExact(t *testing.T) {
	covered := map[wire.Kind]bool{}
	for _, in := range sampleLinkMsgs() {
		kind, buf, err := wire.Marshal(in)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", in, err)
		}
		covered[kind] = true
		if n := transport.ApproxSize(in); n != len(buf) {
			t.Errorf("%T: size model %d B, encoding %d B", in, n, len(buf))
		}
	}
	for k := wire.KindScalecast; k < wire.KindScalecast+0x10; k++ {
		if wire.KindName(k) != "" && !covered[k] {
			t.Errorf("kind %#04x (%s) has no sample", uint16(k), wire.KindName(k))
		}
	}
	bytesPkt := &LinkPacket{Group: "sc", Msg: &FloodMsg{Group: "sc", Payload: make([]byte, 100), PayloadSize: 100}}
	valuePkt := &LinkPacket{Group: "sc", Msg: &FloodMsg{Group: "sc", Payload: 7, PayloadSize: 100}}
	if a, b := transport.ApproxSize(bytesPkt), transport.ApproxSize(valuePkt); a != b {
		t.Fatalf("in-process payload charged %d B, its []byte twin %d B", b, a)
	}
	if got, want := transport.ControlSize(valuePkt), transport.ApproxSize(valuePkt)-100; got != want {
		t.Fatalf("control bytes %d, want %d", got, want)
	}
}

// TestScalecastWireRejectsRepeatedCutOrigin: a cut naming one origin
// twice decodes to fewer entries than its frame carries, so it is
// rejected rather than re-encoded shorter.
func TestScalecastWireRejectsRepeatedCutOrigin(t *testing.T) {
	w := wire.NewWriter(0)
	w.String("sc")
	w.U64(3)
	w.Bool(false)
	w.U32(2)
	for i := 0; i < 2; i++ {
		w.I64(7)
		w.U64(uint64(i))
	}
	if _, err := wire.Unmarshal(wire.KindScalecast+4, w.Bytes()); err == nil {
		t.Fatal("a cut repeating origin 7 decoded")
	}
}

func TestScalecastWireRejectsTruncation(t *testing.T) {
	for _, in := range sampleLinkMsgs() {
		kind, buf, err := wire.Marshal(in)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", in, err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, err := wire.Unmarshal(kind, buf[:cut]); err == nil {
				t.Fatalf("%T truncated to %d/%d bytes decoded successfully", in, cut, len(buf))
			}
		}
		if _, err := wire.Unmarshal(kind, append(append([]byte(nil), buf...), 1)); err == nil {
			t.Fatalf("%T with trailing garbage decoded successfully", in)
		}
	}
}

func FuzzScalecastWireDecode(f *testing.F) {
	kinds := []wire.Kind{
		wire.KindScalecast + 0, wire.KindScalecast + 1, wire.KindScalecast + 2,
		wire.KindScalecast + 3, wire.KindScalecast + 4, wire.KindScalecast + 5,
	}
	for _, in := range sampleLinkMsgs() {
		_, buf, err := wire.Marshal(in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint16(0), buf)
	}
	f.Fuzz(func(t *testing.T, kindSel uint16, buf []byte) {
		kind := kinds[int(kindSel)%len(kinds)]
		msg, err := wire.Unmarshal(kind, buf)
		if err != nil {
			return
		}
		kind2, buf2, err := wire.Marshal(msg)
		if err != nil {
			t.Fatalf("re-encode of decoded %T failed: %v", msg, err)
		}
		if kind2 != kind {
			t.Fatalf("re-encode kind %#04x, want %#04x", uint16(kind2), uint16(kind))
		}
		msg2, err := wire.Unmarshal(kind2, buf2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("decode/encode/decode disagrees:\n 1: %+v\n 2: %+v", msg, msg2)
		}
		if n := transport.ApproxSize(msg); n != len(buf) {
			t.Fatalf("decoded %T sizes to %d B, its frame is %d B", msg, n, len(buf))
		}
	})
}
