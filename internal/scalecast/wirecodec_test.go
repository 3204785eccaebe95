package scalecast

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
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

// TestScalecastWireGoldenBytes pins the varint encoding of every
// scalecast kind: a u16-prefixed group name, then every integer as an
// unsigned LEB128 varint, a node id or send time as its int64 bit
// pattern. A flood message runs its group, origin, seq, send time,
// hops, payload size, a payload tag and the payload (varint-prefixed
// bytes, or the barrier's from, to and generation); a barrier's cut
// travels as a count and ascending (origin, seq) pairs.
func TestScalecastWireGoldenBytes(t *testing.T) {
	const sc = "02007363"
	for _, c := range []struct {
		name string
		msg  any
		hex  string
	}{
		{"packet, bytes", sampleLinkMsgs()[0],
			sc + "02" + "29" + sc + "04" + "0c" + "8095f52a" + "02" + "03" + "01" + "03" + "78797a"},
		{"packet, barrier", sampleLinkMsgs()[1],
			sc + "01" + "01" + sc + "01" + "03" + "00" + "00" + "18" + "02" + "01" + "05" + "02"},
		{"packet, nil, negative origin",
			&LinkPacket{Group: "sc", Session: 1, Seq: 2, Msg: &FloodMsg{Group: "sc", Origin: -1, Seq: 1}},
			sc + "01" + "02" + sc + "ffffffffffffffffff01" + "01" + "00" + "00" + "00" + "00"},
		{"ack", &LinkAck{Group: "sc", Session: 2, Cum: 300}, sc + "02" + "ac02"},
		{"nack", &LinkNack{Group: "sc", Session: 2, From: 38, To: 41}, sc + "02" + "26" + "29"},
		{"heartbeat", &LinkHeartbeat{Group: "sc", Session: 2, Top: 44}, sc + "02" + "2c"},
		{"barrier", &LinkBarrier{Group: "sc", Session: 3, Fresh: true, Cut: map[transport.NodeID]uint64{7: 1, 0: 4}},
			sc + "03" + "01" + "02" + "0004" + "0701"},
		{"barrier ack", &LinkBarrierAck{Group: "sc", Session: 3}, sc + "03"},
	} {
		kind, buf, err := wire.Marshal(c.msg)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", c.name, err)
		}
		if got := hex.EncodeToString(buf); got != c.hex {
			t.Fatalf("%s encodes as\n %s, want\n %s", c.name, got, c.hex)
		}
		out, err := wire.Unmarshal(kind, buf)
		if err != nil || !reflect.DeepEqual(out, c.msg) {
			t.Fatalf("%s: round trip gave %+v, %v", c.name, out, err)
		}
		if n := transport.ApproxSize(out); n != len(buf) {
			t.Fatalf("%s: size model %d B, encoding %d B", c.name, n, len(buf))
		}
	}
}

// TestScalecastWireRejectsRepeatedCutOrigin: a cut's origins travel
// strictly ascending. One naming an origin twice would decode to fewer
// entries than its frame carries, and one out of order would re-encode
// differently, so both are rejected.
func TestScalecastWireRejectsRepeatedCutOrigin(t *testing.T) {
	for _, h := range []string{
		"02007363" + "03" + "00" + "02" + "0700" + "0701", // origin 7 twice
		"02007363" + "03" + "00" + "02" + "0700" + "0001", // 7 before 0
	} {
		buf, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := wire.Unmarshal(wire.KindScalecast+4, buf); err == nil {
			t.Errorf("%x decoded as %+v", buf, m)
		}
	}
}

// TestScalecastWireRejectsNonCanonical: each value has one accepted
// encoding, so a decoded message re-encodes to its own length. An
// unknown payload tag, a fresh flag other than 0 or 1 and a padded
// varint must not decode.
func TestScalecastWireRejectsNonCanonical(t *testing.T) {
	const sc = "02007363"
	flood := sc + "01" + "01" + sc + "00" + "01" + "00" + "00" + "00"
	for name, c := range map[string]struct {
		kind wire.Kind
		hex  string
	}{
		"fresh flag 2":     {4, sc + "03" + "02" + "00"},
		"padded cut count": {4, sc + "03" + "00" + "8000"},
		"payload tag 3":    {0, flood + "03"},
		"padded hops":      {0, sc + "01" + "01" + sc + "00" + "01" + "00" + "8000" + "00" + "00"},
		"padded session":   {1, sc + "8200" + "28"},
	} {
		buf, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := wire.Unmarshal(wire.KindScalecast+c.kind, buf); err == nil {
			t.Errorf("%s: %x decoded as %+v", name, buf, m)
		}
	}
}

// TestScalecastDecodeAllocationBounded: a short frame whose cut count
// or payload length claims the wire limit is rejected without
// allocating for it. Every cut entry takes at least two bytes, so the
// bytes left bound the map.
func TestScalecastDecodeAllocationBounded(t *testing.T) {
	uv := func(v uint64) string { return fmt.Sprintf("%x", binary.AppendUvarint(nil, v)) }
	const sc = "02007363"
	for name, c := range map[string]struct {
		kind wire.Kind
		hex  string
	}{
		"cut":     {4, sc + "03" + "00" + uv(scMaxCut) + "0001"},
		"payload": {0, sc + "01" + "01" + sc + "00" + "01" + "00" + "00" + "00" + "01" + uv(scMaxPayload) + "00"},
	} {
		buf, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = wire.Unmarshal(wire.KindScalecast+c.kind, buf)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a %d-byte frame claiming the wire limit decoded", name, len(buf))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d B", name, len(buf), got)
		}
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
