package pubsub

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"catocs/internal/transport"
	"catocs/internal/wire"
)

func samplePubsubMsgs() []any {
	return []any{
		pubMsg{Subject: "prices.IBM", Publisher: 3, Seq: 44, Value: []byte("101.5")},
		pubMsg{Subject: "load", Publisher: 100, Seq: 1, Value: []byte{0, 1, 2, 3}},
		pubMsg{Subject: "q", Publisher: 1, Reply: true, ReplyTo: 1, ReplyID: 9},
		replyMsg{ReplyID: 9, Value: []byte("ans")},
		replyMsg{ReplyID: 10},
		syncReq{Pattern: "prices.>", From: 5},
		syncReply{Events: []Event{
			{Subject: "prices.IBM", Publisher: 3, Seq: 44, Value: []byte("101.5")},
			{Subject: "prices.DEC", Publisher: 2, Seq: 7, Value: []byte("12")},
		}},
		syncReply{},
	}
}

func TestPubsubWireRoundTrip(t *testing.T) {
	for _, in := range samplePubsubMsgs() {
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

// TestPubsubWireSizeExact pins the size model of every kind this
// package registers to the bytes its encoder writes; control bytes are
// everything but the values.
func TestPubsubWireSizeExact(t *testing.T) {
	covered := map[wire.Kind]bool{}
	for _, in := range samplePubsubMsgs() {
		kind, buf, err := wire.Marshal(in)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", in, err)
		}
		covered[kind] = true
		if n := transport.ApproxSize(in); n != len(buf) {
			t.Errorf("%T: size model %d B, encoding %d B", in, n, len(buf))
		}
	}
	for k := wire.KindPubsub; k < wire.KindPubsub+0x10; k++ {
		if wire.KindName(k) != "" && !covered[k] {
			t.Errorf("kind %#04x (%s) has no sample", uint16(k), wire.KindName(k))
		}
	}
	m := pubMsg{Subject: "s", Value: []byte("12345")}
	if got, want := transport.ControlSize(m), transport.ApproxSize(m)-5; got != want {
		t.Fatalf("control bytes %d, want %d", got, want)
	}
}

func TestPubsubWireRejectsTruncation(t *testing.T) {
	for _, in := range samplePubsubMsgs() {
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

func TestPubsubWireRejectsNonByteValue(t *testing.T) {
	if _, _, err := wire.Marshal(pubMsg{Subject: "s", Value: 42}); err == nil {
		t.Fatal("Marshal of int value succeeded; the wire form is bytes")
	}
}

// TestPubsubWireGoldenBytes pins the varint encoding of every pubsub
// kind: u16-prefixed subjects and patterns, every integer an unsigned
// LEB128 varint (a node id as its int64 bit pattern), the reply flag
// byte, and varint-prefixed values; a sync reply is an event count and
// the events.
func TestPubsubWireGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		msg  any
		hex  string
	}{
		{"publication", pubMsg{Subject: "px", Publisher: 3, Seq: 300, Value: []byte("hi")},
			"02007078" + "03" + "ac02" + "00" + "00" + "00" + "026869"},
		{"request", pubMsg{Subject: "q", Publisher: -1, Seq: 1, Reply: true, ReplyTo: 1, ReplyID: 9},
			"010071" + "ffffffffffffffffff01" + "01" + "01" + "01" + "09" + "00"},
		{"reply", replyMsg{ReplyID: 9, Value: []byte("ans")}, "09" + "03616e73"},
		{"sync request", syncReq{Pattern: "p.>", From: 5}, "0300702e3e" + "05"},
		{"sync reply", syncReply{Events: []Event{
			{Subject: "a", Publisher: 3, Seq: 44, Value: []byte("1")},
			{Subject: "b", Publisher: 2, Seq: 7},
		}}, "02" + "010061" + "03" + "2c" + "0131" + "010062" + "02" + "07" + "00"},
		{"empty sync reply", syncReply{}, "00"},
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

// TestPubsubWireRejectsNonCanonical: each value has one accepted
// encoding, so a decoded message sizes to its frame. A reply flag other
// than 0 or 1 and a padded varint must not decode.
func TestPubsubWireRejectsNonCanonical(t *testing.T) {
	for name, c := range map[string]struct {
		kind wire.Kind
		hex  string
	}{
		"reply flag 2":       {0, "010071" + "01" + "01" + "02" + "00" + "00" + "00"},
		"padded seq":         {0, "010071" + "01" + "8100" + "00" + "00" + "00" + "00"},
		"padded value len":   {1, "09" + "8000"},
		"padded from":        {2, "010071" + "8500"},
		"padded event count": {3, "8000"},
	} {
		buf, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := wire.Unmarshal(wire.KindPubsub+c.kind, buf); err == nil {
			t.Errorf("%s: %x decoded as %+v", name, buf, m)
		}
	}
}

// TestPubsubDecodeAllocationBounded: a short frame whose event count
// or value length claims the wire limit is rejected without allocating
// for it. Every event takes at least five bytes, so the bytes left
// bound the slice.
func TestPubsubDecodeAllocationBounded(t *testing.T) {
	uv := func(v uint64) string { return fmt.Sprintf("%x", binary.AppendUvarint(nil, v)) }
	for name, c := range map[string]struct {
		kind wire.Kind
		hex  string
	}{
		"events": {3, uv(psMaxEvents) + "0000" + "01" + "01" + "00"},
		"value":  {1, "09" + uv(psMaxValue) + "00"},
	} {
		buf, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = wire.Unmarshal(wire.KindPubsub+c.kind, buf)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a %d-byte frame claiming the wire limit decoded", name, len(buf))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d B", name, len(buf), got)
		}
	}
}

func FuzzPubsubWireDecode(f *testing.F) {
	kinds := []wire.Kind{
		wire.KindPubsub + 0, wire.KindPubsub + 1, wire.KindPubsub + 2, wire.KindPubsub + 3,
	}
	for _, in := range samplePubsubMsgs() {
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
