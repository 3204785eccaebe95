package pubsub

import (
	"reflect"
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
