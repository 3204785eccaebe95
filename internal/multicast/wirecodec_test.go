package multicast

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"catocs/internal/vclock"
	"catocs/internal/wire"
)

// sampleMsgs is one of each wire type with representative field
// values, including the edge cases (nil payload, empty VC, empty want
// list).
func sampleMsgs() []any {
	data := &DataMsg{
		Group:       "g",
		Epoch:       3,
		Sender:      2,
		Seq:         17,
		VC:          vclock.VC{4, 17, 9},
		SentAt:      1500 * time.Millisecond,
		DeliveredVC: vclock.VC{4, 16, 9},
		Payload:     []byte("payload-bytes"),
		PayloadSize: 13,
	}
	return []any{
		data,
		&DataMsg{Group: "g2", Sender: 0, Seq: 1},
		&OrderBatchMsg{Group: "g", Epoch: 1, FirstGlobal: 88, IDs: []MsgID{{Sender: 1, Seq: 7}, {Sender: 0, Seq: 3}}},
		&AckMsg{Group: "g", Epoch: 5, From: 1, Delivered: vclock.VC{9, 9, 2}},
		&AckMsg{Group: "g", Epoch: 5, From: 2, Settled: true, Delivered: vclock.VC{9, 9, 2}},
		&NackMsg{Group: "g", Epoch: 5, From: 0, Want: []MsgID{{Sender: 1, Seq: 2}, {Sender: 2, Seq: 8}}},
		&NackMsg{Group: "g", Epoch: 5, From: 0},
		&OrderNack{Group: "g", Epoch: 5, From: 2, FromGlobal: 31, Want: []MsgID{{Sender: 0, Seq: 4}}},
		&RetransMsg{Group: "g", Epoch: 3, Data: data},
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, in := range sampleMsgs() {
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

func TestWireRejectsTruncation(t *testing.T) {
	for _, in := range sampleMsgs() {
		kind, buf, err := wire.Marshal(in)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", in, err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, err := wire.Unmarshal(kind, buf[:cut]); err == nil {
				t.Fatalf("%T truncated to %d/%d bytes decoded successfully", in, cut, len(buf))
			}
		}
		if _, err := wire.Unmarshal(kind, append(append([]byte(nil), buf...), 0xFF)); err == nil {
			t.Fatalf("%T with trailing garbage decoded successfully", in)
		}
	}
}

// Well-formed bodies of the retired agreement-mode frames, as the last
// encoder wrote them: a proposal (KindMulticast+2) for message 3:9 at
// priority 41.3 and a commit (+3) of it at 44.1, both in group "g",
// epoch 2.
const (
	retiredProposeHex = "01006702000000000000000300000000000000090000000000000029000000000000000300000000000000"
	retiredCommitHex  = "0100670200000000000000030000000000000009000000000000002c000000000000000100000000000000"
)

// TestWireRejectsRetiredKinds pins that retired kinds stay unassigned:
// a stale frame of a deleted message type fails to decode instead of
// being misread as a live one. +1 carried single order assignments;
// +2 and +3 the agreement mode's proposals and commits.
func TestWireRejectsRetiredKinds(t *testing.T) {
	var bodies [][]byte
	for _, h := range []string{retiredProposeHex, retiredCommitHex} {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	if _, err := wire.Unmarshal(wire.KindMulticast+2, bodies[0]); err == nil {
		t.Error("retired proposal frame (KindMulticast+2) decoded")
	}
	if _, err := wire.Unmarshal(wire.KindMulticast+3, bodies[1]); err == nil {
		t.Error("retired commit frame (KindMulticast+3) decoded")
	}
	bodies = append(bodies, nil)
	for _, in := range sampleMsgs() {
		_, buf, err := wire.Marshal(in)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", in, err)
		}
		bodies = append(bodies, buf)
	}
	for _, b := range bodies {
		if _, err := wire.Unmarshal(wire.KindMulticast+1, b); err == nil {
			t.Errorf("body %x decoded under KindMulticast+1", b)
		}
	}
}

func TestWireRejectsNonByteSlicePayload(t *testing.T) {
	m := &DataMsg{Group: "g", Sender: 1, Seq: 1, Payload: "a string"}
	if _, _, err := wire.Marshal(m); err == nil {
		t.Fatal("Marshal of string payload succeeded; the wire form is bytes")
	}
}

// FuzzWireDecode attacks every multicast kind, the unassigned +1..+3
// included, with arbitrary bytes: no input may panic, and any input
// that decodes must re-encode and decode to the same value (canonical
// form round trip).
func FuzzWireDecode(f *testing.F) {
	const kinds = 9 // KindMulticast+0 .. +8
	for _, in := range sampleMsgs() {
		kind, buf, err := wire.Marshal(in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint16(kind-wire.KindMulticast), buf)
	}
	for i, h := range []string{retiredProposeHex, retiredCommitHex} {
		buf, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint16(2+i), buf)
	}
	f.Add(uint16(3), []byte{0, 0, 1})
	f.Fuzz(func(t *testing.T, kindSel uint16, buf []byte) {
		kind := wire.KindMulticast + wire.Kind(kindSel%kinds)
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
		if !bytes.Equal(buf, buf2) && reflect.DeepEqual(msg, msg2) {
			// Non-canonical inputs (e.g. empty-vs-nil slices) are fine as
			// long as the value is stable; nothing to assert.
			_ = msg2
		}
	})
}

// TestOrderBatchGoldenBytes pins the varint run format: group name,
// then epoch, first global position, count and each id's sender and
// sequence as unsigned LEB128 varints.
func TestOrderBatchGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		msg *OrderBatchMsg
		hex string
	}{
		{&OrderBatchMsg{Group: "g", Epoch: 2, FirstGlobal: 300, IDs: []MsgID{{Sender: 1, Seq: 7}}},
			"010067" + "02" + "ac02" + "01" + "0107"},
		{&OrderBatchMsg{Group: "g", Epoch: 1, FirstGlobal: 129, IDs: []MsgID{{Sender: 0, Seq: 1}, {Sender: 2, Seq: 200}, {Sender: 1, Seq: 16384}}},
			"010067" + "01" + "8101" + "03" + "0001" + "02c801" + "01808001"},
	} {
		kind, buf, err := wire.Marshal(c.msg)
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", c.msg, err)
		}
		if got := fmt.Sprintf("%x", buf); got != c.hex {
			t.Fatalf("%d-id run encodes as %s, want %s", len(c.msg.IDs), got, c.hex)
		}
		out, err := wire.Unmarshal(kind, buf)
		if err != nil || !reflect.DeepEqual(out, c.msg) {
			t.Fatalf("round trip of %+v: %+v, %v", c.msg, out, err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, err := wire.Unmarshal(kind, buf[:cut]); err == nil {
				t.Fatalf("%d-id run truncated to %d/%d bytes decoded successfully", len(c.msg.IDs), cut, len(buf))
			}
		}
	}
}

// TestAckGoldenBytes pins the ack format: group name, epoch, the
// sender's rank, the settled flag as one 0/1 byte, and the delivered
// clock as a u32 count of u64 entries. Any other flag value is rejected,
// which keeps the byte extensible.
func TestAckGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		msg *AckMsg
		hex string
	}{
		{&AckMsg{Group: "g", Epoch: 2, From: 3, Delivered: vclock.VC{1, 0}},
			"010067" + "0200000000000000" + "0300000000000000" + "00" +
				"02000000" + "0100000000000000" + "0000000000000000"},
		{&AckMsg{Group: "g", Epoch: 5, From: 1, Settled: true, Delivered: vclock.VC{9, 9, 2}},
			"010067" + "0500000000000000" + "0100000000000000" + "01" +
				"03000000" + "0900000000000000" + "0900000000000000" + "0200000000000000"},
	} {
		kind, buf, err := wire.Marshal(c.msg)
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", c.msg, err)
		}
		if got := fmt.Sprintf("%x", buf); got != c.hex {
			t.Fatalf("settled=%v ack encodes as %s, want %s", c.msg.Settled, got, c.hex)
		}
		out, err := wire.Unmarshal(kind, buf)
		if err != nil || !reflect.DeepEqual(out, c.msg) {
			t.Fatalf("round trip of %+v: %+v, %v", c.msg, out, err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, err := wire.Unmarshal(kind, buf[:cut]); err == nil {
				t.Fatalf("settled=%v ack truncated to %d/%d bytes decoded successfully", c.msg.Settled, cut, len(buf))
			}
		}
		bad := append([]byte(nil), buf...)
		bad[19] = 2 // the flag byte follows 3 bytes of name and 16 of epoch and rank
		if _, err := wire.Unmarshal(kind, bad); err == nil {
			t.Fatalf("ack with flag byte 0x02 decoded successfully")
		}
	}
}

// TestOrderBatchRejectsOversizedCount checks the wireMaxWant guard on
// both sides of the codec, even when the frame holds enough bytes for
// the claimed count.
func TestOrderBatchRejectsOversizedCount(t *testing.T) {
	big := &OrderBatchMsg{Group: "g", IDs: make([]MsgID, wireMaxWant+1)}
	if _, _, err := wire.Marshal(big); err == nil {
		t.Fatalf("Marshal of a %d-id run succeeded", len(big.IDs))
	}
	w := wire.NewWriter(0)
	w.String("g")
	w.Uvarint(0)
	w.Uvarint(1)
	w.Uvarint(wireMaxWant + 1)
	for i := 0; i <= wireMaxWant; i++ {
		w.Uvarint(0)
		w.Uvarint(1)
	}
	if _, err := wire.Unmarshal(wire.KindMulticast+8, w.Bytes()); err == nil {
		t.Fatalf("decode of a run claiming %d ids succeeded", wireMaxWant+1)
	}
}
