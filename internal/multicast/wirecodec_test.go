package multicast

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"catocs/internal/transport"
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
// form round trip) and size, under the simulator's size model, to
// exactly its frame.
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
		if n := transport.ApproxSize(msg); n != len(buf) {
			t.Fatalf("decoded %T sizes to %d B, its frame is %d B", msg, n, len(buf))
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

// TestAckGoldenBytes pins the ack format: group name, then epoch and
// the sender's rank as varints, the settled flag as one 0/1 byte, and
// the delivered clock as a varint count of varint entries. Any other
// flag value is rejected, which keeps the byte extensible.
func TestAckGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		msg *AckMsg
		hex string
	}{
		{&AckMsg{Group: "g", Epoch: 2, From: 3, Delivered: vclock.VC{1, 0}},
			"010067" + "02" + "03" + "00" + "02" + "01" + "00"},
		{&AckMsg{Group: "g", Epoch: 5, From: 1, Settled: true, Delivered: vclock.VC{9, 9, 300}},
			"010067" + "05" + "01" + "01" + "03" + "09" + "09" + "ac02"},
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
		bad[5] = 2 // the flag byte follows 3 bytes of name and one each of epoch and rank
		if _, err := wire.Unmarshal(kind, bad); err == nil {
			t.Fatalf("ack with flag byte 0x02 decoded successfully")
		}
	}
}

// TestWireGoldenBytes pins the varint encoding of every multicast kind:
// a u16-prefixed group name, then every integer as an unsigned LEB128
// varint, a signed one (a rank, a send time) as its int64 bit pattern.
// A DataMsg runs epoch, sender, seq, send time, payload size, the
// presence-flag byte, the incarnation and clocks it flags, and the
// varint-prefixed payload; a RetransMsg nests one behind its varint
// length.
func TestWireGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		msg  any
		hex  string
	}{
		{"data, full clock",
			&DataMsg{Group: "g", Epoch: 3, Sender: 2, Seq: 17, SentAt: 1500 * time.Millisecond,
				VC: vclock.VC{4, 17, 300}, Payload: []byte("hi"), PayloadSize: 2},
			"010067" + "03" + "02" + "11" + "80dea0cb05" + "02" + "01" +
				"03" + "04" + "11" + "ac02" + "02" + "6869"},
		{"data, delta and stability clock",
			&DataMsg{Group: "g", Epoch: 1, Sender: 1, Seq: 1_000_000, SentAt: 30 * time.Second,
				VCDelta:     []vclock.DeltaEntry{{Idx: 0, Val: 5}, {Idx: 1, Val: 1_000_000}},
				DeliveredVC: vclock.VC{5, 999_999, 0}},
			"010067" + "01" + "01" + "c0843d" + "80d88ee16f" + "00" + "06" +
				"02" + "0005" + "01c0843d" + "03" + "05" + "bf843d" + "00" + "00"},
		{"data, incarnation",
			&DataMsg{Group: "g", Epoch: 4, Inc: 2, Sender: 0, Seq: 1, Payload: []byte{0xab}, PayloadSize: 1},
			"010067" + "04" + "00" + "01" + "00" + "01" + "08" + "02" + "01ab"},
		{"ack",
			&AckMsg{Group: "g", Epoch: 2, From: 3, Delivered: vclock.VC{1, 0}},
			"010067" + "02" + "03" + "00" + "020100"},
		{"nack, negative rank",
			&NackMsg{Group: "g", Epoch: 5, From: -1, Want: []MsgID{{Sender: 1, Seq: 2}, {Sender: 2, Seq: 300}}},
			"010067" + "05" + "ffffffffffffffffff01" + "02" + "0102" + "02ac02"},
		{"order nack",
			&OrderNack{Group: "g", Epoch: 5, From: 2, FromGlobal: 31, Want: []MsgID{{Sender: 0, Seq: 4}}},
			"010067" + "05" + "02" + "1f" + "01" + "0004"},
		{"retrans",
			&RetransMsg{Group: "g", Epoch: 3, Data: &DataMsg{Group: "g", Sender: 1, Seq: 2}},
			"010067" + "03" + "0a" + "010067" + "00" + "01" + "02" + "00" + "00" + "00" + "00"},
		{"order batch",
			&OrderBatchMsg{Group: "g", Epoch: 2, FirstGlobal: 300, IDs: []MsgID{{Sender: 1, Seq: 7}}},
			"010067" + "02" + "ac02" + "01" + "0107"},
	} {
		kind, buf, err := wire.Marshal(c.msg)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", c.name, err)
		}
		if got := fmt.Sprintf("%x", buf); got != c.hex {
			t.Fatalf("%s encodes as\n %s, want\n %s", c.name, got, c.hex)
		}
		out, err := wire.Unmarshal(kind, buf)
		if err != nil || !reflect.DeepEqual(out, c.msg) {
			t.Fatalf("%s: round trip gave %+v, %v", c.name, out, err)
		}
		if n := transport.ApproxSize(out); n != len(buf) {
			t.Fatalf("%s: size model %d B, encoding %d B", c.name, n, len(buf))
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, err := wire.Unmarshal(kind, buf[:cut]); err == nil {
				t.Fatalf("%s truncated to %d/%d bytes decoded successfully", c.name, cut, len(buf))
			}
		}
	}
}

// TestWireRejectsNonCanonical: each value has one accepted encoding, so
// a decoded message's size model is its frame length. A presence flag
// over an empty field, a zero incarnation, a full clock and a delta
// together, or an over-long varint must not decode.
func TestWireRejectsNonCanonical(t *testing.T) {
	head := "010067" + "00" + "00" + "01" + "00" + "00" // group, epoch, sender, seq, sent, size
	for name, h := range map[string]string{
		"empty full clock":    head + "01" + "00" + "00",
		"empty delta":         head + "02" + "00" + "00",
		"empty stability":     head + "04" + "00" + "00",
		"zero incarnation":    head + "08" + "00" + "00",
		"incarnation > 32bit": head + "08" + "8080808010" + "00",
		"clock and delta":     head + "03" + "0101" + "010001" + "00",
		"delta index > 32bit": head + "02" + "01" + "8080808010" + "01" + "00",
		"padded varint":       "010067" + "8000" + "00" + "01" + "00" + "00" + "00" + "00",
	} {
		buf, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := wire.Unmarshal(wire.KindMulticast, buf); err == nil {
			t.Errorf("%s: %x decoded as %+v", name, buf, m)
		}
	}
}

// TestDecodeAllocationBounded: a short frame whose count claims the
// wire limit of entries is rejected without allocating for them. Every
// entry takes at least one byte, so the bytes left bound each
// preallocation.
func TestDecodeAllocationBounded(t *testing.T) {
	uv := func(v uint64) string { return fmt.Sprintf("%x", binary.AppendUvarint(nil, v)) }
	clock, ids := uv(wireMaxVC), uv(wireMaxWant)
	dataHead := "010067" + "00" + "00" + "01" + "00" + "00"
	inner := dataHead + "01" + clock + "01"
	for name, h := range map[string]string{
		"data clock":     dataHead + "01" + clock + "01",
		"data delta":     dataHead + "02" + clock + "0101",
		"data stability": dataHead + "04" + clock + "01",
		"ack":            "010067" + "00" + "00" + "00" + clock + "01",
		"nack":           "010067" + "00" + "00" + ids + "0001",
		"order nack":     "010067" + "00" + "00" + "00" + ids + "0001",
		"order batch":    "010067" + "00" + "00" + ids + "0001",
		"retrans":        "010067" + "00" + uv(uint64(len(inner)/2)) + inner,
	} {
		buf, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		kind := map[string]wire.Kind{"ack": 4, "nack": 5, "order nack": 6, "retrans": 7, "order batch": 8}[name]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = wire.Unmarshal(wire.KindMulticast+kind, buf)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a %d-byte frame claiming the wire limit decoded", name, len(buf))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d B", name, len(buf), got)
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
	w := wire.NewAppendWriter(nil)
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

// decodeDataMsgAllocs bounds a DataMsg decode: the message, its group
// name, clock delta and stability clock, and the interface box. A
// payload copied out of the frame would be a sixth.
const decodeDataMsgAllocs = 5

// TestDecodedPayloadAliasesFrame pins the receive path's saving: the
// two cast-carrying kinds are registered retaining, their decoded
// payload is a slice of the frame (capped, so an append cannot reach
// the bytes after it) and costs no allocation; the control kinds are
// not retaining, so their bodies may be reused at once.
func TestDecodedPayloadAliasesFrame(t *testing.T) {
	data := &DataMsg{
		Group:       "bench",
		Epoch:       3,
		Sender:      1,
		Seq:         1_000_042,
		SentAt:      30*time.Second + 123*time.Microsecond,
		VCDelta:     []vclock.DeltaEntry{{Idx: 0, Val: 999_871}, {Idx: 1, Val: 1_000_042}},
		DeliveredVC: vclock.VC{999_000, 999_001, 999_002},
		Payload:     make([]byte, 8192),
		PayloadSize: 8192,
	}
	for i := range data.Payload.([]byte) {
		data.Payload.([]byte)[i] = byte(i * 7)
	}
	inside := func(p, buf []byte) bool {
		if len(p) == 0 || cap(p) != len(p) {
			return false
		}
		lo, hi := &buf[0], &buf[len(buf)-1]
		first, last := &p[0], &p[len(p)-1]
		return uintptr(unsafe.Pointer(lo)) <= uintptr(unsafe.Pointer(first)) &&
			uintptr(unsafe.Pointer(last)) <= uintptr(unsafe.Pointer(hi))
	}
	for _, msg := range []any{data, &RetransMsg{Group: "bench", Epoch: 3, Data: data}} {
		kind, buf, err := wire.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := wire.Unmarshal(kind, buf)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := out.(*DataMsg)
		if r, ok := out.(*RetransMsg); ok {
			got = r.Data
		}
		if p, _ := got.Payload.([]byte); !inside(p, buf) || !reflect.DeepEqual(got.Payload, data.Payload) {
			t.Errorf("%T: decoded payload does not alias the frame it was read from", msg)
		}
	}
	kind, buf, err := wire.Marshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := wire.Unmarshal(kind, buf); err != nil {
			t.Fatal(err)
		}
	}); avg > decodeDataMsgAllocs {
		t.Errorf("a DataMsg decode allocates %.1f times, want at most %d", avg, decodeDataMsgAllocs)
	}
	for _, msg := range sampleMsgs() {
		kind, _, err := wire.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		_, isData := msg.(*DataMsg)
		_, isRetrans := msg.(*RetransMsg)
		if wire.Retains(kind) != (isData || isRetrans) {
			t.Errorf("%T: registered retaining = %v", msg, wire.Retains(kind))
		}
	}
}
