package mgcast

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wire"
)

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	buf, err := Encode(msg)
	if err != nil {
		t.Fatalf("Encode(%#v): %v", msg, err)
	}
	out, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode(Encode(%#v)): %v", msg, err)
	}
	return out
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []any{
		&DataMsg{Sender: 3, Seq: 17, Groups: []string{"A", "B", "payroll"},
			SentAt: 1500 * time.Millisecond, Payload: []byte("hello"), PayloadSize: 5, Retrans: true},
		&DataMsg{Sender: 0, Seq: 1}, // no groups, nil payload
		&DataMsg{Sender: 12, Seq: 9, Groups: []string{""}, Payload: []byte{}, PayloadSize: 0},
		&ProposeMsg{ID: MsgID{Sender: 1, Seq: 2}, From: 4, Priority: vclock.Stamp{Time: 88, Proc: 4}},
		&CommitMsg{ID: MsgID{Sender: 5, Seq: 1 << 40}, Priority: vclock.Stamp{Time: 1, Proc: 0}},
		&AckMsg{ID: MsgID{Sender: 2, Seq: 3}, From: 7},
	}
	for _, msg := range cases {
		got := roundTrip(t, msg)
		// An encoded empty payload decodes to nil; normalize for compare.
		if dm, ok := msg.(*DataMsg); ok {
			want := *dm
			if b, ok := want.Payload.([]byte); ok && len(b) == 0 {
				want.Payload = nil
			}
			if !reflect.DeepEqual(got, &want) {
				t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, &want)
			}
			continue
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, msg)
		}
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	good, err := Encode(&DataMsg{Sender: 1, Seq: 2, Groups: []string{"A"}, Payload: []byte("xy"), PayloadSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,                // empty
		{0xff},             // unknown type
		good[:len(good)-1], // truncated payload
		append(good[:0:0], append(append([]byte{}, good...), 0)...), // trailing byte
		{wirePropose, 1, 2, 3}, // truncated propose
		{wireCommit},           // bare header
	}
	for i, buf := range bad {
		if _, err := Decode(buf); err == nil {
			t.Errorf("case %d: Decode(%x) accepted malformed input", i, buf)
		}
	}
	// A group-count prefix far beyond the remaining bytes must error,
	// not allocate or loop.
	huge := append([]byte{wireData}, make([]byte, 21)...) // id+sentat+size+flags
	huge = append(huge, 0xff, 0xff)                       // 65535 groups
	if _, err := Decode(huge); err == nil {
		t.Errorf("Decode accepted absurd group count")
	}
}

func TestCodecRejectsNonByteSlicePayload(t *testing.T) {
	if _, err := Encode(&DataMsg{Sender: 1, Seq: 1, Payload: 42}); err == nil {
		t.Fatal("Encode accepted an int payload")
	}
}

// FuzzCodecRoundTrip attacks the parse path: arbitrary bytes must never
// panic, and anything that decodes must re-encode to the identical wire
// form (decode∘encode is the identity on valid messages).
func FuzzCodecRoundTrip(f *testing.F) {
	seeds := []any{
		&DataMsg{Sender: 3, Seq: 17, Groups: []string{"A", "B"}, SentAt: time.Second,
			Payload: []byte("corpus"), PayloadSize: 6},
		&ProposeMsg{ID: MsgID{Sender: 1, Seq: 2}, From: 4, Priority: vclock.Stamp{Time: 9, Proc: 4}},
		&CommitMsg{ID: MsgID{Sender: 5, Seq: 6}, Priority: vclock.Stamp{Time: 10, Proc: 2}},
		&AckMsg{ID: MsgID{Sender: 2, Seq: 3}, From: 7},
	}
	for _, msg := range seeds {
		buf, err := Encode(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return // malformed input rejected: fine
		}
		re, err := Encode(msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v (%#v)", err, msg)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x\n msg %#v", data, re, msg)
		}
		if n := transport.ApproxSize(msg); n != len(data) {
			t.Fatalf("decoded %T sizes to %d B, its frame is %d B", msg, n, len(data))
		}
	})
}

// TestCodecSizeExact pins the size model of every kind this package
// registers to the bytes its encoder writes, and charges an in-process
// payload as PayloadSize bytes.
func TestCodecSizeExact(t *testing.T) {
	covered := map[wire.Kind]bool{}
	for _, in := range []any{
		&DataMsg{Sender: 3, Seq: 17, Groups: []string{"A", "payroll"}, Payload: []byte("hello"), PayloadSize: 5},
		&DataMsg{Sender: 0, Seq: 1},
		&ProposeMsg{ID: MsgID{Sender: 1, Seq: 2}, From: 4, Priority: vclock.Stamp{Time: 9, Proc: 4}},
		&CommitMsg{ID: MsgID{Sender: 5, Seq: 6}, Priority: vclock.Stamp{Time: 10, Proc: 2}},
		&AckMsg{ID: MsgID{Sender: 2, Seq: 3}, From: 7},
	} {
		kind, buf, err := wire.Marshal(in)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", in, err)
		}
		covered[kind] = true
		if n := transport.ApproxSize(in); n != len(buf) {
			t.Errorf("%T: size model %d B, encoding %d B", in, n, len(buf))
		}
	}
	for k := wire.KindMGCast; k < wire.KindMGCast+0x10; k++ {
		if wire.KindName(k) != "" && !covered[k] {
			t.Errorf("kind %#04x (%s) has no sample", uint16(k), wire.KindName(k))
		}
	}
	value := &DataMsg{Groups: []string{"A"}, Payload: 7, PayloadSize: 100}
	twin := &DataMsg{Groups: []string{"A"}, Payload: make([]byte, 100), PayloadSize: 100}
	if a, b := transport.ApproxSize(twin), transport.ApproxSize(value); a != b {
		t.Fatalf("in-process payload charged %d B, its []byte twin %d B", b, a)
	}
	if got, want := transport.ControlSize(value), transport.ApproxSize(value)-100; got != want {
		t.Fatalf("control bytes %d, want %d", got, want)
	}
}

// TestCodecGoldenBytes pins the external format: one fixed value of
// each message type and its exact encoding. The bytes were taken from
// the codec as first written; a change here is a wire-format change.
func TestCodecGoldenBytes(t *testing.T) {
	cases := []struct {
		msg any
		hex string
	}{
		{&DataMsg{Sender: 3, Seq: 17, Groups: []string{"A", "payroll"},
			SentAt: 1500 * time.Millisecond, Payload: []byte("hello"), PayloadSize: 5, Retrans: true},
			"0103000000000000001100000000000000002f685900000000050000000102000100410700706179726f6c6c0500000068656c6c6f"},
		{&ProposeMsg{ID: MsgID{Sender: 1, Seq: 2}, From: 4, Priority: vclock.Stamp{Time: 88, Proc: 4}},
			"0201000000000000000200000000000000040000000000000058000000000000000400000000000000"},
		{&CommitMsg{ID: MsgID{Sender: 5, Seq: 1 << 40}, Priority: vclock.Stamp{Time: 1, Proc: 0}},
			"030500000000000000000000000001000001000000000000000000000000000000"},
		{&AckMsg{ID: MsgID{Sender: 2, Seq: 3}, From: 7},
			"04020000000000000003000000000000000700000000000000"},
	}
	for _, c := range cases {
		buf, err := Encode(c.msg)
		if err != nil {
			t.Fatalf("Encode(%#v): %v", c.msg, err)
		}
		if got := hex.EncodeToString(buf); got != c.hex {
			t.Errorf("%T encodes to\n got %s\nwant %s", c.msg, got, c.hex)
		}
		want, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(want)
		if err != nil {
			t.Fatalf("Decode(%s): %v", c.hex, err)
		}
		if !reflect.DeepEqual(got, c.msg) {
			t.Errorf("%s decodes to\n got %#v\nwant %#v", c.hex, got, c.msg)
		}
	}
}
