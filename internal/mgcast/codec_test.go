package mgcast

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wire"
)

// kinds are the four registered mgcast kinds, in DataMsg, ProposeMsg,
// CommitMsg, AckMsg order.
var kinds = []wire.Kind{wire.KindMGCast + 0, wire.KindMGCast + 1, wire.KindMGCast + 2, wire.KindMGCast + 3}

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	kind, buf, err := wire.Marshal(msg)
	if err != nil {
		t.Fatalf("Marshal(%#v): %v", msg, err)
	}
	out, err := wire.Unmarshal(kind, buf)
	if err != nil {
		t.Fatalf("Unmarshal(Marshal(%#v)): %v", msg, err)
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
	_, good, err := wire.Marshal(&DataMsg{Sender: 1, Seq: 2, Groups: []string{"A"}, Payload: []byte("xy"), PayloadSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		kind wire.Kind
		buf  []byte
	}{
		{kinds[0], nil},                                  // empty
		{kinds[0], good[:len(good)-1]},                   // truncated payload
		{kinds[0], append(append([]byte{}, good...), 0)}, // trailing byte
		{kinds[1], []byte{1, 2, 3}},                      // truncated propose
		{kinds[2], nil},                                  // empty commit
		{kinds[3], []byte{2, 3, 7, 0}},                   // ack with a trailing byte
	} {
		if _, err := wire.Unmarshal(c.kind, c.buf); err == nil {
			t.Errorf("case %d: kind %#04x accepted malformed input %x", i, uint16(c.kind), c.buf)
		}
	}
}

func TestCodecRejectsNonByteSlicePayload(t *testing.T) {
	if _, _, err := wire.Marshal(&DataMsg{Sender: 1, Seq: 1, Payload: 42}); err == nil {
		t.Fatal("Marshal accepted an int payload")
	}
}

// FuzzCodecRoundTrip attacks the parse path of every kind: arbitrary
// bytes must never panic, and anything that decodes under a kind must
// re-encode to the identical frame (decode∘encode is the identity on
// valid messages) and size to its length.
func FuzzCodecRoundTrip(f *testing.F) {
	seeds := []any{
		&DataMsg{Sender: 3, Seq: 17, Groups: []string{"A", "B"}, SentAt: time.Second,
			Payload: []byte("corpus"), PayloadSize: 6},
		&ProposeMsg{ID: MsgID{Sender: 1, Seq: 2}, From: 4, Priority: vclock.Stamp{Time: 9, Proc: 4}},
		&CommitMsg{ID: MsgID{Sender: 5, Seq: 6}, Priority: vclock.Stamp{Time: 10, Proc: 2}},
		&AckMsg{ID: MsgID{Sender: 2, Seq: 3}, From: 7},
	}
	for _, msg := range seeds {
		_, buf, err := wire.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range kinds {
			msg, err := wire.Unmarshal(kind, data)
			if err != nil {
				continue // malformed input rejected: fine
			}
			kind2, re, err := wire.Marshal(msg)
			if err != nil {
				t.Fatalf("decoded message failed to re-encode: %v (%#v)", err, msg)
			}
			if kind2 != kind || !bytes.Equal(re, data) {
				t.Fatalf("re-encode mismatch under kind %#04x:\n in  %x\n out %x (kind %#04x)\n msg %#v",
					uint16(kind), data, re, uint16(kind2), msg)
			}
			if n := transport.ApproxSize(msg); n != len(data) {
				t.Fatalf("decoded %T sizes to %d B, its frame is %d B", msg, n, len(data))
			}
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
// each message type and its exact encoding — every integer a varint (a
// process id as its int64 bit pattern), a DataMsg's flag byte, group
// count, u16-prefixed names and varint-prefixed payload. A change here
// is a wire-format change.
func TestCodecGoldenBytes(t *testing.T) {
	cases := []struct {
		msg any
		hex string
	}{
		{&DataMsg{Sender: 3, Seq: 17, Groups: []string{"A", "payroll"},
			SentAt: 1500 * time.Millisecond, Payload: []byte("hello"), PayloadSize: 5, Retrans: true},
			"03" + "11" + "80dea0cb05" + "05" + "01" + "02" + "010041" + "0700706179726f6c6c" + "0568656c6c6f"},
		{&ProposeMsg{ID: MsgID{Sender: 1, Seq: 2}, From: 4, Priority: vclock.Stamp{Time: 88, Proc: 4}},
			"01" + "02" + "04" + "58" + "04"},
		{&CommitMsg{ID: MsgID{Sender: 5, Seq: 1 << 40}, Priority: vclock.Stamp{Time: 1, Proc: 0}},
			"05" + "808080808020" + "01" + "00"},
		{&AckMsg{ID: MsgID{Sender: -1, Seq: 3}, From: 7},
			"ffffffffffffffffff01" + "03" + "07"},
	}
	for _, c := range cases {
		kind, buf, err := wire.Marshal(c.msg)
		if err != nil {
			t.Fatalf("Marshal(%#v): %v", c.msg, err)
		}
		if got := hex.EncodeToString(buf); got != c.hex {
			t.Errorf("%T encodes to\n got %s\nwant %s", c.msg, got, c.hex)
		}
		got, err := wire.Unmarshal(kind, buf)
		if err != nil {
			t.Fatalf("Unmarshal(%s): %v", c.hex, err)
		}
		if !reflect.DeepEqual(got, c.msg) {
			t.Errorf("%s decodes to\n got %#v\nwant %#v", c.hex, got, c.msg)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, err := wire.Unmarshal(kind, buf[:cut]); err == nil {
				t.Fatalf("%T truncated to %d/%d bytes decoded successfully", c.msg, cut, len(buf))
			}
		}
	}
}

// TestCodecRejectsNonCanonical: each value has one accepted encoding,
// so a decoded message sizes to its frame. A flag byte other than 0 or
// 1 and a padded varint must not decode.
func TestCodecRejectsNonCanonical(t *testing.T) {
	for name, c := range map[string]struct {
		kind wire.Kind
		hex  string
	}{
		"retrans flag 2":      {kinds[0], "01" + "01" + "00" + "00" + "02" + "00" + "00"},
		"padded seq":          {kinds[0], "01" + "8100" + "00" + "00" + "00" + "00" + "00"},
		"padded group count":  {kinds[0], "01" + "01" + "00" + "00" + "00" + "8000" + "00"},
		"padded payload size": {kinds[0], "01" + "01" + "00" + "00" + "00" + "00" + "8000"},
		"padded proposer":     {kinds[1], "01" + "02" + "8400" + "58" + "04"},
		"padded stamp":        {kinds[2], "01" + "02" + "d800" + "04"},
		"padded ack sender":   {kinds[3], "8200" + "03" + "07"},
	} {
		buf, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := wire.Unmarshal(c.kind, buf); err == nil {
			t.Errorf("%s: %x decoded as %+v", name, buf, m)
		}
	}
}

// TestCodecDecodeAllocationBounded: a short frame whose group count or
// payload length claims the wire limit is rejected without allocating
// for it. Every name takes at least two bytes, so the bytes left bound
// the destination list.
func TestCodecDecodeAllocationBounded(t *testing.T) {
	uv := func(v uint64) string { return fmt.Sprintf("%x", binary.AppendUvarint(nil, v)) }
	head := "01" + "01" + "00" + "00" + "00"
	for name, h := range map[string]string{
		"groups":  head + uv(maxGroups) + "0100410100",
		"payload": head + "00" + uv(maxPayload) + "00",
	} {
		buf, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = wire.Unmarshal(kinds[0], buf)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a %d-byte frame claiming the wire limit decoded", name, len(buf))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d B", name, len(buf), got)
		}
	}
}
