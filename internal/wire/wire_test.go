package wire_test

import (
	"bytes"
	"fmt"
	"testing"

	"catocs/internal/wire"
)

// localMsg is a test-only registered type.
type localMsg struct {
	A uint64
	B string
	C []byte
}

func init() {
	wire.Register(0xF000, localMsg{},
		func(payload any) ([]byte, error) {
			m := payload.(localMsg)
			w := wire.NewWriter(32)
			w.U64(m.A)
			w.String(m.B)
			w.Bytes32(m.C)
			return w.Bytes(), nil
		},
		func(buf []byte) (any, error) {
			r := wire.NewReader(buf)
			m := localMsg{A: r.U64(), B: r.String(1 << 10)}
			m.C = r.Bytes32(1 << 20)
			if err := r.Finish("localMsg"); err != nil {
				return nil, err
			}
			return m, nil
		})
}

func TestMarshalRoundTrip(t *testing.T) {
	in := localMsg{A: 42, B: "subject", C: []byte{1, 2, 3}}
	kind, buf, err := wire.Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if kind != 0xF000 {
		t.Fatalf("kind = %#04x, want 0xF000", uint16(kind))
	}
	out, err := wire.Unmarshal(kind, buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	got := out.(localMsg)
	if got.A != in.A || got.B != in.B || !bytes.Equal(got.C, in.C) {
		t.Fatalf("round trip: got %+v, want %+v", got, in)
	}
}

func TestMarshalUnregistered(t *testing.T) {
	type orphan struct{ X int }
	if _, _, err := wire.Marshal(orphan{}); err == nil {
		t.Fatal("Marshal of unregistered type succeeded")
	}
	if wire.Registered(orphan{}) {
		t.Fatal("Registered(orphan) = true")
	}
	if !wire.Registered(localMsg{}) {
		t.Fatal("Registered(localMsg) = false")
	}
}

func TestUnmarshalUnknownKind(t *testing.T) {
	if _, err := wire.Unmarshal(0xEEEE, []byte{1}); err == nil {
		t.Fatal("Unmarshal of unknown kind succeeded")
	}
}

func TestUnmarshalTruncatedAndTrailing(t *testing.T) {
	_, buf, err := wire.Marshal(localMsg{A: 7, B: "x", C: []byte("yz")})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := wire.Unmarshal(0xF000, buf[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	if _, err := wire.Unmarshal(0xF000, append(append([]byte(nil), buf...), 0)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
}

func TestEncodedSize(t *testing.T) {
	m := localMsg{A: 1, B: "ab", C: []byte{9}}
	n, ok := wire.EncodedSize(m)
	if !ok {
		t.Fatal("EncodedSize not ok for registered type")
	}
	_, buf, _ := wire.Marshal(m)
	if n != len(buf) {
		t.Fatalf("EncodedSize = %d, want %d", n, len(buf))
	}
	if _, ok := wire.EncodedSize(struct{ Q int }{}); ok {
		t.Fatal("EncodedSize ok for unregistered type")
	}
}

func TestReaderSticky(t *testing.T) {
	r := wire.NewReader([]byte{1, 2})
	if got := r.U32(); got != 0 {
		t.Fatalf("short U32 = %d, want 0", got)
	}
	if !r.Err() {
		t.Fatal("reader not in error state after short read")
	}
	if got := r.U64(); got != 0 {
		t.Fatalf("read after error = %d, want 0", got)
	}
	if r.Done() {
		t.Fatal("Done() true on errored reader")
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	for _, c := range []struct {
		v   uint64
		hex string
	}{
		{0, "00"},
		{127, "7f"},
		{128, "8001"},
		{1<<64 - 1, "ffffffffffffffffff01"},
	} {
		var w wire.Writer
		w.Uvarint(c.v)
		if got := fmt.Sprintf("%x", w.Bytes()); got != c.hex {
			t.Fatalf("Uvarint(%d) = %s, want %s", c.v, got, c.hex)
		}
		r := wire.NewReader(w.Bytes())
		if got := r.Uvarint(); got != c.v || !r.Done() {
			t.Fatalf("Uvarint round trip of %d: got %d, done=%v", c.v, got, r.Done())
		}
	}
}

func TestUvarintRejectsMalformed(t *testing.T) {
	for _, c := range []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"truncated", []byte{0x80, 0x80}},
		{"11-byte overlong", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}},
		{"10-byte overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
		{"non-minimal", []byte{0x80, 0x00}},
	} {
		r := wire.NewReader(c.buf)
		if got := r.Uvarint(); got != 0 || !r.Err() {
			t.Fatalf("%s: Uvarint = %d, err=%v; want 0 and a sticky error", c.name, got, r.Err())
		}
		if got := r.U8(); got != 0 || !r.Err() {
			t.Fatalf("%s: read after a rejected varint = %d, want the sticky error", c.name, got)
		}
	}
}

func TestReaderBoolRejectsJunk(t *testing.T) {
	r := wire.NewReader([]byte{2})
	r.Bool()
	if !r.Err() {
		t.Fatal("Bool accepted flag byte 2")
	}
}
