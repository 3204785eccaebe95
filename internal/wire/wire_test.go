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
		func(dst []byte, payload any) ([]byte, error) {
			m := payload.(localMsg)
			w := wire.NewAppendWriter(dst)
			w.Uvarint(m.A)
			w.String(m.B)
			w.BytesVar(m.C)
			return w.Bytes(), nil
		},
		func(buf []byte) (any, error) {
			r := wire.NewReader(buf)
			m := localMsg{A: r.Uvarint(), B: r.String(1 << 10)}
			m.C = r.BytesVar(1 << 20)
			if err := r.Finish("localMsg"); err != nil {
				return nil, err
			}
			return m, nil
		},
		func(payload any) (int, int) {
			m := payload.(localMsg)
			return wire.UvarintLen(m.A) + wire.StringLen(m.B) + wire.BytesVarLen(len(m.C)), len(m.C)
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

// TestUnmarshalUnknownKind covers the three unknown shapes of the
// kind index: the reserved kind 0, a gap between registered kinds, and
// a kind past the highest registered one.
func TestUnmarshalUnknownKind(t *testing.T) {
	for _, k := range []wire.Kind{wire.KindReserved, 0xEEEE, 0xFFFF} {
		if _, err := wire.Unmarshal(k, []byte{1}); err == nil {
			t.Errorf("Unmarshal of unknown kind 0x%04x succeeded", uint16(k))
		}
		if wire.Retains(k) || wire.KindName(k) != "" {
			t.Errorf("unknown kind 0x%04x reports Retains or a name", uint16(k))
		}
	}
}

// TestRegisterDuplicateKindPanics pins that a kind cannot be registered
// twice, also for a second type.
func TestRegisterDuplicateKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering kind 0xF000 twice did not panic")
		}
	}()
	type other struct{}
	wire.Register(0xF000, other{}, func(dst []byte, _ any) ([]byte, error) { return dst, nil },
		func([]byte) (any, error) { return other{}, nil }, func(any) (int, int) { return 0, 0 })
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
	if got := r.Take(4); got != nil {
		t.Fatalf("short Take = %x, want nil", got)
	}
	if !r.Err() {
		t.Fatal("reader not in error state after short read")
	}
	if got := r.Uvarint(); got != 0 {
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

// TestUvarintEveryLength decodes a value at each boundary of each
// encoded length, alone and followed by more input (the unrolled
// short-value paths need four bytes in hand), through Uvarint and
// Uvarints, and checks UvarintLen against the encoding.
func TestUvarintEveryLength(t *testing.T) {
	var vals []uint64
	for k := 1; k < 64; k += 7 {
		vals = append(vals, 1<<k-1, 1<<k) // the largest k-bit value and the next
	}
	vals = append(vals, 0, 1<<64-1)
	for _, v := range vals {
		var w wire.Writer
		w.Uvarint(v)
		enc := w.Bytes()
		if n := wire.UvarintLen(v); n != len(enc) {
			t.Fatalf("UvarintLen(%d) = %d, encoding has %d bytes", v, n, len(enc))
		}
		for _, tail := range [][]byte{nil, {1, 2, 3, 4, 5, 6, 7, 8}} {
			buf := append(append([]byte(nil), enc...), tail...)
			r := wire.NewReader(buf)
			if got := r.Uvarint(); got != v || r.Err() || len(r.Rest()) != len(tail) {
				t.Fatalf("Uvarint of %x = %d (err %v, %d left), want %d", buf, got, r.Err(), len(r.Rest()), v)
			}
			dst := make([]uint64, 1)
			r = wire.NewReader(buf)
			if r.Uvarints(dst); dst[0] != v || r.Err() || len(r.Rest()) != len(tail) {
				t.Fatalf("Uvarints of %x = %d (err %v), want %d", buf, dst[0], r.Err(), v)
			}
			// The same value padded with a trailing zero byte is rejected.
			pad := append(append(append([]byte(nil), enc...), 0), tail...)
			pad[len(enc)-1] |= 0x80
			if len(enc) < 10 {
				if r := wire.NewReader(pad); r.Uvarint() != 0 || !r.Err() {
					t.Fatalf("padded %x accepted by Uvarint", pad)
				}
				r := wire.NewReader(pad)
				if r.Uvarints(dst); !r.Err() || dst[0] != 0 {
					t.Fatalf("padded %x accepted by Uvarints", pad)
				}
			}
		}
	}
}

func TestSizeModel(t *testing.T) {
	m := localMsg{A: 1, B: "abc", C: []byte{9, 8}}
	n, app, ok := wire.Size(m)
	_, buf, _ := wire.Marshal(m)
	if !ok || n != len(buf) || app != 2 {
		t.Fatalf("Size = %d, %d, %v; want %d, 2, true", n, app, ok, len(buf))
	}
	if _, _, ok := wire.Size(struct{ Q int }{}); ok {
		t.Fatal("Size ok for an unregistered type")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a kind without a size model did not panic")
		}
	}()
	type unsized struct{}
	wire.Register(0xF001, unsized{}, func(dst []byte, _ any) ([]byte, error) { return dst, nil },
		func([]byte) (any, error) { return unsized{}, nil }, nil)
}

// TestBytesVarAliasAndCopy pins the two payload reads: BytesVar hands
// out a copy the input may be reused under, BytesVarAlias a slice of
// the input whose capacity ends with it, so an append to it cannot
// overwrite the bytes that follow. Only RegisterRetaining kinds report
// Retains.
func TestBytesVarAliasAndCopy(t *testing.T) {
	w := wire.NewAppendWriter(nil)
	w.BytesVar([]byte("abc"))
	w.U8(0xEE)
	buf := w.Bytes()

	copied := wire.NewReader(buf).BytesVar(8)
	r := wire.NewReader(buf)
	aliased := r.BytesVarAlias(8)
	if r.U8() != 0xEE || !r.Done() {
		t.Fatal("BytesVarAlias consumed the wrong number of bytes")
	}
	if cap(aliased) != len(aliased) {
		t.Fatalf("aliased slice has capacity %d past its %d bytes", cap(aliased), len(aliased))
	}
	_ = append(aliased, 0)
	buf[1] = 'X'
	if string(aliased) != "Xbc" || string(copied) != "abc" || buf[len(buf)-1] != 0xEE {
		t.Fatalf("aliased %q, copied %q, trailing byte %#x", aliased, copied, buf[len(buf)-1])
	}
	if wire.Retains(0xF000) || wire.Retains(0xEEEE) {
		t.Fatal("a kind registered with Register, or an unknown kind, reports Retains")
	}
}
