package state

import (
	"bytes"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	src := NewStore()
	src.Put("bytes", []byte{1, 2, 3})
	src.Put("string", "hello")
	src.Put("int", 42)
	src.Put("int64", int64(-7))
	src.Put("uint64", uint64(9))
	src.Put("nil", nil)
	src.Put("versioned", "v1")
	src.Put("versioned", "v2") // version 2, must survive the transfer

	buf, err := src.SnapshotBytes()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	dst := NewStore()
	dst.Put("stale", "gone") // restore replaces wholesale
	if err := dst.RestoreBytes(buf); err != nil {
		t.Fatalf("restore: %v", err)
	}

	if _, _, ok := dst.Get("stale"); ok {
		t.Fatalf("pre-restore object survived")
	}
	if v, _, _ := dst.Get("bytes"); !bytes.Equal(v.([]byte), []byte{1, 2, 3}) {
		t.Fatalf("bytes value = %v", v)
	}
	if v, _, _ := dst.Get("string"); v != "hello" {
		t.Fatalf("string value = %v", v)
	}
	// int re-decodes as int64: the store transfers values, it does not
	// do arithmetic on them.
	if v, _, _ := dst.Get("int"); v != int64(42) {
		t.Fatalf("int value = %v (%T)", v, v)
	}
	if v, _, _ := dst.Get("int64"); v != int64(-7) {
		t.Fatalf("int64 value = %v", v)
	}
	if v, _, _ := dst.Get("uint64"); v != uint64(9) {
		t.Fatalf("uint64 value = %v", v)
	}
	if v, _, ok := dst.Get("nil"); !ok || v != nil {
		t.Fatalf("nil value = %v ok=%v", v, ok)
	}
	if dst.Version("versioned") != 2 {
		t.Fatalf("version = %d, want 2 (restore must not re-tick)", dst.Version("versioned"))
	}
	if dst.Puts() != src.Puts() {
		t.Fatalf("puts = %d, want %d", dst.Puts(), src.Puts())
	}

	// Determinism: a restored store re-snapshots byte-identically, which
	// is what makes digest equality mean state equality.
	buf2, err := dst.SnapshotBytes()
	if err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatalf("snapshot not deterministic across restore")
	}
}

func TestSnapshotRejectsUnsupportedType(t *testing.T) {
	src := NewStore()
	src.Put("bad", struct{ X int }{1})
	if _, err := src.SnapshotBytes(); err == nil {
		t.Fatalf("unsupported value type snapshotted without error")
	}
}

func TestRestoreRejectsMalformed(t *testing.T) {
	src := NewStore()
	src.Put("k", []byte("value"))
	buf, err := src.SnapshotBytes()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"truncated", buf[:len(buf)-2]},
		{"trailing garbage", append(append([]byte(nil), buf...), 0xff)},
		{"bad tag", func() []byte {
			b := append([]byte(nil), buf...)
			b[len(b)-len("value")-2] = 99 // the value tag byte, before the value's 1-byte length
			return b
		}()},
	} {
		dst := NewStore()
		if err := dst.RestoreBytes(tc.buf); err == nil {
			t.Fatalf("%s snapshot restored without error", tc.name)
		}
	}
}
