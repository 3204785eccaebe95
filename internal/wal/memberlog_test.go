package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestMemberLogFreshDevice(t *testing.T) {
	dev := NewDevice()
	l, rec, err := OpenMemberLog(dev)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	if rec.Inc != 0 || len(rec.Casts) != 0 || rec.Records != 0 || rec.Truncated != 0 {
		t.Fatalf("fresh device recovered %+v, want zero state", rec)
	}
	if l.Incarnation() != 0 {
		t.Fatalf("fresh incarnation = %d, want 0", l.Incarnation())
	}
}

func TestMemberLogReopenReplaysUnstableSuffix(t *testing.T) {
	dev := NewDevice()
	l, _, err := OpenMemberLog(dev)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.BumpIncarnation() // inc 1
	for _, p := range []string{"a", "b", "c", "d"} {
		l.LogCast([]byte(p))
	}
	l.LogStable(2) // a, b stable; c, d must replay
	l.LogStable(1) // regression, ignored
	if l.CastCount() != 4 {
		t.Fatalf("cast count = %d, want 4", l.CastCount())
	}

	l2, rec, err := OpenMemberLog(dev)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec.Inc != 1 {
		t.Fatalf("recovered incarnation = %d, want 1", rec.Inc)
	}
	if len(rec.Casts) != 2 || string(rec.Casts[0]) != "c" || string(rec.Casts[1]) != "d" {
		t.Fatalf("replay set = %q, want [c d]", rec.Casts)
	}
	if rec.Truncated != 0 {
		t.Fatalf("truncated %d records from a clean log", rec.Truncated)
	}
	// The reopened log continues the same life: the next bump is 2 and
	// the next cast keeps the sequence chain intact across a reopen.
	if inc, _ := l2.BumpIncarnation(); inc != 2 {
		t.Fatalf("bump after reopen = %d, want 2", inc)
	}
	l2.LogCast([]byte("e"))
	if _, rec2, err := OpenMemberLog(dev); err != nil {
		t.Fatalf("third open: %v", err)
	} else if len(rec2.Casts) != 3 {
		t.Fatalf("replay set after append = %d casts, want 3 (c d e)", len(rec2.Casts))
	}
}

func TestMemberLogTornTailTruncatedAndAppendable(t *testing.T) {
	dev := NewDevice()
	l, _, err := OpenMemberLog(dev)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.LogCast([]byte("good"))
	// The crash interrupts the second cast mid-write: a torn record at
	// the tail. Recovery must drop it and keep the valid prefix.
	dev.AppendTorn(Record{Object: castObject, Seq: 2, Value: []byte("torn")})

	l2, rec, err := OpenMemberLog(dev)
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	if rec.Truncated != 1 || rec.Records != 1 {
		t.Fatalf("recovered records=%d truncated=%d, want 1/1", rec.Records, rec.Truncated)
	}
	if len(rec.Casts) != 1 || string(rec.Casts[0]) != "good" {
		t.Fatalf("replay set = %q, want [good]", rec.Casts)
	}
	// Appending after truncation reuses the torn record's sequence slot
	// and the log stays valid — the torn record must really be gone, not
	// just skipped (a valid record behind it would read as corruption).
	l2.LogCast([]byte("retry"))
	if _, rec3, err := OpenMemberLog(dev); err != nil {
		t.Fatalf("open after post-truncation append: %v", err)
	} else if len(rec3.Casts) != 2 || string(rec3.Casts[1]) != "retry" {
		t.Fatalf("replay set = %q, want [good retry]", rec3.Casts)
	}
}

func TestMemberLogBodyCorruptionFails(t *testing.T) {
	dev := NewDevice()
	l, _, _ := OpenMemberLog(dev)
	l.LogCast([]byte("a"))
	l.LogCast([]byte("b"))
	dev.Corrupt(0) // valid record after an invalid one = body corruption
	if _, _, err := OpenMemberLog(dev); err == nil {
		t.Fatalf("body corruption opened without error")
	}
}

func TestMemberLogSharedDeviceSkipsForeignObjects(t *testing.T) {
	dev := NewDevice()
	dev.Append(Record{Object: "app-key", Seq: 1, Value: []byte("app")})
	l, rec, err := OpenMemberLog(dev)
	if err != nil {
		t.Fatalf("open shared: %v", err)
	}
	if len(rec.Casts) != 0 {
		t.Fatalf("foreign record entered the replay set: %q", rec.Casts)
	}
	l.LogCast([]byte("mine"))
	if _, rec2, err := OpenMemberLog(dev); err != nil {
		t.Fatalf("reopen shared: %v", err)
	} else if len(rec2.Casts) != 1 || string(rec2.Casts[0]) != "mine" {
		t.Fatalf("replay set = %q, want [mine]", rec2.Casts)
	}
}

func TestFileLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "member.wal")
	fl, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open file log: %v", err)
	}
	l, _, err := OpenMemberLog(fl.Device())
	if err != nil {
		t.Fatalf("open member log: %v", err)
	}
	l.BumpIncarnation()
	l.LogCast([]byte("persisted"))
	l.LogStable(1)
	if err := fl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	fl2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen file log: %v", err)
	}
	defer fl2.Close()
	l2, rec, err := OpenMemberLog(fl2.Device())
	if err != nil {
		t.Fatalf("member log from file: %v", err)
	}
	if rec.Inc != 1 {
		t.Fatalf("incarnation from file = %d, want 1", rec.Inc)
	}
	if len(rec.Casts) != 0 {
		t.Fatalf("stable cast replayed from file: %q", rec.Casts)
	}
	if l2.CastCount() != 1 {
		t.Fatalf("cast count from file = %d, want 1", l2.CastCount())
	}
	// The new life appends through the same file.
	if inc, _ := l2.BumpIncarnation(); inc != 2 {
		t.Fatalf("bump from file = %d, want 2", inc)
	}
}

func TestFileLogTruncatesPartialTrailingFrame(t *testing.T) {
	// A crash between write and sync leaves the last frame short: cut
	// inside its body, or inside its varint length prefix (two bytes
	// here, the record being over 127 bytes). Either way the partial
	// frame is dropped and the log stays appendable.
	for _, tc := range []struct {
		name string
		cut  func(raw []byte, wholeEnd int) []byte
	}{
		{"inside the body", func(raw []byte, _ int) []byte { return raw[:len(raw)-3] }},
		{"inside the length prefix", func(raw []byte, wholeEnd int) []byte { return raw[:wholeEnd+1] }},
	} {
		path := filepath.Join(t.TempDir(), "member.wal")
		fl, err := OpenFileLog(path)
		if err != nil {
			t.Fatalf("%s: open: %v", tc.name, err)
		}
		l, _, _ := OpenMemberLog(fl.Device())
		l.LogCast([]byte("whole"))
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s: stat: %v", tc.name, err)
		}
		l.LogCast(bytes.Repeat([]byte("doomed"), 30))
		if err := fl.Close(); err != nil {
			t.Fatalf("%s: close: %v", tc.name, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: read: %v", tc.name, err)
		}
		if raw[fi.Size()] < 0x80 {
			t.Fatalf("%s: the second frame's length prefix is one byte", tc.name)
		}
		if err := os.WriteFile(path, tc.cut(raw, int(fi.Size())), 0o644); err != nil {
			t.Fatalf("%s: chop: %v", tc.name, err)
		}

		fl2, err := OpenFileLog(path)
		if err != nil {
			t.Fatalf("%s: reopen chopped: %v", tc.name, err)
		}
		l2, rec, err := OpenMemberLog(fl2.Device())
		if err != nil {
			t.Fatalf("%s: member log from chopped file: %v", tc.name, err)
		}
		if len(rec.Casts) != 1 || !bytes.Equal(rec.Casts[0], []byte("whole")) {
			t.Fatalf("%s: replay set from chopped file = %q, want [whole]", tc.name, rec.Casts)
		}
		l2.LogCast([]byte("after"))
		if err := fl2.Close(); err != nil {
			t.Fatalf("%s: close: %v", tc.name, err)
		}
		fl3, err := OpenFileLog(path)
		if err != nil {
			t.Fatalf("%s: reopen appended: %v", tc.name, err)
		}
		_, rec, err = OpenMemberLog(fl3.Device())
		fl3.Close()
		if err != nil || len(rec.Casts) != 2 || string(rec.Casts[1]) != "after" {
			t.Fatalf("%s: replay set after append = %q (%v), want [whole after]", tc.name, rec.Casts, err)
		}
	}
}

func TestFileLogPreservesTornRecords(t *testing.T) {
	// A torn in-memory record (bad CRC, fully framed) must round-trip
	// through the file as torn: recovery after reopen truncates it just
	// as it would have before the restart.
	path := filepath.Join(t.TempDir(), "member.wal")
	fl, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	dev := fl.Device()
	dev.Append(Record{Object: castObject, Seq: 1, Value: []byte("good")})
	dev.AppendTorn(Record{Object: castObject, Seq: 2, Value: []byte("torn")})
	if err := fl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	fl2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fl2.Close()
	_, rec, err := OpenMemberLog(fl2.Device())
	if err != nil {
		t.Fatalf("member log: %v", err)
	}
	if rec.Records != 1 || rec.Truncated != 1 {
		t.Fatalf("records=%d truncated=%d, want 1/1", rec.Records, rec.Truncated)
	}
	if len(rec.Casts) != 1 || string(rec.Casts[0]) != "good" {
		t.Fatalf("replay set = %q, want [good]", rec.Casts)
	}
}

func TestLogChainsRoundTrip(t *testing.T) {
	dev := NewDevice()
	l, _, err := OpenMemberLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	l.LogChains([]uint64{1, 0, 2}, 1)
	l.LogChains([]uint64{3, 0, 300}, 7) // the last checkpoint wins
	_, rec, err := OpenMemberLog(dev)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec.TotalFrontier != 7 || !slices.Equal(rec.AckClock, []uint64{3, 0, 300}) {
		t.Fatalf("checkpoint = %v / %d, want [3 0 300] / 7", rec.AckClock, rec.TotalFrontier)
	}
	bad := NewDevice()
	bad.Append(Record{Object: chainObject, Seq: 1, Value: []byte{7, 3, 1}}) // three entries claimed, one present
	if _, _, err := OpenMemberLog(bad); err == nil {
		t.Fatal("a truncated chain checkpoint was accepted")
	}
}
