package state

import (
	"fmt"
	"sort"

	"catocs/internal/wire"
)

// Store snapshot encoding. A snapshot is the transferable form of a
// Store — what a state-transfer donor streams to a joiner so it enters
// the view with the survivors' application state (the recovery work
// the paper's §4.4 says ordered communication cannot do for you). The
// encoding is deterministic (objects sorted by name) so any two stores
// with equal contents produce byte-identical snapshots; equality of
// snapshot digests is therefore equality of state, which the chaos
// joiner-state oracle relies on.
//
// Versions are preserved exactly: restore rebuilds each record at its
// donor-side version rather than re-Putting (which would re-tick the
// state clock and break prescriptive-ordering stamps already in
// flight).

// Value type tags on the wire.
const (
	snapNil    = 0
	snapBytes  = 1
	snapString = 2
	snapInt64  = 3 // int and int64
	snapUint64 = 4
)

// snapMaxBytes guards each decoded name and value length.
const snapMaxBytes = 1 << 26

// SnapshotBytes serializes the store's full contents through the wire
// codec: the put count, the object count, then per object its name,
// version, a value tag and the value, every integer a varint and every
// name or value varint-length-prefixed. Values must be nil, []byte,
// string, int, int64, or uint64 — the types a store fed from decoded
// wire payloads can hold; anything else is an error rather than a
// silently lossy encoding.
func (s *Store) SnapshotBytes() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.objects))
	for name := range s.objects {
		names = append(names, name)
	}
	sort.Strings(names)
	w := wire.NewAppendWriter(nil)
	w.Uvarint(s.puts)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		r := s.objects[name]
		w.BytesVar([]byte(name))
		w.Uvarint(r.seq)
		switch v := r.value.(type) {
		case nil:
			w.U8(snapNil)
		case []byte:
			w.U8(snapBytes)
			w.BytesVar(v)
		case string:
			w.U8(snapString)
			w.BytesVar([]byte(v))
		case int:
			w.U8(snapInt64)
			w.Uvarint(uint64(int64(v)))
		case int64:
			w.U8(snapInt64)
			w.Uvarint(uint64(v))
		case uint64:
			w.U8(snapUint64)
			w.Uvarint(v)
		default:
			return nil, fmt.Errorf("state: cannot snapshot %q value of type %T", name, r.value)
		}
	}
	return w.Bytes(), nil
}

// RestoreBytes replaces the store's contents with a snapshot produced
// by SnapshotBytes, versions intact. int values re-decode as int64 —
// the store compares and transfers values, it does not do arithmetic
// on them.
func (s *Store) RestoreBytes(buf []byte) error {
	r := wire.NewReader(buf)
	puts := r.Uvarint()
	// Each object takes at least three bytes, so the bytes left bound
	// the count before it sizes the map.
	n := r.Uvarint()
	if n > uint64(len(r.Rest())/3) {
		r.Fail()
		n = 0
	}
	objects := make(map[string]*record, n)
	for range n {
		name := string(r.BytesVar(snapMaxBytes))
		rec := &record{seq: r.Uvarint()}
		switch r.U8() {
		case snapNil:
		case snapBytes:
			rec.value = r.BytesVar(snapMaxBytes)
		case snapString:
			rec.value = string(r.BytesVar(snapMaxBytes))
		case snapInt64:
			rec.value = int64(r.Uvarint())
		case snapUint64:
			rec.value = r.Uvarint()
		default:
			r.Fail() // unknown value tag
		}
		objects[name] = rec
	}
	if err := r.Finish("state snapshot"); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects = objects
	s.puts = puts
	return nil
}
