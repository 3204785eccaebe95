// Package wal models stable storage and write-ahead logging for the
// paper's §6 durability argument: "state clocks are easily made as
// durable as the state they relate to because one can write out the
// clock value as part of updating the state, whereas the high rate of
// communication clock ticks generally makes their stable storage
// infeasible."
//
// The Device is an in-memory stand-in for a disk with a simulated
// per-record append cost (the substitution DESIGN.md documents: no
// real disk is available or needed — the argument is about write
// *rates* and log *volumes*, which the model preserves). A
// DurableStore wraps a versioned state store and logs each update with
// its state clock; Recover replays the log into a fresh store.
// Experiment E13 compares the log volume of state-clock logging
// against logging every communication clock tick (one vector clock per
// message) for the same workload.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"catocs/internal/state"
	"catocs/internal/vclock"
)

// Record is one durable log entry.
type Record struct {
	// Object and Seq are the state clock; Value is the payload.
	Object string
	Seq    uint64
	Value  any
}

// encodedSize approximates the on-disk size of a record.
func (r Record) encodedSize() int { return 24 + len(r.Object) + 16 }

// checksum is the per-record CRC32 guarding against torn writes and
// bit rot. The device is an in-memory model, so the "encoding" covered
// by the CRC is a canonical rendering of the record rather than real
// disk bytes; what the model preserves is the recovery discipline: a
// record is valid only if its stored CRC matches its contents.
func (r Record) checksum() uint32 {
	h := crc32.NewIEEE()
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], r.Seq)
	h.Write(seq[:])
	h.Write([]byte(r.Object))
	fmt.Fprintf(h, "%T:%v", r.Value, r.Value)
	return h.Sum32()
}

// Device is an append-only stable storage model: records survive
// "crashes" (of everything except the device), appends cost
// WriteLatency each, and total bytes are tracked. Each record carries a
// CRC32; a crash mid-append leaves a torn (CRC-invalid) tail record
// that Recover truncates instead of failing.
type Device struct {
	records []Record
	crcs    []uint32
	bytes   uint64
	appends uint64
	// WriteLatency is the modeled cost of one append (used by callers
	// that simulate time; the device itself does not sleep).
	WriteLatency time.Duration
	// mirror, when set, echoes structured appends to a persistent
	// backing (see FileLog): the in-memory device stays the source of
	// truth, the mirror is how its contents survive a real process
	// restart.
	mirror deviceMirror
}

// deviceMirror receives structured appends and truncations.
type deviceMirror interface {
	append(r Record, crc uint32)
	truncate(n int)
}

// NewDevice returns an empty device with a 100µs modeled append cost.
func NewDevice() *Device {
	return &Device{WriteLatency: 100 * time.Microsecond}
}

// Append logs a record and returns the modeled latency of the write.
func (d *Device) Append(r Record) time.Duration {
	d.records = append(d.records, r)
	crc := r.checksum()
	d.crcs = append(d.crcs, crc)
	d.bytes += uint64(r.encodedSize())
	d.appends++
	if d.mirror != nil {
		d.mirror.append(r, crc)
	}
	return d.WriteLatency
}

// AppendTorn models a crash in the middle of appending r: only part of
// the record's bytes reached the device, so its stored CRC does not
// match its contents. Recover treats such a tail as never written.
func (d *Device) AppendTorn(r Record) {
	d.records = append(d.records, r)
	crc := r.checksum() ^ 0xdeadbeef
	d.crcs = append(d.crcs, crc)
	d.bytes += uint64(r.encodedSize() / 2)
	d.appends++
	if d.mirror != nil {
		d.mirror.append(r, crc)
	}
}

// Corrupt flips record i's stored CRC, modeling bit rot inside the log
// body (as opposed to a torn tail). Recovery must refuse such a log
// rather than silently skipping the record.
func (d *Device) Corrupt(i int) { d.crcs[i] ^= 1 }

// AppendRaw logs an arbitrary-size opaque entry (used to model logging
// communication clocks, whose payload is a vector clock).
func (d *Device) AppendRaw(size int) time.Duration {
	d.bytes += uint64(size)
	d.appends++
	return d.WriteLatency
}

// Len returns the number of logged records (structured appends only).
func (d *Device) Len() int { return len(d.records) }

// Bytes returns total bytes appended.
func (d *Device) Bytes() uint64 { return d.bytes }

// Appends returns total append operations.
func (d *Device) Appends() uint64 { return d.appends }

// Records returns the log contents (aliased; read-only by convention).
func (d *Device) Records() []Record { return d.records }

// DurableStore is a versioned store whose every update is logged with
// its state clock before being applied — write-ahead in spirit; in
// this in-memory model "before" is atomic.
type DurableStore struct {
	store *state.Store
	dev   *Device
}

// NewDurableStore wraps a fresh store around the device.
func NewDurableStore(dev *Device) *DurableStore {
	return &DurableStore{store: state.NewStore(), dev: dev}
}

// Put logs and applies an update, returning the new version and the
// modeled log latency.
func (s *DurableStore) Put(object string, value any) (vclock.Version, time.Duration) {
	ver := s.store.Put(object, value)
	lat := s.dev.Append(Record{Object: object, Seq: ver.Seq, Value: value})
	return ver, lat
}

// Get reads through to the store.
func (s *DurableStore) Get(object string) (any, vclock.Version, bool) {
	return s.store.Get(object)
}

// Store exposes the in-memory store (for read-mostly paths).
func (s *DurableStore) Store() *state.Store { return s.store }

// validPrefix returns the number of leading records whose CRCs verify,
// and an error if an invalid record is followed by a valid one — a
// torn tail is expected after a crash (at most the in-flight suffix is
// damaged), but valid data beyond a bad record means the log body
// itself is corrupt and recovery must not silently skip it.
func (d *Device) validPrefix() (int, error) {
	n := len(d.records)
	valid := n
	for i := n - 1; i >= 0; i-- {
		ok := i < len(d.crcs) && d.crcs[i] == d.records[i].checksum()
		if ok {
			break
		}
		valid = i
	}
	for i := 0; i < valid; i++ {
		if i >= len(d.crcs) || d.crcs[i] != d.records[i].checksum() {
			return 0, fmt.Errorf("wal: record %d fails CRC with valid records after it (corrupt log body)", i)
		}
	}
	return valid, nil
}

// Recover replays a device's log into a fresh store, returning it and
// the number of records replayed. Replaying in append order restores
// every object to its highest logged version — the state clock is the
// recovery order, no communication history needed (§6's point about
// fault tolerance living at the state level).
//
// Records are CRC-checked: a torn tail (a crash mid-append) is
// truncated and the valid prefix recovered — every acknowledged write
// survives, the half-written one vanishes, exactly the contract a real
// WAL gives. A CRC failure in the body of the log (valid records after
// it) or a version gap is corruption and returns an error.
func Recover(dev *Device) (*state.Store, int, error) {
	valid, err := dev.validPrefix()
	if err != nil {
		return nil, 0, err
	}
	s := state.NewStore()
	applied := 0
	lastSeq := make(map[string]uint64)
	for i, r := range dev.Records()[:valid] {
		if r.Seq != lastSeq[r.Object]+1 {
			return nil, applied, fmt.Errorf("wal: record %d for %q has seq %d, want %d (corrupt log)",
				i, r.Object, r.Seq, lastSeq[r.Object]+1)
		}
		lastSeq[r.Object] = r.Seq
		s.Put(r.Object, r.Value)
		applied++
	}
	return s, applied, nil
}

// SpillKey identifies one spilled unstable message: the seq'th
// multicast from a sender. It mirrors stability.Key without importing
// it (wal sits below the protocol stacks).
type SpillKey struct {
	Sender int64
	Seq    uint64
}

// SpillStore is the overflow side of the Spill flow-control policy: a
// keyed store of unstable messages pushed out of a member's in-memory
// stability buffer onto the stable-storage device. Each spill pays one
// modeled device append; a Get models the NACK-path reload and is
// counted, since reload traffic is the price Spill trades for bounded
// memory. Entries are dropped once the message stabilizes (Drop).
//
// Like Device, the store is an in-memory model: the messages live in a
// map standing in for the log, and what the model preserves is the
// accounting — bytes written, spill/reload/drop counts — that
// experiment E19 reports.
type SpillStore struct {
	dev     *Device
	items   map[SpillKey]any
	sizes   map[SpillKey]int
	spills  uint64
	reloads uint64
	drops   uint64
}

// NewSpillStore returns an empty spill store over dev (a fresh device
// when nil).
func NewSpillStore(dev *Device) *SpillStore {
	if dev == nil {
		dev = NewDevice()
	}
	return &SpillStore{
		dev:   dev,
		items: make(map[SpillKey]any),
		sizes: make(map[SpillKey]int),
	}
}

// Put spills msg (with its approximate encoded size) under k,
// returning the modeled append latency. Re-spilling a held key is a
// no-op costing nothing.
func (s *SpillStore) Put(k SpillKey, msg any, size int) time.Duration {
	if _, ok := s.items[k]; ok {
		return 0
	}
	s.items[k] = msg
	s.sizes[k] = size
	s.spills++
	return s.dev.AppendRaw(size)
}

// Get reloads a spilled message, counting the reload. The entry stays
// in the store (the message is still unstable; it may be NACKed
// again).
func (s *SpillStore) Get(k SpillKey) (any, bool) {
	msg, ok := s.items[k]
	if ok {
		s.reloads++
	}
	return msg, ok
}

// Contains reports whether k is spilled, without counting a reload.
func (s *SpillStore) Contains(k SpillKey) bool {
	_, ok := s.items[k]
	return ok
}

// Drop discards a spilled entry (the message stabilized or its epoch
// ended). Unknown keys are ignored.
func (s *SpillStore) Drop(k SpillKey) {
	if _, ok := s.items[k]; !ok {
		return
	}
	delete(s.items, k)
	delete(s.sizes, k)
	s.drops++
}

// Len returns the number of currently spilled messages.
func (s *SpillStore) Len() int { return len(s.items) }

// Bytes returns the total bytes currently spilled.
func (s *SpillStore) Bytes() int {
	var n int
	for _, sz := range s.sizes {
		n += sz
	}
	return n
}

// Spills, Reloads, and Drops return the lifetime operation counts.
func (s *SpillStore) Spills() uint64  { return s.spills }
func (s *SpillStore) Reloads() uint64 { return s.reloads }
func (s *SpillStore) Drops() uint64   { return s.drops }

// Device exposes the backing device (for byte accounting).
func (s *SpillStore) Device() *Device { return s.dev }
