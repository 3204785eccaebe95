// Package wire is the one codec layer of the repo: every message that
// travels between OS processes (internal/transport/tcpnet), every log
// file frame (internal/wal) and every state snapshot (internal/state) is
// written and read through its Writer and Reader, so the byte format is
// decided here once.
//
// The in-process SimNet hands Go values from sender to handler, so it
// never encodes; it charges each payload the length Size reports, the
// bytes tcpnet would write. tcpnet calls MarshalAppend at every Send
// and Unmarshal at every frame receive, which is exactly the end-to-end
// serialization cost the paper's §3–§5 say an honest scaling
// measurement must include.
//
// Each protocol package registers its own message types (see
// internal/multicast/wirecodec.go and friends) under a stable 16-bit
// kind, with an append-style encoder and a SizeFunc that gives the
// encoded length by arithmetic. The conventions: every integer is an
// unsigned LEB128 varint (a signed one as its int64 bit pattern), a
// string carries a 2-byte little-endian length, a byte slice a varint
// one, every count and length is checked against a guard and the bytes
// left before it sizes an allocation, and truncated input, trailing
// bytes and non-canonical encodings are rejected, so a decoded value
// re-encodes to its own frame. The Reader carries sticky error state,
// so decoders read straight through and check once.
package wire

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
)

// Kind identifies a registered message type on the wire. Kinds are
// part of the external protocol: renumbering them breaks cross-version
// interop, so each protocol package owns a fixed block (see the Kind*
// constants) and appends within it.
type Kind uint16

// Kind blocks, one per registering package. Block 0 is reserved for
// transport-internal frames (ping/hello) that never reach the codec.
const (
	KindReserved  Kind = 0x0000 // transport framing, never registered
	KindMulticast Kind = 0x0010 // internal/multicast
	KindScalecast Kind = 0x0020 // internal/scalecast
	KindMGCast    Kind = 0x0030 // internal/mgcast
	KindPubsub    Kind = 0x0040 // internal/pubsub
)

// EncodeFunc serializes a registered payload by appending its encoding
// to dst and returning the extended slice, so transports reuse pooled
// buffers and the steady-state encode path allocates nothing. It must
// accept exactly the concrete type registered with it.
type EncodeFunc func(dst []byte, payload any) ([]byte, error)

// DecodeFunc inverts EncodeFunc. It must reject truncated input,
// oversized length prefixes, and trailing garbage.
type DecodeFunc func(buf []byte) (any, error)

// SizeFunc reports, by arithmetic and without encoding, the exact body
// length n the registered encoder writes for payload, and how many of
// those bytes are application payload (app); n-app is protocol header.
// A payload the encoder would reject (an in-process value where the
// wire wants bytes) is sized as if its declared payload size were
// bytes, so the simulator can charge it. Every decoder accepts only
// the canonical encoding, so a decoded value sizes to its frame's
// length exactly.
type SizeFunc func(payload any) (n, app int)

// entry is one registered message type.
type entry struct {
	kind    Kind
	name    string // the registered type, for diagnostics
	enc     EncodeFunc
	dec     DecodeFunc
	size    SizeFunc
	retains bool // the decoder may keep slices of its input
}

// registry is an immutable snapshot of the registrations. Register
// publishes a new copy, so the per-frame lookups take no lock. byKind
// is indexed by kind (nil where none is registered): kinds are small
// and dense, and a receiver looks one up twice per frame.
type registry struct {
	byType map[reflect.Type]*entry
	byKind []*entry
}

var (
	regMu sync.Mutex // serializes Register
	reg   atomic.Pointer[registry]
)

func init() {
	reg.Store(&registry{byType: map[reflect.Type]*entry{}})
}

func lookupType(payload any) (*entry, bool) {
	e, ok := reg.Load().byType[reflect.TypeOf(payload)]
	return e, ok
}

func lookupKind(kind Kind) (*entry, bool) {
	if byKind := reg.Load().byKind; int(kind) < len(byKind) {
		e := byKind[kind]
		return e, e != nil
	}
	return nil, false
}

// Register installs a codec and its size model for the concrete type
// of zero under kind. Protocol packages call it from init, so any
// process that links a protocol can frame and parse its traffic.
// Register panics on a duplicate kind or type: kind collisions are
// wire-protocol bugs that must fail at process start, not at decode
// time. The decoder must copy every byte it keeps (BytesVar).
func Register(kind Kind, zero any, enc EncodeFunc, dec DecodeFunc, size SizeFunc) {
	register(kind, zero, enc, dec, size, false)
}

// RegisterRetaining is Register for a decoder that may keep slices of
// its input (BytesVarAlias): the decoded value aliases the body it was
// parsed from, so whoever calls Unmarshal for kind must hand it a body
// that is never rewritten (see Retains).
func RegisterRetaining(kind Kind, zero any, enc EncodeFunc, dec DecodeFunc, size SizeFunc) {
	register(kind, zero, enc, dec, size, true)
}

func register(kind Kind, zero any, enc EncodeFunc, dec DecodeFunc, size SizeFunc, retains bool) {
	t := reflect.TypeOf(zero)
	if t == nil {
		panic("wire: Register with untyped nil")
	}
	if size == nil {
		panic(fmt.Sprintf("wire: kind 0x%04x (%s) registered without a size model", uint16(kind), t))
	}
	regMu.Lock()
	defer regMu.Unlock()
	old := reg.Load()
	if d, dup := lookupKind(kind); dup {
		panic(fmt.Sprintf("wire: kind 0x%04x registered twice (%s and %s)", uint16(kind), d.name, t))
	}
	if d, dup := old.byType[t]; dup {
		panic(fmt.Sprintf("wire: type %s registered twice (kinds 0x%04x and 0x%04x)", t, uint16(d.kind), uint16(kind)))
	}
	e := &entry{kind: kind, name: t.String(), enc: enc, dec: dec, size: size, retains: retains}
	next := &registry{byType: maps.Clone(old.byType), byKind: slices.Clone(old.byKind)}
	next.byType[t] = e
	if n := int(kind) + 1; n > len(next.byKind) {
		next.byKind = append(next.byKind, make([]*entry, n-len(next.byKind))...)
	}
	next.byKind[kind] = e
	reg.Store(next)
}

// Registered reports whether payload's concrete type has a codec.
func Registered(payload any) bool {
	_, ok := lookupType(payload)
	return ok
}

// Marshal serializes payload under its registered kind.
func Marshal(payload any) (Kind, []byte, error) {
	return MarshalAppend(nil, payload)
}

// MarshalAppend serializes payload under its registered kind, appending
// the encoding to dst and returning the extended slice.
func MarshalAppend(dst []byte, payload any) (Kind, []byte, error) {
	e, ok := lookupType(payload)
	if !ok {
		return 0, dst, fmt.Errorf("wire: no codec registered for %T", payload)
	}
	out, err := e.enc(dst, payload)
	if err != nil {
		return 0, dst, err
	}
	return e.kind, out, nil
}

// Unmarshal parses a body under kind. The body of a retaining kind
// (Retains) must never be rewritten once it is parsed: the decoded
// value keeps slices of it for as long as the value lives. Any other
// kind's decoder copies what it keeps, so its body may be reused as
// soon as Unmarshal returns.
func Unmarshal(kind Kind, buf []byte) (any, error) {
	e, ok := lookupKind(kind)
	if !ok {
		return nil, fmt.Errorf("wire: unknown kind 0x%04x", uint16(kind))
	}
	return e.dec(buf)
}

// Retains reports whether kind's decoder keeps slices of its input
// (registered with RegisterRetaining). Unknown kinds retain nothing.
func Retains(kind Kind) bool {
	e, ok := lookupKind(kind)
	return ok && e.retains
}

// Size returns the registered size model's body length n and
// application bytes app for payload, or ok=false when its type has no
// codec. transport.ApproxSize and ControlSize answer from it, so the
// simulator charges the bytes tcpnet would write.
func Size(payload any) (n, app int, ok bool) {
	e, ok := lookupType(payload)
	if !ok {
		return 0, 0, false
	}
	n, app = e.size(payload)
	return n, app, true
}

// EncodedSize returns the exact encoded byte count of payload, or
// ok=false when its type has no codec (or the value fails to encode).
// It encodes; Size is the arithmetic answer that must equal it.
func EncodedSize(payload any) (int, bool) {
	_, buf, err := Marshal(payload)
	if err != nil {
		return 0, false
	}
	return len(buf), true
}

// KindName returns the registered type name for a kind ("" when
// unknown); diagnostics only.
func KindName(kind Kind) string {
	if e, ok := lookupKind(kind); ok {
		return e.name
	}
	return ""
}

// UvarintLen is the length of v's unsigned LEB128 encoding (Uvarint).
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// StringLen is the encoded length of s (String).
func StringLen(s string) int { return 2 + len(s) }

// BytesVarLen is the encoded length of an n-byte slice (BytesVar).
func BytesVarLen(n int) int { return UvarintLen(uint64(n)) + n }

// Writer accumulates an encoding by appending to a buffer.
type Writer struct {
	buf []byte
}

// NewAppendWriter returns a by-value writer that appends to dst,
// typically a pooled buffer or nil. Declared as a local (`w :=
// NewAppendWriter(dst)`), it lives on the caller's stack, so
// append-style encoders pay no Writer allocation.
func NewAppendWriter(dst []byte) Writer { return Writer{buf: dst} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v byte) { w.buf = append(w.buf, v) }

// Bool appends a flag byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Uvarint appends v as an unsigned LEB128 varint (1 byte below 128, at
// most 10).
func (w *Writer) Uvarint(v uint64) {
	if v < 0x80 {
		w.buf = append(w.buf, byte(v))
		return
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

// String appends a little-endian u16 length prefix and the bytes of s;
// callers bound len(s) by their decode guard, which is below 1<<16.
func (w *Writer) String(s string) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// BytesVar appends a uvarint length prefix and b.
func (w *Writer) BytesVar(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader consumes a wire buffer with sticky error state: once a read
// runs past the end, every further read yields zero and Err reports
// failure. Decoders read all fields, then check Err and Done once.
type Reader struct {
	buf []byte
	err bool
}

// NewReader wraps buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err reports whether any read ran past the end of input.
func (r *Reader) Err() bool { return r.err }

// Fail sets the sticky error: a decoder that finds a value out of
// range or not in canonical form poisons the reader, and Finish
// rejects the frame. A failed reader holds no input, so every read
// after it yields zero.
func (r *Reader) Fail() { r.err, r.buf = true, nil }

// Rest returns the unconsumed remainder.
func (r *Reader) Rest() []byte { return r.buf }

// Done reports whether the input was consumed exactly.
func (r *Reader) Done() bool { return !r.err && len(r.buf) == 0 }

// Take consumes n bytes, aliasing the input buffer (copy before
// retaining).
func (r *Reader) Take(n int) []byte {
	if r.err || n < 0 || n > len(r.buf) {
		r.Fail()
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

// U8 consumes one byte.
func (r *Reader) U8() byte {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool consumes a flag byte, rejecting values other than 0 and 1 so
// the flag space stays extensible.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail()
		return false
	}
}

// Uvarint consumes an unsigned LEB128 varint. Truncated input, an
// encoding longer than 10 bytes or past 64 bits, and a non-minimal one
// (a trailing zero byte) all set the sticky error, so each value has
// exactly one accepted encoding.
func (r *Reader) Uvarint() uint64 {
	if b := r.buf; len(b) > 0 && b[0] < 0x80 { // the common 1-byte value, inline
		r.buf = b[1:]
		return uint64(b[0])
	}
	return r.uvarint()
}

func (r *Reader) uvarint() uint64 {
	v, n := uvarint(r.buf)
	if n == 0 {
		r.Fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// uvarint decodes the canonical varint at the head of b and its length,
// or n=0 when b does not start with one.
func uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, 0
	}
	return v, n
}

// Uvarints fills dst with consecutive Uvarint values in one pass over
// the input — a clock's entries, or a run of header fields — the short
// ones decoded inline.
func (r *Reader) Uvarints(dst []uint64) {
	b := r.buf
	for i := range dst {
		if len(b) >= 3 { // 1- to 3-byte entries inline: counters below 2^21
			b0, b1, b2 := uint64(b[0]), uint64(b[1]), uint64(b[2])
			switch {
			case b0 < 0x80:
				dst[i], b = b0, b[1:]
				continue
			case b1 < 0x80 && b1 != 0:
				dst[i], b = b0&0x7f|b1<<7, b[2:]
				continue
			case b1 >= 0x80 && b2 < 0x80 && b2 != 0:
				dst[i], b = b0&0x7f|(b1&0x7f)<<7|b2<<14, b[3:]
				continue
			}
		}
		v, n := uvarint(b)
		if n == 0 {
			r.Fail()
			break
		}
		dst[i], b = v, b[n:]
	}
	if r.err {
		clear(dst)
		return
	}
	r.buf = b
}

// String consumes a u16-length-prefixed string, guarded by max bytes.
func (r *Reader) String(max int) string {
	b := r.Take(2)
	if b == nil {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(b))
	if n > max {
		r.Fail()
		return ""
	}
	return string(r.Take(n))
}

// BytesVar consumes a uvarint-length-prefixed byte slice, guarded by
// max bytes, and returns a copy, so the input may be reused. A zero
// length yields nil. Only the decoders registered with
// RegisterRetaining use BytesVarAlias instead.
func (r *Reader) BytesVar(max int) []byte {
	b := r.BytesVarAlias(max)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// BytesVarAlias is BytesVar without the copy: the slice aliases the
// input, capped at its own length so an append to it cannot reach the
// bytes after it. Only a decoder registered with RegisterRetaining may
// keep it.
func (r *Reader) BytesVarAlias(max int) []byte {
	n := r.Uvarint()
	if n > uint64(max) {
		r.Fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	b := r.Take(int(n))
	return b[:len(b):len(b)]
}

// Finish is the standard decode epilogue: it converts reader state
// into the error every decoder returns.
func (r *Reader) Finish(what string) error {
	if r.err {
		return fmt.Errorf("wire: truncated or malformed %s", what)
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after %s", len(r.buf), what)
	}
	return nil
}
