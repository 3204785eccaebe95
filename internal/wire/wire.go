// Package wire is the registry-based codec layer that gives the
// repo's `payload any` messages a defined external representation, so
// a real network transport (internal/transport/tcpnet) or a durable
// log can carry them between OS processes.
//
// The in-process SimNet hands Go values from sender to handler, so
// nothing here runs on its hot path. tcpnet calls
// Marshal at every Send and Unmarshal at every frame receive, which is
// exactly the end-to-end serialization cost the paper's §3–§5 say an
// honest scaling measurement must include.
//
// Each protocol package registers its own message types (see
// internal/multicast/wirecodec.go and friends) under a stable 16-bit
// kind. Encoding follows the conventions established by
// internal/mgcast/codec.go: little-endian, length-prefixed strings and
// byte slices, every length validated against a guard before
// allocation, truncated input and trailing garbage rejected. The
// Writer/Reader helpers here are those conventions packaged for reuse;
// the Reader carries sticky error state so decoders read straight
// through and check once.
package wire

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
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
	KindHarness   Kind = 0x0050 // internal/netharness control traffic
)

// EncodeFunc serializes a registered payload. It must accept exactly
// the concrete type registered with it.
type EncodeFunc func(payload any) ([]byte, error)

// AppendEncodeFunc serializes a registered payload by appending its
// encoding to dst and returning the extended slice. Append-style
// encoders let transports reuse pooled buffers so the steady-state
// encode path allocates nothing.
type AppendEncodeFunc func(dst []byte, payload any) ([]byte, error)

// DecodeFunc inverts EncodeFunc. It must reject truncated input,
// oversized length prefixes, and trailing garbage.
type DecodeFunc func(buf []byte) (any, error)

// entry is one registered message type.
type entry struct {
	kind      Kind
	enc       EncodeFunc
	appendEnc AppendEncodeFunc // nil when registered via Register
	dec       DecodeFunc
}

var (
	regMu  sync.RWMutex
	byType = make(map[reflect.Type]*entry)
	byKind = make(map[Kind]*entry)
	nameOf = make(map[Kind]string)
)

// Register installs a codec for the concrete type of zero under kind.
// Protocol packages call it from init, so any process that links a
// protocol can frame and parse its traffic. Register panics on a
// duplicate kind or type: kind collisions are wire-protocol bugs that
// must fail at process start, not at decode time.
func Register(kind Kind, zero any, enc EncodeFunc, dec DecodeFunc) {
	t := reflect.TypeOf(zero)
	if t == nil {
		panic("wire: Register with untyped nil")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := byKind[kind]; dup {
		panic(fmt.Sprintf("wire: kind 0x%04x registered twice (%s and %s)", uint16(kind), nameOf[kind], t))
	}
	if e, dup := byType[t]; dup {
		panic(fmt.Sprintf("wire: type %s registered twice (kinds 0x%04x and 0x%04x)", t, uint16(e.kind), uint16(kind)))
	}
	e := &entry{kind: kind, enc: enc, dec: dec}
	byType[t] = e
	byKind[kind] = e
	nameOf[kind] = t.String()
}

// RegisterAppend installs an append-style codec for the concrete type
// of zero under kind; the classic EncodeFunc is derived from it. Same
// duplicate-detection rules as Register.
func RegisterAppend(kind Kind, zero any, enc AppendEncodeFunc, dec DecodeFunc) {
	Register(kind, zero, func(payload any) ([]byte, error) {
		return enc(nil, payload)
	}, dec)
	regMu.Lock()
	byKind[kind].appendEnc = enc
	regMu.Unlock()
}

// Registered reports whether payload's concrete type has a codec.
func Registered(payload any) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := byType[reflect.TypeOf(payload)]
	return ok
}

// Marshal serializes payload under its registered kind.
func Marshal(payload any) (Kind, []byte, error) {
	regMu.RLock()
	e, ok := byType[reflect.TypeOf(payload)]
	regMu.RUnlock()
	if !ok {
		return 0, nil, fmt.Errorf("wire: no codec registered for %T", payload)
	}
	buf, err := e.enc(payload)
	if err != nil {
		return 0, nil, err
	}
	return e.kind, buf, nil
}

// MarshalAppend serializes payload under its registered kind, appending
// the encoding to dst and returning the extended slice. Types
// registered with RegisterAppend encode straight into dst (no
// intermediate allocation); Register'd types fall back to encode-then-
// copy.
func MarshalAppend(dst []byte, payload any) (Kind, []byte, error) {
	regMu.RLock()
	e, ok := byType[reflect.TypeOf(payload)]
	regMu.RUnlock()
	if !ok {
		return 0, dst, fmt.Errorf("wire: no codec registered for %T", payload)
	}
	if e.appendEnc != nil {
		out, err := e.appendEnc(dst, payload)
		if err != nil {
			return 0, dst, err
		}
		return e.kind, out, nil
	}
	buf, err := e.enc(payload)
	if err != nil {
		return 0, dst, err
	}
	return e.kind, append(dst, buf...), nil
}

// Unmarshal parses a body under kind.
func Unmarshal(kind Kind, buf []byte) (any, error) {
	regMu.RLock()
	e, ok := byKind[kind]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wire: unknown kind 0x%04x", uint16(kind))
	}
	return e.dec(buf)
}

// EncodedSize returns the exact encoded byte count of payload, or
// ok=false when its type has no codec (or the value fails to encode).
// tcpnet does not call it (its byte counters charge the frames it
// writes); the repo benchmark's trace pass does, to report how far the
// transport.ApproxSize estimate is from the real encoding
// (wire.size_model_err_pct).
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
	regMu.RLock()
	defer regMu.RUnlock()
	return nameOf[kind]
}

// Writer accumulates an encoding. The zero value is ready to use; Grow
// preallocates when the caller knows the size.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with capacity n.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// NewAppendWriter returns a by-value writer that appends to dst,
// typically a pooled buffer. Declared as a local (`w :=
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

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Uvarint appends v as an unsigned LEB128 varint (1 byte below 128, at
// most 10).
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// String appends a u16 length prefix and the bytes of s.
func (w *Writer) String(s string) {
	w.U16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes32 appends a u32 length prefix and b.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
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

// Rest returns the unconsumed remainder.
func (r *Reader) Rest() []byte { return r.buf }

// Done reports whether the input was consumed exactly.
func (r *Reader) Done() bool { return !r.err && len(r.buf) == 0 }

// Take consumes n bytes, aliasing the input buffer (copy before
// retaining).
func (r *Reader) Take(n int) []byte {
	if r.err || n < 0 || n > len(r.buf) {
		r.err = true
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
		r.err = true
		return false
	}
}

// U16 consumes a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.Take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 consumes a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 consumes a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 consumes a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Uvarint consumes an unsigned LEB128 varint. Truncated input, an
// encoding longer than 10 bytes or past 64 bits, and a non-minimal one
// (a trailing zero byte) all set the sticky error, so each value has
// exactly one accepted encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || (n > 1 && r.buf[n-1] == 0) {
		r.err = true
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// String consumes a u16-length-prefixed string, guarded by max bytes.
func (r *Reader) String(max int) string {
	n := int(r.U16())
	if n > max {
		r.err = true
		return ""
	}
	return string(r.Take(n))
}

// Bytes32 consumes a u32-length-prefixed byte slice (copied, not
// aliased), guarded by max bytes. A zero length yields nil.
func (r *Reader) Bytes32(max int) []byte {
	n := int(r.U32())
	if n > max {
		r.err = true
		return nil
	}
	if n == 0 {
		return nil
	}
	b := r.Take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
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
