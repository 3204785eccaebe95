package multicast

import (
	"encoding/binary"
	"fmt"
	"time"

	"catocs/internal/vclock"
	"catocs/internal/wire"
)

// Wire codec registrations for the eight CBCAST/ABCAST message types,
// so the TCP transport can carry a group across OS processes. The
// in-process networks never call these; tcpnet calls them on every
// frame. On the wire a DataMsg payload must be nil or []byte — the
// codec defines the external representation, and externally a payload
// is bytes. The unexported trace hint fields do not travel: a decoded
// copy arrives with no sampling decision, which the tracer treats as
// "undecided" and resolves locally.
//
// All encoders are append-style (wire.RegisterAppend): they extend a
// caller-supplied buffer — tcpnet's pooled frame bodies — so the
// steady-state encode path allocates nothing.

// Decode guards. A hostile or corrupt frame must not make us allocate
// unbounded memory before validation.
const (
	wireMaxGroup   = 1 << 10 // group name bytes
	wireMaxVC      = 1 << 20 // vector clock / delta entries
	wireMaxPayload = 1 << 26 // payload bytes
	wireMaxWant    = 1 << 16 // NACK want-list / order-batch entries
)

// DataMsg stamp-presence flags (one byte on the wire, extensible).
const (
	dataFlagVC          = 1 << 0 // full vector clock present
	dataFlagDelta       = 1 << 1 // delta-encoded clock present
	dataFlagDeliveredVC = 1 << 2 // piggybacked stability clock present
	dataFlagInc         = 1 << 3 // nonzero sender incarnation present
)

func init() {
	wire.RegisterAppend(wire.KindMulticast+0, &DataMsg{}, encDataMsg, decDataMsg)
	// KindMulticast+1 carried single order assignments, now answered in
	// runs; +2 and +3 carried the retired agreement mode's proposals and
	// commits (agreement order lives in internal/mgcast). All three stay
	// unassigned so such a frame is rejected, not misread.
	wire.RegisterAppend(wire.KindMulticast+4, &AckMsg{}, encAckMsg, decAckMsg)
	wire.RegisterAppend(wire.KindMulticast+5, &NackMsg{}, encNackMsg, decNackMsg)
	wire.RegisterAppend(wire.KindMulticast+6, &OrderNack{}, encOrderNack, decOrderNack)
	wire.RegisterAppend(wire.KindMulticast+7, &RetransMsg{}, encRetransMsg, decRetransMsg)
	wire.RegisterAppend(wire.KindMulticast+8, &OrderBatchMsg{}, encOrderBatchMsg, decOrderBatchMsg)
}

// wirePayloadBytes validates the nil-or-bytes payload constraint.
func wirePayloadBytes(payload any) ([]byte, error) {
	switch p := payload.(type) {
	case nil:
		return nil, nil
	case []byte:
		if len(p) > wireMaxPayload {
			return nil, fmt.Errorf("multicast: payload %d bytes exceeds wire limit %d", len(p), wireMaxPayload)
		}
		return p, nil
	default:
		return nil, fmt.Errorf("multicast: cannot encode payload of type %T (want []byte or nil)", payload)
	}
}

func appendVC(w *wire.Writer, vc vclock.VC) error {
	if len(vc) > wireMaxVC {
		return fmt.Errorf("multicast: vector clock of %d entries exceeds wire limit %d", len(vc), wireMaxVC)
	}
	w.U32(uint32(len(vc)))
	for _, v := range vc {
		w.U64(v)
	}
	return nil
}

func readVC(r *wire.Reader) vclock.VC {
	n := int(r.U32())
	if n > wireMaxVC {
		// Poison the reader: the decoder's Finish rejects the frame.
		r.Take(wireMaxVC + 1)
		return nil
	}
	if n == 0 {
		return nil
	}
	vc := make(vclock.VC, 0, n)
	for i := 0; i < n; i++ {
		vc = append(vc, r.U64())
	}
	if r.Err() {
		return nil
	}
	return vc
}

func appendDelta(w *wire.Writer, d []vclock.DeltaEntry) error {
	if len(d) > wireMaxVC {
		return fmt.Errorf("multicast: clock delta of %d entries exceeds wire limit %d", len(d), wireMaxVC)
	}
	w.U32(uint32(len(d)))
	for _, e := range d {
		w.U32(uint32(e.Idx))
		w.U64(e.Val)
	}
	return nil
}

func readDelta(r *wire.Reader) []vclock.DeltaEntry {
	n := int(r.U32())
	if n > wireMaxVC {
		r.Take(wireMaxVC + 1)
		return nil
	}
	if n == 0 {
		return nil
	}
	d := make([]vclock.DeltaEntry, 0, n)
	for i := 0; i < n; i++ {
		d = append(d, vclock.DeltaEntry{Idx: int32(r.U32()), Val: r.U64()})
	}
	if r.Err() {
		return nil
	}
	return d
}

func appendMsgID(w *wire.Writer, id MsgID) {
	w.I64(int64(id.Sender))
	w.U64(id.Seq)
}

func readMsgID(r *wire.Reader) MsgID {
	return MsgID{Sender: vclock.ProcessID(r.I64()), Seq: r.U64()}
}

// encDataMsgBody appends the DataMsg encoding to dst. When a message
// carries both a full clock and a delta (a reconstructed copy being
// retransmitted), the full clock wins and the delta is dropped:
// retransmissions must never depend on the receiver's chain state.
func encDataMsgBody(dst []byte, m *DataMsg) ([]byte, error) {
	body, err := wirePayloadBytes(m.Payload)
	if err != nil {
		return nil, err
	}
	if len(m.Group) > wireMaxGroup {
		return nil, fmt.Errorf("multicast: group name %d bytes exceeds wire limit %d", len(m.Group), wireMaxGroup)
	}
	w := wire.NewAppendWriter(dst)
	w.String(m.Group)
	w.U64(m.Epoch)
	w.I64(int64(m.Sender))
	w.U64(m.Seq)
	w.I64(int64(m.SentAt))
	w.U32(uint32(m.PayloadSize))
	var flags byte
	if len(m.VC) > 0 {
		flags |= dataFlagVC
	} else if len(m.VCDelta) > 0 {
		flags |= dataFlagDelta
	}
	if len(m.DeliveredVC) > 0 {
		flags |= dataFlagDeliveredVC
	}
	if m.Inc != 0 {
		flags |= dataFlagInc
	}
	w.U8(flags)
	if flags&dataFlagInc != 0 {
		w.U32(m.Inc)
	}
	if flags&dataFlagVC != 0 {
		if err := appendVC(&w, m.VC); err != nil {
			return nil, err
		}
	}
	if flags&dataFlagDelta != 0 {
		if err := appendDelta(&w, m.VCDelta); err != nil {
			return nil, err
		}
	}
	if flags&dataFlagDeliveredVC != 0 {
		if err := appendVC(&w, m.DeliveredVC); err != nil {
			return nil, err
		}
	}
	w.Bytes32(body)
	return w.Bytes(), nil
}

func encDataMsg(dst []byte, payload any) ([]byte, error) {
	return encDataMsgBody(dst, payload.(*DataMsg))
}

func decDataMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &DataMsg{
		Group:  r.String(wireMaxGroup),
		Epoch:  r.U64(),
		Sender: vclock.ProcessID(r.I64()),
		Seq:    r.U64(),
		SentAt: time.Duration(r.I64()),
	}
	m.PayloadSize = int(r.U32())
	flags := r.U8()
	if flags&^byte(dataFlagVC|dataFlagDelta|dataFlagDeliveredVC|dataFlagInc) != 0 {
		return nil, fmt.Errorf("multicast: DataMsg with unknown flag bits 0x%02x", flags)
	}
	if flags&dataFlagInc != 0 {
		m.Inc = r.U32()
	}
	if flags&dataFlagVC != 0 {
		m.VC = readVC(r)
	}
	if flags&dataFlagDelta != 0 {
		m.VCDelta = readDelta(r)
	}
	if flags&dataFlagDeliveredVC != 0 {
		m.DeliveredVC = readVC(r)
	}
	if b := r.Bytes32(wireMaxPayload); b != nil {
		m.Payload = b
	}
	if err := r.Finish("multicast.DataMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

// OrderBatchMsg is the sequencer's per-run frame, so every number in it
// after the group name is a varint: epochs, positions, ranks and
// per-sender sequences are small, and a one-assignment run takes well
// under half its fixed-width bytes. A sender rank goes as its int64 bit
// pattern, so a (hostile) negative rank still round-trips.
func encOrderBatchMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(*OrderBatchMsg)
	if len(m.IDs) > wireMaxWant {
		return nil, fmt.Errorf("multicast: order batch of %d ids exceeds wire limit %d", len(m.IDs), wireMaxWant)
	}
	w := wire.NewAppendWriter(dst)
	w.String(m.Group)
	w.Uvarint(m.Epoch)
	w.Uvarint(m.FirstGlobal)
	w.Uvarint(uint64(len(m.IDs)))
	for _, id := range m.IDs {
		w.Uvarint(uint64(int64(id.Sender)))
		w.Uvarint(id.Seq)
	}
	return w.Bytes(), nil
}

func decOrderBatchMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &OrderBatchMsg{
		Group:       r.String(wireMaxGroup),
		Epoch:       r.Uvarint(),
		FirstGlobal: r.Uvarint(),
	}
	if n := r.Uvarint(); n > wireMaxWant {
		r.Take(len(buf) + 1) // poison: Finish rejects the frame
	} else if n > 0 {
		// Every id takes at least two bytes, which bounds the
		// preallocation by the frame rather than by the claimed count.
		m.IDs = make([]MsgID, 0, min(n, uint64(len(r.Rest())/2)))
		for i := uint64(0); i < n && !r.Err(); i++ {
			m.IDs = append(m.IDs, MsgID{Sender: vclock.ProcessID(int64(r.Uvarint())), Seq: r.Uvarint()})
		}
	}
	if err := r.Finish("multicast.OrderBatchMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func encAckMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(*AckMsg)
	w := wire.NewAppendWriter(dst)
	w.String(m.Group)
	w.U64(m.Epoch)
	w.I64(int64(m.From))
	w.Bool(m.Settled)
	if err := appendVC(&w, m.Delivered); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func decAckMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &AckMsg{
		Group:   r.String(wireMaxGroup),
		Epoch:   r.U64(),
		From:    vclock.ProcessID(r.I64()),
		Settled: r.Bool(),
	}
	m.Delivered = readVC(r)
	if err := r.Finish("multicast.AckMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func appendWant(w *wire.Writer, want []MsgID) error {
	if len(want) > wireMaxWant {
		return fmt.Errorf("multicast: want list of %d ids exceeds wire limit %d", len(want), wireMaxWant)
	}
	w.U32(uint32(len(want)))
	for _, id := range want {
		appendMsgID(w, id)
	}
	return nil
}

func readWant(r *wire.Reader) []MsgID {
	n := int(r.U32())
	if n > wireMaxWant {
		r.Take(wireMaxWant * 16)
		return nil
	}
	if n == 0 {
		return nil
	}
	want := make([]MsgID, 0, n)
	for i := 0; i < n; i++ {
		want = append(want, readMsgID(r))
	}
	if r.Err() {
		return nil
	}
	return want
}

func encNackMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(*NackMsg)
	w := wire.NewAppendWriter(dst)
	w.String(m.Group)
	w.U64(m.Epoch)
	w.I64(int64(m.From))
	if err := appendWant(&w, m.Want); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func decNackMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &NackMsg{
		Group: r.String(wireMaxGroup),
		Epoch: r.U64(),
		From:  vclock.ProcessID(r.I64()),
	}
	m.Want = readWant(r)
	if err := r.Finish("multicast.NackMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func encOrderNack(dst []byte, payload any) ([]byte, error) {
	m := payload.(*OrderNack)
	w := wire.NewAppendWriter(dst)
	w.String(m.Group)
	w.U64(m.Epoch)
	w.I64(int64(m.From))
	w.U64(m.FromGlobal)
	if err := appendWant(&w, m.Want); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func decOrderNack(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &OrderNack{
		Group: r.String(wireMaxGroup),
		Epoch: r.U64(),
		From:  vclock.ProcessID(r.I64()),
	}
	m.FromGlobal = r.U64()
	m.Want = readWant(r)
	if err := r.Finish("multicast.OrderNack"); err != nil {
		return nil, err
	}
	return m, nil
}

func encRetransMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(*RetransMsg)
	if m.Data == nil {
		return nil, fmt.Errorf("multicast: RetransMsg with nil Data")
	}
	w := wire.NewAppendWriter(dst)
	w.String(m.Group)
	w.U64(m.Epoch)
	// Inner length prefix, patched after the nested encode so the whole
	// message still appends into one buffer.
	buf := w.Bytes()
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf, err := encDataMsgBody(buf, m.Data)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(buf[lenAt:lenAt+4], uint32(len(buf)-lenAt-4))
	return buf, nil
}

func decRetransMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &RetransMsg{
		Group: r.String(wireMaxGroup),
		Epoch: r.U64(),
	}
	inner := r.Bytes32(wireMaxPayload + wireMaxGroup + 64 + 16*wireMaxVC)
	if err := r.Finish("multicast.RetransMsg"); err != nil {
		return nil, err
	}
	data, err := decDataMsg(inner)
	if err != nil {
		return nil, err
	}
	m.Data = data.(*DataMsg)
	return m, nil
}
