package multicast

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"catocs/internal/vclock"
	"catocs/internal/wire"
)

// Wire codec registrations for the six CBCAST/ABCAST message types, so
// the TCP transport can carry a group across OS processes. tcpnet calls
// these on every frame; SimNet charges each message the length its
// size model (the size* function beside each encoder) reports. On the
// wire a DataMsg payload must be nil or []byte — the codec defines the
// external representation, and externally a payload is bytes. The
// unexported trace hint fields do not travel: a decoded copy arrives
// with no sampling decision, which the tracer treats as "undecided" and
// resolves locally.
//
// After the group name every integer is an unsigned LEB128 varint
// (wire.Uvarint): epochs, sequences, send times, sizes, counts, and
// each clock entry. Ranks, senders and other signed values go as their
// int64 bit pattern, so a (hostile) negative value still round-trips.
// Decoders accept only the canonical encoding — minimal varints, a
// presence flag only with a non-empty field — so a decoded message's
// size model equals its frame length exactly.
//
// Like every wire.Register encoder they are append-style: they extend a
// caller-supplied buffer — tcpnet's pooled frame bodies — so the
// steady-state encode path allocates nothing.

// Decode guards. A hostile or corrupt frame must not make us allocate
// unbounded memory before validation: besides these caps, every
// preallocation is bounded by the bytes left in the frame.
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
	// The two frames that carry a cast keep its payload as a slice of
	// the frame body (readDataMsg), saving a copy per delivery.
	wire.RegisterRetaining(wire.KindMulticast+0, &DataMsg{}, encDataMsg, decDataMsg, sizeDataMsg)
	// KindMulticast+1 carried single order assignments, now answered in
	// runs; +2 and +3 carried the retired agreement mode's proposals and
	// commits (agreement order lives in internal/mgcast). All three stay
	// unassigned so such a frame is rejected, not misread.
	wire.Register(wire.KindMulticast+4, &AckMsg{}, encAckMsg, decAckMsg, sizeAckMsg)
	wire.Register(wire.KindMulticast+5, &NackMsg{}, encNackMsg, decNackMsg, sizeNackMsg)
	wire.Register(wire.KindMulticast+6, &OrderNack{}, encOrderNack, decOrderNack, sizeOrderNack)
	wire.RegisterRetaining(wire.KindMulticast+7, &RetransMsg{}, encRetransMsg, decRetransMsg, sizeRetransMsg)
	wire.Register(wire.KindMulticast+8, &OrderBatchMsg{}, encOrderBatchMsg, decOrderBatchMsg, sizeOrderBatchMsg)
}

// uv is the varint length of a signed value sent as its bit pattern.
func uv(v int64) int { return wire.UvarintLen(uint64(v)) }

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

// payloadLen is the application byte count of a DataMsg on the wire:
// the bytes of a []byte payload, nothing for nil, and the declared
// PayloadSize for an in-process value the simulator carries.
func payloadLen(m *DataMsg) int {
	switch p := m.Payload.(type) {
	case nil:
		return 0
	case []byte:
		return len(p)
	}
	return m.PayloadSize
}

func appendVC(w *wire.Writer, vc vclock.VC) error {
	if len(vc) > wireMaxVC {
		return fmt.Errorf("multicast: vector clock of %d entries exceeds wire limit %d", len(vc), wireMaxVC)
	}
	w.Uvarint(uint64(len(vc)))
	for _, v := range vc {
		w.Uvarint(v)
	}
	return nil
}

func vcLen(vc vclock.VC) int {
	n := wire.UvarintLen(uint64(len(vc)))
	for _, v := range vc {
		n += wire.UvarintLen(v)
	}
	return n
}

// readCount reads an entry count and bounds it by the wire limit and by
// the bytes left, each entry taking at least minEntry of them: a short
// frame claiming a huge count is rejected before it can size an
// allocation.
func readCount(r *wire.Reader, limit, minEntry int) int {
	n := r.Uvarint()
	if n > uint64(limit) || n > uint64(len(r.Rest())/minEntry) {
		r.Fail()
		return 0
	}
	return int(n)
}

func readVC(r *wire.Reader) vclock.VC {
	n := readCount(r, wireMaxVC, 1)
	if n == 0 {
		return nil
	}
	vc := make(vclock.VC, n)
	if r.Uvarints(vc); r.Err() {
		return nil
	}
	return vc
}

func appendDelta(w *wire.Writer, d []vclock.DeltaEntry) error {
	if len(d) > wireMaxVC {
		return fmt.Errorf("multicast: clock delta of %d entries exceeds wire limit %d", len(d), wireMaxVC)
	}
	w.Uvarint(uint64(len(d)))
	for _, e := range d {
		w.Uvarint(uint64(uint32(e.Idx)))
		w.Uvarint(e.Val)
	}
	return nil
}

func deltaLen(d []vclock.DeltaEntry) int {
	n := wire.UvarintLen(uint64(len(d)))
	for _, e := range d {
		n += wire.UvarintLen(uint64(uint32(e.Idx))) + wire.UvarintLen(e.Val)
	}
	return n
}

func readDelta(r *wire.Reader) []vclock.DeltaEntry {
	n := readCount(r, wireMaxVC, 2)
	if n == 0 {
		return nil
	}
	d := make([]vclock.DeltaEntry, n)
	for i := range d {
		idx := r.Uvarint()
		if idx > math.MaxUint32 {
			r.Fail()
		}
		d[i] = vclock.DeltaEntry{Idx: int32(uint32(idx)), Val: r.Uvarint()}
	}
	if r.Err() {
		return nil
	}
	return d
}

func appendMsgID(w *wire.Writer, id MsgID) {
	w.Uvarint(uint64(int64(id.Sender)))
	w.Uvarint(id.Seq)
}

func msgIDLen(id MsgID) int { return uv(int64(id.Sender)) + wire.UvarintLen(id.Seq) }

func readMsgID(r *wire.Reader) MsgID {
	return MsgID{Sender: vclock.ProcessID(int64(r.Uvarint())), Seq: r.Uvarint()}
}

// dataFlags is the stamp-presence byte encDataMsgBody writes. When a
// message carries both a full clock and a delta (a reconstructed copy
// being retransmitted), the full clock wins and the delta is dropped:
// retransmissions must never depend on the receiver's chain state.
func dataFlags(m *DataMsg) byte {
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
	return flags
}

// encDataMsgBody appends the DataMsg encoding to dst.
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
	w.Uvarint(m.Epoch)
	w.Uvarint(uint64(int64(m.Sender)))
	w.Uvarint(m.Seq)
	w.Uvarint(uint64(int64(m.SentAt)))
	w.Uvarint(uint64(int64(m.PayloadSize)))
	flags := dataFlags(m)
	w.U8(flags)
	if flags&dataFlagInc != 0 {
		w.Uvarint(uint64(m.Inc))
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
	w.BytesVar(body)
	return w.Bytes(), nil
}

func encDataMsg(dst []byte, payload any) ([]byte, error) {
	return encDataMsgBody(dst, payload.(*DataMsg))
}

// dataMsgLen is encDataMsgBody's length, memoised on the message: a
// broadcast is sized once, not once per receiver, and the clocks make
// the sum O(N). A message is never mutated once sized; the two places
// that derive a changed copy (a delta send, a reconstructed stamp)
// clear the memo.
func dataMsgLen(m *DataMsg) int {
	if m.wireLen > 0 {
		return int(m.wireLen)
	}
	n := wire.StringLen(m.Group) + wire.UvarintLen(m.Epoch) + uv(int64(m.Sender)) +
		wire.UvarintLen(m.Seq) + uv(int64(m.SentAt)) + uv(int64(m.PayloadSize)) + 1
	flags := dataFlags(m)
	if flags&dataFlagInc != 0 {
		n += wire.UvarintLen(uint64(m.Inc))
	}
	if flags&dataFlagVC != 0 {
		n += vcLen(m.VC)
	}
	if flags&dataFlagDelta != 0 {
		n += deltaLen(m.VCDelta)
	}
	if flags&dataFlagDeliveredVC != 0 {
		n += vcLen(m.DeliveredVC)
	}
	n += wire.BytesVarLen(payloadLen(m))
	m.wireLen = int32(n)
	return n
}

func sizeDataMsg(payload any) (int, int) {
	m := payload.(*DataMsg)
	return dataMsgLen(m), payloadLen(m)
}

func decDataMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m, err := readDataMsg(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish("multicast.DataMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

// readDataMsg decodes one DataMsg body, rejecting every non-canonical
// form: a presence flag over an empty field or a zero incarnation, a
// full clock and a delta together, an incarnation past 32 bits. The
// payload aliases the input (both kinds that call it are registered
// retaining); the clocks and the group name are copied.
func readDataMsg(r *wire.Reader) (*DataMsg, error) {
	group := r.String(wireMaxGroup)
	var h [5]uint64 // epoch, sender, seq, send time, payload size
	r.Uvarints(h[:])
	m := &DataMsg{
		Group:       group,
		Epoch:       h[0],
		Sender:      vclock.ProcessID(int64(h[1])),
		Seq:         h[2],
		SentAt:      time.Duration(int64(h[3])),
		PayloadSize: int(int64(h[4])),
	}
	flags := r.U8()
	if flags&^byte(dataFlagVC|dataFlagDelta|dataFlagDeliveredVC|dataFlagInc) != 0 {
		return nil, fmt.Errorf("multicast: DataMsg with unknown flag bits 0x%02x", flags)
	}
	if flags&dataFlagVC != 0 && flags&dataFlagDelta != 0 {
		return nil, fmt.Errorf("multicast: DataMsg with both a full clock and a delta")
	}
	if flags&dataFlagInc != 0 {
		inc := r.Uvarint()
		if inc == 0 || inc > math.MaxUint32 {
			r.Fail()
		}
		m.Inc = uint32(inc)
	}
	if flags&dataFlagVC != 0 {
		if m.VC = readVC(r); m.VC == nil {
			r.Fail()
		}
	}
	if flags&dataFlagDelta != 0 {
		if m.VCDelta = readDelta(r); m.VCDelta == nil {
			r.Fail()
		}
	}
	if flags&dataFlagDeliveredVC != 0 {
		if m.DeliveredVC = readVC(r); m.DeliveredVC == nil {
			r.Fail()
		}
	}
	if b := r.BytesVarAlias(wireMaxPayload); b != nil {
		m.Payload = b
	}
	return m, nil
}

// OrderBatchMsg is the sequencer's per-run frame: a one-assignment run
// takes well under half its fixed-width bytes.
func encOrderBatchMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(*OrderBatchMsg)
	w := wire.NewAppendWriter(dst)
	w.String(m.Group)
	w.Uvarint(m.Epoch)
	w.Uvarint(m.FirstGlobal)
	if err := appendIDs(&w, m.IDs); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func sizeOrderBatchMsg(payload any) (int, int) {
	m := payload.(*OrderBatchMsg)
	return wire.StringLen(m.Group) + wire.UvarintLen(m.Epoch) + wire.UvarintLen(m.FirstGlobal) + idsLen(m.IDs), 0
}

func decOrderBatchMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &OrderBatchMsg{
		Group:       r.String(wireMaxGroup),
		Epoch:       r.Uvarint(),
		FirstGlobal: r.Uvarint(),
	}
	m.IDs = readIDs(r)
	if err := r.Finish("multicast.OrderBatchMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func encAckMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(*AckMsg)
	w := wire.NewAppendWriter(dst)
	w.String(m.Group)
	w.Uvarint(m.Epoch)
	w.Uvarint(uint64(int64(m.From)))
	w.Bool(m.Settled)
	if err := appendVC(&w, m.Delivered); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func sizeAckMsg(payload any) (int, int) {
	m := payload.(*AckMsg)
	return wire.StringLen(m.Group) + wire.UvarintLen(m.Epoch) + uv(int64(m.From)) + 1 + vcLen(m.Delivered), 0
}

func decAckMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &AckMsg{
		Group:   r.String(wireMaxGroup),
		Epoch:   r.Uvarint(),
		From:    vclock.ProcessID(int64(r.Uvarint())),
		Settled: r.Bool(),
	}
	m.Delivered = readVC(r)
	if err := r.Finish("multicast.AckMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

// appendIDs writes a count-prefixed id list: NACK want lists and order
// runs.
func appendIDs(w *wire.Writer, ids []MsgID) error {
	if len(ids) > wireMaxWant {
		return fmt.Errorf("multicast: id list of %d ids exceeds wire limit %d", len(ids), wireMaxWant)
	}
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		appendMsgID(w, id)
	}
	return nil
}

func idsLen(ids []MsgID) int {
	n := wire.UvarintLen(uint64(len(ids)))
	for _, id := range ids {
		n += msgIDLen(id)
	}
	return n
}

func readIDs(r *wire.Reader) []MsgID {
	n := readCount(r, wireMaxWant, 2)
	if n == 0 {
		return nil
	}
	ids := make([]MsgID, n)
	for i := range ids {
		ids[i] = readMsgID(r)
	}
	if r.Err() {
		return nil
	}
	return ids
}

func encNackMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(*NackMsg)
	w := wire.NewAppendWriter(dst)
	w.String(m.Group)
	w.Uvarint(m.Epoch)
	w.Uvarint(uint64(int64(m.From)))
	if err := appendIDs(&w, m.Want); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func sizeNackMsg(payload any) (int, int) {
	m := payload.(*NackMsg)
	return wire.StringLen(m.Group) + wire.UvarintLen(m.Epoch) + uv(int64(m.From)) + idsLen(m.Want), 0
}

func decNackMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &NackMsg{
		Group: r.String(wireMaxGroup),
		Epoch: r.Uvarint(),
		From:  vclock.ProcessID(int64(r.Uvarint())),
	}
	m.Want = readIDs(r)
	if err := r.Finish("multicast.NackMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func encOrderNack(dst []byte, payload any) ([]byte, error) {
	m := payload.(*OrderNack)
	w := wire.NewAppendWriter(dst)
	w.String(m.Group)
	w.Uvarint(m.Epoch)
	w.Uvarint(uint64(int64(m.From)))
	w.Uvarint(m.FromGlobal)
	if err := appendIDs(&w, m.Want); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func sizeOrderNack(payload any) (int, int) {
	m := payload.(*OrderNack)
	return wire.StringLen(m.Group) + wire.UvarintLen(m.Epoch) + uv(int64(m.From)) +
		wire.UvarintLen(m.FromGlobal) + idsLen(m.Want), 0
}

func decOrderNack(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &OrderNack{
		Group:      r.String(wireMaxGroup),
		Epoch:      r.Uvarint(),
		From:       vclock.ProcessID(int64(r.Uvarint())),
		FromGlobal: r.Uvarint(),
	}
	m.Want = readIDs(r)
	if err := r.Finish("multicast.OrderNack"); err != nil {
		return nil, err
	}
	return m, nil
}

// RetransMsg nests a DataMsg behind its varint length, patched after
// the nested encode so the whole message still appends into one
// buffer: room for the longest prefix the body can need is reserved,
// and the body is shifted down over what the prefix does not use.
func encRetransMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(*RetransMsg)
	if m.Data == nil {
		return nil, fmt.Errorf("multicast: RetransMsg with nil Data")
	}
	w := wire.NewAppendWriter(dst)
	w.String(m.Group)
	w.Uvarint(m.Epoch)
	buf := w.Bytes()
	lenAt := len(buf)
	buf = append(buf, make([]byte, binary.MaxVarintLen32)...)
	buf, err := encDataMsgBody(buf, m.Data)
	if err != nil {
		return nil, err
	}
	inner := len(buf) - lenAt - binary.MaxVarintLen32
	k := binary.PutUvarint(buf[lenAt:], uint64(inner))
	copy(buf[lenAt+k:], buf[lenAt+binary.MaxVarintLen32:])
	return buf[:lenAt+k+inner], nil
}

func sizeRetransMsg(payload any) (int, int) {
	m := payload.(*RetransMsg)
	return wire.StringLen(m.Group) + wire.UvarintLen(m.Epoch) + wire.BytesVarLen(dataMsgLen(m.Data)), payloadLen(m.Data)
}

func decRetransMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &RetransMsg{
		Group: r.String(wireMaxGroup),
		Epoch: r.Uvarint(),
	}
	if n := r.Uvarint(); n != uint64(len(r.Rest())) {
		r.Fail() // the nested body is the rest of the frame, exactly
	}
	data, err := readDataMsg(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish("multicast.RetransMsg"); err != nil {
		return nil, err
	}
	m.Data = data
	return m, nil
}
