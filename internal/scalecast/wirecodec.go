package scalecast

import (
	"fmt"
	"slices"
	"time"

	"catocs/internal/transport"
	"catocs/internal/wire"
)

// Wire codec registrations for the six scalecast link-layer types, so
// the TCP transport can carry an overlay across OS processes. A
// FloodMsg never travels bare — every hop wraps it in a LinkPacket —
// so it is encoded inline rather than registered. Its payload on the
// wire is nil, []byte, or the flooded causal-barrier marker
// (barrierPayload), which gets its own tag byte: the barrier is
// protocol traffic that must survive serialization for reconfiguration
// to work across processes.
//
// After the group name every integer is an unsigned LEB128 varint, a
// node id or send time as its int64 bit pattern, as in the multicast
// frames; a payload carries a varint length. Decoders accept only the
// canonical encoding (a barrier's cut lists its origins strictly
// ascending), so a decoded message sizes to its frame exactly.

const (
	scMaxGroup   = 1 << 10 // group name bytes
	scMaxPayload = 1 << 26 // flood payload bytes
	scMaxCut     = 1 << 20 // causal-cut entries
)

// FloodMsg payload tags on the wire.
const (
	floodPayloadNil     = 0x00
	floodPayloadBytes   = 0x01
	floodPayloadBarrier = 0x02
)

func init() {
	wire.Register(wire.KindScalecast+0, &LinkPacket{}, encLinkPacket, decLinkPacket, sizeLinkPacket)
	wire.Register(wire.KindScalecast+1, &LinkAck{}, encLinkAck, decLinkAck, func(p any) (int, int) {
		a := p.(*LinkAck)
		return wire.StringLen(a.Group) + wire.UvarintLen(a.Session) + wire.UvarintLen(a.Cum), 0
	})
	wire.Register(wire.KindScalecast+2, &LinkNack{}, encLinkNack, decLinkNack, func(p any) (int, int) {
		n := p.(*LinkNack)
		return wire.StringLen(n.Group) + wire.UvarintLen(n.Session) + wire.UvarintLen(n.From) + wire.UvarintLen(n.To), 0
	})
	wire.Register(wire.KindScalecast+3, &LinkHeartbeat{}, encLinkHeartbeat, decLinkHeartbeat, func(p any) (int, int) {
		h := p.(*LinkHeartbeat)
		return wire.StringLen(h.Group) + wire.UvarintLen(h.Session) + wire.UvarintLen(h.Top), 0
	})
	wire.Register(wire.KindScalecast+4, &LinkBarrier{}, encLinkBarrier, decLinkBarrier, sizeLinkBarrier)
	wire.Register(wire.KindScalecast+5, &LinkBarrierAck{}, encLinkBarrierAck, decLinkBarrierAck,
		func(p any) (int, int) {
			b := p.(*LinkBarrierAck)
			return wire.StringLen(b.Group) + wire.UvarintLen(b.Session), 0
		})
}

// uv is the varint length of a signed value sent as its bit pattern.
func uv(v int64) int { return wire.UvarintLen(uint64(v)) }

// floodMsgLen is encFloodMsg's length and the application bytes in it.
// A flooded barrier is all control; an in-process simulator value is
// charged as if its PayloadSize were bytes.
func floodMsgLen(m *FloodMsg) (n, app int) {
	n = wire.StringLen(m.Group) + uv(int64(m.Origin)) + wire.UvarintLen(m.Seq) +
		uv(int64(m.SentAt)) + uv(int64(m.Hops)) + uv(int64(m.PayloadSize)) + 1
	switch p := m.Payload.(type) {
	case nil:
		return n, 0
	case []byte:
		return n + wire.BytesVarLen(len(p)), len(p)
	case barrierPayload:
		return n + uv(int64(p.From)) + uv(int64(p.To)) + wire.UvarintLen(p.Gen), 0
	}
	return n + wire.BytesVarLen(m.PayloadSize), m.PayloadSize
}

func sizeLinkPacket(payload any) (int, int) {
	p := payload.(*LinkPacket)
	n, app := floodMsgLen(p.Msg)
	return wire.StringLen(p.Group) + wire.UvarintLen(p.Session) + wire.UvarintLen(p.Seq) + n, app
}

func encFloodMsg(w *wire.Writer, m *FloodMsg) error {
	if len(m.Group) > scMaxGroup {
		return fmt.Errorf("scalecast: group name %d bytes exceeds wire limit %d", len(m.Group), scMaxGroup)
	}
	w.String(m.Group)
	w.Uvarint(uint64(int64(m.Origin)))
	w.Uvarint(m.Seq)
	w.Uvarint(uint64(int64(m.SentAt)))
	w.Uvarint(uint64(int64(m.Hops)))
	w.Uvarint(uint64(int64(m.PayloadSize)))
	switch p := m.Payload.(type) {
	case nil:
		w.U8(floodPayloadNil)
	case []byte:
		if len(p) > scMaxPayload {
			return fmt.Errorf("scalecast: payload %d bytes exceeds wire limit %d", len(p), scMaxPayload)
		}
		w.U8(floodPayloadBytes)
		w.BytesVar(p)
	case barrierPayload:
		w.U8(floodPayloadBarrier)
		w.Uvarint(uint64(int64(p.From)))
		w.Uvarint(uint64(int64(p.To)))
		w.Uvarint(p.Gen)
	default:
		return fmt.Errorf("scalecast: cannot encode flood payload of type %T (want []byte, nil, or barrier)", m.Payload)
	}
	return nil
}

func decFloodMsg(r *wire.Reader) *FloodMsg {
	m := &FloodMsg{
		Group:       r.String(scMaxGroup),
		Origin:      transport.NodeID(r.Uvarint()),
		Seq:         r.Uvarint(),
		SentAt:      time.Duration(r.Uvarint()),
		Hops:        int(r.Uvarint()),
		PayloadSize: int(r.Uvarint()),
	}
	switch tag := r.U8(); tag {
	case floodPayloadNil:
	case floodPayloadBytes:
		b := r.BytesVar(scMaxPayload)
		if b == nil {
			b = []byte{} // an empty payload re-encodes under its own tag
		}
		m.Payload = b
	case floodPayloadBarrier:
		m.Payload = barrierPayload{
			From: transport.NodeID(r.Uvarint()),
			To:   transport.NodeID(r.Uvarint()),
			Gen:  r.Uvarint(),
		}
	default:
		r.Fail() // unknown payload tag
	}
	return m
}

func encLinkPacket(dst []byte, payload any) ([]byte, error) {
	p := payload.(*LinkPacket)
	if p.Msg == nil {
		return nil, fmt.Errorf("scalecast: LinkPacket with nil Msg")
	}
	w := wire.NewAppendWriter(dst)
	w.String(p.Group)
	w.Uvarint(p.Session)
	w.Uvarint(p.Seq)
	if err := encFloodMsg(&w, p.Msg); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func decLinkPacket(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	p := &LinkPacket{
		Group:   r.String(scMaxGroup),
		Session: r.Uvarint(),
		Seq:     r.Uvarint(),
	}
	p.Msg = decFloodMsg(r)
	if err := r.Finish("scalecast.LinkPacket"); err != nil {
		return nil, err
	}
	return p, nil
}

func encLinkAck(dst []byte, payload any) ([]byte, error) {
	p := payload.(*LinkAck)
	w := wire.NewAppendWriter(dst)
	w.String(p.Group)
	w.Uvarint(p.Session)
	w.Uvarint(p.Cum)
	return w.Bytes(), nil
}

func decLinkAck(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	p := &LinkAck{Group: r.String(scMaxGroup), Session: r.Uvarint(), Cum: r.Uvarint()}
	if err := r.Finish("scalecast.LinkAck"); err != nil {
		return nil, err
	}
	return p, nil
}

func encLinkNack(dst []byte, payload any) ([]byte, error) {
	p := payload.(*LinkNack)
	w := wire.NewAppendWriter(dst)
	w.String(p.Group)
	w.Uvarint(p.Session)
	w.Uvarint(p.From)
	w.Uvarint(p.To)
	return w.Bytes(), nil
}

func decLinkNack(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	p := &LinkNack{Group: r.String(scMaxGroup), Session: r.Uvarint(), From: r.Uvarint(), To: r.Uvarint()}
	if err := r.Finish("scalecast.LinkNack"); err != nil {
		return nil, err
	}
	return p, nil
}

func encLinkHeartbeat(dst []byte, payload any) ([]byte, error) {
	p := payload.(*LinkHeartbeat)
	w := wire.NewAppendWriter(dst)
	w.String(p.Group)
	w.Uvarint(p.Session)
	w.Uvarint(p.Top)
	return w.Bytes(), nil
}

func decLinkHeartbeat(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	p := &LinkHeartbeat{Group: r.String(scMaxGroup), Session: r.Uvarint(), Top: r.Uvarint()}
	if err := r.Finish("scalecast.LinkHeartbeat"); err != nil {
		return nil, err
	}
	return p, nil
}

func sizeLinkBarrier(payload any) (int, int) {
	b := payload.(*LinkBarrier)
	n := wire.StringLen(b.Group) + wire.UvarintLen(b.Session) + 1 + wire.UvarintLen(uint64(len(b.Cut)))
	for k, v := range b.Cut {
		n += uv(int64(k)) + wire.UvarintLen(v)
	}
	return n, 0
}

func encLinkBarrier(dst []byte, payload any) ([]byte, error) {
	p := payload.(*LinkBarrier)
	if len(p.Cut) > scMaxCut {
		return nil, fmt.Errorf("scalecast: causal cut of %d entries exceeds wire limit %d", len(p.Cut), scMaxCut)
	}
	w := wire.NewAppendWriter(dst)
	w.String(p.Group)
	w.Uvarint(p.Session)
	w.Bool(p.Fresh)
	// Ascending origins, so identical barriers encode identically.
	keys := make([]transport.NodeID, 0, len(p.Cut))
	for k := range p.Cut {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Uvarint(uint64(int64(k)))
		w.Uvarint(p.Cut[k])
	}
	return w.Bytes(), nil
}

func decLinkBarrier(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	p := &LinkBarrier{
		Group:   r.String(scMaxGroup),
		Session: r.Uvarint(),
		Fresh:   r.Bool(),
	}
	// Each entry takes at least two bytes, so the bytes left bound the
	// count before it sizes the map.
	n := r.Uvarint()
	if n > scMaxCut || n > uint64(len(r.Rest())/2) {
		r.Fail()
	} else if n > 0 {
		p.Cut = make(map[transport.NodeID]uint64, n)
		var prev transport.NodeID
		for i := range int(n) {
			k := transport.NodeID(r.Uvarint())
			if i > 0 && k <= prev {
				r.Fail() // origins travel strictly ascending
			}
			p.Cut[k], prev = r.Uvarint(), k
		}
	}
	if err := r.Finish("scalecast.LinkBarrier"); err != nil {
		return nil, err
	}
	return p, nil
}

func encLinkBarrierAck(dst []byte, payload any) ([]byte, error) {
	p := payload.(*LinkBarrierAck)
	w := wire.NewAppendWriter(dst)
	w.String(p.Group)
	w.Uvarint(p.Session)
	return w.Bytes(), nil
}

func decLinkBarrierAck(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	p := &LinkBarrierAck{Group: r.String(scMaxGroup), Session: r.Uvarint()}
	if err := r.Finish("scalecast.LinkBarrierAck"); err != nil {
		return nil, err
	}
	return p, nil
}
