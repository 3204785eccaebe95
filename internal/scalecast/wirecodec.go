package scalecast

import (
	"fmt"
	"sort"
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
	wire.Register(wire.KindScalecast+1, &LinkAck{}, encLinkAck, decLinkAck,
		func(p any) (int, int) { return wire.StringLen(p.(*LinkAck).Group) + 16, 0 })
	wire.Register(wire.KindScalecast+2, &LinkNack{}, encLinkNack, decLinkNack,
		func(p any) (int, int) { return wire.StringLen(p.(*LinkNack).Group) + 24, 0 })
	wire.Register(wire.KindScalecast+3, &LinkHeartbeat{}, encLinkHeartbeat, decLinkHeartbeat,
		func(p any) (int, int) { return wire.StringLen(p.(*LinkHeartbeat).Group) + 16, 0 })
	wire.Register(wire.KindScalecast+4, &LinkBarrier{}, encLinkBarrier, decLinkBarrier,
		func(p any) (int, int) { b := p.(*LinkBarrier); return wire.StringLen(b.Group) + 13 + 16*len(b.Cut), 0 })
	wire.Register(wire.KindScalecast+5, &LinkBarrierAck{}, encLinkBarrierAck, decLinkBarrierAck,
		func(p any) (int, int) { return wire.StringLen(p.(*LinkBarrierAck).Group) + 8, 0 })
}

// floodMsgLen is encFloodMsg's length and the application bytes in it.
// A flooded barrier is all control; an in-process simulator value is
// charged as if its PayloadSize were bytes.
func floodMsgLen(m *FloodMsg) (n, app int) {
	n = wire.StringLen(m.Group) + 8 + 8 + 8 + 4 + 4 + 1
	switch p := m.Payload.(type) {
	case nil:
		return n, 0
	case []byte:
		return n + 4 + len(p), len(p)
	case barrierPayload:
		return n + 24, 0
	}
	return n + 4 + m.PayloadSize, m.PayloadSize
}

func sizeLinkPacket(payload any) (int, int) {
	p := payload.(*LinkPacket)
	n, app := floodMsgLen(p.Msg)
	return wire.StringLen(p.Group) + 16 + n, app
}

func encFloodMsg(w *wire.Writer, m *FloodMsg) error {
	if len(m.Group) > scMaxGroup {
		return fmt.Errorf("scalecast: group name %d bytes exceeds wire limit %d", len(m.Group), scMaxGroup)
	}
	w.String(m.Group)
	w.I64(int64(m.Origin))
	w.U64(m.Seq)
	w.I64(int64(m.SentAt))
	w.U32(uint32(m.Hops))
	w.U32(uint32(m.PayloadSize))
	switch p := m.Payload.(type) {
	case nil:
		w.U8(floodPayloadNil)
	case []byte:
		if len(p) > scMaxPayload {
			return fmt.Errorf("scalecast: payload %d bytes exceeds wire limit %d", len(p), scMaxPayload)
		}
		w.U8(floodPayloadBytes)
		w.Bytes32(p)
	case barrierPayload:
		w.U8(floodPayloadBarrier)
		w.I64(int64(p.From))
		w.I64(int64(p.To))
		w.U64(p.Gen)
	default:
		return fmt.Errorf("scalecast: cannot encode flood payload of type %T (want []byte, nil, or barrier)", m.Payload)
	}
	return nil
}

func decFloodMsg(r *wire.Reader) *FloodMsg {
	m := &FloodMsg{
		Group:  r.String(scMaxGroup),
		Origin: transport.NodeID(r.I64()),
		Seq:    r.U64(),
		SentAt: time.Duration(r.I64()),
		Hops:   int(r.U32()),
	}
	m.PayloadSize = int(r.U32())
	switch tag := r.U8(); tag {
	case floodPayloadNil:
	case floodPayloadBytes:
		b := r.Bytes32(scMaxPayload)
		if b == nil {
			b = []byte{} // an empty payload re-encodes under its own tag
		}
		m.Payload = b
	case floodPayloadBarrier:
		m.Payload = barrierPayload{
			From: transport.NodeID(r.I64()),
			To:   transport.NodeID(r.I64()),
			Gen:  r.U64(),
		}
	default:
		// Poison: unknown payload tag.
		r.Take(scMaxPayload + 1)
	}
	return m
}

func encLinkPacket(payload any) ([]byte, error) {
	p := payload.(*LinkPacket)
	if p.Msg == nil {
		return nil, fmt.Errorf("scalecast: LinkPacket with nil Msg")
	}
	w := wire.NewWriter(64 + len(p.Group) + p.Msg.PayloadSize)
	w.String(p.Group)
	w.U64(p.Session)
	w.U64(p.Seq)
	if err := encFloodMsg(w, p.Msg); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func decLinkPacket(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	p := &LinkPacket{
		Group:   r.String(scMaxGroup),
		Session: r.U64(),
		Seq:     r.U64(),
	}
	p.Msg = decFloodMsg(r)
	if err := r.Finish("scalecast.LinkPacket"); err != nil {
		return nil, err
	}
	return p, nil
}

func encLinkAck(payload any) ([]byte, error) {
	p := payload.(*LinkAck)
	w := wire.NewWriter(24 + len(p.Group))
	w.String(p.Group)
	w.U64(p.Session)
	w.U64(p.Cum)
	return w.Bytes(), nil
}

func decLinkAck(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	p := &LinkAck{Group: r.String(scMaxGroup), Session: r.U64(), Cum: r.U64()}
	if err := r.Finish("scalecast.LinkAck"); err != nil {
		return nil, err
	}
	return p, nil
}

func encLinkNack(payload any) ([]byte, error) {
	p := payload.(*LinkNack)
	w := wire.NewWriter(32 + len(p.Group))
	w.String(p.Group)
	w.U64(p.Session)
	w.U64(p.From)
	w.U64(p.To)
	return w.Bytes(), nil
}

func decLinkNack(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	p := &LinkNack{Group: r.String(scMaxGroup), Session: r.U64(), From: r.U64(), To: r.U64()}
	if err := r.Finish("scalecast.LinkNack"); err != nil {
		return nil, err
	}
	return p, nil
}

func encLinkHeartbeat(payload any) ([]byte, error) {
	p := payload.(*LinkHeartbeat)
	w := wire.NewWriter(24 + len(p.Group))
	w.String(p.Group)
	w.U64(p.Session)
	w.U64(p.Top)
	return w.Bytes(), nil
}

func decLinkHeartbeat(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	p := &LinkHeartbeat{Group: r.String(scMaxGroup), Session: r.U64(), Top: r.U64()}
	if err := r.Finish("scalecast.LinkHeartbeat"); err != nil {
		return nil, err
	}
	return p, nil
}

func encLinkBarrier(payload any) ([]byte, error) {
	p := payload.(*LinkBarrier)
	if len(p.Cut) > scMaxCut {
		return nil, fmt.Errorf("scalecast: causal cut of %d entries exceeds wire limit %d", len(p.Cut), scMaxCut)
	}
	w := wire.NewWriter(32 + len(p.Group) + 16*len(p.Cut))
	w.String(p.Group)
	w.U64(p.Session)
	w.Bool(p.Fresh)
	// Deterministic order so identical barriers encode identically.
	keys := make([]transport.NodeID, 0, len(p.Cut))
	for k := range p.Cut {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.I64(int64(k))
		w.U64(p.Cut[k])
	}
	return w.Bytes(), nil
}

func decLinkBarrier(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	p := &LinkBarrier{
		Group:   r.String(scMaxGroup),
		Session: r.U64(),
		Fresh:   r.Bool(),
	}
	n := int(r.U32())
	if n > scMaxCut {
		return nil, fmt.Errorf("scalecast: causal cut of %d entries exceeds wire limit %d", n, scMaxCut)
	}
	if n > 0 {
		p.Cut = make(map[transport.NodeID]uint64, min(n, 1024))
		for i := 0; i < n; i++ {
			k := transport.NodeID(r.I64())
			v := r.U64()
			if r.Err() {
				break
			}
			if _, dup := p.Cut[k]; dup {
				// A repeated origin would re-encode shorter than it came.
				return nil, fmt.Errorf("scalecast: causal cut repeats origin %d", k)
			}
			p.Cut[k] = v
		}
	}
	if err := r.Finish("scalecast.LinkBarrier"); err != nil {
		return nil, err
	}
	return p, nil
}

func encLinkBarrierAck(payload any) ([]byte, error) {
	p := payload.(*LinkBarrierAck)
	w := wire.NewWriter(16 + len(p.Group))
	w.String(p.Group)
	w.U64(p.Session)
	return w.Bytes(), nil
}

func decLinkBarrierAck(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	p := &LinkBarrierAck{Group: r.String(scMaxGroup), Session: r.U64()}
	if err := r.Finish("scalecast.LinkBarrierAck"); err != nil {
		return nil, err
	}
	return p, nil
}
