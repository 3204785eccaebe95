package pubsub

import (
	"fmt"

	"catocs/internal/transport"
	"catocs/internal/wire"
)

// Wire codec registrations for the information-bus message types, so
// the TCP transport can run the pub/sub front door between processes —
// load generators publish into a node fleet through exactly this
// path. Values on the wire must be nil or []byte; the bus carries
// opaque data, and externally data is bytes.

const (
	psMaxSubject = 1 << 10 // subject/pattern bytes
	psMaxValue   = 1 << 26 // published value bytes
	psMaxEvents  = 1 << 16 // sync-reply batch entries
)

func init() {
	wire.Register(wire.KindPubsub+0, pubMsg{}, encPubMsg, decPubMsg, func(p any) (int, int) {
		m := p.(pubMsg)
		v := valueLen(m.Value)
		return wire.StringLen(m.Subject) + 8 + 8 + 1 + 8 + 8 + 4 + v, v
	})
	wire.Register(wire.KindPubsub+1, replyMsg{}, encReplyMsg, decReplyMsg, func(p any) (int, int) {
		v := valueLen(p.(replyMsg).Value)
		return 8 + 4 + v, v
	})
	wire.Register(wire.KindPubsub+2, syncReq{}, encSyncReq, decSyncReq, func(p any) (int, int) {
		return wire.StringLen(p.(syncReq).Pattern) + 8, 0
	})
	wire.Register(wire.KindPubsub+3, syncReply{}, encSyncReply, decSyncReply, func(p any) (int, int) {
		n, app := 4, 0
		for _, ev := range p.(syncReply).Events {
			v := valueLen(ev.Value)
			n += wire.StringLen(ev.Subject) + 8 + 8 + 4 + v
			app += v
		}
		return n, app
	})
}

// valueLen is the application byte count of a value: exact for the
// []byte values the codec carries, a string's bytes for the in-process
// values the simulator carries, zero for nil and other opaque values.
func valueLen(v any) int {
	switch v := v.(type) {
	case []byte:
		return len(v)
	case string:
		return len(v)
	}
	return 0
}

func valueBytes(v any) ([]byte, error) {
	switch b := v.(type) {
	case nil:
		return nil, nil
	case []byte:
		if len(b) > psMaxValue {
			return nil, fmt.Errorf("pubsub: value %d bytes exceeds wire limit %d", len(b), psMaxValue)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("pubsub: cannot encode value of type %T (want []byte or nil)", v)
	}
}

func encPubMsg(payload any) ([]byte, error) {
	m := payload.(pubMsg)
	body, err := valueBytes(m.Value)
	if err != nil {
		return nil, err
	}
	if len(m.Subject) > psMaxSubject {
		return nil, fmt.Errorf("pubsub: subject %d bytes exceeds wire limit %d", len(m.Subject), psMaxSubject)
	}
	w := wire.NewWriter(48 + len(m.Subject) + len(body))
	w.String(m.Subject)
	w.I64(int64(m.Publisher))
	w.U64(m.Seq)
	w.Bool(m.Reply)
	w.I64(int64(m.ReplyTo))
	w.U64(m.ReplyID)
	w.Bytes32(body)
	return w.Bytes(), nil
}

func decPubMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := pubMsg{
		Subject:   r.String(psMaxSubject),
		Publisher: transport.NodeID(r.I64()),
		Seq:       r.U64(),
		Reply:     r.Bool(),
		ReplyTo:   transport.NodeID(r.I64()),
		ReplyID:   r.U64(),
	}
	if b := r.Bytes32(psMaxValue); b != nil {
		m.Value = b
	}
	if err := r.Finish("pubsub.pubMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func encReplyMsg(payload any) ([]byte, error) {
	m := payload.(replyMsg)
	body, err := valueBytes(m.Value)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(16 + len(body))
	w.U64(m.ReplyID)
	w.Bytes32(body)
	return w.Bytes(), nil
}

func decReplyMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := replyMsg{ReplyID: r.U64()}
	if b := r.Bytes32(psMaxValue); b != nil {
		m.Value = b
	}
	if err := r.Finish("pubsub.replyMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func encSyncReq(payload any) ([]byte, error) {
	m := payload.(syncReq)
	if len(m.Pattern) > psMaxSubject {
		return nil, fmt.Errorf("pubsub: pattern %d bytes exceeds wire limit %d", len(m.Pattern), psMaxSubject)
	}
	w := wire.NewWriter(16 + len(m.Pattern))
	w.String(m.Pattern)
	w.I64(int64(m.From))
	return w.Bytes(), nil
}

func decSyncReq(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := syncReq{Pattern: r.String(psMaxSubject), From: transport.NodeID(r.I64())}
	if err := r.Finish("pubsub.syncReq"); err != nil {
		return nil, err
	}
	return m, nil
}

func encSyncReply(payload any) ([]byte, error) {
	m := payload.(syncReply)
	if len(m.Events) > psMaxEvents {
		return nil, fmt.Errorf("pubsub: sync reply of %d events exceeds wire limit %d", len(m.Events), psMaxEvents)
	}
	w := wire.NewWriter(8 + 48*len(m.Events))
	w.U32(uint32(len(m.Events)))
	for _, ev := range m.Events {
		body, err := valueBytes(ev.Value)
		if err != nil {
			return nil, err
		}
		if len(ev.Subject) > psMaxSubject {
			return nil, fmt.Errorf("pubsub: subject %d bytes exceeds wire limit %d", len(ev.Subject), psMaxSubject)
		}
		w.String(ev.Subject)
		w.I64(int64(ev.Publisher))
		w.U64(ev.Seq)
		w.Bytes32(body)
	}
	return w.Bytes(), nil
}

func decSyncReply(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	n := int(r.U32())
	if n > psMaxEvents {
		return nil, fmt.Errorf("pubsub: sync reply of %d events exceeds wire limit %d", n, psMaxEvents)
	}
	var m syncReply
	if n > 0 {
		m.Events = make([]Event, 0, min(n, 1024))
		for i := 0; i < n; i++ {
			ev := Event{
				Subject:   r.String(psMaxSubject),
				Publisher: transport.NodeID(r.I64()),
				Seq:       r.U64(),
			}
			if b := r.Bytes32(psMaxValue); b != nil {
				ev.Value = b
			}
			if r.Err() {
				break
			}
			m.Events = append(m.Events, ev)
		}
	}
	if err := r.Finish("pubsub.syncReply"); err != nil {
		return nil, err
	}
	return m, nil
}
