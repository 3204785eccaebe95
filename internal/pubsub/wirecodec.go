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
		return wire.StringLen(m.Subject) + uv(int64(m.Publisher)) + wire.UvarintLen(m.Seq) + 1 +
			uv(int64(m.ReplyTo)) + wire.UvarintLen(m.ReplyID) + wire.BytesVarLen(v), v
	})
	wire.Register(wire.KindPubsub+1, replyMsg{}, encReplyMsg, decReplyMsg, func(p any) (int, int) {
		m := p.(replyMsg)
		v := valueLen(m.Value)
		return wire.UvarintLen(m.ReplyID) + wire.BytesVarLen(v), v
	})
	wire.Register(wire.KindPubsub+2, syncReq{}, encSyncReq, decSyncReq, func(p any) (int, int) {
		m := p.(syncReq)
		return wire.StringLen(m.Pattern) + uv(int64(m.From)), 0
	})
	wire.Register(wire.KindPubsub+3, syncReply{}, encSyncReply, decSyncReply, func(p any) (int, int) {
		evs := p.(syncReply).Events
		n, app := wire.UvarintLen(uint64(len(evs))), 0
		for _, ev := range evs {
			v := valueLen(ev.Value)
			n += wire.StringLen(ev.Subject) + uv(int64(ev.Publisher)) + wire.UvarintLen(ev.Seq) + wire.BytesVarLen(v)
			app += v
		}
		return n, app
	})
}

// uv is the varint length of a signed value sent as its bit pattern.
func uv(v int64) int { return wire.UvarintLen(uint64(v)) }

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

func encPubMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(pubMsg)
	body, err := valueBytes(m.Value)
	if err != nil {
		return nil, err
	}
	if len(m.Subject) > psMaxSubject {
		return nil, fmt.Errorf("pubsub: subject %d bytes exceeds wire limit %d", len(m.Subject), psMaxSubject)
	}
	w := wire.NewAppendWriter(dst)
	w.String(m.Subject)
	w.Uvarint(uint64(int64(m.Publisher)))
	w.Uvarint(m.Seq)
	w.Bool(m.Reply)
	w.Uvarint(uint64(int64(m.ReplyTo)))
	w.Uvarint(m.ReplyID)
	w.BytesVar(body)
	return w.Bytes(), nil
}

// readValue reads a varint-prefixed value; empty is nil.
func readValue(r *wire.Reader) any {
	if b := r.BytesVar(psMaxValue); b != nil {
		return b
	}
	return nil
}

func decPubMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := pubMsg{
		Subject:   r.String(psMaxSubject),
		Publisher: transport.NodeID(r.Uvarint()),
		Seq:       r.Uvarint(),
		Reply:     r.Bool(),
		ReplyTo:   transport.NodeID(r.Uvarint()),
		ReplyID:   r.Uvarint(),
		Value:     readValue(r),
	}
	if err := r.Finish("pubsub.pubMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func encReplyMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(replyMsg)
	body, err := valueBytes(m.Value)
	if err != nil {
		return nil, err
	}
	w := wire.NewAppendWriter(dst)
	w.Uvarint(m.ReplyID)
	w.BytesVar(body)
	return w.Bytes(), nil
}

func decReplyMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := replyMsg{ReplyID: r.Uvarint(), Value: readValue(r)}
	if err := r.Finish("pubsub.replyMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func encSyncReq(dst []byte, payload any) ([]byte, error) {
	m := payload.(syncReq)
	if len(m.Pattern) > psMaxSubject {
		return nil, fmt.Errorf("pubsub: pattern %d bytes exceeds wire limit %d", len(m.Pattern), psMaxSubject)
	}
	w := wire.NewAppendWriter(dst)
	w.String(m.Pattern)
	w.Uvarint(uint64(int64(m.From)))
	return w.Bytes(), nil
}

func decSyncReq(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := syncReq{Pattern: r.String(psMaxSubject), From: transport.NodeID(r.Uvarint())}
	if err := r.Finish("pubsub.syncReq"); err != nil {
		return nil, err
	}
	return m, nil
}

func encSyncReply(dst []byte, payload any) ([]byte, error) {
	m := payload.(syncReply)
	if len(m.Events) > psMaxEvents {
		return nil, fmt.Errorf("pubsub: sync reply of %d events exceeds wire limit %d", len(m.Events), psMaxEvents)
	}
	w := wire.NewAppendWriter(dst)
	w.Uvarint(uint64(len(m.Events)))
	for _, ev := range m.Events {
		body, err := valueBytes(ev.Value)
		if err != nil {
			return nil, err
		}
		if len(ev.Subject) > psMaxSubject {
			return nil, fmt.Errorf("pubsub: subject %d bytes exceeds wire limit %d", len(ev.Subject), psMaxSubject)
		}
		w.String(ev.Subject)
		w.Uvarint(uint64(int64(ev.Publisher)))
		w.Uvarint(ev.Seq)
		w.BytesVar(body)
	}
	return w.Bytes(), nil
}

func decSyncReply(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	// Each event takes at least five bytes, so the bytes left bound the
	// count before it sizes the slice.
	n := r.Uvarint()
	var m syncReply
	if n > psMaxEvents || n > uint64(len(r.Rest())/5) {
		r.Fail()
	} else if n > 0 {
		m.Events = make([]Event, n)
		for i := range m.Events {
			m.Events[i] = Event{
				Subject:   r.String(psMaxSubject),
				Publisher: transport.NodeID(r.Uvarint()),
				Seq:       r.Uvarint(),
				Value:     readValue(r),
			}
		}
	}
	if err := r.Finish("pubsub.syncReply"); err != nil {
		return nil, err
	}
	return m, nil
}
