package mgcast

import (
	"fmt"
	"time"

	"catocs/internal/vclock"
	"catocs/internal/wire"
)

// Wire codec registrations for the four mgcast message types, so the
// TCP transport can carry multi-group traffic across OS processes and
// fuzzing can attack the parse path. The in-process transports pass Go
// values directly and only charge each message its size model. A
// DataMsg payload must be nil or []byte: on the wire a payload is
// bytes.
//
// As in every registered codec, each integer is an unsigned LEB128
// varint (a process id as its int64 bit pattern), a group name carries
// a 2-byte length and the payload a varint one. The metadata is a
// constant plus the destination list, independent of group sizes and
// of the number of processes, which is the point of genuine multicast.

const (
	maxGroups   = 1 << 12 // decode guard: destination-set cardinality
	maxGroupLen = 1 << 10 // decode guard: one group name's length
	maxPayload  = 1 << 26 // decode guard: payload bytes
)

func init() {
	wire.Register(wire.KindMGCast+0, &DataMsg{}, encDataMsg, decDataMsg, sizeDataMsg)
	wire.Register(wire.KindMGCast+1, &ProposeMsg{}, encProposeMsg, decProposeMsg, func(p any) (int, int) {
		m := p.(*ProposeMsg)
		return idLen(m.ID) + uv(m.From) + stampLen(m.Priority), 0
	})
	wire.Register(wire.KindMGCast+2, &CommitMsg{}, encCommitMsg, decCommitMsg, func(p any) (int, int) {
		m := p.(*CommitMsg)
		return idLen(m.ID) + stampLen(m.Priority), 0
	})
	wire.Register(wire.KindMGCast+3, &AckMsg{}, encAckMsg, decAckMsg, func(p any) (int, int) {
		m := p.(*AckMsg)
		return idLen(m.ID) + uv(m.From), 0
	})
}

// uv is the varint length of a process id sent as its bit pattern.
func uv(p vclock.ProcessID) int { return wire.UvarintLen(uint64(int64(p))) }

func idLen(id MsgID) int { return uv(id.Sender) + wire.UvarintLen(id.Seq) }

func stampLen(s vclock.Stamp) int { return wire.UvarintLen(s.Time) + uv(s.Proc) }

// sizeDataMsg is encDataMsg's length and its application bytes: those
// of a []byte payload, nothing for nil, and the declared PayloadSize for
// an in-process value the simulator carries.
func sizeDataMsg(payload any) (int, int) {
	m := payload.(*DataMsg)
	app := m.PayloadSize
	switch p := m.Payload.(type) {
	case nil:
		app = 0
	case []byte:
		app = len(p)
	}
	n := idLen(m.ID()) + wire.UvarintLen(uint64(int64(m.SentAt))) + wire.UvarintLen(uint64(int64(m.PayloadSize))) +
		1 + wire.UvarintLen(uint64(len(m.Groups))) + wire.BytesVarLen(app)
	for _, g := range m.Groups {
		n += wire.StringLen(g)
	}
	return n, app
}

func encDataMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(*DataMsg)
	var body []byte
	switch p := m.Payload.(type) {
	case nil:
	case []byte:
		body = p
	default:
		return nil, fmt.Errorf("mgcast: cannot encode payload of type %T (want []byte or nil)", m.Payload)
	}
	if len(m.Groups) > maxGroups {
		return nil, fmt.Errorf("mgcast: %d destination groups exceeds wire limit %d", len(m.Groups), maxGroups)
	}
	if len(body) > maxPayload {
		return nil, fmt.Errorf("mgcast: payload %d bytes exceeds wire limit %d", len(body), maxPayload)
	}
	w := wire.NewAppendWriter(dst)
	writeID(&w, m.ID())
	w.Uvarint(uint64(int64(m.SentAt)))
	w.Uvarint(uint64(int64(m.PayloadSize)))
	w.Bool(m.Retrans)
	w.Uvarint(uint64(len(m.Groups)))
	for _, g := range m.Groups {
		if len(g) > maxGroupLen {
			return nil, fmt.Errorf("mgcast: group name %d bytes exceeds wire limit %d", len(g), maxGroupLen)
		}
		w.String(g)
	}
	w.BytesVar(body)
	return w.Bytes(), nil
}

func decDataMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	id := readID(r)
	m := &DataMsg{
		Sender:      id.Sender,
		Seq:         id.Seq,
		SentAt:      time.Duration(r.Uvarint()),
		PayloadSize: int(r.Uvarint()),
		Retrans:     r.Bool(),
	}
	// Each name takes at least its two length bytes, so the bytes left
	// bound the count before it sizes the slice.
	if n := r.Uvarint(); n > maxGroups || n > uint64(len(r.Rest())/2) {
		r.Fail()
	} else if n > 0 {
		m.Groups = make([]string, n)
		for i := range m.Groups {
			m.Groups[i] = r.String(maxGroupLen)
		}
	}
	// An empty payload stays a nil interface, not a nil []byte in one.
	if body := r.BytesVar(maxPayload); body != nil {
		m.Payload = body
	}
	if err := r.Finish("mgcast.DataMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func encProposeMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(*ProposeMsg)
	w := wire.NewAppendWriter(dst)
	writeID(&w, m.ID)
	w.Uvarint(uint64(int64(m.From)))
	writeStamp(&w, m.Priority)
	return w.Bytes(), nil
}

func decProposeMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &ProposeMsg{ID: readID(r), From: vclock.ProcessID(r.Uvarint()), Priority: readStamp(r)}
	if err := r.Finish("mgcast.ProposeMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func encCommitMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(*CommitMsg)
	w := wire.NewAppendWriter(dst)
	writeID(&w, m.ID)
	writeStamp(&w, m.Priority)
	return w.Bytes(), nil
}

func decCommitMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &CommitMsg{ID: readID(r), Priority: readStamp(r)}
	if err := r.Finish("mgcast.CommitMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func encAckMsg(dst []byte, payload any) ([]byte, error) {
	m := payload.(*AckMsg)
	w := wire.NewAppendWriter(dst)
	writeID(&w, m.ID)
	w.Uvarint(uint64(int64(m.From)))
	return w.Bytes(), nil
}

func decAckMsg(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	m := &AckMsg{ID: readID(r), From: vclock.ProcessID(r.Uvarint())}
	if err := r.Finish("mgcast.AckMsg"); err != nil {
		return nil, err
	}
	return m, nil
}

func writeID(w *wire.Writer, id MsgID) {
	w.Uvarint(uint64(int64(id.Sender)))
	w.Uvarint(id.Seq)
}

func writeStamp(w *wire.Writer, s vclock.Stamp) {
	w.Uvarint(s.Time)
	w.Uvarint(uint64(int64(s.Proc)))
}

func readID(r *wire.Reader) MsgID {
	return MsgID{Sender: vclock.ProcessID(r.Uvarint()), Seq: r.Uvarint()}
}

func readStamp(r *wire.Reader) vclock.Stamp {
	return vclock.Stamp{Time: r.Uvarint(), Proc: vclock.ProcessID(r.Uvarint())}
}
