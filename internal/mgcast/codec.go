package mgcast

import (
	"fmt"
	"time"

	"catocs/internal/vclock"
	"catocs/internal/wire"
)

// Wire codec for the four mgcast message types. The in-process
// transports pass Go values directly, so the protocol never calls this
// on its hot path; the codec exists so the messages have a defined
// external representation (for a real network transport or a durable
// log) and so fuzzing can attack the parse path. Encoding is
// little-endian with length-prefixed strings; Decode rejects truncated
// input, oversized length prefixes, and trailing garbage.

// Wire type tags.
const (
	wireData    = 0x01
	wirePropose = 0x02
	wireCommit  = 0x03
	wireAck     = 0x04
)

const (
	maxGroups   = 1 << 12 // decode guard: destination-set cardinality
	maxGroupLen = 1 << 10 // decode guard: one group name's length
	maxPayload  = 1 << 26 // decode guard: payload bytes
)

// Encode serializes one of *DataMsg, *ProposeMsg, *CommitMsg, *AckMsg.
// A DataMsg payload must be nil or []byte — the codec defines the wire
// form, and on the wire a payload is bytes.
func Encode(msg any) ([]byte, error) {
	switch m := msg.(type) {
	case *DataMsg:
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
		w := wire.NewWriter(64 + len(body))
		w.U8(wireData)
		writeID(w, m.ID())
		w.I64(int64(m.SentAt))
		w.U32(uint32(m.PayloadSize))
		w.Bool(m.Retrans)
		w.U16(uint16(len(m.Groups)))
		for _, g := range m.Groups {
			if len(g) > maxGroupLen {
				return nil, fmt.Errorf("mgcast: group name %d bytes exceeds wire limit %d", len(g), maxGroupLen)
			}
			w.String(g)
		}
		w.Bytes32(body)
		return w.Bytes(), nil
	case *ProposeMsg:
		w := wire.NewWriter(41)
		w.U8(wirePropose)
		writeID(w, m.ID)
		w.U64(uint64(m.From))
		writeStamp(w, m.Priority)
		return w.Bytes(), nil
	case *CommitMsg:
		w := wire.NewWriter(33)
		w.U8(wireCommit)
		writeID(w, m.ID)
		writeStamp(w, m.Priority)
		return w.Bytes(), nil
	case *AckMsg:
		w := wire.NewWriter(25)
		w.U8(wireAck)
		writeID(w, m.ID)
		w.U64(uint64(m.From))
		return w.Bytes(), nil
	}
	return nil, fmt.Errorf("mgcast: cannot encode %T", msg)
}

// Decode inverts Encode, returning one of *DataMsg, *ProposeMsg,
// *CommitMsg, *AckMsg. Every length is validated before use and the
// input must be consumed exactly.
func Decode(buf []byte) (any, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("mgcast: empty message")
	}
	r := wire.NewReader(buf[1:])
	var msg any
	switch buf[0] {
	case wireData:
		m := &DataMsg{}
		id := readID(r)
		m.Sender, m.Seq = id.Sender, id.Seq
		m.SentAt = time.Duration(r.I64())
		m.PayloadSize = int(r.U32())
		switch flags := r.U8(); flags {
		case 0:
		case 1:
			m.Retrans = true
		default:
			return nil, fmt.Errorf("mgcast: invalid flags byte 0x%02x", flags)
		}
		ng := int(r.U16())
		if ng > maxGroups {
			return nil, fmt.Errorf("mgcast: %d destination groups exceeds wire limit %d", ng, maxGroups)
		}
		if ng > 0 {
			m.Groups = make([]string, 0, min(ng, 64))
			for i := 0; i < ng; i++ {
				m.Groups = append(m.Groups, r.String(maxGroupLen))
			}
		}
		// An empty payload stays a nil interface, not a nil []byte in one.
		if body := r.Bytes32(maxPayload); body != nil {
			m.Payload = body
		}
		msg = m
	case wirePropose:
		m := &ProposeMsg{}
		m.ID = readID(r)
		m.From = vclock.ProcessID(r.U64())
		m.Priority = readStamp(r)
		msg = m
	case wireCommit:
		m := &CommitMsg{}
		m.ID = readID(r)
		m.Priority = readStamp(r)
		msg = m
	case wireAck:
		m := &AckMsg{}
		m.ID = readID(r)
		m.From = vclock.ProcessID(r.U64())
		msg = m
	default:
		return nil, fmt.Errorf("mgcast: unknown wire type 0x%02x", buf[0])
	}
	if err := r.Finish(fmt.Sprintf("mgcast %#02x message", buf[0])); err != nil {
		return nil, err
	}
	return msg, nil
}

func writeID(w *wire.Writer, id MsgID) {
	w.U64(uint64(id.Sender))
	w.U64(id.Seq)
}

func writeStamp(w *wire.Writer, s vclock.Stamp) {
	w.U64(s.Time)
	w.U64(uint64(s.Proc))
}

func readID(r *wire.Reader) MsgID {
	return MsgID{Sender: vclock.ProcessID(r.U64()), Seq: r.U64()}
}

func readStamp(r *wire.Reader) vclock.Stamp {
	return vclock.Stamp{Time: r.U64(), Proc: vclock.ProcessID(r.U64())}
}
