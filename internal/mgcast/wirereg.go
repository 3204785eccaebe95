package mgcast

import (
	"fmt"

	"catocs/internal/wire"
)

// Registry bridge: mgcast already had its own self-tagging binary
// codec (codec.go) before the shared wire registry existed. These
// registrations adapt it so the TCP transport can carry mgcast
// traffic: each message type encodes through mgcast.Encode (whose
// output carries its own leading type tag) and every kind decodes
// through mgcast.Decode, which dispatches on that tag. Decode rejects
// a frame whose inner tag disagrees with the registry kind, so a
// corrupted kind field cannot smuggle one message type as another.

func init() {
	reg := func(kind wire.Kind, zero any, tag byte, size wire.SizeFunc) {
		wire.Register(kind, zero,
			func(payload any) ([]byte, error) { return Encode(payload) },
			func(buf []byte) (any, error) {
				msg, err := Decode(buf)
				if err != nil {
					return nil, err
				}
				if len(buf) > 0 && buf[0] != tag {
					return nil, fmt.Errorf("mgcast: wire kind expects tag 0x%02x, frame carries 0x%02x", tag, buf[0])
				}
				return msg, nil
			}, size)
	}
	fixed := func(n int) wire.SizeFunc { return func(any) (int, int) { return n, 0 } }
	reg(wire.KindMGCast+0, &DataMsg{}, wireData, sizeDataMsg)
	reg(wire.KindMGCast+1, &ProposeMsg{}, wirePropose, fixed(41))
	reg(wire.KindMGCast+2, &CommitMsg{}, wireCommit, fixed(33))
	reg(wire.KindMGCast+3, &AckMsg{}, wireAck, fixed(25))
}

// sizeDataMsg is Encode's DataMsg length: tag, id, send time, payload
// size, flags, the destination-group list, and the payload — the bytes
// of a []byte, nothing for nil, and the declared PayloadSize for an
// in-process value the simulator carries. The metadata is a constant
// plus the destination list, independent of group sizes and of the
// number of processes, which is the point of genuine multicast.
func sizeDataMsg(payload any) (int, int) {
	m := payload.(*DataMsg)
	n := 1 + 16 + 8 + 4 + 1 + 2 + 4
	for _, g := range m.Groups {
		n += wire.StringLen(g)
	}
	app := m.PayloadSize
	switch p := m.Payload.(type) {
	case nil:
		app = 0
	case []byte:
		app = len(p)
	}
	return n + app, app
}
