package tcpnet_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/transport"
	"catocs/internal/transport/tcpnet"
	"catocs/internal/vclock"
)

// castPayload is the distinct content of cast seq: its length and every
// byte depend on seq.
func castPayload(seq uint64) []byte {
	p := make([]byte, 32+int(seq*37%3000))
	x := seq*0x9E3779B97F4A7C15 + 1
	for i := range p {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x)
	}
	return p
}

// keeper holds every cast payload delivered to it, as the decoder
// returned it (no copy), keyed by the sequence it was sent with.
type keeper struct {
	mu    sync.Mutex
	held  map[uint64][]byte
	total int
}

func (k *keeper) handler(_ transport.NodeID, payload any) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.total++
	var d *multicast.DataMsg
	switch m := payload.(type) {
	case *multicast.DataMsg:
		d = m
	case *multicast.RetransMsg:
		d = m.Data
	default:
		return
	}
	k.held[d.Seq] = d.Payload.([]byte)
}

func (k *keeper) count() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.total
}

// TestDeliveredPayloadsStayIntact holds 1 000 delivered cast payloads,
// which alias the frames they arrived in, across 1 200 later frames of
// every kind a group sends (casts, retransmissions, acks, NACKs, order
// runs), and then finds every payload byte as it was sent: no later
// read or loopback send may rewrite the memory a payload lives in.
func TestDeliveredPayloadsStayIntact(t *testing.T) {
	for _, path := range []string{"remote", "loopback"} {
		t.Run(path, func(t *testing.T) {
			addrs := reserveAddrs(t, 2)
			univ := map[transport.NodeID]string{0: addrs[0], 1: addrs[1], 2: addrs[1]}
			a, err := tcpnet.New(fastCfg(addrs[0], []transport.NodeID{0}, univ))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := tcpnet.New(fastCfg(addrs[1], []transport.NodeID{1, 2}, univ))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			k := &keeper{held: map[uint64][]byte{}}
			b.Register(1, k.handler)
			send, from := a.Send, transport.NodeID(0)
			if path == "loopback" {
				send, from = b.Send, 2
			}
			cast := func(seq uint64) *multicast.DataMsg {
				p := castPayload(seq)
				return &multicast.DataMsg{Group: "g", Epoch: 1, Sender: 2, Seq: seq,
					VC: vclock.VC{seq, 1, 2}, Payload: p, PayloadSize: len(p)}
			}

			const held, later = 1000, 1200
			for seq := uint64(1); seq <= held; seq++ {
				send(from, 1, cast(seq))
			}
			waitFor(t, 10*time.Second, "the held casts", func() bool { return k.count() == held })
			for i := uint64(0); i < later; i++ {
				seq := held + 1 + i
				var msg any
				switch i % 6 {
				case 0:
					msg = cast(seq)
				case 1:
					msg = &multicast.RetransMsg{Group: "g", Epoch: 1, Data: cast(seq)}
				case 2:
					msg = &multicast.AckMsg{Group: "g", Epoch: 1, From: 0, Delivered: vclock.VC{seq, seq, seq}}
				case 3:
					msg = &multicast.NackMsg{Group: "g", Epoch: 1, From: 0, Want: []multicast.MsgID{{Sender: 2, Seq: seq}}}
				case 4:
					msg = &multicast.OrderBatchMsg{Group: "g", Epoch: 1, FirstGlobal: seq, IDs: []multicast.MsgID{{Sender: 1, Seq: seq}}}
				case 5:
					msg = &multicast.OrderNack{Group: "g", Epoch: 1, From: 0, FromGlobal: seq}
				}
				send(from, 1, msg)
			}
			waitFor(t, 10*time.Second, "the later frames", func() bool { return k.count() == held+later })

			k.mu.Lock()
			defer k.mu.Unlock()
			if want := held + later/3; len(k.held) != want {
				t.Fatalf("kept %d cast payloads, want %d", len(k.held), want)
			}
			bad := 0
			for seq, p := range k.held {
				if !bytes.Equal(p, castPayload(seq)) {
					bad++
				}
			}
			if bad > 0 {
				t.Fatalf("%d of %d delivered payloads were rewritten after delivery", bad, len(k.held))
			}
			if st := b.NetStats(); st.DecodeErrors+st.MailboxDrops+st.FrameErrors != 0 {
				t.Fatalf("receiver lost frames: %+v", st)
			}
		})
	}
}
