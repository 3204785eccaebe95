package tcpnet

import (
	"io"
	"net"
	"testing"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// repeatConn is an inbound connection that yields one frame count
// times over, in reads as large as the reader asks for, then EOF.
type repeatConn struct {
	net.Conn // the methods serveConn does not call
	frame    []byte
	off      int // into frame
	left     int // frames not yet begun
}

func (c *repeatConn) Read(p []byte) (int, error) {
	k := 0
	for k < len(p) && (c.off > 0 || c.left > 0) {
		if c.off == 0 {
			c.left--
		}
		m := copy(p[k:], c.frame[c.off:])
		k += m
		c.off = (c.off + m) % len(c.frame)
	}
	if k == 0 {
		return 0, io.EOF
	}
	return k, nil
}

func (c *repeatConn) Close() error                      { return nil }
func (c *repeatConn) SetReadDeadline(t time.Time) error { return nil }

// BenchmarkServeConn streams pre-encoded DataMsg frames, shaped as an
// atomic-mode cast at n=3 puts them on the wire (BenchmarkWireDecode-
// DataMsg's message), through serveConn into the mailbox and a running
// dispatcher: the read → decode → dispatcher-wait stage of a remote
// delivery. One op is one frame; the clock stops when the last frame's
// handler has run. Reads are as large as the reader's buffer, the
// saturated case where a run of frames shares one hand-over.
func BenchmarkServeConn(b *testing.B) {
	msg := &multicast.DataMsg{
		Group:       "bench",
		Epoch:       3,
		Sender:      1,
		Seq:         1_000_042,
		SentAt:      30*time.Second + 123*time.Microsecond,
		VCDelta:     []vclock.DeltaEntry{{Idx: 0, Val: 999_871}, {Idx: 1, Val: 1_000_042}},
		DeliveredVC: vclock.VC{999_000, 999_001, 999_002},
		Payload:     make([]byte, 64),
		PayloadSize: 64,
	}
	n := bareNet(Config{}, 1)
	delivered, last := 0, make(chan struct{})
	n.handlers[1] = func(transport.NodeID, any) {
		if delivered++; delivered == b.N {
			close(last)
		}
	}
	n.wg.Add(1)
	go n.dispatcher()
	defer func() { close(n.done); n.wg.Wait() }()
	c := &repeatConn{frame: fuzzFrame(1, msg), left: b.N}
	n.inbound[c] = true
	b.SetBytes(int64(len(c.frame)))
	b.ReportAllocs()
	b.ResetTimer()
	n.wg.Add(1)
	n.serveConn(c)
	<-last
	b.StopTimer()
	if drops := n.nc.mailboxDrops.Load(); drops != 0 {
		b.Fatalf("%d of %d frames shed by the mailbox", drops, b.N)
	}
}
