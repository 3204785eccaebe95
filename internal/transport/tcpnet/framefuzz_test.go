package tcpnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wire"
)

// refFrame is one frame as the framing rules read it.
type refFrame struct {
	kind wire.Kind
	to   transport.NodeID
	body []byte
}

// refUvarint decodes the minimal varint at the head of b, or n <= 0.
func refUvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, -1
	}
	return v, n
}

// refFrames is the reference reading of an inbound stream, written
// from the frame layout alone: the frames before the first framing
// violation, and whether the stream ended on a frame boundary instead.
func refFrames(data []byte, maxFrame int) (frames []refFrame, clean bool) {
	for len(data) > 0 {
		length, n := refUvarint(data)
		if n <= 0 {
			return frames, false
		}
		data = data[n:]
		var hdr [3]uint64
		meta := uint64(0)
		for i := range hdr {
			v, k := refUvarint(data)
			if k <= 0 {
				return frames, false
			}
			hdr[i], meta, data = v, meta+uint64(k), data[k:]
		}
		if hdr[0] > math.MaxUint16 || meta > length || length-meta > uint64(maxFrame) || length-meta > uint64(len(data)) {
			return frames, false
		}
		need := int(length - meta)
		frames = append(frames, refFrame{kind: wire.Kind(hdr[0]), to: transport.NodeID(int64(hdr[2])), body: data[:need]})
		data = data[need:]
	}
	return frames, true
}

// keptPayload returns the payload of a retaining frame's decoded value.
func keptPayload(p any) []byte {
	switch m := p.(type) {
	case *multicast.DataMsg:
		b, _ := m.Payload.([]byte)
		return b
	case *multicast.RetransMsg:
		b, _ := m.Data.Payload.([]byte)
		return b
	}
	return nil
}

// fuzzFrame encodes msg as one frame from node 0 to node to.
func fuzzFrame(to transport.NodeID, msg any) []byte {
	var hdr [frameHeaderMax]byte
	kind, buf, err := wire.MarshalAppend(hdr[:], msg)
	if err != nil {
		panic(err)
	}
	return buf[putFrameHeader(buf, kind, 0, to):]
}

// bareNet is a Net hosting the local nodes with no listener and no
// dispatcher running, for driving serveConn directly.
func bareNet(cfg Config, local ...transport.NodeID) *Net {
	n := &Net{
		cfg:      cfg.withDefaults(),
		local:    map[transport.NodeID]bool{},
		handlers: map[transport.NodeID]transport.Handler{},
		perNode:  map[transport.NodeID]*transport.NodeStats{},
		inbound:  map[net.Conn]bool{},
		done:     make(chan struct{}),
	}
	n.mb = newMailbox(n.cfg.MailboxDepth)
	for _, id := range local {
		n.local[id] = true
	}
	return n
}

// streamConn is an inbound connection that yields a fixed byte stream
// in reads of at most chunk bytes, so serveConn runs on the caller's
// goroutine and a fuzz input replays exactly.
type streamConn struct {
	net.Conn // the methods serveConn does not call
	r        *bytes.Reader
	chunk    int
	closed   bool
}

func (c *streamConn) Read(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.r.Read(p[:min(len(p), c.chunk)])
}

func (c *streamConn) Close() error                      { c.closed = true; return nil }
func (c *streamConn) SetReadDeadline(t time.Time) error { return nil }

// FuzzFrameStream feeds arbitrary byte streams through serveConn and
// checks them against refFrames. serveConn must not panic, must accept
// exactly the frames before the first framing violation and count that
// violation (the poison rule), must close the connection on every
// path, and must deliver every decodable frame for a local node; a
// delivered cast payload must still hold its bytes after every later
// read, because it aliases its slab region.
func FuzzFrameStream(f *testing.F) {
	cast := func(seq uint64, n int) *multicast.DataMsg {
		return &multicast.DataMsg{Group: "g", Sender: 1, Seq: seq, VC: vclock.VC{seq, 2},
			Payload: bytes.Repeat([]byte{byte(seq)}, n), PayloadSize: n}
	}
	var stream []byte
	for _, fr := range [][]byte{
		fuzzFrame(1, cast(1, 100)),
		fuzzFrame(1, &multicast.AckMsg{Group: "g", From: 2, Delivered: vclock.VC{1, 1}}),
		{3, 0, 0, 1},              // keepalive ping
		fuzzFrame(2, cast(6, 90)), // over the first cast, were the body reused
		fuzzFrame(2, &multicast.RetransMsg{Group: "g", Data: cast(2, 300)}),
		fuzzFrame(9, cast(3, 10)), // no such local node
		fuzzFrame(1, &multicast.OrderBatchMsg{Group: "g", FirstGlobal: 4, IDs: []multicast.MsgID{{Sender: 1, Seq: 1}}}),
	} {
		stream = append(stream, fr...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-7])                                   // truncated mid-body
	f.Add(append(stream[:len(stream):len(stream)], 0x80, 0x00))     // non-minimal length
	f.Add(append(append([]byte(nil), stream[:150]...), 0xFF, 0xFF)) // garbage mid-stream
	f.Add([]byte{0x05, 0xF0, 0xFF, 0xFF, 0x03, 0x01, 0x01})         // kind past 16 bits

	const maxFrame = 2 * slabChunk
	n := bareNet(Config{MaxFrame: maxFrame}, 1, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 { // a delivered frame takes 7 B or more, so all fit the mailbox
			return
		}
		frames, clean := refFrames(data, maxFrame)
		// What each frame should deliver, decoded from a private copy.
		var want []task
		for _, fr := range frames {
			if fr.kind == wire.KindReserved || !n.local[fr.to] {
				continue
			}
			if p, err := wire.Unmarshal(fr.kind, bytes.Clone(fr.body)); err == nil {
				want = append(want, task{to: fr.to, payload: p, size: len(fr.body)})
			}
		}
		errsBefore, inBefore := n.nc.frameErrors.Load(), n.nc.framesIn.Load()

		c := &streamConn{r: bytes.NewReader(data), chunk: 1 + len(data)%61}
		n.inbound[c] = true
		n.wg.Add(1)
		n.serveConn(c)
		if !c.closed || n.inbound[c] {
			t.Fatal("serveConn returned without closing and forgetting its connection")
		}
		poisoned := n.nc.frameErrors.Load() - errsBefore
		if (clean && poisoned != 0) || (!clean && poisoned != 1) {
			t.Fatalf("stream clean=%v, counted %d framing violations", clean, poisoned)
		}
		if got := n.nc.framesIn.Load() - inBefore; got != uint64(len(frames)) {
			t.Fatalf("accepted %d frames, the framing rules give %d", got, len(frames))
		}
		got := n.mb.take(nil)
		if len(got) != len(want) {
			t.Fatalf("delivered %d frames, want %d", len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.to != w.to || g.size != w.size || !bytes.Equal(keptPayload(g.payload), keptPayload(w.payload)) {
				t.Fatalf("delivery %d (%T to %d): payload or size changed after later reads", i, g.payload, g.to)
			}
		}
	})
}

// TestSlabRegionsNeverShared carves regions that fill a chunk, spill
// into the next and outgrow one, and finds each still holding what was
// written into it after all the later carves, with no capacity past
// its own length.
func TestSlabRegionsNeverShared(t *testing.T) {
	var s slab
	sizes := []int{100, slabChunk - 150, 100, 30, slabChunk + 10, 0, 50}
	var regions [][]byte
	for i, n := range sizes {
		r := s.carve(n)
		if len(r) != n || cap(r) != n {
			t.Fatalf("carve(%d) = len %d cap %d", n, len(r), cap(r))
		}
		for j := range r {
			r[j] = byte(i + 1)
		}
		regions = append(regions, r)
	}
	for i, r := range regions {
		if !bytes.Equal(r, bytes.Repeat([]byte{byte(i + 1)}, len(r))) {
			t.Errorf("region %d (%d B) was rewritten by a later carve", i, len(r))
		}
	}
}

// TestSlabChunkHoldsWholeBodies pins the chunk sizing: 127 bodies of an
// 8 KiB cast's frame share one chunk and the 128th starts the next,
// and a body past slabMax gets its own allocation without ending the
// chunk being carved.
func TestSlabChunkHoldsWholeBodies(t *testing.T) {
	carves := func(sizes ...int) float64 {
		return testing.AllocsPerRun(10, func() {
			var s slab
			for _, n := range sizes {
				s.carve(n)
			}
		})
	}
	body := make([]int, 128)
	for i := range body {
		body[i] = 8225
	}
	if got := carves(body[:127]...); got != 1 {
		t.Errorf("127 bodies of 8 225 B took %v chunks, want 1", got)
	}
	if got := carves(body...); got != 2 {
		t.Errorf("128 bodies of 8 225 B took %v chunks, want 2", got)
	}
	if got := carves(100, slabMax+1, 100); got != 2 {
		t.Errorf("a chunk and one outsized body took %v allocations, want 2", got)
	}
}
