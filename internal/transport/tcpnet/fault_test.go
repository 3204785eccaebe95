package tcpnet_test

import (
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"testing"
	"time"

	"catocs/internal/transport"
	"catocs/internal/transport/tcpnet"
	"catocs/internal/wire"
)

// TestPeerRestartMidStream kills the receiving process mid-stream and
// rebinds a fresh Net on the same port: the sender must notice the
// broken conn, reconnect with backoff, and resume delivering.
func TestPeerRestartMidStream(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	univ := map[transport.NodeID]string{0: addrs[0], 1: addrs[1]}
	a, err := tcpnet.New(fastCfg(addrs[0], []transport.NodeID{0}, univ))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	b1, err := tcpnet.New(fastCfg(addrs[1], []transport.NodeID{1}, univ))
	if err != nil {
		t.Fatal(err)
	}
	var in1 inbox
	b1.Register(1, in1.handler)

	stop := make(chan struct{})
	sent := make(chan uint64, 1)
	go func() {
		var n uint64
		for {
			select {
			case <-stop:
				sent <- n
				return
			case <-time.After(2 * time.Millisecond):
				a.Send(0, 1, testMsg{N: n, S: "stream"})
				n++
			}
		}
	}()

	waitFor(t, 5*time.Second, "first incarnation receiving", func() bool { return in1.len() >= 20 })
	b1.Close() // peer crashes mid-stream

	// Let the sender grind against the dead peer for a while.
	time.Sleep(150 * time.Millisecond)

	b2, err := tcpnet.New(fastCfg(addrs[1], []transport.NodeID{1}, univ))
	if err != nil {
		t.Fatalf("rebind after restart: %v", err)
	}
	defer b2.Close()
	var in2 inbox
	b2.Register(1, in2.handler)

	waitFor(t, 10*time.Second, "second incarnation receiving", func() bool { return in2.len() >= 20 })
	close(stop)
	<-sent

	if ns := a.NetStats(); ns.Reconnects == 0 {
		t.Fatalf("NetStats = %+v; want Reconnects > 0 after peer restart", ns)
	}
}

// TestHalfOpenIdleClose gives the receiver a short idle deadline and
// silences the sender's keepalives: the receiver must detect the
// half-open conn and close it.
func TestHalfOpenIdleClose(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	univ := map[transport.NodeID]string{0: addrs[0], 1: addrs[1]}
	acfg := fastCfg(addrs[0], []transport.NodeID{0}, univ)
	acfg.PingEvery = time.Hour // a peer that never pings
	acfg.IdleTimeout = time.Hour
	a, err := tcpnet.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	bcfg := fastCfg(addrs[1], []transport.NodeID{1}, univ)
	bcfg.IdleTimeout = 100 * time.Millisecond
	b, err := tcpnet.New(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var in inbox
	b.Register(1, in.handler)

	a.Send(0, 1, testMsg{N: 1, S: "then silence"})
	waitFor(t, 2*time.Second, "delivery before silence", func() bool { return in.len() == 1 })
	waitFor(t, 3*time.Second, "idle close of the half-open conn", func() bool {
		return b.NetStats().IdleCloses >= 1
	})
}

// TestPingsKeepIdleConnAlive is the positive half: with keepalives
// flowing at the default cadence, an otherwise idle conn must survive
// the receiver's idle deadline.
func TestPingsKeepIdleConnAlive(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	univ := map[transport.NodeID]string{0: addrs[0], 1: addrs[1]}
	a, err := tcpnet.New(fastCfg(addrs[0], []transport.NodeID{0}, univ)) // ping 25ms
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tcpnet.New(fastCfg(addrs[1], []transport.NodeID{1}, univ)) // idle 250ms
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var in inbox
	b.Register(1, in.handler)

	a.Send(0, 1, testMsg{N: 1})
	waitFor(t, 2*time.Second, "initial delivery", func() bool { return in.len() == 1 })
	time.Sleep(600 * time.Millisecond) // several idle windows of silence
	ns := b.NetStats()
	if ns.IdleCloses != 0 {
		t.Fatalf("conn idle-closed %d times despite keepalives", ns.IdleCloses)
	}
	if ns.PingsIn == 0 {
		t.Fatal("no pings received during idle period")
	}
	// The original conn must still carry traffic: no reconnect needed.
	a.Send(0, 1, testMsg{N: 2})
	waitFor(t, 2*time.Second, "post-idle delivery", func() bool { return in.len() == 2 })
	if got := a.NetStats().Reconnects; got != 0 {
		t.Fatalf("Reconnects = %d; the pinged conn should have survived", got)
	}
}

// rawFrame assembles one wire frame by hand for protocol-attack tests:
// uvarint length (of what follows it), kind, from and to, then body.
func rawFrame(kind uint16, from, to int64, body []byte) []byte {
	meta := binary.AppendUvarint(nil, uint64(kind))
	meta = binary.AppendUvarint(meta, uint64(from))
	meta = binary.AppendUvarint(meta, uint64(to))
	buf := binary.AppendUvarint(nil, uint64(len(meta)+len(body)))
	return append(append(buf, meta...), body...)
}

// TestFrameHeaderGoldenBytes pins the frame header as it leaves a Net:
// uvarint length (of what follows it), kind, from and to, then the
// body — 6 header bytes here, the 3-byte kind 0xF100 included — and
// BytesOut counts every one of them. The peer is a bare listener
// that records what arrives.
func TestFrameHeaderGoldenBytes(t *testing.T) {
	addrs := reserveAddrs(t, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	univ := map[transport.NodeID]string{0: addrs[0], 1: ln.Addr().String()}
	cfg := fastCfg(addrs[0], []transport.NodeID{0}, univ)
	cfg.PingEvery = time.Hour // nothing but the one frame on the wire
	a, err := tcpnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.Send(0, 1, testMsg{N: 7, S: "ok"})
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	body := "0700000000000000" + "0200" + "6f6b" // testMsg: u64 N, u16-prefixed S
	want := "11" + "80e203" + "00" + "01" + body // length 17, kind 0xF100, from 0, to 1
	got := make([]byte, len(want)/2)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(got); h != want {
		t.Fatalf("frame on the wire %s, want %s", h, want)
	}
	waitFor(t, 2*time.Second, "frame counted", func() bool { return a.NetStats().FramesOut == 1 })
	if n := a.NetStats().BytesOut; n != uint64(len(got)) {
		t.Fatalf("BytesOut = %d, want the %d bytes written", n, len(got))
	}
}

// TestMalformedFrameHeaders: a header the reader cannot trust — a
// padded varint, a kind past 16 bits, ids longer than their length
// allows — poisons the connection like any other framing violation.
func TestMalformedFrameHeaders(t *testing.T) {
	addrs := reserveAddrs(t, 1)
	b, err := tcpnet.New(fastCfg(addrs[0], []transport.NodeID{1}, map[transport.NodeID]string{1: addrs[0]}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Register(1, func(transport.NodeID, any) {})
	for i, h := range []string{
		"8300" + "00" + "00" + "01",          // length 3, padded to two bytes
		"05" + "80808004" + "00" + "01",      // kind 2^22
		"02" + "00" + "00" + "01",            // length 2 < the 3 header bytes after it
		"03" + "00" + "ffffffffffffffffff7f", // an 11-byte from
	} {
		raw, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		c.Write(raw)
		waitFor(t, 2*time.Second, "frame error "+h, func() bool { return b.NetStats().FrameErrors >= uint64(i+1) })
		c.Close()
	}
	if ns := b.NetStats(); ns.FramesIn != 0 || ns.DecodeErrors != 0 {
		t.Fatalf("NetStats = %+v; no malformed header may pass as a frame", ns)
	}
}

// TestTruncatedAndCorruptFrames attacks the listener directly:
// a frame cut off mid-body must kill that conn; an oversized length
// prefix must kill the conn; a well-framed but undecodable body must
// lose only that message, with the stream still usable after it.
func TestTruncatedAndCorruptFrames(t *testing.T) {
	addrs := reserveAddrs(t, 1)
	univ := map[transport.NodeID]string{1: addrs[0]}
	cfg := fastCfg(addrs[0], []transport.NodeID{1}, univ)
	b, err := tcpnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var in inbox
	b.Register(1, in.handler)

	_, body, err := wire.Marshal(testMsg{N: 7, S: "ok"})
	if err != nil {
		t.Fatal(err)
	}

	// Truncated mid-body: claim the full length, send half, hang up.
	c1, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	full := rawFrame(0xF100, 0, 1, body)
	c1.Write(full[:len(full)-3])
	c1.Close()
	waitFor(t, 2*time.Second, "truncated frame counted", func() bool {
		return b.NetStats().FrameErrors >= 1
	})

	// Absurd length prefix: unframeable garbage, conn must die.
	c2, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	c2.Write(binary.AppendUvarint(nil, uint64(cfg.MaxFrame)+1000))
	c2.Write(make([]byte, 64))
	waitFor(t, 2*time.Second, "oversized frame counted", func() bool {
		return b.NetStats().FrameErrors >= 2
	})
	c2.Close()

	// Undecodable body on an otherwise healthy stream: only the one
	// message dies; a valid frame behind it still delivers.
	c3, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c3.Write(rawFrame(0xF100, 0, 1, []byte{0xFF, 0xFF}))
	c3.Write(rawFrame(0xF100, 0, 1, body))
	waitFor(t, 2*time.Second, "valid frame after corrupt body", func() bool { return in.len() == 1 })
	if ns := b.NetStats(); ns.DecodeErrors != 1 {
		t.Fatalf("DecodeErrors = %d, want 1", ns.DecodeErrors)
	}

	// A frame for a node this process does not host is dropped.
	c3.Write(rawFrame(0xF100, 0, 99, body))
	waitFor(t, 2*time.Second, "unroutable counted", func() bool {
		return b.NetStats().Unroutable >= 1
	})
	if got := in.len(); got != 1 {
		t.Fatalf("inbox = %d deliveries, want still 1", got)
	}
}

// TestReconnectStormBounded sends into a dead address and counts dial
// attempts: exponential backoff must keep the storm small.
func TestReconnectStormBounded(t *testing.T) {
	addrs := reserveAddrs(t, 2) // addrs[1] unbound
	univ := map[transport.NodeID]string{0: addrs[0], 1: addrs[1]}
	cfg := fastCfg(addrs[0], []transport.NodeID{0}, univ)
	cfg.ReconnectMin = 50 * time.Millisecond
	cfg.ReconnectMax = 200 * time.Millisecond
	a, err := tcpnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.Send(0, 1, testMsg{N: 1})
	time.Sleep(time.Second)
	ns := a.NetStats()
	if ns.DialFailures < 2 {
		t.Fatalf("DialFailures = %d; expected the writer to keep retrying", ns.DialFailures)
	}
	// Backoff floor: sleeps are at least min/2, min, 2·min/2... — far
	// fewer than the ~hundreds a tight retry loop would rack up. The
	// bound is loose to stay robust under CI scheduling noise.
	if ns.Dials > 25 {
		t.Fatalf("Dials = %d in 1s; backoff is not bounding the reconnect storm", ns.Dials)
	}
}
