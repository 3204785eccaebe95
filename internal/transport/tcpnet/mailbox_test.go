package tcpnet_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/transport"
	"catocs/internal/transport/tcpnet"
	"catocs/internal/wire"
)

// TestMailboxOrderShedAndClose holds the dispatcher while deliveries,
// Inject functions and After(0) callbacks queue behind it in a mailbox
// of depth 4. They must run in the order they were queued; the two
// deliveries that find four tasks waiting are shed and counted, the
// functions queued past the depth are not; and once Close returns no
// task runs, neither one queued before it nor one queued after.
func TestMailboxOrderShedAndClose(t *testing.T) {
	a := soloNet(t, 4)
	var order []string // touched only on the dispatcher
	a.Register(0, func(_ transport.NodeID, p any) { order = append(order, fmt.Sprint("d", p.(testMsg).N)) })
	release, held := make(chan struct{}), make(chan struct{})
	a.Inject(func() { close(held); <-release })
	<-held
	note := func(s string) func() { return func() { order = append(order, s) } }

	a.Send(0, 0, testMsg{N: 0})
	a.Inject(note("i0"))
	a.Send(0, 0, testMsg{N: 1})
	a.After(0, note("a0"))
	a.Send(0, 0, testMsg{N: 2}) // four tasks wait: shed
	a.Inject(note("i1"))        // past the depth, but a function
	a.Send(0, 0, testMsg{N: 3}) // shed
	a.After(0, note("a1"))
	close(release)

	done := make(chan string, 1)
	a.Inject(func() { done <- strings.Join(order, ",") })
	select {
	case got := <-done:
		if got != "d0,i0,d1,a0,i1,a1" {
			t.Fatalf("dispatch order %s, want d0,i0,d1,a0,i1,a1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an Inject behind a full mailbox never ran")
	}
	if ns, st := a.NetStats(), a.Stats(); ns.MailboxDrops != 2 || st.Dropped != 2 || st.Delivered != 2 {
		t.Fatalf("MailboxDrops = %d, Dropped = %d, Delivered = %d; want 2, 2, 2", ns.MailboxDrops, st.Dropped, st.Delivered)
	}

	var ran atomic.Int64
	hold, holding := make(chan struct{}), make(chan struct{})
	a.Inject(func() { close(holding); <-hold })
	<-holding
	for i := 0; i < 100; i++ {
		a.Inject(func() { ran.Add(1) })
		a.Send(0, 0, testMsg{N: 9})
	}
	closed := make(chan struct{})
	go func() { a.Close(); close(closed) }()
	time.Sleep(20 * time.Millisecond) // let Close begin before the dispatcher is released
	close(hold)
	<-closed
	before := ran.Load()
	a.Inject(func() { ran.Add(1) })
	a.After(0, func() { ran.Add(1) })
	a.Send(0, 0, testMsg{N: 10})
	time.Sleep(20 * time.Millisecond)
	if after := ran.Load(); after != before {
		t.Fatalf("%d tasks ran after Close returned", after-before)
	}
}

// TestWatchdogIdleClose feeds a connection a steady stream of 4-byte
// pings for three IdleTimeouts, written half a frame out of step so
// that the reader's buffer never ends on a frame boundary: it must not
// be closed as idle, because frames keep arriving. Then the stream
// stops on a frame boundary, and the silent connection must be closed
// as idle no sooner than one IdleTimeout and within 1.25.
func TestWatchdogIdleClose(t *testing.T) {
	const idle = 800 * time.Millisecond
	addrs := reserveAddrs(t, 1)
	cfg := fastCfg(addrs[0], []transport.NodeID{1}, map[transport.NodeID]string{1: addrs[0]})
	cfg.IdleTimeout = idle
	b, err := tcpnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ping := rawFrame(uint16(wire.KindReserved), 0, 1, nil)
	var stream []byte
	for len(stream) < 4096 {
		stream = append(stream, ping...)
	}
	c.Write(stream[:2])
	sent := 2
	for start := time.Now(); time.Since(start) < 3*idle; time.Sleep(10 * time.Millisecond) {
		c.Write(stream[sent : sent+4])
		sent += 4
	}
	last := time.Now()
	if _, err := c.Write(stream[sent : sent+2]); err != nil {
		t.Fatalf("the streaming connection was closed: %v", err)
	}
	if ns := b.NetStats(); ns.IdleCloses != 0 {
		t.Fatalf("IdleCloses = %d while frames kept arriving", ns.IdleCloses)
	}

	c.SetReadDeadline(time.Now().Add(5 * idle))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on the silent connection: %v, want EOF from the idle close", err)
	}
	if quiet := time.Since(last); quiet < idle || quiet > idle*5/4 {
		t.Fatalf("silent connection closed after %v, want within [%v, %v]", quiet, idle, idle*5/4)
	}
	waitFor(t, time.Second, "idle close counted", func() bool { return b.NetStats().IdleCloses == 1 })
	if ns := b.NetStats(); ns.FrameErrors != 0 || ns.PingsIn == 0 {
		t.Fatalf("NetStats = %+v; want pings counted and no framing violation", ns)
	}
}

// TestHeaderClaimAllocBounded opens five connections that each send
// only a frame header claiming a 60 MiB body, under the default 64 MiB
// MaxFrame, and a few body bytes: the receiver must not allocate the
// claimed bodies before their bytes arrive. Retaining and copying
// kinds are both covered.
func TestHeaderClaimAllocBounded(t *testing.T) {
	addrs := reserveAddrs(t, 1)
	b, err := tcpnet.New(fastCfg(addrs[0], []transport.NodeID{1}, map[transport.NodeID]string{1: addrs[0]}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Register(1, func(transport.NodeID, any) {})
	dataKind, _, err := wire.Marshal(&multicast.DataMsg{Group: "g"})
	if err != nil {
		t.Fatal(err)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < 5; i++ {
		c, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		kind := uint16(0xF100)
		if i%2 == 0 {
			kind = uint16(dataKind)
		}
		meta := rawFrame(kind, 0, 1, nil)[1:] // kind, from, to, behind a one-byte length
		claim := append(binary.AppendUvarint(nil, uint64(len(meta))+60<<20), meta...)
		c.Write(append(claim, make([]byte, 1000)...))
	}
	waitFor(t, 2*time.Second, "five connections accepted", func() bool { return b.NetStats().ConnsIn == 5 })
	time.Sleep(200 * time.Millisecond) // let every reader take its header
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew >= 4<<20 {
		t.Fatalf("TotalAlloc rose %d MiB for five 60 MiB header claims with 1000 body bytes each", grew>>20)
	}
	if ns := b.NetStats(); ns.FrameErrors != 0 || ns.FramesIn != 0 {
		t.Fatalf("NetStats = %+v; the claims are within MaxFrame and still incomplete", ns)
	}
}
