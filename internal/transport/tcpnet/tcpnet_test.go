package tcpnet_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/transport"
	"catocs/internal/transport/tcpnet"
	"catocs/internal/wire"
)

// testMsg is the payload type the transport tests move; registered
// under a kind far from any production range.
type testMsg struct {
	N uint64
	S string
}

func init() {
	wire.Register(0xF100, testMsg{},
		func(payload any) ([]byte, error) {
			m := payload.(testMsg)
			w := wire.NewWriter(16)
			w.U64(m.N)
			w.String(m.S)
			return w.Bytes(), nil
		},
		func(buf []byte) (any, error) {
			r := wire.NewReader(buf)
			m := testMsg{N: r.U64(), S: r.String(1 << 10)}
			if err := r.Finish("testMsg"); err != nil {
				return nil, err
			}
			return m, nil
		})
}

// reserveAddrs grabs n distinct localhost ports by binding and
// immediately releasing ephemeral listeners. The tiny window before
// the test rebinds them is harmless on a loopback-only test host.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// fastCfg returns a two-process config with timings scaled for tests.
func fastCfg(listen string, local []transport.NodeID, addrs map[transport.NodeID]string) tcpnet.Config {
	return tcpnet.Config{
		Listen:       listen,
		Local:        local,
		Addrs:        addrs,
		DialTimeout:  500 * time.Millisecond,
		WriteTimeout: 500 * time.Millisecond,
		PingEvery:    25 * time.Millisecond,
		IdleTimeout:  250 * time.Millisecond,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	}
}

// inbox collects deliveries behind a mutex so the test goroutine can
// poll while the dispatcher appends.
type inbox struct {
	mu   sync.Mutex
	msgs []testMsg
	from []transport.NodeID
}

func (b *inbox) handler(from transport.NodeID, payload any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.msgs = append(b.msgs, payload.(testMsg))
	b.from = append(b.from, from)
}

func (b *inbox) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.msgs)
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSendReceiveBothDirections(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	univ := map[transport.NodeID]string{0: addrs[0], 1: addrs[1]}
	a, err := tcpnet.New(fastCfg(addrs[0], []transport.NodeID{0}, univ))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tcpnet.New(fastCfg(addrs[1], []transport.NodeID{1}, univ))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var inA, inB inbox
	a.Register(0, inA.handler)
	b.Register(1, inB.handler)

	const k = 50
	for i := 0; i < k; i++ {
		a.Send(0, 1, testMsg{N: uint64(i), S: "a->b"})
		b.Send(1, 0, testMsg{N: uint64(i), S: "b->a"})
	}
	waitFor(t, 5*time.Second, "all deliveries", func() bool {
		return inA.len() == k && inB.len() == k
	})
	inB.mu.Lock()
	defer inB.mu.Unlock()
	for i, m := range inB.msgs {
		if m.N != uint64(i) || m.S != "a->b" || inB.from[i] != 0 {
			t.Fatalf("delivery %d = %+v from %d; want {%d a->b} from 0", i, m, inB.from[i], i)
		}
	}
	if st := b.Stats(); st.Delivered != k || st.Bytes == 0 {
		t.Fatalf("b stats = %+v; want Delivered=%d, Bytes>0", st, k)
	}
	if st := a.Stats(); st.Sent != k || st.CtrlBytes == 0 {
		t.Fatalf("a stats = %+v; want Sent=%d, CtrlBytes>0", st, k)
	}
}

// TestLoopbackRoundTripsCodec checks that a local destination still
// passes through encode+decode: the handler must receive an equal but
// distinct value, and an unregistered payload must not sneak through.
func TestLoopbackRoundTripsCodec(t *testing.T) {
	addrs := reserveAddrs(t, 1)
	univ := map[transport.NodeID]string{0: addrs[0], 1: addrs[0]}
	a, err := tcpnet.New(fastCfg(addrs[0], []transport.NodeID{0, 1}, univ))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var in inbox
	a.Register(1, in.handler)
	a.Send(0, 1, testMsg{N: 9, S: "loop"})
	waitFor(t, 2*time.Second, "loopback delivery", func() bool { return in.len() == 1 })

	type orphan struct{ X int }
	a.Send(0, 1, orphan{X: 1})
	waitFor(t, 2*time.Second, "encode error counted", func() bool {
		return a.NetStats().EncodeErrors == 1
	})
	if st := a.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1 (the unencodable payload)", st.Dropped)
	}
}

// TestSendNeverBlocksAndSheds points a peer at a dead address with a
// tiny queue budget: every Send must return immediately and overflow
// must be shed and counted, never block.
func TestSendNeverBlocksAndSheds(t *testing.T) {
	addrs := reserveAddrs(t, 2) // addrs[1] stays unbound: dials fail
	univ := map[transport.NodeID]string{0: addrs[0], 1: addrs[1]}
	cfg := fastCfg(addrs[0], []transport.NodeID{0}, univ)
	cfg.Queue = flowcontrol.Budget{MaxMsgs: 4}
	a, err := tcpnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	start := time.Now()
	const k = 200
	for i := 0; i < k; i++ {
		a.Send(0, 1, testMsg{N: uint64(i)})
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("200 sends to a dead peer took %v; Send must not block", elapsed)
	}
	ns := a.NetStats()
	if ns.QueueDrops == 0 {
		t.Fatalf("NetStats = %+v; want QueueDrops > 0", ns)
	}
	if st := a.Stats(); st.Dropped == 0 || st.Sent != k {
		t.Fatalf("Stats = %+v; want Sent=%d and Dropped>0", st, k)
	}
	if !a.Backpressured(1) {
		t.Fatal("Backpressured(1) = false with a full queue to a dead peer")
	}
	if msgs, _ := a.Outbound(1); msgs == 0 {
		t.Fatal("Outbound(1) msgs = 0 with a saturated queue")
	}
	if a.Backpressured(0) {
		t.Fatal("Backpressured(0) = true for a local node")
	}
}

// TestDispatchIsSerial hammers one unsynchronised counter from
// handlers, After callbacks and Inject functions at once. The single-
// dispatcher contract makes this safe; the race detector would flag
// any violation.
func TestDispatchIsSerial(t *testing.T) {
	addrs := reserveAddrs(t, 1)
	univ := map[transport.NodeID]string{0: addrs[0], 1: addrs[0]}
	a, err := tcpnet.New(fastCfg(addrs[0], []transport.NodeID{0, 1}, univ))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	counter := 0 // deliberately unsynchronised
	a.Register(1, func(from transport.NodeID, payload any) { counter++ })
	const sends, timers, injects = 100, 50, 50
	for i := 0; i < sends; i++ {
		a.Send(0, 1, testMsg{N: uint64(i)})
	}
	for i := 0; i < timers; i++ {
		a.After(time.Duration(i%5)*time.Millisecond, func() { counter++ })
	}
	var wg sync.WaitGroup
	for i := 0; i < injects; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Inject(func() { counter++ })
		}()
	}
	wg.Wait()
	waitFor(t, 5*time.Second, "all work dispatched", func() bool {
		got := 0
		done := make(chan struct{})
		a.Inject(func() { got = counter; close(done) })
		<-done
		return got == sends+timers+injects
	})
}

// soloNet starts a one-node Net with the given mailbox depth.
func soloNet(t *testing.T, mailboxDepth int) *tcpnet.Net {
	t.Helper()
	addrs := reserveAddrs(t, 1)
	cfg := fastCfg(addrs[0], []transport.NodeID{0}, map[transport.NodeID]string{0: addrs[0]})
	cfg.MailboxDepth = mailboxDepth
	a, err := tcpnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// TestAfterZeroWithFullMailbox calls After(0) from the dispatcher while
// the mailbox is full: a blocking send there would wait on the very
// goroutine that drains it. The call must return and f must still run.
func TestAfterZeroWithFullMailbox(t *testing.T) {
	a := soloNet(t, 1)
	release, ran := make(chan struct{}), make(chan struct{})
	var order []string // touched only on the dispatcher
	a.Inject(func() {
		<-release
		a.After(0, func() { order = append(order, "f"); close(ran) })
		order = append(order, "returned")
	})
	// With one slot, this Inject returns only once the dispatcher has
	// taken the first task, and its filler then occupies the only slot.
	a.Inject(func() { order = append(order, "filler") })
	close(release)
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("f never ran: After(0) on the dispatcher deadlocked or lost f")
	}
	if got := strings.Join(order, ","); got != "returned,filler,f" {
		t.Fatalf("dispatch order %s, want returned,filler,f", got)
	}
}

// TestAfterZeroRunsBehindQueuedTasks pins the flush contract the
// sequencer relies on: After(0) runs after every task already queued.
func TestAfterZeroRunsBehindQueuedTasks(t *testing.T) {
	a := soloNet(t, 0)
	release, ran := make(chan struct{}), make(chan struct{})
	var order []string // touched only on the dispatcher
	a.Inject(func() {
		<-release
		a.After(0, func() { order = append(order, "f"); close(ran) })
	})
	for i := 0; i < 3; i++ {
		a.Inject(func() { order = append(order, fmt.Sprint(i)) })
	}
	close(release)
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("After(0) callback never ran")
	}
	if got := strings.Join(order, ","); got != "0,1,2,f" {
		t.Fatalf("dispatch order %s, want 0,1,2,f", got)
	}
}

// TestWriteCoalescing floods one peer and checks frames-per-flush
// exceeded one: the fan-out of small sends must batch into fewer
// syscalls.
func TestWriteCoalescing(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	univ := map[transport.NodeID]string{0: addrs[0], 1: addrs[1]}
	a, err := tcpnet.New(fastCfg(addrs[0], []transport.NodeID{0}, univ))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tcpnet.New(fastCfg(addrs[1], []transport.NodeID{1}, univ))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var in inbox
	b.Register(1, in.handler)

	const k = 2000
	for i := 0; i < k; i++ {
		a.Send(0, 1, testMsg{N: uint64(i), S: "burst"})
	}
	waitFor(t, 10*time.Second, "burst delivered", func() bool { return in.len() == k })
	ns := a.NetStats()
	if ns.FramesOut != k {
		t.Fatalf("FramesOut = %d, want %d", ns.FramesOut, k)
	}
	if ns.Flushes >= ns.FramesOut {
		t.Fatalf("Flushes = %d >= FramesOut = %d; no coalescing happened", ns.Flushes, ns.FramesOut)
	}
	t.Logf("coalescing: %d frames in %d flushes (%.1f frames/flush)",
		ns.FramesOut, ns.Flushes, float64(ns.FramesOut)/float64(ns.Flushes))
}

func TestRegisterNonLocalPanics(t *testing.T) {
	addrs := reserveAddrs(t, 1)
	univ := map[transport.NodeID]string{0: addrs[0], 7: "127.0.0.1:1"}
	a, err := tcpnet.New(fastCfg(addrs[0], []transport.NodeID{0}, univ))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Register of a non-local node did not panic")
		}
	}()
	a.Register(7, func(transport.NodeID, any) {})
}

func TestConfigValidation(t *testing.T) {
	if _, err := tcpnet.New(tcpnet.Config{Listen: "127.0.0.1:0"}); err == nil {
		t.Fatal("New with no local nodes succeeded")
	}
	if _, err := tcpnet.New(tcpnet.Config{Local: []transport.NodeID{0}}); err == nil {
		t.Fatal("New with no listen address succeeded")
	}
}

// TestManyLocalNodesOneProcess hosts 8 nodes on each of two processes
// and checks all 64 directed pairs deliver — the multiplexing loadgen
// relies on (one conn per process pair, any number of NodeIDs).
func TestManyLocalNodesOneProcess(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	univ := map[transport.NodeID]string{}
	var leftIDs, rightIDs []transport.NodeID
	for i := 0; i < 8; i++ {
		univ[transport.NodeID(i)] = addrs[0]
		univ[transport.NodeID(100+i)] = addrs[1]
		leftIDs = append(leftIDs, transport.NodeID(i))
		rightIDs = append(rightIDs, transport.NodeID(100+i))
	}
	a, err := tcpnet.New(fastCfg(addrs[0], leftIDs, univ))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tcpnet.New(fastCfg(addrs[1], rightIDs, univ))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	boxes := make(map[transport.NodeID]*inbox)
	for _, id := range rightIDs {
		box := &inbox{}
		boxes[id] = box
		b.Register(id, box.handler)
	}
	for _, from := range leftIDs {
		for _, to := range rightIDs {
			a.Send(from, to, testMsg{N: uint64(from), S: fmt.Sprintf("to-%d", to)})
		}
	}
	waitFor(t, 5*time.Second, "all 64 pair deliveries", func() bool {
		total := 0
		for _, box := range boxes {
			total += box.len()
		}
		return total == len(leftIDs)*len(rightIDs)
	})
	// One process pair, one direction with traffic: exactly one conn
	// accepted on b (plus none on a; b never sent).
	if ns := b.NetStats(); ns.ConnsIn != 1 {
		t.Fatalf("b accepted %d conns; want 1 multiplexed conn for 64 node pairs", ns.ConnsIn)
	}
}

// TestQueuedBytesExactAtDrain saturates one peer's outbound queue while
// its writer is live and recycling frame buffers, then checks the byte
// account returns to exactly zero. enqueue once read the frame length
// after handing the buffer to the writer — a data race that also let
// queuedBytes drift low, so the byte budget failed open.
func TestQueuedBytesExactAtDrain(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	univ := map[transport.NodeID]string{0: addrs[0], 1: addrs[1]}
	cfg := fastCfg(addrs[0], []transport.NodeID{0}, univ)
	cfg.Queue = flowcontrol.Budget{MaxMsgs: 16}
	a, err := tcpnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tcpnet.New(fastCfg(addrs[1], []transport.NodeID{1}, univ))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Register(1, func(transport.NodeID, any) {})

	const k = 20000
	pad := strings.Repeat("x", 256)
	for i := 0; i < k; i++ {
		a.Send(0, 1, testMsg{N: uint64(i), S: pad[:i%len(pad)]})
	}
	// FramesOut counts a frame only after its flush, which follows the
	// writer's own decrement, so the account is settled once every send
	// is either written or shed.
	waitFor(t, 10*time.Second, "every frame written or shed", func() bool {
		ns := a.NetStats()
		return ns.FramesOut+ns.WriteLost+ns.QueueDrops == k
	})
	ns := a.NetStats()
	if ns.QueueDrops == 0 || ns.FramesOut == 0 {
		t.Fatalf("NetStats = %+v; want both sheds and writes (queue saturated under a live writer)", ns)
	}
	if msgs, bytes := a.Outbound(1); msgs != 0 || bytes != 0 {
		t.Fatalf("Outbound(1) at drain = %d msgs, %d bytes; want 0, 0", msgs, bytes)
	}
}
