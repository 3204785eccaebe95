package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"catocs/internal/transport"
	"catocs/internal/wire"
)

// Frame layout (little-endian):
//
//	u32 length   — bytes after this field: frameMetaLen + len(body)
//	u16 kind     — wire.Kind; 0 (wire.KindReserved) is the keepalive ping
//	i64 from     — sending NodeID
//	i64 to       — destination NodeID
//	...  body    — wire-registry encoding of the payload
const (
	frameMetaLen   = 2 + 8 + 8
	frameHeaderLen = 4 + frameMetaLen
)

// frame is one encoded payload queued for a remote process. buf points
// at a pooled buffer holding the complete wire frame — header already
// filled, body appended by the registry's append-style encoder — so the
// steady-state Send path allocates nothing and writerLoop issues one
// Write per frame. The buffer is recycled after the frame is written
// (or dropped); a nil buf is the keepalive ping.
type frame struct {
	kind wire.Kind
	from transport.NodeID
	to   transport.NodeID
	buf  *[]byte
}

// bodyLen returns the encoded payload length carried by the frame.
func (f frame) bodyLen() int {
	if f.buf == nil {
		return 0
	}
	return len(*f.buf) - frameHeaderLen
}

// frameBufPool recycles frame buffers between Send and writerLoop.
// Buffers that grew past maxPooledFrame are dropped to the GC so one
// jumbo payload does not pin memory forever.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

const maxPooledFrame = 64 << 10

func getFrameBuf() *[]byte { return frameBufPool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) {
	if b == nil || cap(*b) > maxPooledFrame {
		return
	}
	*b = (*b)[:0]
	frameBufPool.Put(b)
}

// counters are the tcpnet-specific wire counters, all updated with
// atomics from reader/writer goroutines.
type counters struct {
	dials        atomic.Uint64
	dialFailures atomic.Uint64
	reconnects   atomic.Uint64
	queueDrops   atomic.Uint64
	mailboxDrops atomic.Uint64
	encodeErrors atomic.Uint64
	decodeErrors atomic.Uint64
	frameErrors  atomic.Uint64
	framesOut    atomic.Uint64
	framesIn     atomic.Uint64
	bytesOut     atomic.Uint64
	bytesIn      atomic.Uint64
	flushes      atomic.Uint64
	flushErrors  atomic.Uint64
	writeLost    atomic.Uint64
	pingsOut     atomic.Uint64
	pingsIn      atomic.Uint64
	connsIn      atomic.Uint64
	idleCloses   atomic.Uint64
	unroutable   atomic.Uint64
}

// NetStats is a snapshot of the TCP-level counters, alongside the
// protocol-level transport.Stats.
type NetStats struct {
	Dials        uint64 `json:"dials"`         // outbound connection attempts
	DialFailures uint64 `json:"dial_failures"` // attempts that failed
	Reconnects   uint64 `json:"reconnects"`    // successful dials after the first, per peer
	QueueDrops   uint64 `json:"queue_drops"`   // sends shed by a full outbound queue
	MailboxDrops uint64 `json:"mailbox_drops"` // deliveries shed by a full dispatch mailbox
	EncodeErrors uint64 `json:"encode_errors"` // payloads with no registered codec
	DecodeErrors uint64 `json:"decode_errors"` // frames whose body failed to decode
	FrameErrors  uint64 `json:"frame_errors"`  // framing violations (conn killed)
	FramesOut    uint64 `json:"frames_out"`
	FramesIn     uint64 `json:"frames_in"`
	BytesOut     uint64 `json:"bytes_out"` // includes frame headers
	BytesIn      uint64 `json:"bytes_in"`  // includes frame headers
	Flushes      uint64 `json:"flushes"`   // batch writes (coalescing = FramesOut/Flushes)
	FlushErrors  uint64 `json:"flush_errors"`
	WriteLost    uint64 `json:"write_lost"` // frames lost in failed flushes
	PingsOut     uint64 `json:"pings_out"`
	PingsIn      uint64 `json:"pings_in"`
	ConnsIn      uint64 `json:"conns_in"`    // connections accepted
	IdleCloses   uint64 `json:"idle_closes"` // inbound conns closed by the idle deadline
	Unroutable   uint64 `json:"unroutable"`  // sends to NodeIDs with no address
}

// NetStats returns a snapshot of the TCP-level counters.
func (n *Net) NetStats() NetStats {
	c := &n.nc
	return NetStats{
		Dials:        c.dials.Load(),
		DialFailures: c.dialFailures.Load(),
		Reconnects:   c.reconnects.Load(),
		QueueDrops:   c.queueDrops.Load(),
		MailboxDrops: c.mailboxDrops.Load(),
		EncodeErrors: c.encodeErrors.Load(),
		DecodeErrors: c.decodeErrors.Load(),
		FrameErrors:  c.frameErrors.Load(),
		FramesOut:    c.framesOut.Load(),
		FramesIn:     c.framesIn.Load(),
		BytesOut:     c.bytesOut.Load(),
		BytesIn:      c.bytesIn.Load(),
		Flushes:      c.flushes.Load(),
		FlushErrors:  c.flushErrors.Load(),
		WriteLost:    c.writeLost.Load(),
		PingsOut:     c.pingsOut.Load(),
		PingsIn:      c.pingsIn.Load(),
		ConnsIn:      c.connsIn.Load(),
		IdleCloses:   c.idleCloses.Load(),
		Unroutable:   c.unroutable.Load(),
	}
}

// peerConn owns this process's single outbound connection to one
// remote process: a bounded frame queue drained by writerLoop, which
// dials lazily, reconnects with jittered exponential backoff, and
// coalesces queued frames into batched writes.
type peerConn struct {
	n           *Net
	addr        string
	ch          chan frame
	queuedBytes atomic.Int64
}

func newPeerConn(n *Net, addr string) *peerConn {
	depth := n.cfg.Queue.MaxMsgs
	if depth <= 0 {
		depth = 8192
	}
	return &peerConn{n: n, addr: addr, ch: make(chan frame, depth)}
}

// enqueue admits a frame against the queue budget without blocking.
// The caller keeps ownership of f.buf on a false return.
func (p *peerConn) enqueue(f frame) bool {
	// The send hands f.buf to writerLoop, which recycles it, so the
	// length is read and accounted before and undone on refusal.
	n := f.bodyLen()
	if !p.n.cfg.Queue.Admits(len(p.ch), int(p.queuedBytes.Load()), n) {
		return false
	}
	p.queuedBytes.Add(int64(n))
	select {
	case p.ch <- f:
		return true
	default:
		p.queuedBytes.Add(-int64(n))
		return false
	}
}

// writerLoop drains the queue for one remote process. One iteration:
// wait for a frame (or a ping tick), ensure a connection exists
// (dialling with backoff while the bounded queue absorbs or sheds new
// traffic), then greedily coalesce up to MaxBatch queued frames into a
// single buffered write and one flush — the syscall batching that lets
// a member's sendAll fan-out of N small frames cost one write.
func (p *peerConn) writerLoop() {
	n := p.n
	defer n.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	closeConn := func() {
		if conn != nil {
			conn.Close()
			conn = nil
			bw = nil
		}
	}
	defer closeConn()
	backoff := n.cfg.ReconnectMin
	dialed := false
	ticker := time.NewTicker(n.cfg.PingEvery)
	defer ticker.Stop()
	lastWrite := time.Now()
	for {
		var first frame
		haveFrame := false
		select {
		case <-n.done:
			return
		case first = <-p.ch:
			p.queuedBytes.Add(-int64(first.bodyLen()))
			haveFrame = true
		case <-ticker.C:
			if conn == nil || time.Since(lastWrite) < n.cfg.PingEvery {
				continue
			}
		}
		// Ensure a live connection. Dial failures back off with jitter;
		// the loop aborts only on Close. The oldest frame waits here —
		// newer traffic accumulates in the bounded queue behind it.
		for conn == nil {
			c, err := net.DialTimeout("tcp", p.addr, n.cfg.DialTimeout)
			n.nc.dials.Add(1)
			if err != nil {
				n.nc.dialFailures.Add(1)
				select {
				case <-n.done:
					return
				case <-time.After(jitter(backoff)):
				}
				backoff *= 2
				if backoff > n.cfg.ReconnectMax {
					backoff = n.cfg.ReconnectMax
				}
				continue
			}
			conn = c
			bw = bufio.NewWriterSize(c, 64<<10)
			backoff = n.cfg.ReconnectMin
			if dialed {
				n.nc.reconnects.Add(1)
			}
			dialed = true
		}
		// The deadline covers the whole batch, including any implicit
		// flushes bufio issues when its buffer fills mid-batch.
		conn.SetWriteDeadline(time.Now().Add(n.cfg.WriteTimeout))
		frames := 0
		if haveFrame {
			p.writeFrame(bw, first)
			frames = 1
		coalesce:
			for frames < n.cfg.MaxBatch {
				select {
				case f := <-p.ch:
					p.queuedBytes.Add(-int64(f.bodyLen()))
					p.writeFrame(bw, f)
					frames++
				default:
					break coalesce
				}
			}
		} else {
			p.writeFrame(bw, frame{kind: wire.KindReserved})
			n.nc.pingsOut.Add(1)
		}
		if err := bw.Flush(); err != nil {
			n.nc.flushErrors.Add(1)
			n.nc.writeLost.Add(uint64(frames))
			for i := 0; i < frames; i++ {
				n.drop(first.to)
			}
			closeConn()
			continue
		}
		lastWrite = time.Now()
		n.nc.flushes.Add(1)
		n.nc.framesOut.Add(uint64(frames))
	}
}

// writeFrame appends one frame to the buffered writer and recycles its
// buffer. Errors are sticky in bufio and surface at Flush; bufio copies
// the bytes (or flushes them through) before Write returns, so the
// recycle is safe either way.
func (p *peerConn) writeFrame(bw *bufio.Writer, f frame) {
	if f.buf == nil { // keepalive ping: header only, built on the stack
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(frameMetaLen))
		binary.LittleEndian.PutUint16(hdr[4:6], uint16(f.kind))
		binary.LittleEndian.PutUint64(hdr[6:14], uint64(int64(f.from)))
		binary.LittleEndian.PutUint64(hdr[14:22], uint64(int64(f.to)))
		bw.Write(hdr[:])
		p.n.nc.bytesOut.Add(uint64(frameHeaderLen))
		return
	}
	data := *f.buf
	bw.Write(data)
	p.n.nc.bytesOut.Add(uint64(len(data)))
	putFrameBuf(f.buf)
}

// jitter spreads a backoff over [d/2, d) so peers restarting together
// do not dial in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)/2))
}

// acceptLoop owns the listener; each accepted connection gets a reader
// goroutine.
func (n *Net) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.inbound[c] = true
		n.mu.Unlock()
		n.nc.connsIn.Add(1)
		n.wg.Add(1)
		go n.serveConn(c)
	}
}

// serveConn reads frames from one inbound connection until the peer
// goes away, the stream turns to garbage, or the idle deadline fires
// (half-open detection: a live peer pings at least every PingEvery).
// A body that fails to decode loses that one message; a framing
// violation poisons the connection, because nothing after an
// untrustworthy length prefix can be re-synchronised.
func (n *Net) serveConn(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.inbound, c)
		n.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	var hdr [frameHeaderLen]byte
	// One reusable body buffer per connection: decoders copy everything
	// they retain, so the next frame may overwrite it freely.
	var body []byte
	for {
		c.SetReadDeadline(time.Now().Add(n.cfg.IdleTimeout))
		if _, err := io.ReadFull(br, hdr[:4]); err != nil {
			if isTimeout(err) {
				n.nc.idleCloses.Add(1)
			} else if err != io.EOF {
				n.nc.frameErrors.Add(1)
			}
			return
		}
		length := int(binary.LittleEndian.Uint32(hdr[0:4]))
		if length < frameMetaLen || length > frameMetaLen+n.cfg.MaxFrame {
			n.nc.frameErrors.Add(1)
			return
		}
		if _, err := io.ReadFull(br, hdr[4:frameHeaderLen]); err != nil {
			n.nc.frameErrors.Add(1)
			return
		}
		kind := wire.Kind(binary.LittleEndian.Uint16(hdr[4:6]))
		from := transport.NodeID(int64(binary.LittleEndian.Uint64(hdr[6:14])))
		to := transport.NodeID(int64(binary.LittleEndian.Uint64(hdr[14:22])))
		if need := length - frameMetaLen; cap(body) < need {
			body = make([]byte, need)
		} else {
			body = body[:need]
		}
		if _, err := io.ReadFull(br, body); err != nil {
			n.nc.frameErrors.Add(1)
			return
		}
		n.nc.framesIn.Add(1)
		n.nc.bytesIn.Add(uint64(4 + length))
		if kind == wire.KindReserved {
			n.nc.pingsIn.Add(1)
			continue
		}
		payload, err := wire.Unmarshal(kind, body)
		if err != nil {
			n.nc.decodeErrors.Add(1)
			n.drop(to)
			continue
		}
		if !n.local[to] {
			n.nc.unroutable.Add(1)
			n.drop(to)
			continue
		}
		n.enqueueDelivery(from, to, payload, len(body))
	}
}

// isTimeout reports whether an error is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
