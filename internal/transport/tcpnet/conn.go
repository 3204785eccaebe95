package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"catocs/internal/transport"
	"catocs/internal/wire"
)

// Frame layout, every field an unsigned LEB128 varint:
//
//	length — bytes after this field: the three below plus len(body)
//	kind   — wire.Kind; 0 (wire.KindReserved) is the keepalive ping
//	from   — sending NodeID, as its int64 bit pattern
//	to     — destination NodeID, likewise
//	...    body — wire-registry encoding of the payload
//
// A frame between small NodeIDs carries a 4–5 byte header. Send
// encodes the body into a pooled buffer behind frameHeaderMax reserved
// bytes and then writes the header right-aligned against it, so the
// frame is one contiguous slice without a second copy.
const (
	frameMetaMax   = 3 + 2*binary.MaxVarintLen64 // kind, from, to
	frameHeaderMax = binary.MaxVarintLen64 + frameMetaMax
)

// putFrameHeader writes the header of the frame whose body fills
// buf[frameHeaderMax:] into the space reserved before it, right-aligned,
// and returns the frame's first byte offset.
func putFrameHeader(buf []byte, kind wire.Kind, from, to transport.NodeID) int {
	var meta [frameMetaMax]byte
	m := binary.PutUvarint(meta[:], uint64(kind))
	m += binary.PutUvarint(meta[m:], uint64(int64(from)))
	m += binary.PutUvarint(meta[m:], uint64(int64(to)))
	length := uint64(m + len(buf) - frameHeaderMax)
	start := frameHeaderMax - m - wire.UvarintLen(length)
	binary.PutUvarint(buf[start:], length)
	copy(buf[frameHeaderMax-m:], meta[:m])
	return start
}

// frame is one encoded payload queued for a remote process. buf points
// at a pooled buffer holding the complete wire frame from offset start
// — header already filled, body appended by the registry's append-style
// encoder — so the steady-state Send path allocates nothing and
// writerLoop issues one Write per frame. The buffer is recycled after
// the frame is written (or dropped); a nil buf is the keepalive ping.
type frame struct {
	kind  wire.Kind
	from  transport.NodeID
	to    transport.NodeID
	buf   *[]byte
	start int
}

// bodyLen returns the encoded payload length carried by the frame.
func (f frame) bodyLen() int {
	if f.buf == nil {
		return 0
	}
	return len(*f.buf) - frameHeaderMax
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
		var hdr [frameHeaderMax]byte
		start := putFrameHeader(hdr[:], f.kind, f.from, f.to)
		bw.Write(hdr[start:])
		p.n.nc.bytesOut.Add(uint64(frameHeaderMax - start))
		return
	}
	data := (*f.buf)[f.start:]
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

// maxRun bounds the frames a connection reader decodes before it
// hands them to the mailbox.
const maxRun = 64

// serveConn reads frames from one inbound connection until the peer
// goes away, the stream turns to garbage, or the watchdog expires the
// read (half-open detection: a live peer pings at least every
// PingEvery). A body that fails to decode loses that one message; a
// framing violation poisons the connection, because nothing after an
// untrustworthy length prefix can be re-synchronised.
//
// Decoded deliveries collect in a run that goes to the mailbox under
// one lock whenever the next frame is not wholly buffered (so before
// any read that could block), every maxRun frames, and on return: the
// frames before a violation are delivered.
func (n *Net) serveConn(c net.Conn) {
	defer n.wg.Done()
	wd := n.watch(c)
	run := make([]task, 0, maxRun)
	defer func() {
		n.enqueue(run)
		wd.stop()
		n.mu.Lock()
		delete(n.inbound, c)
		n.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	// A retaining kind's body is read into a slab region of its own,
	// which the decoded payload aliases. Every other decoder copies
	// what it keeps, so those bodies share one reusable scratch buffer:
	// acks and order runs take no slab bytes. A body above slabMax gets
	// a buffer of its own either way.
	var scratch []byte
	var retained slab
	since := 0 // frames read since the last hand-over
	for {
		if since == maxRun || !frameBuffered(br) {
			n.enqueue(run)
			clear(run)
			run, since = run[:0], 0
			wd.mark()
		}
		since++
		length, lenBytes, err := readUvarint(br)
		if err != nil {
			if isTimeout(err) {
				n.nc.idleCloses.Add(1)
			} else if err != io.EOF {
				n.nc.frameErrors.Add(1)
			}
			return
		}
		var hdr [3]uint64 // kind, from, to
		meta := uint64(0)
		for i := range hdr {
			v, k, err := readUvarint(br)
			if err != nil {
				n.nc.frameErrors.Add(1)
				return
			}
			hdr[i], meta = v, meta+uint64(k)
		}
		kind, from, to := hdr[0], hdr[1], hdr[2]
		if kind > math.MaxUint16 || meta > length || length-meta > uint64(n.cfg.MaxFrame) {
			n.nc.frameErrors.Add(1)
			return
		}
		need := int(length - meta)
		var body []byte
		switch {
		case need > slabMax:
			// A header may claim far more than its peer ever sends, so
			// a large body grows only as its bytes arrive.
			body, err = readGrowing(br, need)
		case wire.Retains(wire.Kind(kind)):
			body = retained.carve(need)
			_, err = io.ReadFull(br, body)
		default:
			if cap(scratch) < need {
				scratch = make([]byte, need)
			}
			body = scratch[:need]
			_, err = io.ReadFull(br, body)
		}
		if err != nil {
			n.nc.frameErrors.Add(1)
			return
		}
		n.nc.framesIn.Add(1)
		n.nc.bytesIn.Add(uint64(lenBytes) + length)
		if wire.Kind(kind) == wire.KindReserved {
			n.nc.pingsIn.Add(1)
			continue
		}
		dst := transport.NodeID(int64(to))
		payload, err := wire.Unmarshal(wire.Kind(kind), body)
		if err != nil {
			n.nc.decodeErrors.Add(1)
			n.drop(dst)
			continue
		}
		if !n.local[dst] {
			n.nc.unroutable.Add(1)
			n.drop(dst)
			continue
		}
		run = append(run, task{from: transport.NodeID(int64(from)), to: dst, payload: payload, size: len(body)})
	}
}

// frameBuffered reports whether br holds a whole frame, so that
// reading it cannot block. A malformed length prefix reads as not
// buffered; the read that follows finds the violation.
func frameBuffered(br *bufio.Reader) bool {
	b, _ := br.Peek(br.Buffered())
	length, k := binary.Uvarint(b)
	return k > 0 && length <= uint64(len(b)-k)
}

// readGrowing reads an n-byte body, n > slabMax, into a buffer that
// starts at slabMax bytes and doubles only once the bytes read so far
// fill it, so what a frame costs before it is complete stays within
// twice what has arrived. The result has capacity n.
func readGrowing(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, slabMax)
	for {
		k, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err != nil || len(buf) == n {
			return buf, err
		}
		grown := make([]byte, len(buf), min(2*cap(buf), n))
		copy(grown, buf)
		buf = grown
	}
}

// watchdog closes an inbound connection's reads once IdleTimeout
// passes with no frame read, in place of a read deadline re-armed per
// frame. The reader marks progress at each hand-over; the watchdog
// sleeps until IdleTimeout after the latest mark and then, if no newer
// mark came, sets the deadline in the past so the pending read fails
// as a timeout.
type watchdog struct {
	start time.Time
	last  atomic.Int64 // time since start at the latest mark
	stopc chan struct{}
}

// watch starts c's watchdog.
func (n *Net) watch(c net.Conn) *watchdog {
	w := &watchdog{start: time.Now(), stopc: make(chan struct{})}
	idle := n.cfg.IdleTimeout
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTimer(idle)
		defer t.Stop()
		for {
			select {
			case <-w.stopc:
				return
			case <-t.C:
			}
			left := idle - (time.Since(w.start) - time.Duration(w.last.Load()))
			if left <= 0 {
				c.SetReadDeadline(time.Unix(1, 0))
				return
			}
			t.Reset(left)
		}
	}()
	return w
}

func (w *watchdog) mark() { w.last.Store(int64(time.Since(w.start))) }

func (w *watchdog) stop() { close(w.stopc) }

// slabChunk is the size of the chunks a slab carves, and slabMax the
// largest body it carves from one. A chunk loses the tail too short
// for the next body, so at most slabMax of it; a whole number of 8 KiB
// pages, the unit Go rounds large allocations to, loses nothing more.
// For the 8 225-byte bodies of an 8 KiB cast a 1 MiB chunk holds 127
// and loses 4 001 bytes, where a 64 KiB one held 7 and lost 7 961.
const (
	slabChunk = 1 << 20
	slabMax   = 64 << 10
)

// slab hands out regions of append-only chunks, each region once, for
// bodies whose decoded values alias them (wire.Retains). Regions of
// one chunk share its allocation, which lives until the last value
// aliasing any of them is gone. A body larger than slabMax gets an
// allocation of its own. A slab is not safe for concurrent use.
type slab struct {
	free []byte // the unused tail of the current chunk
}

// carve returns n bytes that no earlier or later carve shares.
func (s *slab) carve(n int) []byte {
	if n > slabMax {
		return make([]byte, n)
	}
	if len(s.free) < n {
		s.free = make([]byte, slabChunk)
	}
	b := s.free[:n:n]
	s.free = s.free[n:]
	return b
}

// readUvarint reads one header varint and how many bytes it took. Only
// the minimal encoding of a 64-bit value is accepted: an overlong or
// non-minimal prefix is a framing violation like any other garbage.
func readUvarint(br *bufio.Reader) (uint64, int, error) {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, i, err
		}
		if b < 0x80 {
			if (i > 0 && b == 0) || (i == binary.MaxVarintLen64-1 && b > 1) {
				return 0, i + 1, errBadVarint
			}
			return v | uint64(b)<<(7*i), i + 1, nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	return 0, binary.MaxVarintLen64, errBadVarint
}

var errBadVarint = errors.New("tcpnet: malformed varint in frame header")

// isTimeout reports whether an error is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
