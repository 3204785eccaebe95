// Package multicast implements the CATOCS protocols the paper
// critiques, from scratch: unordered, FIFO, causal (CBCAST-style
// vector-clock delay queues), and fixed-sequencer totally ordered
// multicast (plain and causally consistent), with optional atomic
// delivery (negative acknowledgements, retransmission from unstable
// buffers, and matrix-clock stability tracking).
//
// The package is written as a real group-communication library: a
// Member is one endpoint of a process group bound to a
// transport.Network, and the same code runs on the deterministic
// simulated network (all experiments) and on real TCP sockets
// (internal/transport/tcpnet). The instrumentation the experiments
// need — delivery latencies, delay-queue occupancy, unstable-buffer
// occupancy, message censuses — is built in, because the paper's
// claims (§3.4 false causality, §5 buffering growth) are precisely
// about these internals.
package multicast

import (
	"time"

	"catocs/internal/obs"
	"catocs/internal/vclock"
)

// MsgID names a multicast uniquely within a group: the seq'th message
// from a sender. IDs survive view changes because ranks are fixed for
// the life of a member within an epoch.
type MsgID = vclock.MsgID

// DataMsg is an application multicast on the wire. Every ordering mode
// uses it; the VC field is populated only in causal mode, and Epoch
// guards against cross-view delivery.
type DataMsg struct {
	Group string
	Epoch uint64
	// Inc is the sender's incarnation number: 0 for a process's first
	// life, bumped by WAL crash-recovery each time the same identity
	// rejoins. Epoch rejects packets from a previous view; Inc rejects
	// packets from a previous *life* — the case where concurrent
	// coordinators (a healed partition) or a fast restart reuse an epoch
	// number, so the epoch alone cannot tell a stale pre-crash packet
	// from a live one.
	Inc    uint32
	Sender vclock.ProcessID
	Seq    uint64    // per-sender sequence, 1-based
	VC     vclock.VC // causal dependency stamp; VC[Sender] == Seq
	// VCDelta is the delta-encoded causal stamp: the entries of the
	// sender's clock that changed since its previous cast. A transmitted
	// copy carries either VC (a full-clock refresh, every
	// Config.VCRefreshEvery'th cast, and every retransmission) or
	// VCDelta, never both;
	// receivers reconstruct the full clock along each sender's sequence
	// chain and keep the delta for the sparse deliverability check.
	VCDelta []vclock.DeltaEntry
	SentAt  time.Duration
	// DeliveredVC piggybacks the sender's delivered clock for stability
	// tracking (atomic mode); nil otherwise.
	DeliveredVC vclock.VC
	Payload     any
	PayloadSize int
	// traceWant caches the sender's head-sampling decision (+1 wanted,
	// -1 unwanted, 0 undecided): every node's wire-receive, holdback,
	// and delivery events for this broadcast reuse it instead of
	// rehashing the ref. Written once before the first send, read-only
	// after; unexported because it never crosses a process boundary
	// (both networks pass payloads in-memory).
	traceWant int8
	// wireLen memoises the encoded length (0 = not yet computed; see
	// dataMsgLen). Same write-before-send discipline as traceWant; an
	// int32 (frames stay far below 2 GiB) that fits the padding after
	// it.
	wireLen int32
	// traceCtx caches the rendered causal context for sampled messages:
	// the send event and every node's delivery event of one broadcast
	// share the message's own clock, so the string is built once at the
	// send site. Same write-before-send discipline as traceWant.
	traceCtx string
}

// ID returns the message's identity.
func (m *DataMsg) ID() MsgID { return MsgID{Sender: m.Sender, Seq: m.Seq} }

// TraceRef implements obs.Referable, letting the transport layer
// record wire-receive events for the causal trace recorder.
func (m *DataMsg) TraceRef() obs.MsgRef {
	return obs.MsgRef{Sender: int64(m.Sender), Seq: m.Seq}
}

// TraceWanted implements obs.TraceHinted.
func (m *DataMsg) TraceWanted() (wanted, known bool) {
	return m.traceWant > 0, m.traceWant != 0
}

// OrderBatchMsg is the sequencer's ordering announcement, a run of
// consecutive assignments: IDs[i] is assigned global position
// FirstGlobal+i. Runs amortize the per-frame cost that caps a fixed
// sequencer's throughput — one announcement frame per run instead of
// one per cast — and order-NACK recovery answers in runs too.
type OrderBatchMsg struct {
	Group       string
	Epoch       uint64
	FirstGlobal uint64
	IDs         []MsgID
}

// AckMsg carries a member's delivered vector clock for stability
// tracking (atomic mode). Sent periodically when traffic alone does not
// piggyback enough acknowledgement information — the trade-off §5
// notes: fewer application messages to piggyback on means more
// explicit stabilization traffic.
type AckMsg struct {
	Group string
	Epoch uint64
	From  vclock.ProcessID
	// Settled reports that the sender held no unstable message when it
	// acked: it needs no matrix row from anyone, so a settled receiver
	// does not answer it (see onAck).
	Settled   bool
	Delivered vclock.VC
}

// NackMsg requests retransmission of specific messages the requester
// is missing. Sent to a member believed to buffer them (the original
// sender first, then any member, since atomic mode buffers everywhere
// until stability).
type NackMsg struct {
	Group string
	Epoch uint64
	From  vclock.ProcessID
	Want  []MsgID
}

// OrderNack asks the sequencer to retransmit order assignments: every
// global position in [FromGlobal, latest], plus the positions of the
// specific messages in Want (data that arrived but whose assignment
// was lost).
type OrderNack struct {
	Group      string
	Epoch      uint64
	From       vclock.ProcessID
	FromGlobal uint64
	Want       []MsgID
}

// RetransMsg carries a retransmitted original message in response to a
// NackMsg.
type RetransMsg struct {
	Group string
	Epoch uint64
	Data  *DataMsg
}

// TraceRef implements obs.Referable: a retransmitted copy arrives on
// the wire as the original message.
func (m *RetransMsg) TraceRef() obs.MsgRef { return m.Data.TraceRef() }

// TraceWanted implements obs.TraceHinted via the wrapped message.
func (m *RetransMsg) TraceWanted() (wanted, known bool) { return m.Data.TraceWanted() }
