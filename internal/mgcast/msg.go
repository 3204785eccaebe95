// Package mgcast implements Skeen-style genuine multi-group atomic
// multicast: a message addressed to several overlapping process groups
// is delivered by every destination member in a single global
// timestamp order, without funnelling all traffic through one big
// group or one sequencer.
//
// The protocol is the classic two-phase timestamp agreement (Skeen
// 1985, as specified by the TLA+ models this reproduction follows):
//
//  1. The sender multicasts the message to the union of its
//     destination groups' members and acts as the message's
//     coordinator.
//  2. Every destination member stamps the message with a proposed
//     timestamp drawn from its local Lamport clock, buffers it in a
//     holdback queue ordered by timestamp, and returns the proposal.
//  3. The coordinator commits the maximum proposal as the final
//     timestamp and announces it to the destinations.
//  4. A member delivers a committed message once its final timestamp
//     is the minimum over every message still pending locally — an
//     uncommitted message's final timestamp can only grow past its
//     proposal, so the minimum committed entry is safe.
//
// Because final timestamps are globally unique (a (time, proposer)
// pair is issued at most once) and every member delivers in final-
// timestamp order, any two members deliver their common messages in
// the same relative order even when the messages were addressed to
// different, merely overlapping group sets — the pairwise-consistent,
// acyclic cross-group order that the paper's §5 "one big group"
// fallback buys only by making every process receive everything.
//
// Unlike the single-group agreement mode in internal/multicast (which
// assumes lossless links), this implementation is loss-tolerant: the
// coordinator retransmits the message to destinations whose proposals
// are missing and the commit to destinations that have not
// acknowledged it, so the protocol terminates under the chaos
// harness's drop/duplicate/partition faults.
package mgcast

import (
	"time"

	"catocs/internal/obs"
	"catocs/internal/vclock"
)

// MsgID names a multicast uniquely: the seq'th message originated by a
// sender node. Ranks are universe-wide node indices, not per-group
// ranks, so an ID is meaningful to every group it touches. The
// coordinator's retransmission scan iterates in Less order so
// simulated runs stay deterministic.
type MsgID = vclock.MsgID

// DataMsg is an application multicast on the wire, addressed to a set
// of destination groups.
type DataMsg struct {
	Sender vclock.ProcessID
	Seq    uint64 // per-sender sequence, 1-based
	// Groups names the destination groups, sorted. Every receiver
	// resolves the same group table, so the member set is implied.
	Groups      []string
	SentAt      time.Duration
	Payload     any
	PayloadSize int
	// Retrans marks a coordinator retransmission (send-side stats only;
	// receivers treat both copies identically).
	Retrans bool
}

// ID returns the message's identity.
func (m *DataMsg) ID() MsgID { return MsgID{Sender: m.Sender, Seq: m.Seq} }

// TraceRef implements obs.Referable so the transport layer records
// wire-receive events for the causal trace recorder.
func (m *DataMsg) TraceRef() obs.MsgRef {
	return obs.MsgRef{Sender: int64(m.Sender), Seq: m.Seq}
}

// Forwarded implements transport.ForwardMarker: retransmissions count
// as relayed copies, not fresh origin sends.
func (m *DataMsg) Forwarded() bool { return m.Retrans }

// ProposeMsg is a destination member's timestamp proposal, returned to
// the message's coordinator (its sender).
type ProposeMsg struct {
	ID       MsgID
	From     vclock.ProcessID
	Priority vclock.Stamp
}

// CommitMsg fixes a message's final timestamp: the maximum proposal
// over all destination members.
type CommitMsg struct {
	ID       MsgID
	Priority vclock.Stamp
}

// AckMsg acknowledges a commit back to the coordinator, letting it
// retire the cast's retransmission state and free the sender's
// admission window.
type AckMsg struct {
	ID   MsgID
	From vclock.ProcessID
}

// MaxStamp returns the later of two timestamp proposals under the
// total (time, proposer) order — the commit rule's merge operator. It
// is commutative and associative, so the coordinator's final timestamp
// is independent of proposal arrival order; TestMaxMergeOrderInvariant
// pins that down.
func MaxStamp(a, b vclock.Stamp) vclock.Stamp {
	if a.Less(b) {
		return b
	}
	return a
}
