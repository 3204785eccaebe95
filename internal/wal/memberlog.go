package wal

import (
	"fmt"
	"time"

	"catocs/internal/wire"
)

// MemberLog is the durable identity of one group member: the log a
// process writes so that, after a crash, it can rejoin the group as
// the *same* member rather than a fresh one. It records three things,
// as reserved objects on an ordinary Device so the CRC/torn-tail
// recovery discipline is shared with the state log:
//
//   - its incarnation number, bumped once per recovery, so survivors
//     can tell a reborn process's traffic from its pre-crash ghosts;
//   - every application cast it issued, appended before transmission
//     (write-ahead), so casts that were in flight — possibly delivered
//     at some survivors but not others — can be replayed after rejoin;
//   - the stability frontier, advanced as its own casts stabilize, so
//     replay is bounded by the unstable suffix instead of the log.
//
// Replay is at-least-once: a cast that stabilized between the last
// frontier record and the crash is replayed anyway, and survivors that
// already delivered it will see a second copy under the new
// incarnation. The paper's §4.4 position is exactly that this
// reconciliation belongs to the application — payloads carry
// application-level identities and appliers dedup on them.
const (
	incObject    = "\x00inc"    // value uint64: current incarnation
	castObject   = "\x00cast"   // value []byte: one application cast
	stableObject = "\x00stable" // value uint64: stable cast-seq frontier
	chainObject  = "\x00chain"  // value []byte: receive-chain checkpoint
)

// MemberLog wraps a Device with the member-identity discipline.
type MemberLog struct {
	dev       *Device
	incSeq    uint64
	castSeq   uint64
	stableSeq uint64
	chainSeq  uint64
	inc       uint32
	frontier  uint64
}

// RecoveredMember is what a crashed member gets back from its log.
type RecoveredMember struct {
	// Inc is the incarnation as of the crash. The caller bumps it
	// (BumpIncarnation) before rejoining.
	Inc uint32
	// Casts holds the payloads of casts past the stability frontier, in
	// issue order — the at-least-once replay set.
	Casts [][]byte
	// Records is the number of valid log records scanned; Truncated is
	// the number of torn tail records dropped.
	Records   int
	Truncated int
	// AckClock and TotalFrontier are the receive-chain checkpoint from
	// the last LogChains record, if any: the contiguous per-sender
	// delivered (ack) clock and the contiguous global-order delivery
	// prefix. A rejoin into a *static* group (no view change to reset
	// peers' chains) resumes its receive side from these instead of
	// NACKing every sequence back to zero — which peers could not
	// serve, their stability buffers having long pruned the prefix.
	AckClock      []uint64
	TotalFrontier uint64
}

// OpenMemberLog attaches to a device, truncating any torn tail and
// replaying the valid prefix into in-memory counters. A fresh device
// yields incarnation 0 and no casts. A CRC failure in the log body
// (valid records after it) is corruption and fails, as in Recover.
func OpenMemberLog(dev *Device) (*MemberLog, RecoveredMember, error) {
	valid, err := dev.validPrefix()
	if err != nil {
		return nil, RecoveredMember{}, err
	}
	rec := RecoveredMember{Records: valid, Truncated: len(dev.records) - valid}
	dev.truncate(valid)
	l := &MemberLog{dev: dev}
	var casts [][]byte
	for i, r := range dev.Records() {
		var seqp *uint64
		switch r.Object {
		case incObject:
			seqp = &l.incSeq
		case castObject:
			seqp = &l.castSeq
		case stableObject:
			seqp = &l.stableSeq
		case chainObject:
			seqp = &l.chainSeq
		default:
			continue // foreign objects (a shared device) are not ours
		}
		if r.Seq != *seqp+1 {
			return nil, rec, fmt.Errorf("wal: member log record %d for %q has seq %d, want %d",
				i, r.Object, r.Seq, *seqp+1)
		}
		*seqp = r.Seq
		switch r.Object {
		case incObject:
			v, ok := r.Value.(uint64)
			if !ok {
				return nil, rec, fmt.Errorf("wal: incarnation record holds %T, want uint64", r.Value)
			}
			l.inc = uint32(v)
		case castObject:
			p, ok := r.Value.([]byte)
			if !ok {
				return nil, rec, fmt.Errorf("wal: cast record holds %T, want []byte", r.Value)
			}
			casts = append(casts, p)
		case stableObject:
			v, ok := r.Value.(uint64)
			if !ok {
				return nil, rec, fmt.Errorf("wal: stability record holds %T, want uint64", r.Value)
			}
			if v > l.frontier {
				l.frontier = v
			}
		case chainObject:
			b, _ := r.Value.([]byte)
			// Last record wins: checkpoints only advance.
			cr := wire.NewReader(b)
			rec.TotalFrontier = cr.Uvarint()
			n := cr.Uvarint()
			if n > uint64(len(cr.Rest())) {
				cr.Fail()
				n = 0
			}
			rec.AckClock = make([]uint64, n)
			cr.Uvarints(rec.AckClock)
			if err := cr.Finish("chain checkpoint"); err != nil {
				return nil, rec, fmt.Errorf("wal: %w (record holds %T)", err, r.Value)
			}
		}
	}
	// The replay set is the suffix past the frontier: casts are appended
	// in issue order, so cast k (1-based) sits at casts[k-1].
	if l.frontier < uint64(len(casts)) {
		rec.Casts = casts[l.frontier:]
	}
	rec.Inc = l.inc
	return l, rec, nil
}

// Incarnation returns the current incarnation number.
func (l *MemberLog) Incarnation() uint32 { return l.inc }

// BumpIncarnation durably advances the incarnation and returns it.
// Called once per recovery, before rejoining.
func (l *MemberLog) BumpIncarnation() (uint32, time.Duration) {
	l.inc++
	l.incSeq++
	lat := l.dev.Append(Record{Object: incObject, Seq: l.incSeq, Value: uint64(l.inc)})
	return l.inc, lat
}

// LogCast appends one application cast payload, returning the modeled
// write latency. Call before transmitting (write-ahead).
func (l *MemberLog) LogCast(payload []byte) time.Duration {
	l.castSeq++
	return l.dev.Append(Record{Object: castObject, Seq: l.castSeq, Value: payload})
}

// CastCount returns the number of casts logged over the log's life.
func (l *MemberLog) CastCount() uint64 { return l.castSeq }

// LogStable records that this member's first frontier casts (in
// LogCast order) have stabilized — delivered everywhere — and need no
// replay. Regressions are ignored.
func (l *MemberLog) LogStable(frontier uint64) time.Duration {
	if frontier <= l.frontier {
		return 0
	}
	l.frontier = frontier
	l.stableSeq++
	return l.dev.Append(Record{Object: stableObject, Seq: l.stableSeq, Value: frontier})
}

// LogChains checkpoints the member's receive chains: the contiguous
// delivered (ack) clock plus, for total orderings, the contiguous
// global-order delivery prefix. The SimNet recovery path never needs
// this — a view change resets every survivor's chains around the
// rejoiner — but a static-membership group (the real-TCP fleet) has no
// views, so a reborn member must resume receiving exactly where it
// stopped. Written on graceful shutdown; crash recovery falls back to
// whatever checkpoint was last persisted (older checkpoints just widen
// the NACKed gap, and a crashed member's frozen ack row kept that gap
// unstable — retransmittable — at every survivor).
func (l *MemberLog) LogChains(ack []uint64, totalFrontier uint64) time.Duration {
	w := wire.NewAppendWriter(nil)
	w.Uvarint(totalFrontier)
	w.Uvarint(uint64(len(ack)))
	for _, v := range ack {
		w.Uvarint(v)
	}
	l.chainSeq++
	return l.dev.Append(Record{Object: chainObject, Seq: l.chainSeq, Value: w.Bytes()})
}

// Device exposes the backing device (byte accounting, test injection).
func (l *MemberLog) Device() *Device { return l.dev }

// truncate drops records beyond the valid prefix, so appends after a
// torn-tail recovery do not leave valid records behind an invalid one
// (which validPrefix would rightly refuse as body corruption). Byte
// and append counters are lifetime figures and keep counting the torn
// write.
func (d *Device) truncate(n int) {
	if n >= len(d.records) {
		return
	}
	d.records = d.records[:n]
	if n < len(d.crcs) {
		d.crcs = d.crcs[:n]
	}
	if d.mirror != nil {
		d.mirror.truncate(n)
	}
}
