package multicast

import (
	"fmt"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/vclock"
)

// This file enforces the flow-control budget on the atomic multicast
// path. The mechanism is a sender-side admission window: with a group
// budget B and n members, each sender bounds its own outstanding
// unstable casts to B/n (flowcontrol.Budget.Share). Any member's
// unstable buffer holds at most the union of all senders' outstanding
// casts, so per-sender discipline bounds every member's occupancy by B
// — a bound the chaos harness's bounded-memory oracle checks, not just
// asserts. What happens to a cast the window refuses is the group's
// OverflowPolicy: queue it (Block/Suspect), drop it counted and traced
// (Shed), or — handled in internal/stability — admit it and spill the
// overflow to the WAL (Spill).

// blockedCast is an application cast parked at the admission window.
type blockedCast struct {
	payload any
	size    int
	at      time.Duration
}

// BlockedCount returns the number of casts parked at the admission
// window.
func (m *Member) BlockedCount() int { return len(m.blocked) }

// admitCast applies the overflow policy to a new application cast.
// True means send now; false means the cast was parked or shed and
// Multicast must return without stamping a sequence number.
func (m *Member) admitCast(payload any, size int) bool {
	if m.stab == nil || !m.window.Limited() || m.cfg.Overflow == flowcontrol.None || m.cfg.Overflow == flowcontrol.Spill {
		return true // Spill admits everything; stability spills the excess
	}
	// FIFO within a sender: nothing may overtake an already-parked cast.
	if len(m.blocked) == 0 &&
		m.window.Admits(m.stab.PerSender(m.rank), m.stab.PerSenderBytes(m.rank), size) {
		return true
	}
	if m.cfg.Overflow == flowcontrol.Shed {
		m.ShedCount.Inc()
		if m.trace != nil {
			m.trace.Mark(m.net.Now(), int(m.Node()),
				fmt.Sprintf("shed cast size=%dB window=%s", size, m.window))
		}
		return false
	}
	// Block and Suspect park the cast until stability evictions free
	// window budget. The ack cycle is the drain clock: keep it armed.
	m.blocked = append(m.blocked, blockedCast{payload: payload, size: size, at: m.net.Now()})
	m.armAck()
	return false
}

// drainBlocked re-admits parked casts in FIFO order as far as the
// window allows. Called wherever the window can have widened: on ack
// receipt, after merging our own ack row, on resume, and after a view
// change resets the stability matrix.
func (m *Member) drainBlocked() {
	if m.closed || m.suppressed || len(m.blocked) == 0 {
		return
	}
	now := m.net.Now()
	for len(m.blocked) > 0 {
		b := m.blocked[0]
		if !m.window.Admits(m.stab.PerSender(m.rank), m.stab.PerSenderBytes(m.rank), b.size) {
			return
		}
		m.blocked = m.blocked[1:]
		m.AdmissionStall.Observe((now - b.at).Seconds())
		m.multicastNow(b.payload, b.size)
	}
}

// observeLiveness feeds the failure detector with evidence that rank p
// is alive (an ack or a directly received data message — retransmitted
// copies do not count, since a third party can replay a dead member's
// messages).
func (m *Member) observeLiveness(p vclock.ProcessID) {
	if m.detector != nil && p != m.rank {
		m.wakeDetector()
		m.detector.Observe(p, m.net.Now())
	}
}

// wakeDetector restarts every peer's silence clock while this member's
// ack cycle is idle, so the first arrival or re-arm after a settled
// quiet starts the detector afresh, as a group's start does (see
// PhiDetector).
func (m *Member) wakeDetector() {
	if m.ackIdle && m.detector != nil {
		m.detector.Start(m.net.Now())
	}
}

// checkSuspicion (Suspect policy, piggybacked on the ack cycle so a
// quiescent group schedules no extra events) accuses members on two
// grounds: the accrual detector's phi crossing its threshold — a
// member that has gone silent — and a persistent admission stall whose
// stability matrix names a laggard — a member that is alive and acking
// but not delivering, which silence-based detection can never catch.
func (m *Member) checkSuspicion() {
	if m.detector == nil || m.cfg.OnSuspect == nil || m.closed || m.suppressed {
		return
	}
	now := m.net.Now()
	for r := range m.nodes {
		p := vclock.ProcessID(r)
		if p == m.rank || m.suspectedByMe[p] {
			continue
		}
		if m.detector.Suspect(p, now) {
			m.fireSuspect(p, fmt.Sprintf("phi=%.1f", m.detector.Phi(p, now)))
		}
	}
	if len(m.blocked) > 0 {
		stallStart := m.blocked[0].at
		if m.lastAdmit > stallStart {
			stallStart = m.lastAdmit
		}
		if now-stallStart > m.cfg.stallTimeout() {
			if lag, ok := m.stab.Laggard(m.rank); ok && !m.suspectedByMe[lag] {
				m.fireSuspect(lag, fmt.Sprintf("admission stalled %v", now-stallStart))
			}
		}
	}
}

// fireSuspect records and reports one accusation. At most one per rank
// per view: the membership layer's flush protocol takes over from
// here, and repeating the accusation while it runs adds nothing.
func (m *Member) fireSuspect(p vclock.ProcessID, why string) {
	m.suspectedByMe[p] = true
	m.SuspectCount.Inc()
	if m.trace != nil {
		m.trace.Mark(m.net.Now(), int(m.Node()), fmt.Sprintf("suspect rank=%d: %s", p, why))
	}
	m.cfg.OnSuspect(p)
}
