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

// checkSuspicion (Suspect policy, piggybacked on the ack cycle so a
// quiescent group schedules no extra events) accuses the member that
// pins the stability frontier: when the admission window has stayed
// blocked past the stall timeout, the stability matrix names the
// laggard — a member that is alive and acking but not delivering,
// which silence-based detection can never catch. Silence itself is the
// membership layer's to detect (group.Monitor's heartbeats), so a
// settled group's quiet is never evidence here.
func (m *Member) checkSuspicion() {
	if m.suspectedByMe == nil || m.cfg.OnSuspect == nil || m.closed || m.suppressed || len(m.blocked) == 0 {
		return
	}
	now := m.net.Now()
	stallStart := max(m.blocked[0].at, m.lastAdmit)
	if now-stallStart > m.cfg.stallTimeout() {
		if lag, _, ok := m.stab.Laggard(m.rank); ok && !m.suspectedByMe[lag] {
			m.fireSuspect(lag, fmt.Sprintf("admission stalled %v", now-stallStart))
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
