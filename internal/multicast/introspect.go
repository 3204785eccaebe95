package multicast

import (
	"fmt"

	"catocs/internal/flowcontrol"
	"catocs/internal/obs"
)

// WindowState snapshots the member's admission window for the live
// observability plane.
func (m *Member) WindowState() flowcontrol.WindowState {
	ws := flowcontrol.WindowState{
		Node:   int(m.Node()),
		Window: m.window,
		Policy: m.cfg.Overflow,
		Parked: m.BlockedCount(),
	}
	if m.stab != nil {
		ws.Msgs = m.stab.PerSender(m.rank)
		ws.Bytes = m.stab.PerSenderBytes(m.rank)
	}
	return ws
}

// ObsStatus implements obs.Introspector: the member's live ordering
// and buffering state — holdback depth, admission-window occupancy,
// parked casts, the stability laggard, WAL spill bytes, view epoch.
// Call from the member's dispatch context (the sim kernel or the
// tcpnet dispatcher); the live plane receives published copies.
func (m *Member) ObsStatus() obs.Status {
	ws := m.WindowState()
	fields := []obs.StatusField{
		obs.DistNum("holdback_depth", float64(m.PendingCount())),
		obs.Num("epoch", float64(m.epoch)),
		obs.DistNum("window_occupancy", ws.Occupancy()),
		obs.DistNum("parked_casts", float64(ws.Parked)),
	}
	if m.stab != nil {
		fields = append(fields,
			obs.DistNum("unstable", float64(m.stab.Unstable())))
		if sp := m.stab.Spill(); sp != nil {
			fields = append(fields,
				obs.Num("spill_bytes", float64(sp.Bytes())))
		}
		// The stability laggard (§5): the rank whose missing acks pin
		// the frontier, and the first message it has not acknowledged.
		// This is what the Suspect policy accuses on a stall. No rank is
		// excluded: a member may report itself.
		lag, waits, ok := m.stab.Laggard(-1)
		waitsFor := fmt.Sprintf("%d:%d", waits.Sender, waits.Seq)
		if !ok {
			lag, waitsFor = -1, "-"
		}
		fields = append(fields,
			obs.Num("laggard", float64(lag)),
			obs.Str("laggard_waits_for", waitsFor))
	}
	fields = append(fields, obs.Str("policy", m.cfg.Overflow.String()))
	return obs.Status{
		Component: "multicast",
		Node:      int(m.Node()),
		Fields:    fields,
	}
}

var _ obs.Introspector = (*Member)(nil)
