package scalecast

import (
	"catocs/internal/flowcontrol"
	"catocs/internal/obs"
)

// WindowState snapshots the member's ingress admission window (the
// budget over its link retransmission logs) for the live observability
// plane.
func (m *Member) WindowState() flowcontrol.WindowState {
	msgs, bytes := m.retrans()
	return flowcontrol.WindowState{
		Node:   int(m.self),
		Window: m.cfg.Budget,
		Policy: m.cfg.Overflow,
		Msgs:   msgs,
		Bytes:  bytes,
		Parked: len(m.blocked),
	}
}

// ObsStatus implements obs.Introspector: the flood member's live
// state — link holdback depth, retransmission-buffer occupancy,
// ingress-window occupancy, parked casts, overlay degree, barrier
// epoch. Call from the member's dispatch context; the live plane
// consumes published copies.
func (m *Member) ObsStatus() obs.Status {
	ws := m.WindowState()
	return obs.Status{
		Component: "scalecast",
		Node:      int(m.self),
		Fields: []obs.StatusField{
			obs.DistNum("holdback_depth", float64(m.PendingCount())),
			obs.DistNum("retrans_buffer", float64(ws.Msgs)),
			obs.DistNum("window_occupancy", ws.Occupancy()),
			obs.DistNum("parked_casts", float64(ws.Parked)),
			obs.Num("degree", float64(len(m.order))),
			obs.Num("epoch", float64(m.sessionNo)),
			obs.Str("policy", m.cfg.Overflow.String()),
		},
	}
}

var _ obs.Introspector = (*Member)(nil)
