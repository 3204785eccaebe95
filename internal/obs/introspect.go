package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Introspection: the /statusz side of the live observability plane.
// Counters and histograms accumulate history; what they cannot answer
// is "what is this node holding RIGHT NOW" — the paper's hidden costs
// are levels, not totals: holdback depth, admission-window occupancy,
// parked casts, the stability laggard, WAL spill bytes, view epoch.
// Introspector is the one-method interface a component implements to
// surface those levels; the exposition server snapshots every
// registered introspector on demand and renders the result.

// StatusField is one named quantity of a status snapshot. Numeric
// fields carry V; free-form fields (a policy name, a frontier string)
// carry S and are rendered but not mirrored into metrics. Fields
// flagged Dist additionally feed a registry histogram when mirrored,
// so levels sampled over time gain quantiles in /metrics.
type StatusField struct {
	Name string
	V    float64
	S    string
	Dist bool
}

// Num builds a numeric status field.
func Num(name string, v float64) StatusField { return StatusField{Name: name, V: v} }

// DistNum builds a numeric status field whose samples are also worth a
// histogram (holdback depth, occupancy).
func DistNum(name string, v float64) StatusField {
	return StatusField{Name: name, V: v, Dist: true}
}

// Str builds a free-form status field.
func Str(name, s string) StatusField { return StatusField{Name: name, S: s} }

// Status is one component's introspection snapshot.
type Status struct {
	// Component names what is reporting: "multicast", "scalecast",
	// "mgcast", "stability", "flowcontrol".
	Component string
	// Substrate is the registry substrate label; CollectStatus stamps
	// it when the component leaves it empty.
	Substrate string
	// Node is the reporting endpoint (view rank or transport node id).
	Node int
	// Fields are the snapshot's quantities, in the component's
	// preferred display order.
	Fields []StatusField
}

// Introspector is implemented by components that can snapshot their
// live state for /statusz. ObsStatus is called from the component's
// own execution context (the sim kernel, or a member's lock), never
// concurrently with its mutations — the live server receives published
// copies, not the Introspector itself.
type Introspector interface {
	ObsStatus() Status
}

// CollectStatus snapshots each introspector, stamping substrate on any
// status that did not set its own. Nil introspectors are skipped, so
// callers can pass optional components unconditionally.
func CollectStatus(substrate string, is ...Introspector) []Status {
	out := make([]Status, 0, len(is))
	for _, in := range is {
		if in == nil {
			continue
		}
		st := in.ObsStatus()
		if st.Substrate == "" {
			st.Substrate = substrate
		}
		out = append(out, st)
	}
	return out
}

// MirrorStatus feeds a status batch into the registry: every numeric
// field becomes a gauge with kind "<component>_<field>", and Dist
// fields additionally observe into a histogram with kind
// "<component>_<field>_dist" — which is how /metrics grows a gauge and
// a histogram per substrate from the same snapshots /statusz shows.
// Nil registry is a no-op.
func MirrorStatus(reg *Registry, sts []Status) {
	if reg == nil {
		return
	}
	for _, st := range sts {
		for _, f := range st.Fields {
			if f.S != "" {
				continue
			}
			kind := st.Component + "_" + f.Name
			reg.Gauge(st.Substrate, st.Node, kind).Set(int64(f.V))
			if f.Dist {
				reg.Histogram(st.Substrate, st.Node, kind+"_dist").Observe(f.V)
			}
		}
	}
}

// RenderStatus renders a status batch as the /statusz body: one line
// per (component, substrate, node), fields in declaration order,
// components and nodes sorted for stable reading.
func RenderStatus(sts []Status) string {
	ordered := append([]Status(nil), sts...)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.Substrate != b.Substrate {
			return a.Substrate < b.Substrate
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		return a.Node < b.Node
	})
	var b strings.Builder
	if len(ordered) == 0 {
		b.WriteString("no status publishers\n")
		return b.String()
	}
	for _, st := range ordered {
		fmt.Fprintf(&b, "%-10s %-10s node=%-3d", st.Substrate, st.Component, st.Node)
		for _, f := range st.Fields {
			if f.S != "" {
				fmt.Fprintf(&b, " %s=%s", f.Name, f.S)
			} else if f.V == float64(int64(f.V)) {
				fmt.Fprintf(&b, " %s=%d", f.Name, int64(f.V))
			} else {
				fmt.Fprintf(&b, " %s=%.4g", f.Name, f.V)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
