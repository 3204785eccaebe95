package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"catocs/internal/metrics"
)

// Labels keys one instrument in a Registry. The triple is the
// dimension set every substrate shares: which broadcast stack
// (substrate), which endpoint (node), which quantity (kind).
type Labels struct {
	Substrate string
	Node      int
	Kind      string
}

// String renders the labels in registry dumps.
func (l Labels) String() string {
	return fmt.Sprintf("{substrate=%q node=%d kind=%q}", l.Substrate, l.Node, l.Kind)
}

// Registry is a thread-safe labeled metrics store: counters, gauges,
// and histograms keyed by {substrate, node, kind}, created on first
// use. It subsumes the ad-hoc aggregate/per-node counter structs the
// transports grew (transport.Stats / NodeStats feed it when a network
// is instrumented) and is safe for concurrent use, because the live
// HTTP plane (internal/obs/live) reads it while tcpnet's dispatcher and
// connection goroutines write. Counters and gauges are the guarded
// variants from internal/metrics; histograms are plain ones, reached
// only through Observe and the exporters, under the registry's mutex.
//
// A nil Registry is valid and hands out no instruments; callers check
// the registry pointer once, not each instrument.
type Registry struct {
	mu       sync.Mutex
	counters map[Labels]*metrics.LockedCounter
	gauges   map[Labels]*metrics.LockedGauge
	hists    map[Labels]*metrics.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[Labels]*metrics.LockedCounter),
		gauges:   make(map[Labels]*metrics.LockedGauge),
		hists:    make(map[Labels]*metrics.Histogram),
	}
}

// Counter returns the counter for the labels, creating it on first
// use.
func (r *Registry) Counter(substrate string, node int, kind string) *metrics.LockedCounter {
	l := Labels{Substrate: substrate, Node: node, Kind: kind}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[l]
	if !ok {
		c = &metrics.LockedCounter{}
		r.counters[l] = c
	}
	return c
}

// Gauge returns the gauge for the labels, creating it on first use.
func (r *Registry) Gauge(substrate string, node int, kind string) *metrics.LockedGauge {
	l := Labels{Substrate: substrate, Node: node, Kind: kind}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[l]
	if !ok {
		g = &metrics.LockedGauge{}
		r.gauges[l] = g
	}
	return g
}

// Observe records one sample in the histogram for the labels,
// creating it on first use (a NaN sample creates it and is dropped).
func (r *Registry) Observe(substrate string, node int, kind string, v float64) {
	l := Labels{Substrate: substrate, Node: node, Kind: kind}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[l]
	if !ok {
		h = &metrics.Histogram{}
		r.hists[l] = h
	}
	h.Observe(v)
}

// CounterTotal sums one kind's counters across nodes of a substrate —
// the aggregate view transport.Stats used to provide.
func (r *Registry) CounterTotal(substrate, kind string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var total uint64
	for l, c := range r.counters {
		if l.Substrate == substrate && l.Kind == kind {
			total += c.Value()
		}
	}
	return total
}

// sortedLabels returns keys of any label map in deterministic order.
func sortedLabels[V any](m map[Labels]V) []Labels {
	out := make([]Labels, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Substrate != b.Substrate {
			return a.Substrate < b.Substrate
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Node < b.Node
	})
	return out
}

// Render dumps every instrument in deterministic order, for debugging
// and tests.
func (r *Registry) Render() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, l := range sortedLabels(r.counters) {
		fmt.Fprintf(&b, "counter %s = %d\n", l, r.counters[l].Value())
	}
	for _, l := range sortedLabels(r.gauges) {
		g := r.gauges[l]
		fmt.Fprintf(&b, "gauge %s = %d (max %d)\n", l, g.Value(), g.Max())
	}
	for _, l := range sortedLabels(r.hists) {
		fmt.Fprintf(&b, "histogram %s = %s\n", l, r.hists[l].String())
	}
	return b.String()
}
