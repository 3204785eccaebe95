package metrics

// Guarded counterparts of the measurement primitives. The plain types
// in metrics.go stay unsynchronized on purpose — every protocol member
// runs in its network's single dispatch context — but the labeled
// registry (obs.Registry) is shared across goroutines: tcpnet's
// dispatcher and per-connection goroutines write it while the live
// HTTP plane (internal/obs/live) reads it. These variants are safe for
// that: the counter is a bare atomic, the gauge and histogram wrap the
// plain implementations in a mutex.

import (
	"sync"
	"sync/atomic"
	"time"
)

// LockedCounter is a Counter safe for concurrent use.
type LockedCounter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *LockedCounter) Inc() { c.n.Add(1) }

// Add adds delta.
func (c *LockedCounter) Add(delta uint64) { c.n.Add(delta) }

// Value returns the current count.
func (c *LockedCounter) Value() uint64 { return c.n.Load() }

// LockedGauge is a Gauge safe for concurrent use.
type LockedGauge struct {
	mu sync.Mutex
	g  Gauge
}

// Set assigns the current level.
func (g *LockedGauge) Set(v int64) {
	g.mu.Lock()
	g.g.Set(v)
	g.mu.Unlock()
}

// Add adjusts the current level by delta.
func (g *LockedGauge) Add(delta int64) {
	g.mu.Lock()
	g.g.Add(delta)
	g.mu.Unlock()
}

// Value returns the current level.
func (g *LockedGauge) Value() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.g.Value()
}

// Max returns the high-water mark.
func (g *LockedGauge) Max() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.g.Max()
}

// LockedHistogram is a Histogram safe for concurrent use.
type LockedHistogram struct {
	mu sync.Mutex
	h  Histogram
}

// Observe records one sample.
func (h *LockedHistogram) Observe(v float64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// ObserveDuration records a duration sample in seconds.
func (h *LockedHistogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples.
func (h *LockedHistogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Count()
}

// Sum returns the sum of samples.
func (h *LockedHistogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Sum()
}

// Mean returns the sample mean, or 0 for an empty histogram.
func (h *LockedHistogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Mean()
}

// Quantile returns the q'th quantile by nearest rank.
func (h *LockedHistogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Quantile(q)
}

// Max returns the largest sample, or 0 when empty.
func (h *LockedHistogram) Max() float64 { return h.Quantile(1) }

// Snapshot returns an unsynchronized copy of the accumulated samples
// for offline analysis (quantiles, rendering) once concurrent
// observation has stopped.
func (h *LockedHistogram) Snapshot() Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out Histogram
	for _, v := range h.h.Samples() {
		out.Observe(v)
	}
	return out
}

// String summarizes the histogram for experiment tables.
func (h *LockedHistogram) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.String()
}
