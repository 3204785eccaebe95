package metrics

// Guarded counterparts of the counter and gauge. The plain types in
// metrics.go stay unsynchronized on purpose — every protocol member
// runs in its network's single dispatch context — but the labeled
// registry (obs.Registry) is shared across goroutines: tcpnet's
// dispatcher and per-connection goroutines write it while the live
// HTTP plane (internal/obs/live) reads it. These variants are safe for
// that: the counter is a bare atomic, the gauge wraps the plain
// implementation in a mutex. The registry keeps its histograms plain,
// under its own mutex.

import (
	"sync"
	"sync/atomic"
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
