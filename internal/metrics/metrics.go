// Package metrics provides the small set of measurement primitives the
// experiment harness uses: counters, gauges, exact histograms with
// quantiles, and the control-to-payload ratio series of experiment E16.
//
// Counters, histograms, and series are deliberately allocation-light
// and unsynchronized; the simulation world is single-threaded, and
// live-transport users wrap access in their own locks (the Locked*
// variants in locked.go, or obs.Registry's mutex). Gauge is the
// exception: the live observability plane (internal/obs/live) reads
// instantaneous levels from an HTTP goroutine while a run is still
// recording, so it synchronizes internally and is safe to read
// concurrently with writes.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge tracks an instantaneous level plus its observed maximum, e.g.
// current unstable-buffer occupancy and its high-water mark. Safe to
// read concurrently with writes: the live observability plane scrapes
// gauge levels from an HTTP goroutine mid-run. Writes come from a
// single recording context (the kernel goroutine, or a member's
// dispatcher), so the max tracking uses plain atomics with a CAS loop
// rather than a mutex — the gauge update sits on the per-delivery hot
// path of every holdback-queue change.
type Gauge struct {
	cur  atomic.Int64
	max  atomic.Int64
	seen atomic.Bool
}

// Set assigns the current level.
func (g *Gauge) Set(v int64) {
	g.cur.Store(v)
	g.bumpMax(v)
}

func (g *Gauge) bumpMax(v int64) {
	if !g.seen.Load() {
		g.max.Store(v)
		g.seen.Store(true)
		return
	}
	for {
		old := g.max.Load()
		if v <= old || g.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Add adjusts the current level by delta.
func (g *Gauge) Add(delta int64) {
	g.bumpMax(g.cur.Add(delta))
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.cur.Load() }

// Max returns the high-water mark, or 0 when no sample was ever set —
// a gauge that only ever held negative levels reports its true
// (negative) maximum, not the zero initial value.
func (g *Gauge) Max() int64 {
	if !g.seen.Load() {
		return 0
	}
	return g.max.Load()
}

// Histogram accumulates float64 samples and answers mean/quantile
// queries. Samples are kept raw (experiments are bounded), which keeps
// quantiles exact rather than approximate.
type Histogram struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Observe records one sample. NaN samples are dropped: a single NaN
// would poison the running sum, and with it every mean and quantile the
// exposition endpoints report.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Sum returns the sum of samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the sample mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Quantile returns the q'th quantile (0 <= q <= 1) by
// nearest-rank on the sorted samples; 0 for an empty histogram or a
// NaN q (never NaN — summary endpoints render the result directly).
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 || math.IsNaN(q) {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// Samples returns a copy of the raw samples in unspecified order.
func (h *Histogram) Samples() []float64 {
	out := make([]float64, len(h.samples))
	copy(out, h.samples)
	return out
}

// String summarizes the histogram for experiment tables.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.6g p50=%.6g p99=%.6g max=%.6g",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// RatioPoint is one sample of a RatioSeries: two cumulative quantities
// at a virtual time.
type RatioPoint struct {
	T   time.Duration
	Num float64
	Den float64
}

// RatioSeries tracks the ratio of two accumulating quantities over
// time — canonically control bytes ÷ payload bytes, the per-message
// overhead census of experiment E16. Samples carry the cumulative
// totals, so the series answers both the final overhead and the worst
// instantaneous window.
type RatioSeries struct {
	points []RatioPoint
}

// Record appends a sample of the cumulative numerator and denominator.
func (r *RatioSeries) Record(t time.Duration, num, den float64) {
	r.points = append(r.points, RatioPoint{T: t, Num: num, Den: den})
}

// Final returns the ratio at the last sample, or 0 when the series is
// empty or its final denominator is 0.
func (r *RatioSeries) Final() float64 {
	if len(r.points) == 0 {
		return 0
	}
	last := r.points[len(r.points)-1]
	if last.Den == 0 {
		return 0
	}
	return last.Num / last.Den
}

// PeakWindow returns the largest ratio of per-interval increments
// between consecutive samples — the worst burst of overhead relative
// to useful bytes. Intervals whose denominator does not grow are
// skipped (all-control windows would divide by zero); 0 when no
// interval qualifies.
func (r *RatioSeries) PeakWindow() float64 {
	var peak float64
	for i := 1; i < len(r.points); i++ {
		dn := r.points[i].Num - r.points[i-1].Num
		dd := r.points[i].Den - r.points[i-1].Den
		if dd <= 0 {
			continue
		}
		if ratio := dn / dd; ratio > peak {
			peak = ratio
		}
	}
	return peak
}
