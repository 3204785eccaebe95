package metrics

import (
	"math"
	"sync"
	"testing"
)

// The live observability plane (internal/obs/live) reads gauges from an
// HTTP goroutine while the run keeps recording. These hammer tests exist
// to fail under -race if Gauge ever loses its internal synchronization.

func TestGaugeConcurrentReadWrite(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	const writers, readers, iters = 4, 4, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if i%2 == 0 {
					g.Set(int64(w*iters + i))
				} else {
					g.Add(-1)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = g.Value()
				_ = g.Max()
			}
		}()
	}
	wg.Wait()
	if g.Max() < g.Value() {
		t.Fatalf("max %d below current value %d", g.Max(), g.Value())
	}
}

func TestLockedGaugeConcurrentReadWrite(t *testing.T) {
	var g LockedGauge
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				g.Set(int64(i))
				g.Add(1)
				_ = g.Value()
				_ = g.Max()
			}
		}()
	}
	wg.Wait()
}

func TestEmptyHistogramReportsZeroNotNaN(t *testing.T) {
	checks := func(name string, mean, p50, p99, max float64) {
		for what, v := range map[string]float64{
			"mean": mean, "p50": p50, "p99": p99, "max": max,
		} {
			if math.IsNaN(v) {
				t.Errorf("%s: empty histogram %s is NaN, want 0", name, what)
			}
			if v != 0 {
				t.Errorf("%s: empty histogram %s = %v, want 0", name, what, v)
			}
		}
	}
	var h Histogram
	checks("Histogram", h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty Histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestHistogramNaNGuards(t *testing.T) {
	var h Histogram
	h.Observe(math.NaN()) // dropped, not poisoning
	h.Observe(2)
	h.Observe(4)
	if h.Count() != 2 {
		t.Fatalf("NaN sample was recorded: count=%d", h.Count())
	}
	if m := h.Mean(); m != 3 {
		t.Fatalf("mean after NaN drop = %v, want 3", m)
	}
	if q := h.Quantile(math.NaN()); q != 0 {
		t.Fatalf("Quantile(NaN) = %v, want 0", q)
	}
}
