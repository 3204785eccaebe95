package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.Add(4)
	g.Add(-6)
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
	if g.Max() != 7 {
		t.Fatalf("gauge max = %d, want 7", g.Max())
	}
}

func TestHistogramMeanQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", got)
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := h.Quantile(0.99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("max = %v, want 100", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should return zeros")
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	// Observing after a quantile query must re-sort correctly.
	var h Histogram
	h.Observe(5)
	h.Observe(1)
	_ = h.Quantile(0.5)
	h.Observe(3)
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("p50 after re-observe = %v, want 3", got)
	}
}

func TestHistogramDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(500 * time.Millisecond)
	if got := h.Mean(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("duration mean = %v, want 0.5", got)
	}
}

func TestQuantileOrderedProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(r.NormFloat64())
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestRatioSeries(t *testing.T) {
	var r RatioSeries
	if r.Final() != 0 || r.PeakWindow() != 0 {
		t.Fatal("empty ratio series should return zeros")
	}
	// Cumulative control/payload: 10/100, then 30/200, then 90/300.
	r.Record(0, 10, 100)
	r.Record(time.Second, 30, 200)
	r.Record(2*time.Second, 90, 300)
	if got, want := r.Final(), 90.0/300.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("final = %v, want %v", got, want)
	}
	// Increments: (20/100)=0.2 then (60/100)=0.6.
	if got := r.PeakWindow(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("peak window = %v, want 0.6", got)
	}
}

func TestRatioSeriesDegenerate(t *testing.T) {
	var r RatioSeries
	r.Record(0, 5, 0)
	if r.Final() != 0 {
		t.Fatal("zero denominator must not divide")
	}
	// A window where only control bytes flow is skipped, not infinite.
	r.Record(time.Second, 9, 0)
	if r.PeakWindow() != 0 {
		t.Fatalf("peak window = %v, want 0", r.PeakWindow())
	}
}

func TestHistogramQuantileP100Edge(t *testing.T) {
	// Nearest-rank must pin the p100 edge to the true maximum even for
	// q arbitrarily close to (or beyond) 1.
	var h Histogram
	for _, v := range []float64{3, 1, 2} {
		h.Observe(v)
	}
	for _, q := range []float64{0.999999, 1, 1.5} {
		if got := h.Quantile(q); got != 3 {
			t.Fatalf("Quantile(%v) = %v, want 3", q, got)
		}
	}
}
