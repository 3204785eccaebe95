package metrics

import (
	"sync"
	"testing"
)

// TestGaugeNegativeMax: a gauge that only ever sees negative levels
// must report the largest (least negative) one, not the zero value —
// the zero-init bug the seen flag fixes.
func TestGaugeNegativeMax(t *testing.T) {
	var g Gauge
	g.Set(-10)
	g.Set(-3)
	g.Set(-7)
	if got := g.Max(); got != -3 {
		t.Fatalf("negative-only gauge Max = %d, want -3", got)
	}
	var empty Gauge
	if got := empty.Max(); got != 0 {
		t.Fatalf("untouched gauge Max = %d, want 0", got)
	}
}

// TestLockedCounter: single-threaded semantics match Counter.
func TestLockedCounter(t *testing.T) {
	var c LockedCounter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

// TestLockedGauge: semantics match Gauge, including the negative-max
// fix.
func TestLockedGauge(t *testing.T) {
	var g LockedGauge
	g.Set(3)
	g.Add(4)
	g.Add(-6)
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
	if g.Max() != 7 {
		t.Fatalf("gauge max = %d, want 7", g.Max())
	}
	var neg LockedGauge
	neg.Set(-5)
	if neg.Max() != -5 {
		t.Fatalf("negative-only locked gauge Max = %d, want -5", neg.Max())
	}
}

// TestLockedConcurrent hammers both guarded instruments from
// many goroutines; correctness of the totals plus -race coverage.
func TestLockedConcurrent(t *testing.T) {
	var (
		c  LockedCounter
		g  LockedGauge
		wg sync.WaitGroup
	)
	const (
		workers = 8
		iters   = 5000
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				if i%128 == 0 {
					_ = c.Value()
					_ = g.Max()
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Errorf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if g.Max() < 1 || g.Max() > workers {
		t.Errorf("gauge max = %d, want within [1, %d]", g.Max(), workers)
	}
}
