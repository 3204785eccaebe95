package trading

import (
	"strings"
	"testing"

	"catocs/internal/multicast"
	"catocs/internal/obs"
)

func TestFigure4FalseCrossingUnderCausal(t *testing.T) {
	r := Run(DefaultConfig())
	if r.RawFalseCrossings == 0 {
		t.Fatal("figure not reproduced: no false crossing under causal multicast")
	}
	if r.RawStalePairings == 0 {
		t.Fatal("expected stale pairings (semantic constraint violations)")
	}
	if r.CacheFalseCrossings != 0 || r.CacheStalePairings != 0 {
		t.Fatalf("dependency-checked display anomalous: cross=%d stale=%d",
			r.CacheFalseCrossings, r.CacheStalePairings)
	}
	if r.Displays == 0 {
		t.Fatal("monitor never evaluated a display")
	}
}

func TestFalseCrossingPersistsUnderTotalOrder(t *testing.T) {
	// §4.1: "neither causal or total multicast can avoid this anomaly"
	// — the new option price and old theoretical price are concurrent.
	// Even the causally consistent total order cannot help: the
	// semantic constraint is stronger than happens-before.
	for _, ord := range []multicast.Ordering{multicast.TotalSeq, multicast.TotalCausal} {
		cfg := DefaultConfig()
		cfg.Ordering = ord
		r := Run(cfg)
		if r.RawFalseCrossings == 0 {
			t.Fatalf("%v: false crossing should persist under total order", ord)
		}
		if r.CacheFalseCrossings != 0 {
			t.Fatalf("%v: dependency display anomalous under total order", ord)
		}
	}
}

func TestCrossingIsStructuralEvenWithInstantCompute(t *testing.T) {
	// Even with zero compute delay the derived price needs two network
	// hops (pricer -> computer -> monitor) while the base tick needs
	// one, so the raw display always has a stale window after each
	// tick. No delivery ordering can close it; only the dependency
	// check can.
	cfg := DefaultConfig()
	cfg.ComputeDelay = 0
	r := Run(cfg)
	if r.RawStalePairings == 0 {
		t.Fatal("expected structural stale windows with instant compute")
	}
	if r.CacheFalseCrossings != 0 || r.CacheStalePairings != 0 {
		t.Fatal("dependency display should close the structural window")
	}
}

func TestEventLogShowsCrossing(t *testing.T) {
	r := Run(DefaultConfig())
	out := obs.RenderSpaceTime("Figure 4", r.Trace.Labels(), r.Trace.Events())
	if !strings.Contains(out, "FALSE CROSSING") {
		t.Fatalf("render missing crossing annotation:\n%s", out)
	}
	if !strings.Contains(out, "Option price") || !strings.Contains(out, "Theoretical price") {
		t.Fatalf("render missing price feed events:\n%s", out)
	}
}

func TestTrialsCacheAlwaysConsistent(t *testing.T) {
	for _, ord := range []multicast.Ordering{multicast.Causal, multicast.TotalSeq} {
		rawCross, rawStale, cacheCross, cacheStale := Trials(20, 500, ord)
		if cacheCross != 0 || cacheStale != 0 {
			t.Fatalf("%v: cache display anomalies cross=%d stale=%d", ord, cacheCross, cacheStale)
		}
		if rawCross == 0 && rawStale == 0 {
			t.Fatalf("%v: no raw anomalies in 20 trials; scenario too tame", ord)
		}
	}
}
