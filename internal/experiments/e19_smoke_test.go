package experiments

import (
	"testing"
	"time"

	"catocs/internal/flowcontrol"
)

// CI-sized E19: the real acceptance criteria at small parameters. The
// no-policy baseline must show unbounded growth under a slow consumer,
// every policy must hold the buffer at the budget, and each policy
// must pay exactly its advertised price — Block completes late but
// loses nothing, Shed drops counted casts, Spill rides the WAL,
// Suspect excises the laggard and drains the survivors. A regression
// that lets a slow consumer grow buffers past the budget fails here.
func TestE19Smoke(t *testing.T) {
	const (
		n      = 5
		casts  = 60
		lag    = 200 * time.Millisecond
		budget = 48
	)

	// Unbounded baseline: the lag sweep's high-water must grow with lag
	// and overrun the budget a policy would have enforced.
	lags := RunE19Lags(n, casts, []time.Duration{0, lag}, 1)
	if lags[0].StabHighWater >= lags[1].StabHighWater {
		t.Fatalf("no growth under lag: hw %d (lag 0) vs %d (lag %s)",
			lags[0].StabHighWater, lags[1].StabHighWater, lag)
	}
	if lags[1].StabHighWater <= budget {
		t.Fatalf("unbounded baseline hw %d never exceeded the budget %d — episode too gentle",
			lags[1].StabHighWater, budget)
	}

	pts := RunE19Policies(n, casts, lag, flowcontrol.Budget{MaxMsgs: budget}, 1)
	byPolicy := map[string]E19Point{}
	for _, pt := range pts {
		byPolicy[pt.Policy] = pt
	}
	none := byPolicy["none"]
	for _, pol := range []string{"block", "shed", "spill", "suspect"} {
		pt := byPolicy[pol]
		if pt.StabHighWater > budget {
			t.Fatalf("%s: stab high-water %d exceeds budget %d", pol, pt.StabHighWater, budget)
		}
		if pt.StabHighWater >= none.StabHighWater {
			t.Fatalf("%s: hw %d not below the no-policy baseline %d", pol, pt.StabHighWater, none.StabHighWater)
		}
	}
	if block := byPolicy["block"]; block.Delivered != casts {
		t.Fatalf("block lost casts: delivered %d/%d", block.Delivered, casts)
	} else if block.CompletionMs < 2*none.CompletionMs {
		t.Fatalf("block shows no throughput collapse: completion %.0fms vs baseline %.0fms",
			block.CompletionMs, none.CompletionMs)
	}
	if shed := byPolicy["shed"]; shed.Shed == 0 {
		t.Fatal("shed dropped nothing")
	} else if shed.Delivered+shed.Shed != casts {
		t.Fatalf("shed accounting: delivered %d + shed %d != %d", shed.Delivered, shed.Shed, casts)
	}
	if spill := byPolicy["spill"]; spill.Spills == 0 {
		t.Fatal("spill wrote nothing to the WAL")
	} else if spill.Delivered != casts {
		t.Fatalf("spill lost casts: delivered %d/%d", spill.Delivered, casts)
	}
	if sus := byPolicy["suspect"]; !sus.Excised {
		t.Fatal("suspect never excised the laggard")
	} else if sus.Delivered != casts {
		t.Fatalf("suspect survivors lost casts: delivered %d/%d", sus.Delivered, casts)
	}

	// Chaos batch: randomized slow-consumer episodes with the
	// bounded-memory oracle armed.
	ch := RunE19Chaos(5, flowcontrol.Budget{MaxMsgs: budget}, 1)
	if ch.Violations != 0 {
		t.Fatalf("chaos batch: %d violations", ch.Violations)
	}
	if ch.StabHighWater == 0 || ch.StabHighWater > budget {
		t.Fatalf("chaos batch stab high-water %d (budget %d)", ch.StabHighWater, budget)
	}
}
