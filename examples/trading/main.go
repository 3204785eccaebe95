// Trading-floor example (paper §4.1, Figure 4): an option-pricing feed
// and a theoretical-pricing service multicast to a monitor. The demo
// runs the same schedule under causal multicast and shows the false
// crossing the ordering layer cannot prevent, then the dependency-field
// display that can.
//
//	go run ./examples/trading
package main

import (
	"fmt"

	"catocs/internal/apps/trading"
	"catocs/internal/multicast"
	"catocs/internal/obs"
)

func main() {
	cfg := trading.DefaultConfig()
	r := trading.Run(cfg)
	fmt.Println(obs.RenderSpaceTime("Trading floor under causal multicast", r.Trace.Labels(), r.Trace.Events()))
	fmt.Printf("raw (delivery-order) display:   %d false crossings, %d stale pairings over %d refreshes\n",
		r.RawFalseCrossings, r.RawStalePairings, r.Displays)
	fmt.Printf("dependency-checked display:     %d false crossings, %d stale pairings\n\n",
		r.CacheFalseCrossings, r.CacheStalePairings)

	fmt.Println("Randomized trials (10 runs each):")
	fmt.Printf("%-10s  %14s  %14s  %18s\n", "ordering", "raw crossings", "raw stale", "dep-checked (both)")
	for _, ord := range []multicast.Ordering{multicast.Causal, multicast.TotalSeq} {
		rawCross, rawStale, cacheCross, cacheStale := trading.Trials(10, 77, ord)
		fmt.Printf("%-10s  %14d  %14d  %18d\n", ord, rawCross, rawStale, cacheCross+cacheStale)
	}
	fmt.Println("\nthe semantic constraint — theo ordered after its base price and before all")
	fmt.Println("subsequent changes — is stronger than happens-before; only the state-level")
	fmt.Println("dependency field enforces it.")
}
