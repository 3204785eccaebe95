// Command anomaly reproduces the paper's figures as executed event
// diagrams: Figure 1 (happens-before and causal multicast), Figure 2
// (hidden channel through a shared database), Figure 3 (external
// channel — the fire), and Figure 4 (trading false crossing). Each run
// prints the space-time diagram of the actual schedule (one column per
// process, one row per event) plus the anomaly verdict for the CATOCS
// observer and the state-level observer.
//
// With -trace, each figure's recorded run is also exported as Chrome
// trace-event JSON — <prefix>-fig<N>.trace.json — loadable in
// chrome://tracing or Perfetto.
//
// Usage:
//
//	anomaly [-fig 1|2|3|4|all] [-seed n] [-trace prefix]
package main

import (
	"flag"
	"fmt"
	"os"

	"catocs/internal/apps/firealarm"
	"catocs/internal/apps/sfc"
	"catocs/internal/apps/trading"
	"catocs/internal/experiments"
	"catocs/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 1, 2, 3, 4, or all")
	seed := flag.Int64("seed", 1, "simulation seed")
	tracePrefix := flag.String("trace", "", "write each figure's recorded run to <prefix>-fig<N>.trace.json")
	flag.Parse()

	// show prints a figure's diagram and, with -trace, writes its
	// recorded run as a Chrome trace.
	show := func(f, title string, tr *obs.Tracer) {
		fmt.Println(obs.RenderSpaceTime(title, tr.Labels(), tr.Events()))
		if *tracePrefix == "" {
			return
		}
		path := fmt.Sprintf("%s-fig%s.trace.json", *tracePrefix, f)
		out, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		chrome := obs.NewChromeTrace()
		chrome.AddProcess(title, tr.Labels(), tr.Events())
		if err := chrome.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		out.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	run := func(f string) {
		switch f {
		case "1":
			r := experiments.RunE1(*seed)
			title := "Figure 1 — a 3-process event diagram under causal multicast"
			show(f, title, r.Trace)
			fmt.Printf("verdict: m1 before m2 everywhere = %v; m3/m4 delivery diverged across members = %v\n\n",
				r.CausalOrderHeld, r.ConcurrentOrdersDiffer)
		case "2":
			cfg := sfc.DefaultConfig()
			cfg.Seed = *seed
			r := sfc.Run(cfg)
			title := "Figure 2 — shop floor control: the shared database is a hidden channel"
			show(f, title, r.Trace)
			fmt.Printf("database final state:      %q\n", r.TrueFinal)
			fmt.Printf("delivery-order observer:   %q  (anomaly: %v)\n", r.RawFinal, r.AnomalyRaw)
			fmt.Printf("version-ordered observer:  %q  (anomaly: %v)\n\n", r.VersionedFinal, r.AnomalyVersioned)
		case "3":
			cfg := firealarm.DefaultConfig()
			cfg.Seed = *seed
			r := firealarm.Run(cfg)
			title := "Figure 3 — the fire is an external channel the substrate cannot see"
			show(f, title, r.Trace)
			fmt.Printf("fire actually burning:      %v\n", r.TrueFire)
			fmt.Printf("delivery-order belief:      burning=%v  (anomaly: %v)\n", r.RawBelief, r.AnomalyRaw)
			fmt.Printf("timestamped belief:         burning=%v  (anomaly: %v)\n\n", r.TemporalBelief, r.AnomalyTemporal)
		case "4":
			cfg := trading.DefaultConfig()
			cfg.Seed = *seed
			r := trading.Run(cfg)
			title := "Figure 4 — trading: concurrent base and derived prices"
			show(f, title, r.Trace)
			fmt.Printf("raw display:               %d false crossings, %d stale pairings in %d refreshes\n",
				r.RawFalseCrossings, r.RawStalePairings, r.Displays)
			fmt.Printf("dependency-checked display: %d false crossings, %d stale pairings\n\n",
				r.CacheFalseCrossings, r.CacheStalePairings)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", f)
			os.Exit(2)
		}
	}

	if *fig == "all" {
		for _, f := range []string{"1", "2", "3", "4"} {
			run(f)
		}
		return
	}
	run(*fig)
}
