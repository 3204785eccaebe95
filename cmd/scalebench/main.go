// Command scalebench runs the Section 5 scalability sweeps: unstable-
// message buffer growth (and the active causal graph census),
// false-causality delivery delay, view-change and join cost, the
// causal-domain partitioning and traffic-shape ablations, the
// total-order mode ablation, durability logging, and the
// name-service-at-scale comparison.
//
// Usage:
//
//	scalebench [-exp buffer|false-causality|header|viewchange|partition|totalorder|
//	            traffic|join|durability|namesvc|scalecast|latbreak|mgcast|all]
//	           [-sizes 4,8,16,32] [-msgs 40] [-loss 0.05] [-seed 1]
//	           [-ks 1,2,4,8] [-trace out.trace.json]
//	           [-serve :8080] [-linger 5m] [-profile cpu|heap]
//
// -serve exposes the live observability plane (internal/obs/live)
// while the sweeps run: /metrics, /statusz, /tracez (1% sampled
// lifecycles), and /debug/pprof. -linger keeps the endpoint up after
// the sweeps finish. -profile captures a cpu or heap pprof profile of
// the whole invocation, independent of -serve.
//
// The scalecast sweep (-exp scalecast) compares vector-clock CBCAST
// against the constant-metadata flood substrate head-to-head, e.g.
//
//	scalebench -exp scalecast -sizes 8,32,128,512
//
// The latency-breakdown sweep (-exp latbreak) decomposes delivery
// latency into network delay vs ordering holdback for CBCAST, ABCAST,
// and scalecast (default sizes 8,32,128); -trace writes the raw causal
// traces of the whole sweep as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto:
//
//	scalebench -exp latbreak -trace latbreak.trace.json
//
// The multi-group sweep (-exp mgcast) compares Skeen-style genuine
// multicast against the one-big-group ABCAST fallback across k
// destination groups per cast (default sizes 8,32,128; -ks sets the k
// sweep):
//
//	scalebench -exp mgcast -sizes 8,32,128 -ks 1,2,4,8
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"catocs/internal/experiments"
	"catocs/internal/obs"
	"catocs/internal/obs/live"
)

func parseSizes(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 2 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	exp := flag.String("exp", "all", "experiment: buffer, false-causality, header, viewchange, partition, totalorder, traffic, join, durability, namesvc, scalecast, latbreak, mgcast, all")
	ksFlag := flag.String("ks", "1,2,4,8", "comma-separated destination-group counts per cast (mgcast sweep)")
	sizesFlag := flag.String("sizes", "4,8,16,24", "comma-separated group sizes")
	msgs := flag.Int("msgs", 40, "messages per sender")
	loss := flag.Float64("loss", 0.05, "link loss probability (buffer sweep)")
	seed := flag.Int64("seed", 1, "simulation seed")
	traceOut := flag.String("trace", "", "write the latbreak sweep's causal traces as Chrome trace-event JSON to this file")
	serve := flag.String("serve", "", "serve the live observability plane (/metrics /statusz /tracez /debug/pprof) on this address while sweeps run, e.g. :8080 or 127.0.0.1:0")
	linger := flag.Duration("linger", 0, "with -serve, keep the endpoint up this long after the sweeps finish (so a scrape or a browser can catch the final state)")
	profileKind := flag.String("profile", "", `write a pprof profile of the run: "cpu" or "heap" (to cpu.pprof / heap.pprof)`)
	flag.Parse()

	if *profileKind != "" {
		stop, err := live.StartProfile(*profileKind, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote %s.pprof\n", *profileKind)
			}
		}()
	}
	if *serve != "" {
		reg := obs.NewRegistry()
		tracer := obs.NewSampledTracer(obs.SampleConfig{Rate: 0.01, Seed: uint64(*seed)})
		srv, err := live.Serve(*serve, live.Options{Registry: reg, Tracer: tracer})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		experiments.SetObsHook(&experiments.ObsHook{Registry: reg, Tracer: tracer, Publish: srv.PublishStatus})
		defer func() {
			if *linger > 0 {
				fmt.Fprintf(os.Stderr, "lingering %s on http://%s/ (ctrl-c to stop early)\n", *linger, srv.Addr())
				time.Sleep(*linger)
			}
			srv.Close()
		}()
		fmt.Fprintf(os.Stderr, "observability plane on http://%s/\n", srv.Addr())
	}

	sizesSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "sizes" {
			sizesSet = true
		}
	})
	sizes := parseSizes(*sizesFlag)
	run := func(name string) {
		switch name {
		case "buffer":
			fmt.Println(experiments.TableE6(sizes, *msgs, *loss, *seed).Render())
		case "false-causality":
			fmt.Println(experiments.TableE5(sizes, *msgs, *seed).Render())
			fmt.Println(experiments.TableE5Piggyback(sizes, *msgs, *seed).Render())
		case "header":
			// Header-overhead sweep (E5c): full vs delta-encoded clock
			// bytes per message across group sizes. Also the `make
			// profile` workload — a pure hot-loop exercise of the stamp,
			// encode, and delivery-check paths.
			fmt.Println(experiments.TableE5Header(sizes, *msgs, 1_000_000, *seed).Render())
		case "viewchange":
			fmt.Println(experiments.TableE7(sizes, *seed).Render())
		case "partition":
			var groups []int
			for g := 1; g <= len(sizes); g++ {
				groups = append(groups, g)
			}
			fmt.Println(experiments.TableE6Partition(groups, 4, *msgs, *seed).Render())
		case "totalorder":
			fmt.Println(experiments.TableAblationTotal(sizes, *msgs, *seed).Render())
		case "traffic":
			fmt.Println(experiments.TableE6Traffic(sizes[0], *msgs, *seed).Render())
		case "join":
			fmt.Println(experiments.TableE7Join(sizes, *seed).Render())
		case "durability":
			fmt.Println(experiments.TableE13(sizes, *msgs, *seed).Render())
		case "namesvc":
			fmt.Println(experiments.TableE14(sizes, *msgs, *seed).Render())
		case "scalecast":
			// Head-to-head causal-broadcast metadata sweep.
			fmt.Println(experiments.TableE16(sizes, 4, *seed).Render())
		case "latbreak":
			// Ordering-latency breakdown (E17). The issue's reference
			// sweep is N ∈ {8,32,128}; an explicit -sizes overrides it.
			latSizes := []int{8, 32, 128}
			if sizesSet {
				latSizes = sizes
			}
			var chrome *obs.ChromeTrace
			if *traceOut != "" {
				chrome = obs.NewChromeTrace()
			}
			var pts []experiments.E17Point
			for _, sub := range []string{"cbcast", "abcast", "scalecast"} {
				for _, n := range latSizes {
					pt, tracer := experiments.RunE17(sub, n, *msgs, *seed)
					pts = append(pts, pt)
					if chrome != nil {
						chrome.AddProcess(fmt.Sprintf("%s N=%d", sub, n),
							tracer.Labels(), tracer.Events())
					}
				}
			}
			fmt.Println(experiments.TableE17From(pts).Render())
			if chrome != nil {
				f, err := os.Create(*traceOut)
				if err != nil {
					fmt.Fprintf(os.Stderr, "trace: %v\n", err)
					os.Exit(1)
				}
				if err := chrome.Encode(f); err != nil {
					fmt.Fprintf(os.Stderr, "trace: %v\n", err)
					os.Exit(1)
				}
				f.Close()
				fmt.Fprintf(os.Stderr, "wrote %s\n", *traceOut)
			}
		case "mgcast":
			// Multi-group atomic multicast vs one big group (E20). The
			// issue's reference sweep is N ∈ {8,32,128}; -sizes overrides.
			mgSizes := []int{8, 32, 128}
			if sizesSet {
				mgSizes = sizes
			}
			var ks []int
			for _, part := range strings.Split(*ksFlag, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil || v < 1 {
					fmt.Fprintf(os.Stderr, "bad k %q\n", part)
					os.Exit(2)
				}
				ks = append(ks, v)
			}
			fmt.Println(experiments.TableE20From(experiments.RunE20Sweep(mgSizes, ks, *msgs, *seed)).Render())
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	if *exp == "all" {
		for _, name := range []string{"false-causality", "header", "buffer", "viewchange", "partition",
			"totalorder", "traffic", "join", "durability", "scalecast", "latbreak", "mgcast"} {
			run(name)
		}
		return
	}
	run(*exp)
}
