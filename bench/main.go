// Command bench is the repository's benchmark: it drives the real cast
// path (multicast.Member -> wire -> tcpnet loopback sockets, and the
// same members on SimNet) from this one process, checks every delivery,
// and prints every metric BENCHMARK.json declares. See README.md in
// this directory for the workloads, the metrics and how they interact.
//
//	go run ./bench -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1] [-trace-file out.json] [-smoke]
//
// With -trace 0 a run reports the end-to-end metrics, untraced; with
// -trace 1 it wraps each layer's public entry points and reports the
// per-layer metrics. The last line of standard output is one JSON
// object with the run's correctness verdict and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// options are one run's inputs.
type options struct {
	seed      int64
	seconds   float64 // how long a run measures
	traced    bool
	smoke     bool   // ~0.5 s phases, simulated scripts cut to 100 casts per writer
	traceFile string // where a traced run writes its retained spans; "" = nowhere
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(opt options) (*result, error)
}

// The names are fixed: BENCHMARK.json, the README and later issues
// cite them.
var workloads = []workload{
	tcpWorkload("tcp-cbcast-64b", tcpSpec{substrate: "cbcast", payload: 64}),
	tcpWorkload("tcp-abcast-64b", tcpSpec{substrate: "abcast", payload: 64}),
	tcpWorkload("tcp-cbcast-8k", tcpSpec{substrate: "cbcast", payload: 8192}),
	simWorkload("sim-cbcast-lossy-n32", simSpec{substrate: "cbcast", castsPerWriter: 250, nominalEpisodeS: 3.5}),
	simWorkload("sim-abcast-lossy-n32", simSpec{substrate: "abcast", castsPerWriter: 2000, nominalEpisodeS: 2.5}),
}

func tcpWorkload(name string, spec tcpSpec) workload {
	return workload{name, func(opt options) (*result, error) { return runTCP(name, spec, opt) }}
}

func simWorkload(name string, spec simSpec) workload {
	return workload{name, func(opt options) (*result, error) { return runSim(name, spec, opt) }}
}

// metric is one measured number; its unit comes from the declaration.
type metric struct {
	value float64
	n     int64  // samples (or events) behind the value
	note  string // how it was taken
}

// result is one run's outcome.
type result struct {
	workload  string
	traced    bool
	attempted int64 // casts issued in measured phases
	failed    int64 // of those, not delivered exactly once, in order, everywhere
	correct   bool
	metrics   map[string]metric
	notes     []string
}

func (r *result) add(name string, value float64, n int64, note string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{value, n, note}
}

// print writes the human-readable metric lines and then the JSON
// object the driver reads.
func (r *result) print(w io.Writer, seed int64) error {
	mode := "end-to-end (untraced)"
	if r.traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s seed %d: %s\n", r.workload, seed, mode)
	for _, d := range declared(r.traced) {
		m, ok := r.metrics[d.name]
		if !ok {
			m.note = "not applicable to this workload"
		}
		fmt.Fprintf(w, "  %-36s %16.4f %-6s n=%-9d %s\n", d.name, m.value, d.unit, m.n, m.note)
	}
	share := float64(r.failed) / float64(r.attempted)
	fmt.Fprintf(w, "  %-36s %16.6f %-6s n=%-9d casts not delivered exactly once, in order, at every member\n",
		"failed_share", share, "ratio", r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, d := range declared(r.traced) {
		v := r.metrics[d.name].value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = jsonMetric{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	name := fs.String("workload", "all", "workload name, or all")
	fs.Int64Var(&opt.seed, "seed", 1, "seed for the sim kernel and its script offsets, and for the payload filler")
	fs.Float64Var(&opt.seconds, "seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&opt.traceFile, "trace-file", "", "with -trace 1: write the retained spans to this file as JSON")
	fs.BoolVar(&opt.smoke, "smoke", false, "about 0.5 s per phase, simulated scripts cut to 100 casts per writer")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opt.smoke {
		opt.seconds = 1
	}
	if opt.seconds < 1 || opt.seconds > 120 {
		fmt.Fprintln(stderr, "bench: -seconds must be between 1 and 120")
		return 2
	}
	opt.traced = *trace != 0

	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "bench: unknown workload %q (want all or one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	// "all" is for people: every workload, untraced and then traced. The
	// driver asks for one workload and one mode per process.
	modes := []bool{opt.traced}
	if *name == "all" {
		modes = []bool{false, true}
	}
	code := 0
	for _, w := range todo {
		for _, traced := range modes {
			o := opt
			o.traced = traced
			res, err := w.run(o)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if err := res.print(stdout, o.seed); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if !res.correct {
				code = 1
			}
			// Give the next workload the heap this one started with.
			runtime.GC()
			debug.FreeOSMemory()
		}
	}
	return code
}
