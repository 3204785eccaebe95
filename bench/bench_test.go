package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the tests hold the program to.
type manifest struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesProgram: BENCHMARK.json and the program declare the
// same workloads and the same metrics, in name and unit.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("BENCHMARK.json paths = %v, the benchmark lives in bench/ only", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, m.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []manifestMetric, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

// lastLine is the run's result object: the last line of its output.
type lastLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smokeRuns keeps each (workload, seed, mode) smoke result the tests
// have already paid for; runSmokeAgain bypasses it.
var smokeRuns = map[string]lastLine{}

func runSmoke(t *testing.T, workload, seed, trace string) lastLine {
	t.Helper()
	key := workload + " " + seed + " " + trace
	if res, ok := smokeRuns[key]; ok {
		return res
	}
	res := runSmokeAgain(t, workload, seed, trace)
	smokeRuns[key] = res
	return res
}

func runSmokeAgain(t *testing.T, workload, seed, trace string) lastLine {
	t.Helper()
	args := []string{"-workload", workload, "-seed", seed, "-trace", trace}
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-smoke"}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d\nstderr: %s\nstdout: %s", args, code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs every workload in both modes at smoke size and checks
// that each prints exactly the metrics BENCHMARK.json declares for that
// mode, finite and well named, and that no cast failed. It is what lets
// plain `go test ./...` catch a change that breaks the benchmark's
// import surface.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for _, w := range m.Workloads {
		for _, mode := range []struct {
			flag string
			want []manifestMetric
		}{{"0", m.EndToEnd}, {"1", m.PerLayer}} {
			res := runSmoke(t, w.Name, "1", mode.flag)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, mode.flag, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%s: printed %d metrics, BENCHMARK.json declares %d", w.Name, mode.flag, len(res.Metrics), len(mode.want))
			}
			for _, d := range mode.want {
				got, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: %s not printed", w.Name, mode.flag, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s trace=%s: %s printed in %q, declared %q", w.Name, mode.flag, d.Name, got.Unit, d.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%s: %s is not finite", w.Name, mode.flag, d.Name)
				case !metricName.MatchString(d.Name):
					t.Errorf("metric name %q leaves [A-Za-z0-9_.-]", d.Name)
				}
			}
			if mode.flag == "0" {
				for _, d := range mode.want {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestSimSeed: on the simulator the same seed gives the same
// virtual-time, byte and event numbers exactly, and another seed
// changes them.
func TestSimSeed(t *testing.T) {
	exact := []string{"deliver_p50_us", "deliver_p99_us", "wire_bytes_per_delivery"}
	const events = "sim.events_per_delivery"
	for _, w := range []string{"sim-cbcast-lossy-n32", "sim-abcast-lossy-n32"} {
		first, again, other := runSmoke(t, w, "1", "0"), runSmokeAgain(t, w, "1", "0"), runSmoke(t, w, "2", "0")
		for _, name := range exact {
			if first.Metrics[name].Value != again.Metrics[name].Value {
				t.Errorf("%s %s: seed 1 gave %v then %v", w, name, first.Metrics[name].Value, again.Metrics[name].Value)
			}
			if first.Metrics[name].Value == other.Metrics[name].Value {
				t.Errorf("%s %s: seeds 1 and 2 both gave %v", w, name, first.Metrics[name].Value)
			}
		}
		tFirst, tAgain := runSmoke(t, w, "1", "1"), runSmokeAgain(t, w, "1", "1")
		if tFirst.Metrics[events].Value != tAgain.Metrics[events].Value {
			t.Errorf("%s %s: seed 1 gave %v then %v", w, events, tFirst.Metrics[events].Value, tAgain.Metrics[events].Value)
		}
		if tFirst.Metrics[events].Value <= 0 {
			t.Errorf("%s %s = %v", w, events, tFirst.Metrics[events].Value)
		}
	}
}
