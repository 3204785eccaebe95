package catocs

// Overhead budget for the live observability plane: always-on sampled
// tracing only earns its name if the disabled path costs ~nothing and
// the 1% head-sampled configuration stays within a few percent of
// tracing off. These benchmarks run the MulticastThroughputCausal
// workload under three tracer configurations, beside the untraced
// BenchmarkMulticastThroughputCausal in micro_bench_test.go.
// TestObsSamplingBudget asserts the <5% budget directly (opt-in via
// OBS_BUDGET_CHECK=1 — wall-clock assertions are too noisy for the
// default test run).

import (
	"flag"
	"os"
	"sort"
	"testing"
	"time"

	"catocs/internal/obs"
)

func benchThroughputObs(b *testing.B, tracer *obs.Tracer) {
	sim := NewSimulation(1, LinkConfig{BaseDelay: time.Millisecond})
	sim.Net.Instrument(tracer, nil, "bench")
	nodes := []NodeID{0, 1, 2, 3}
	delivered := 0
	members := NewGroup(sim.Mux, nodes,
		GroupConfig{Group: "bench", Ordering: Causal, Tracer: tracer},
		func(ProcessID) DeliverFunc {
			return func(Delivered) { delivered++ }
		})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		members[i%4].Multicast(i, 16)
		if i%256 == 255 {
			sim.Run() // drain periodically to bound queue growth
		}
	}
	sim.Run()
	b.ReportMetric(float64(delivered)/float64(b.N), "deliveries/msg")
	if tracer != nil {
		sampled, _ := tracer.SampleStats()
		b.ReportMetric(float64(sampled), "sampled-msgs")
		b.ReportMetric(float64(tracer.Len()), "retained-events")
	}
}

// BenchmarkMulticastThroughputCausalObsOff is the nil-tracer fast
// path; it should be indistinguishable from
// BenchmarkMulticastThroughputCausal.
func BenchmarkMulticastThroughputCausalObsOff(b *testing.B) {
	benchThroughputObs(b, nil)
}

// BenchmarkMulticastThroughputCausalObs1pct is the always-on
// configuration: 1% head-sampled lifecycles in a bounded ring.
func BenchmarkMulticastThroughputCausalObs1pct(b *testing.B) {
	benchThroughputObs(b, obs.NewSampledTracer(obs.SampleConfig{Rate: 0.01, Seed: 1}))
}

// BenchmarkMulticastThroughputCausalObs100pct records every lifecycle
// (still ring-bounded); the worst case the sampler can cost.
func BenchmarkMulticastThroughputCausalObs100pct(b *testing.B) {
	benchThroughputObs(b, obs.NewSampledTracer(obs.SampleConfig{Rate: 1, Seed: 1}))
}

// TestObsSamplingBudget asserts the acceptance budget: 1% sampling
// within 5% of tracing off on MulticastThroughputCausal. Each round
// runs the two arms back to back and yields one paired overhead ratio;
// the median over rounds is compared against the budget. Pairing makes
// rounds self-normalizing under drifting machine load (both arms of a
// round see the same conditions), and the median discards rounds where
// load shifted between the two halves. Wall-clock ratios are still
// noisy on shared machines — and a given binary can carry a few
// percent of code-placement/branch-predictor bias that no number of
// rounds averages away — so the check is opt-in; experiment E21 and
// the repo benchmark's driver.trace_overhead_pct are the durable
// evidence.
func TestObsSamplingBudget(t *testing.T) {
	if os.Getenv("OBS_BUDGET_CHECK") == "" {
		t.Skip("timing assertion; set OBS_BUDGET_CHECK=1 to run")
	}
	// Many short rounds beat few long ones: each is one more paired
	// sample for the median to draw on.
	if err := flag.Set("test.benchtime", "300000x"); err != nil {
		t.Fatalf("set benchtime: %v", err)
	}
	testing.Benchmark(BenchmarkMulticastThroughputCausalObsOff) // warmup, discarded
	var ratios []float64
	for round := 0; round < 8; round++ {
		off := float64(testing.Benchmark(BenchmarkMulticastThroughputCausalObsOff).NsPerOp())
		one := float64(testing.Benchmark(BenchmarkMulticastThroughputCausalObs1pct).NsPerOp())
		if off <= 0 {
			t.Fatalf("degenerate baseline: %v ns/op", off)
		}
		ratios = append(ratios, one/off)
		t.Logf("round %d: off=%.0f ns/op sampled1pct=%.0f ns/op ratio=%.4f", round, off, one, one/off)
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (median + ratios[len(ratios)/2-1]) / 2
	}
	overhead := (median - 1) * 100
	t.Logf("median overhead=%.2f%% over %d paired rounds", overhead, len(ratios))
	if overhead >= 5 {
		t.Fatalf("1%% sampled tracing costs %.2f%% over disabled; budget is <5%%", overhead)
	}
}
