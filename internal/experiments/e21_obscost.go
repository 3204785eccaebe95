package experiments

import (
	"time"

	"catocs/internal/mgcast"
	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/scalecast"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// E21 — the overhead of observation. The live observability plane only
// earns "always-on" status if watching a run costs almost nothing:
// tracing that perturbs the system under test measures the
// perturbation, not the system. This experiment prices the sampled
// tracer against the same workload unobserved — tracing off, head
// sampling at 1% (the always-on configuration), and sampling at 100%
// (every lifecycle retained, ring-bounded) — across all four
// substrates. Virtual time makes the runs identical in behaviour: the
// event schedule, deliveries, and orderings are byte-for-byte the same
// in every arm, so wall-clock time isolates the recorder's cost.
//
// The companion microbenchmarks (obs_bench_test.go at the repo root)
// assert the budget — disabled-path ~0, 1%-sampled <5% on
// MulticastThroughputCausal — per-operation and under `go test -bench`
// conditions; this table shows the same costs in experiment context.

// e21Modes lists the observation arms, in report order.
var e21Modes = []string{"off", "sampled1pct", "sampled100pct"}

// e21Substrates lists the substrates under measurement.
var e21Substrates = []string{"cbcast", "abcast", "scalecast", "mgcast"}

// E21Point is one (substrate, N, mode) measurement.
type E21Point struct {
	Substrate string
	N         int
	Mode      string
	// Deliveries proves every arm ran the identical workload.
	Deliveries uint64
	// WallMS is the run's real (not virtual) execution time.
	WallMS float64
	// OverheadPct is WallMS relative to the same (substrate, N)'s off
	// arm, in percent; 0 for the off arm itself.
	OverheadPct float64
	// SampledMsgs is how many distinct messages the head decision
	// admitted; Retained is the events currently in the ring.
	SampledMsgs uint64
	Retained    int
}

// e21Tracer builds the mode's tracer; nil for "off" (the nil-Tracer
// fast path is the disabled-cost arm).
func e21Tracer(mode string, seed int64) *obs.Tracer {
	switch mode {
	case "off":
		return nil
	case "sampled1pct":
		return obs.NewSampledTracer(obs.SampleConfig{Rate: 0.01, Seed: uint64(seed)})
	case "sampled100pct":
		return obs.NewSampledTracer(obs.SampleConfig{Rate: 1, Seed: uint64(seed)})
	default:
		panic("e21: unknown mode " + mode)
	}
}

// runE21Workload drives one substrate through the E16 send schedule
// with the given tracer attached and returns the delivery count. The
// workload is deliberately identical across modes.
func runE21Workload(substrate string, n, msgsPer int, seed int64, tracer *obs.Tracer) uint64 {
	k := sim.NewKernel(seed)
	k.SetEventLimit(200_000_000)
	net := transport.NewSimNet(k, transport.LinkConfig{
		BaseDelay: 2 * time.Millisecond,
		Jitter:    2 * time.Millisecond,
	})
	net.Instrument(tracer, nil, substrate)
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}

	var deliveries uint64

	var multicastFrom func(rank int, payload any)
	switch substrate {
	case "cbcast", "abcast":
		ord := multicast.Causal
		if substrate == "abcast" {
			ord = multicast.TotalCausal
		}
		members := multicast.NewGroup(net, nodes,
			multicast.Config{Group: "e21", Ordering: ord, Tracer: tracer},
			func(vclock.ProcessID) multicast.DeliverFunc {
				return func(multicast.Delivered) { deliveries++ }
			})
		multicastFrom = func(rank int, payload any) {
			members[rank].Multicast(payload, e16PayloadBytes)
		}
		defer closeAll(members)
	case "scalecast":
		members := scalecast.NewGroup(net, nodes,
			scalecast.Config{Group: "e21", Tracer: tracer},
			func(vclock.ProcessID) multicast.DeliverFunc {
				return func(multicast.Delivered) { deliveries++ }
			})
		multicastFrom = func(rank int, payload any) {
			members[rank].Multicast(payload, e16PayloadBytes)
		}
		defer func() {
			for _, m := range members {
				m.Close()
			}
		}()
	case "mgcast":
		table := mgcast.WrapGroups(n, n, e20GroupSize(n))
		names := mgcast.GroupNames(n)
		universe := mgcast.NewUniverse(net, nodes, mgcast.Config{
			Groups: table,
			Tracer: tracer,
		}, func(vclock.ProcessID) mgcast.DeliverFunc {
			return func(mgcast.Delivered) { deliveries++ }
		})
		multicastFrom = func(rank int, payload any) {
			// Two deterministic destination groups per cast: identical
			// across modes, different across senders.
			g1 := names[rank%len(names)]
			g2 := names[(rank+1)%len(names)]
			universe[rank].Multicast([]string{g1, g2}, payload, e16PayloadBytes)
		}
		defer func() {
			for _, m := range universe {
				m.Close()
			}
		}()
	default:
		panic("e21: unknown substrate " + substrate)
	}

	senders := e16Senders(n)
	for s := 0; s < senders; s++ {
		for i := 0; i < msgsPer; i++ {
			s, i := s, i
			k.At(time.Duration(i)*e16Interval+time.Duration(s)*100*time.Microsecond, func() {
				multicastFrom(s, i)
			})
		}
	}
	k.RunUntil(time.Duration(msgsPer)*e16Interval + 2*time.Second)
	return deliveries
}

// RunE21 measures all three observation arms for every substrate at
// every size. Each (substrate, N)'s off arm is the wall-clock baseline
// for its sampled arms.
func RunE21(sizes []int, msgsPer int, seed int64) []E21Point {
	var pts []E21Point
	for _, sub := range e21Substrates {
		for _, n := range sizes {
			var base float64
			for _, mode := range e21Modes {
				// Best of five: single-shot wall clocks at the
				// millisecond scale are dominated by warmup (first-touch
				// allocation, branch training), and timing noise is
				// one-sided, so the minimum is the honest estimate.
				var wall float64
				var deliveries uint64
				var tracer *obs.Tracer
				for rep := 0; rep < 5; rep++ {
					tr := e21Tracer(mode, seed)
					start := time.Now()
					d := runE21Workload(sub, n, msgsPer, seed, tr)
					w := float64(time.Since(start).Microseconds()) / 1000.0
					if rep == 0 || w < wall {
						wall, deliveries, tracer = w, d, tr
					}
				}
				pt := E21Point{
					Substrate: sub, N: n, Mode: mode,
					Deliveries: deliveries, WallMS: wall,
				}
				if mode == "off" {
					base = wall
				} else if base > 0 {
					pt.OverheadPct = (wall - base) / base * 100
				}
				if tracer != nil {
					pt.SampledMsgs, _ = tracer.SampleStats()
					pt.Retained = tracer.Len()
				}
				pts = append(pts, pt)
			}
		}
	}
	return pts
}

// TableE21From renders already-computed points.
func TableE21From(pts []E21Point) *Table {
	t := &Table{
		ID:    "E21",
		Title: "Overhead of observation: sampled always-on tracing vs tracing off",
		Claim: "head-sampled tracing is cheap enough to leave on: the 1% arm tracks the unobserved run's wall clock, and even 100% sampling stays ring-bounded in memory",
		Headers: []string{"substrate", "N", "mode", "deliveries", "wall ms",
			"overhead %", "sampled msgs", "retained events"},
	}
	for _, pt := range pts {
		t.Rows = append(t.Rows, []string{
			pt.Substrate, fmtI(pt.N), pt.Mode, fmtU(pt.Deliveries),
			fmtF(pt.WallMS), fmtF(pt.OverheadPct),
			fmtU(pt.SampledMsgs), fmtI(pt.Retained),
		})
	}
	t.Notes = append(t.Notes,
		"identical virtual-time workload in every arm (deliveries prove it); wall clock isolates the recorder's cost, best of 5 runs per arm",
		"overhead % is relative to the same (substrate, N) run with tracing off; single-shot timings, so small percentages are noise",
		"sampled arms retain whole message lifecycles in a bounded ring (default 128); the microbenchmarks in obs_bench_test.go assert the <5% budget",
		"mgcast casts address 2 wraparound groups per message; other substrates broadcast to the full group")
	return t
}

// TableE21 runs the sweep and renders it.
func TableE21(sizes []int, msgsPer int, seed int64) *Table {
	return TableE21From(RunE21(sizes, msgsPer, seed))
}
