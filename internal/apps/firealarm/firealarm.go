// Package firealarm reproduces Figure 3 of the paper: the external-
// channel anomaly in a manufacturing monitoring system.
//
// A furnace controller P detects a fire and multicasts a warning; a
// separate monitor R observes the fire go out and multicasts "fire
// out"; the fire then reignites and P multicasts a second warning. The
// fire itself is the communication channel relating these events, and
// it is invisible to the message system: the three multicasts are
// pairwise concurrent under happens-before, so causal (and total)
// multicast may deliver "fire out" last at an observer Q, which then
// believes the building is safe while it burns.
//
// The state-level fix is the §4.6 prescription: each message carries a
// real-time timestamp from the (synchronized) clock, and the observer
// keeps the latest-timestamped report — temporal precedence, "the most
// important precedence relationship in real-time systems".
package firealarm

import (
	"time"

	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/realtime"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// AlarmMsg is a fire-status report.
type AlarmMsg struct {
	Fire bool
	// T is the sensor's real-time timestamp — the state-level clock.
	T time.Duration
}

// ApproxSize implements transport.Sizer.
func (AlarmMsg) ApproxSize() int { return 32 }

// Config parameterizes a run.
type Config struct {
	Seed     int64
	Ordering multicast.Ordering
	// SlowFirstReport delays delivery of P's reports to Q (link
	// asymmetry); the figure's schedule needs the second "fire" to
	// overtake nothing while "fire out" arrives last, which a slow
	// R->Q link produces.
	SlowLink time.Duration
	// Jitter randomizes trials.
	Jitter time.Duration
}

// DefaultConfig reproduces the figure deterministically.
func DefaultConfig() Config {
	return Config{Seed: 1, Ordering: multicast.Causal, SlowLink: 40 * time.Millisecond}
}

// Result reports one run.
type Result struct {
	// Trace records the run, one node per diagram column in the order
	// P, Q, R.
	Trace *obs.Tracer
	// TrueFire is the environment's final state (burning).
	TrueFire bool
	// RawBelief is Q's belief from delivery order.
	RawBelief bool
	// TemporalBelief is Q's belief using timestamp precedence.
	TemporalBelief bool
	// AnomalyRaw: Q believes the fire is out while it burns.
	AnomalyRaw bool
	// AnomalyTemporal: the timestamped observer is misled (expected
	// never).
	AnomalyTemporal bool
}

// Run executes the scenario. Ranks: P (furnace controller) = 0, R
// (fire-out monitor) = 1, Q (observer) = 2.
func Run(cfg Config) Result {
	k := sim.NewKernel(cfg.Seed)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: 2 * time.Millisecond, Jitter: cfg.Jitter})
	if cfg.SlowLink > 0 {
		// R sits across a slow segment: its "fire out" report crawls to
		// everyone. In particular P has not delivered it before sending
		// the second "fire", so the reports stay concurrent under
		// happens-before — the precondition of the figure.
		net.SetLink(1, 0, transport.LinkConfig{BaseDelay: cfg.SlowLink, Jitter: cfg.Jitter})
		net.SetLink(1, 2, transport.LinkConfig{BaseDelay: cfg.SlowLink, Jitter: cfg.Jitter})
	}
	const colP, colQ, colR = 0, 1, 2
	tr := obs.NewTracer()
	for i, col := range []string{"P", "Q", "R"} {
		tr.SetNodeLabel(i, col)
	}

	// The environment: the fire's true timeline.
	fire := false

	rawBelief := false
	temporal := realtime.NewTemporalMonitor()

	nodes := []transport.NodeID{0, 1, 2}
	members := multicast.NewGroup(net, nodes, multicast.Config{Group: "alarm", Ordering: cfg.Ordering},
		func(rank vclock.ProcessID) multicast.DeliverFunc {
			if rank != 2 {
				return nil
			}
			return func(d multicast.Delivered) {
				msg := d.Payload.(AlarmMsg)
				name := "fire"
				if !msg.Fire {
					name = "fire-out"
				}
				tr.Deliver(k.Now(), colQ, obs.MsgRef{Sender: -1, Label: name}, "")
				rawBelief = msg.Fire
				val := 0.0
				if msg.Fire {
					val = 1.0
				}
				temporal.Observe(realtime.Reading{Sensor: "fire", T: msg.T, Value: val})
			}
		})

	report := func(sender, col int, burning bool, note string) {
		fire = burning
		name := "fire"
		if !burning {
			name = "fire-out"
		}
		tr.Send(k.Now(), col, obs.MsgRef{Sender: -1, Label: name}, note)
		members[sender].Multicast(AlarmMsg{Fire: burning, T: k.Now()}, 16)
	}

	// The figure's schedule: fire, fire out, fire again.
	k.At(0, func() { report(0, colP, true, "first \"fire\" message sent") })
	k.At(10*time.Millisecond, func() { report(1, colR, false, "\"fire out\" message sent") })
	k.At(20*time.Millisecond, func() { report(0, colP, true, "second \"fire\" message sent") })

	k.Run()
	tempReading, ok := temporal.Value("fire")
	tempBelief := ok && tempReading.Value > 0.5
	return Result{
		Trace:           tr,
		TrueFire:        fire,
		RawBelief:       rawBelief,
		TemporalBelief:  tempBelief,
		AnomalyRaw:      rawBelief != fire,
		AnomalyTemporal: tempBelief != fire,
	}
}

// Trials runs randomized trials and counts anomalies under delivery-
// order belief and temporal belief.
func Trials(n int, baseSeed int64, ordering multicast.Ordering) (rawAnomalies, temporalAnomalies int) {
	for i := 0; i < n; i++ {
		seedKernel := sim.NewKernel(baseSeed + int64(i))
		slow := time.Duration(seedKernel.Rand().Intn(50)) * time.Millisecond
		r := Run(Config{Seed: baseSeed + int64(i), Ordering: ordering, SlowLink: slow, Jitter: 10 * time.Millisecond})
		if r.AnomalyRaw {
			rawAnomalies++
		}
		if r.AnomalyTemporal {
			temporalAnomalies++
		}
	}
	return rawAnomalies, temporalAnomalies
}
