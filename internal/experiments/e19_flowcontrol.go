package experiments

import (
	"fmt"
	"time"

	"catocs/internal/chaos"
	"catocs/internal/flowcontrol"
	"catocs/internal/group"
	"catocs/internal/multicast"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wal"
)

// E19 — flow control and graceful degradation under slow consumers.
// §5's resource argument made operational: one member that stays alive
// (timely acks and heartbeats) but consumes its inbound traffic late
// pins every member's stability frontier, so unstable buffers grow
// without bound — and no silence-based failure detector can see it.
//
// The experiment measures the trilemma the paper leaves implicit. With
// no policy, buffer high-water grows linearly with the consumer's lag
// (part 1). With a budget installed, each OverflowPolicy holds memory
// at the budget and pays a different price (part 2): Block trades
// throughput — completion time stretches toward casts×lag/window —
// Shed trades completeness, Spill trades memory for stable-storage
// traffic, and Suspect trades membership, excising the laggard through
// the ordinary view-change machinery so the survivors' buffers drain
// to zero. Part 3 hands the same machinery to the chaos harness:
// randomized slow-consumer episodes under a budget, every episode
// checked by the bounded-memory oracle alongside the ordering oracles.

// E19Point is one measured configuration.
type E19Point struct {
	Mix    string  // "lag-sweep", "policy", or "chaos"
	Policy string  // overflow policy name
	LagMs  float64 // slow consumer's inbound lag
	Budget int     // group budget, messages (0 = unlimited)

	Sent      uint64 // casts offered by the sender
	Delivered uint64 // deliveries at the sender's node

	// StabHighWater is the worst in-memory unstable-buffer occupancy
	// any member saw; the budget bounds it when a policy is active.
	StabHighWater int64
	HoldbackMax   int64

	Shed     uint64 // casts dropped at admission (Shed)
	Spills   uint64 // messages written to the WAL (Spill)
	Suspects uint64 // accusations fired (Suspect)
	Excised  bool   // laggard removed via view change

	// CompletionMs is when the sender's node delivered its last
	// message — Block's throughput collapse shows up here.
	CompletionMs float64
	// StallP99Ms is the 99th-percentile admission-window stall.
	StallP99Ms float64
	// Episodes and Violations describe the chaos batch row.
	Episodes   int
	Violations int
}

// e19Run executes one slow-consumer episode: rank 0 casts every 2ms
// over an atomic causal group of n; node n-1 receives everything lag
// late but stays timely outbound. Suspect episodes additionally run
// membership monitors with heartbeat timeouts too long to see the lag,
// so only the flow-control stall accusation can excise the laggard.
func e19Run(n, casts int, lag time.Duration, budget flowcontrol.Budget, pol flowcontrol.Policy, seed int64) E19Point {
	k := sim.NewKernel(seed)
	k.SetEventLimit(50_000_000)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: time.Millisecond})
	mux := transport.NewMux(net)

	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	var lastDelivery time.Duration
	var delivered uint64
	members := make([]*multicast.Member, n)
	monitors := make([]*group.Monitor, n)
	spillDev := wal.NewDevice()
	for i := range nodes {
		i := i
		cfg := multicast.Config{
			Group: "e19", Ordering: multicast.Causal, Atomic: true,
			Budget: budget, Overflow: pol,
		}
		if pol == flowcontrol.Spill {
			cfg.SpillDevice = spillDev
		}
		if pol == flowcontrol.Suspect {
			cfg.StallTimeout = 200 * time.Millisecond
			cfg.OnSuspect = func(r vclock.ProcessID) { monitors[i].ForceSuspect(r) }
		}
		rank := vclock.ProcessID(i)
		members[i] = multicast.NewMember(mux, nodes, rank, cfg, func(multicast.Delivered) {
			if i == 0 {
				delivered++
				lastDelivery = k.Now()
			}
		})
	}
	if pol == flowcontrol.Suspect {
		for i, m := range members {
			monitors[i] = group.NewMonitor(mux, m, "e19", group.Config{SuspectTimeout: 5 * time.Second})
		}
		for _, mon := range monitors {
			mon.Start()
		}
	}
	net.Slow(nodes[n-1], lag)
	for i := 0; i < casts; i++ {
		i := i
		k.At(time.Duration(i)*2*time.Millisecond, func() {
			members[0].Multicast(fmt.Sprintf("m%d", i), 64)
		})
	}
	k.RunUntil(90 * time.Second)

	pt := E19Point{
		Policy: pol.String(), LagMs: lag.Seconds() * 1000,
		Budget:    budget.MaxMsgs,
		Sent:      uint64(casts),
		Delivered: delivered,
	}
	for _, m := range members {
		if s := m.Stability(); s != nil {
			if v := s.HighWater(); v > pt.StabHighWater {
				pt.StabHighWater = v
			}
			if sp := s.Spill(); sp != nil {
				pt.Spills += sp.Spills()
			}
		}
		if v := m.HoldbackGauge.Max(); v > pt.HoldbackMax {
			pt.HoldbackMax = v
		}
		pt.Shed += uint64(m.ShedCount.Value())
		pt.Suspects += uint64(m.SuspectCount.Value())
	}
	pt.Excised = members[0].Epoch() > 0 && members[0].GroupSize() == n-1
	pt.CompletionMs = lastDelivery.Seconds() * 1000
	pt.StallP99Ms = members[0].AdmissionStall.Quantile(0.99) * 1000
	for _, mon := range monitors {
		if mon != nil {
			mon.Stop()
		}
	}
	for _, m := range members {
		m.Close()
	}
	return pt
}

// RunE19Lags is part 1: no budget, lag swept — the unbounded-growth
// baseline. The buffer high-water tracks lag×send-rate.
func RunE19Lags(n, casts int, lags []time.Duration, seed int64) []E19Point {
	var pts []E19Point
	for _, lag := range lags {
		pt := e19Run(n, casts, lag, flowcontrol.Budget{}, flowcontrol.None, seed)
		pt.Mix = "lag-sweep"
		pts = append(pts, pt)
	}
	return pts
}

// RunE19Policies is part 2: fixed lag and budget, one row per
// overflow policy.
func RunE19Policies(n, casts int, lag time.Duration, budget flowcontrol.Budget, seed int64) []E19Point {
	var pts []E19Point
	for _, pol := range []flowcontrol.Policy{
		flowcontrol.None, flowcontrol.Block, flowcontrol.Shed,
		flowcontrol.Spill, flowcontrol.Suspect,
	} {
		b := budget
		if pol == flowcontrol.None {
			b = flowcontrol.Budget{}
		}
		pt := e19Run(n, casts, lag, b, pol, seed)
		pt.Mix = "policy"
		pts = append(pts, pt)
	}
	return pts
}

// RunE19Chaos is part 3: randomized slow-consumer episodes under a
// budget with the Spill policy (the one policy that admits every cast,
// so the liveness and same-set oracles keep their full force), every
// episode audited by the bounded-memory oracle.
func RunE19Chaos(episodes int, budget flowcontrol.Budget, seed int64) E19Point {
	sum := chaos.RunEpisodes(chaos.RunnerConfig{
		Config: chaos.Config{
			Substrate: "cbcast",
			N:         5,
			Senders:   2,
			MsgsPer:   25,
			Seed:      seed,
			Budget:    budget,
			Overflow:  flowcontrol.Spill,
		},
		Episodes: episodes,
		Gen: chaos.GenConfig{
			Slows:   2,
			MaxLag:  120 * time.Millisecond,
			Crashes: 1,
		},
	})
	violations := 0
	for _, f := range sum.Failures {
		violations += len(f.Result.Violations)
	}
	return E19Point{
		Mix: "chaos", Policy: flowcontrol.Spill.String(),
		Budget:        budget.MaxMsgs,
		Sent:          sum.Sent,
		Delivered:     sum.Delivered,
		StabHighWater: sum.StabHighWater,
		HoldbackMax:   sum.MaxHoldback,
		Episodes:      episodes,
		Violations:    violations,
	}
}

// TableE19 runs all three parts and renders them.
func TableE19(n, casts, episodes int, seed int64) *Table {
	budget := flowcontrol.Budget{MaxMsgs: 48}
	t := &Table{
		ID:    "E19",
		Title: "Flow control: bounded buffers and graceful degradation under slow consumers (§5)",
		Claim: "an alive-but-slow consumer grows unbounded buffers that no silence-based detector can see; a budget plus an overflow policy caps memory at a chosen price — throughput (Block), completeness (Shed), stable storage (Spill), or membership (Suspect)",
		Headers: []string{"mix", "policy", "lag ms", "budget", "sent", "delivered", "stab hw",
			"shed", "spills", "accusations", "excised", "completion ms", "stall p99 ms", "violations"},
	}
	var pts []E19Point
	pts = append(pts, RunE19Lags(n, casts, []time.Duration{
		0, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
	}, seed)...)
	pts = append(pts, RunE19Policies(n, casts, 200*time.Millisecond, budget, seed)...)
	pts = append(pts, RunE19Chaos(episodes, budget, seed))
	for _, pt := range pts {
		t.Rows = append(t.Rows, []string{
			pt.Mix, pt.Policy, fmtMs(pt.LagMs / 1000), fmtI(pt.Budget),
			fmtU(pt.Sent), fmtU(pt.Delivered), fmtI(int(pt.StabHighWater)),
			fmtU(pt.Shed), fmtU(pt.Spills), fmtU(pt.Suspects), fmt.Sprint(pt.Excised),
			fmtMs(pt.CompletionMs / 1000), fmtMs(pt.StallP99Ms / 1000), fmtI(pt.Violations),
		})
	}
	t.Notes = append(t.Notes,
		"lag-sweep: no budget; one sender at 2ms spacing, last node's inbound deliveries lagged — stability high-water grows ~linearly with lag while the lagged node stays timely outbound (invisible to heartbeat detection)",
		"policy rows: lag 200ms, group budget 48 msgs split into per-sender admission windows; every policy holds stab hw at or under the budget",
		"Block: loses nothing but completion stretches — the admission window advances only at the laggard's pace (§5's blocking cost)",
		"Shed: bounded memory and on-time completion, paid in dropped casts (counted, traced)",
		"Spill: bounded memory, nothing lost — overflow rides the WAL and reloads on NACK",
		"Suspect: the admission stall names the laggard from the stability matrix — one accusation, from the stalled sender; the ordinary view change excises it and survivors drain to zero",
		fmt.Sprintf("chaos: %d randomized slow-consumer episodes (Spill, budget 48) — bounded-memory oracle plus all ordering oracles, zero violations", episodes))
	return t
}
