package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"catocs"
	"catocs/internal/netharness"
)

// simSpec is what distinguishes the sim-* workloads. A run is a fixed
// number of episodes, each one scripted world run to a fixed virtual
// deadline, so that everything on the virtual clock repeats exactly
// for a seed.
type simSpec struct {
	substrate      string // cbcast | abcast
	castsPerWriter int    // per episode
	// nominalEpisodeS is roughly what one episode takes on the
	// reference 2-core box; -seconds divided by it is the episode count.
	nominalEpisodeS float64
}

const (
	simMembers   = 32
	simWriters   = 4                // ranks 0, 8, 16, 24
	simInterval  = time.Millisecond // each writer's cast period, virtual
	simPayload   = 64
	smokeCasts   = 100
	minSimSetups = 9
	// simDrain is how long after the last scripted cast an episode runs,
	// on the virtual clock. At N=32 with 2% loss the members never stop
	// re-advertising their acks (Kernel.Run does not return), so an
	// episode cannot run to quiescence; the last delivery lands about
	// 0.1 s after the script ends, and this allows ten times that for a
	// chain of lost retransmissions. A delivery still missing at the
	// deadline is a failed cast.
	simDrain = time.Second
)

// simLink is the lossy world every sim-* episode runs in.
var simLink = catocs.LinkConfig{BaseDelay: 5 * time.Millisecond, Jitter: 8 * time.Millisecond, LossProb: 0.02}

// simWorld is one episode: 32 members on one SimNet with the script
// already scheduled.
type simWorld struct {
	sim      *catocs.Simulation
	g        *group
	eps      []*endpoint
	casts    [simWriters]uint32
	deadline time.Duration // virtual instant the episode runs to
}

func ceilLog2(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// newSimWorld builds the world and schedules the whole script on the
// kernel; nothing runs until run.
func newSimWorld(spec simSpec, seed int64, casts int, traced bool) (*simWorld, error) {
	mcfg, err := netharness.SubstrateConfig(spec.substrate)
	if err != nil {
		return nil, err
	}
	s := catocs.NewSimulation(seed, simLink)
	nodes := make([]catocs.NodeID, simMembers)
	writerOf := make([]int, simMembers)
	for i := range nodes {
		nodes[i] = catocs.NodeID(i)
		writerOf[i] = -1
		if i%(simMembers/simWriters) == 0 {
			writerOf[i] = i / (simMembers / simWriters)
		}
	}
	g := &group{
		n: simMembers, writerOf: writerOf, timed: phaseScript,
		now:  func() int64 { return int64(s.Kernel.Now()) },
		done: newCompletion(simMembers, ceilLog2(simWriters*casts)),
	}
	if traced {
		g.trace = newTraceShared(simMembers, simWriters, ceilLog2(casts+1), false)
	}
	w := &simWorld{sim: s, g: g, deadline: time.Duration(casts)*simInterval + simDrain}
	for i := range nodes {
		e := newEndpoint(g, i, 1)
		if traced {
			e.tr = newEndpointTrace(e, g.trace, simWriters, 1<<13)
		}
		e.m = catocs.NewMember(e.networkFor(s.Net), nodes, catocs.ProcessID(i), mcfg, e.deliverFunc())
		w.eps = append(w.eps, e)
	}
	// The script: writer i casts every simInterval from a seeded offset
	// inside the first interval. Payloads are built now; the cast event
	// only stamps the cast instant and the causal dependencies.
	rng := rand.New(rand.NewSource(seed))
	filler := make([]byte, simPayload)
	rng.Read(filler)
	var k uint64
	for wi := 0; wi < simWriters; wi++ {
		e := w.eps[wi*(simMembers/simWriters)]
		offset := time.Duration(rng.Int63n(int64(simInterval)))
		for c := 1; c <= casts; c++ {
			p := make([]byte, simPayload)
			copy(p[headerLen:], filler[headerLen:])
			h := castHeader{cast: k, writer: wi, phase: phaseScript, wseq: uint32(c)}
			g.done.arm(k)
			k++
			s.Kernel.At(offset+time.Duration(c-1)*simInterval, func() {
				h.due = g.now()
				putHeader(p, h)
				e.cast(p)
			})
		}
		w.casts[wi] = uint32(casts)
	}
	return w, nil
}

// episode is what one world's run measured.
type episode struct {
	casts, deliveries int64
	use               usageDelta
	bytes, ctrlBytes  uint64
	lost              uint64
	fired             uint64
	verdict           verdict
	refused           int64
	stab              stabilityPeaks
}

func (w *simWorld) run(total bool) episode {
	from := readUsage()
	w.sim.RunUntil(w.deadline)
	ep := episode{use: readUsage().since(from)}
	oracles := make([]*memberOracle, len(w.eps))
	for i, e := range w.eps {
		oracles[i] = &e.oracle
		ep.deliveries += e.deliveries[phaseScript].Load()
		ep.refused += e.refused.Load()
		ep.stab.observe(e)
	}
	for _, c := range w.casts {
		ep.casts += int64(c)
	}
	st := w.sim.Net.Stats()
	ep.bytes, ep.ctrlBytes, ep.lost = st.Bytes, st.CtrlBytes, st.Dropped
	ep.fired = w.sim.Kernel.Fired()
	ep.verdict = judge(oracles, w.casts[:], total)
	return ep
}

// runSim is one run of a sim-* workload.
func runSim(name string, spec simSpec, opt options) (*result, error) {
	res := &result{workload: name, traced: opt.traced}
	casts := spec.castsPerWriter
	episodes := int(opt.seconds / spec.nominalEpisodeS)
	if opt.smoke {
		casts, episodes = smokeCasts, 1
	}
	if episodes < 1 {
		episodes = 1
	}
	total := spec.substrate == "abcast"

	var setupS, rates, cpuPerDelivery, tracedRates []float64
	var sum episode
	lat := &hist{}
	tt := &traceTotals{}
	var tracedUse usageDelta
	var tracedDeliveries int64
	var plain episode // the first, always untraced, episode
	// In a traced run the first episode stays untraced: it is the
	// tracing overhead's baseline and times the bare kernel.
	if opt.traced && episodes < 2 {
		episodes = 2
	}
	for i := 0; i < episodes || i < minSimSetups; i++ {
		traced := opt.traced && i > 0
		t0 := time.Now()
		w, err := newSimWorld(spec, opt.seed*1000+int64(i), casts, traced)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i >= episodes {
			continue // extra set-up sample only
		}
		runtime.GC()
		ep := w.run(total)
		rate := float64(ep.casts) / ep.use.wall.Seconds()
		if traced {
			tracedRates = append(tracedRates, rate)
			if i == episodes-1 {
				tt.spans, tt.ranks = nil, nil // the trace file holds the last episode's spans
			}
			for _, e := range w.eps {
				tt.fold(e)
			}
			tracedUse.mallocs += ep.use.mallocs
			tracedUse.bytes += ep.use.bytes
			tracedUse.pauseNs += ep.use.pauseNs
			tracedDeliveries += ep.deliveries
		} else {
			rates = append(rates, rate)
			cpuPerDelivery = append(cpuPerDelivery, float64(ep.use.cpu.Microseconds())/float64(ep.deliveries))
		}
		if i == 0 {
			plain = ep
		}
		for _, e := range w.eps {
			lat.merge(&e.lat[0])
		}
		sum.casts += ep.casts
		sum.deliveries += ep.deliveries
		sum.bytes += ep.bytes
		sum.ctrlBytes += ep.ctrlBytes
		sum.lost += ep.lost
		sum.fired += ep.fired
		sum.refused += ep.refused
		sum.verdict.violations += ep.verdict.violations
		sum.verdict.missing += ep.verdict.missing
		sum.verdict.diverged = sum.verdict.diverged || ep.verdict.diverged
		sum.verdict.notes = append(sum.verdict.notes, ep.verdict.notes...)
		if ep.stab.msgs > sum.stab.msgs {
			sum.stab.msgs = ep.stab.msgs
		}
		if ep.stab.bytes > sum.stab.bytes {
			sum.stab.bytes = ep.stab.bytes
		}
		sum.stab.atDrain += ep.stab.atDrain
		sum.stab.membersAsked += ep.stab.membersAsked
	}

	res.attempted = sum.casts
	// A cast with a missing delivery fails once however many members
	// miss it; violations are counted per delivery, so cap at attempted.
	res.failed = sum.verdict.violations + sum.refused
	if sum.verdict.missing > 0 {
		res.failed += (sum.verdict.missing + simMembers - 1) / simMembers
	}
	if sum.verdict.diverged && res.failed == 0 {
		res.failed = 1
	}
	if res.failed > res.attempted {
		res.failed = res.attempted
	}
	res.correct = res.failed == 0 && sum.verdict.ok()
	res.notes = append(res.notes, sum.verdict.notes...)
	if lat.beyond(0.99) < 10 {
		return nil, fmt.Errorf("%d latency samples do not support a p99", lat.n)
	}

	if !opt.traced {
		res.add("setup_s", median(setupS), int64(len(setupS)), "median set-up: build the world, 32 members, schedule the script")
		res.add("casts_per_s", median(rates), sum.casts,
			fmt.Sprintf("median of %d episodes of %d casts: scripted casts / wall s of the kernel run", len(rates), casts*simWriters))
		res.add("deliver_p50_us", lat.quantile(0.5)/1e3, lat.n, "cast -> deliver on the virtual clock, all episodes pooled")
		res.add("deliver_p99_us", lat.quantile(0.99)/1e3, lat.n, fmt.Sprintf("%d samples beyond", lat.beyond(0.99)))
		res.add("cpu_us_per_delivery", median(cpuPerDelivery), sum.deliveries, "median over episodes of process CPU / deliveries")
		res.add("wire_bytes_per_delivery", float64(sum.bytes)/float64(sum.deliveries), sum.deliveries, "SimNet.Stats().Bytes (ApproxSize model)")
		return res, nil
	}

	addSharedLayers(res, layerInputs{
		tt: tt, timerSlot: 0, deliveries: tracedDeliveries, use: tracedUse, gcPauseNs: tracedUse.pauseNs,
		appPayload: simPayload, stab: sum.stab,
		plainRate: median(rates), tracedRate: median(tracedRates),
		cpuUtil: plain.use.cpu.Seconds() / plain.use.wall.Seconds(),
	})
	res.add("transport.ctrl_bytes_per_delivery", float64(sum.ctrlBytes)/float64(sum.deliveries), sum.deliveries, "SimNet.Stats().CtrlBytes")
	res.add("transport.lost_msgs", float64(sum.lost), int64(sum.fired), "SimNet.Stats().Dropped: the 2% loss model")
	res.add("sim.events_per_delivery", float64(plain.fired)/float64(plain.deliveries), int64(plain.fired), "Kernel.Fired() of the untraced episode, its 1 s of ack chatter after the last delivery included; exact for a seed")
	res.add("sim.ns_per_event", float64(plain.use.wall.Nanoseconds())/float64(plain.fired), int64(plain.fired), "wall time of the untraced episode / events")
	if opt.traceFile != "" {
		if err := writeTraceFile(opt.traceFile, name, opt.seed, tt); err != nil {
			return nil, err
		}
	}
	return res, nil
}
