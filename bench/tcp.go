package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"catocs"
	"catocs/internal/netharness"
	"catocs/internal/transport"
	"catocs/internal/transport/tcpnet"
)

// tcpSpec is what distinguishes the tcp-* workloads.
type tcpSpec struct {
	substrate string // cbcast | abcast, resolved by netharness.SubstrateConfig
	payload   int    // bytes per cast
}

const (
	fleetSize = 3
	// outstanding is the closed loop's window: casts each member keeps
	// in flight.
	outstanding = 32
	// warmCasts is the fixed work of the set-up warm-up: enough to dial
	// every pair, fill the frame pools and grow the runtime's heap.
	warmCasts    = 3000
	castRingBits = 14 // casts queued to one dispatcher before a cast is refused
	doneRingBits = 17 // casts in flight before the completion ring wraps
	traceRing    = 16 // per-writer ring of cast/send instants (traced runs)
	drainTimeout = 5 * time.Second
)

// fleet is three members in this process, each on its own tcpnet.Net
// over loopback sockets: the system under test.
type fleet struct {
	spec tcpSpec
	// windows is how many measurement windows each phase is cut into;
	// every windowed metric is the median over them.
	windows int
	g       *group
	nets    []*tcpnet.Net
	eps     []*endpoint
	filler  []byte

	nextCast  uint64
	wseq      [fleetSize]uint32
	attempted [numPhases]int64
	// issued counts the attempted casts a dispatcher accepted; the rest
	// found its cast queue full and count as failed.
	issued [numPhases]int64
}

// reserveAddrs picks free loopback ports by binding them all and then
// releasing them together (so the three differ); tcpnet needs every
// address before any listener exists.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// newFleet listens, builds the members (on a tracing decorator when
// traced) and runs the warm-up, which dials every pair.
func newFleet(spec tcpSpec, opt options, traced bool) (*fleet, error) {
	mcfg, err := netharness.SubstrateConfig(spec.substrate)
	if err != nil {
		return nil, err
	}
	addrs, err := reserveAddrs(fleetSize)
	if err != nil {
		return nil, err
	}
	univ := make(map[transport.NodeID]string, fleetSize)
	nodes := make([]catocs.NodeID, fleetSize)
	writerOf := make([]int, fleetSize)
	for i := range addrs {
		univ[transport.NodeID(i)] = addrs[i]
		nodes[i] = catocs.NodeID(i)
		writerOf[i] = i
	}
	g := &group{
		n: fleetSize, writerOf: writerOf, now: wallNow, timed: phaseLight,
		done:   newCompletion(fleetSize, doneRingBits),
		tokens: make(chan int, fleetSize*outstanding),
	}
	if traced {
		g.trace = newTraceShared(fleetSize, fleetSize, traceRing, true)
	}
	f := &fleet{spec: spec, g: g, windows: phaseWindows(opt.seconds)}
	// Filler is seeded; each cast copies a window of it at an offset
	// that depends on the cast number.
	f.filler = make([]byte, 2*spec.payload)
	rand.New(rand.NewSource(opt.seed)).Read(f.filler)

	for i := 0; i < fleetSize; i++ {
		n, err := tcpnet.New(tcpnet.Config{
			Listen: addrs[i],
			Local:  []transport.NodeID{transport.NodeID(i)},
			Addrs:  univ,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.nets = append(f.nets, n)
		e := newEndpoint(g, i, f.windows)
		e.castQ = make([][]byte, 1<<castRingBits)
		e.castFn = e.castNext
		if traced {
			e.tr = newEndpointTrace(e, g.trace, fleetSize, 1<<16)
		}
		f.eps = append(f.eps, e)
	}
	// Members are built on their dispatcher: frames from peers can
	// arrive the moment a handler is registered.
	for i, e := range f.eps {
		n := f.nets[i]
		f.onDispatcher(i, func() {
			e.m = catocs.NewMember(e.networkFor(n), nodes, catocs.ProcessID(e.rank), mcfg, e.deliverFunc())
		})
	}
	left := int64(warmCasts)
	if err := f.closedLoop(phaseWarm, outstanding, func() (int, bool) { left--; return noWindow, left < 0 }); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

func (f *fleet) close() {
	for _, n := range f.nets {
		n.Close()
	}
}

// onDispatcher runs fn on member i's dispatch goroutine and waits.
func (f *fleet) onDispatcher(i int, fn func()) {
	done := make(chan struct{})
	f.nets[i].Inject(func() { fn(); close(done) })
	<-done
}

// cast issues one cast by writer w, due now. Called only from the
// driver goroutine.
func (f *fleet) cast(w int, ph phase, window int) {
	f.attempted[ph]++
	k := f.nextCast
	p := make([]byte, f.spec.payload)
	copy(p[headerLen:], f.filler[int(k)%f.spec.payload:])
	putHeader(p, castHeader{cast: k, due: wallNow(), writer: w, phase: ph, window: window, wseq: f.wseq[w] + 1})
	if !f.eps[w].enqueueCast(p) {
		return
	}
	f.nextCast++
	f.wseq[w]++
	f.issued[ph]++
	f.g.done.arm(k)
	f.nets[w].Inject(f.eps[w].castFn)
}

var errStalled = errors.New("no cast completed for " + drainTimeout.String())

// noWindow tags a cast that belongs to no measurement window.
const noWindow = 255

// closedLoop keeps perMember casts per member in flight: a writer's
// next cast is issued when one of its casts has been delivered by all
// three members. next is asked once per completion for the window to
// tag the next cast with, or to stop; after it says stop the loop
// collects what is still in flight.
func (f *fleet) closedLoop(ph phase, perMember int, next func() (window int, stop bool)) error {
	inflight := 0
	for i := 0; i < perMember; i++ {
		for w := range f.eps {
			f.cast(w, ph, noWindow)
			inflight++
		}
	}
	stall := time.NewTimer(drainTimeout)
	defer stall.Stop()
	stopping := false
	for n := 0; inflight > 0; n++ {
		select {
		case w := <-f.g.tokens:
			inflight--
			if !stopping {
				window, stop := next()
				if stopping = stop; !stop {
					f.cast(w, ph, window)
					inflight++
				}
			}
			if n%256 == 0 {
				if !stall.Stop() {
					<-stall.C
				}
				stall.Reset(drainTimeout)
			}
		case <-stall.C:
			return errStalled
		}
	}
	return nil
}

// loopResult is one closed-loop phase's measurement: the phase after
// its discarded start, cut into windows.
type loopResult struct {
	casts      int64       // completed inside the windows
	deliveries int64       // over the whole phase, drain included
	use        usageDelta  // over the windows
	stats      netCounters // over the whole phase, drain included
	rates      []float64   // casts completed per second, per window
	cpuPerCast []float64   // process CPU ns per completed cast, per window
}

// measure runs a closed loop with perMember casts per member in flight
// for dur, measures the part after the first `discard` in f.windows
// equal windows, and drains.
func (f *fleet) measure(ph phase, perMember int, dur, discard time.Duration) (loopResult, error) {
	var res loopResult
	before := f.counters()
	start := time.Now()
	winLen := (dur - discard) / time.Duration(f.windows)
	var from usage
	var done, winBase int64
	var winStart, winCPU time.Duration
	window := noWindow
	err := f.closedLoop(ph, perMember, func() (int, bool) {
		done++
		if done%16 != 0 {
			return window, false
		}
		el := time.Since(start)
		if window == noWindow {
			if el >= discard {
				from = readUsage()
				window, winBase, winStart, winCPU = 0, done, el, from.cpu
			}
			return window, false
		}
		if el-winStart < winLen {
			return window, false
		}
		cpu := cpuTime()
		res.rates = append(res.rates, float64(done-winBase)/(el-winStart).Seconds())
		res.cpuPerCast = append(res.cpuPerCast, float64((cpu-winCPU).Nanoseconds())/float64(done-winBase))
		res.casts += done - winBase
		window, winBase, winStart, winCPU = window+1, done, el, cpu
		if window < f.windows {
			return window, false
		}
		res.use = readUsage().since(from)
		return noWindow, true
	})
	if err == nil {
		err = f.drain(ph)
	}
	res.stats = f.counters().minus(before)
	for _, e := range f.eps {
		res.deliveries += e.deliveries[ph].Load()
	}
	return res, err
}

// drain waits until every cast of the phase has been delivered
// everywhere and every member's unstable buffer has emptied, so the
// byte and CPU windows cover the acknowledgements those casts cost.
func (f *fleet) drain(ph phase) error {
	deadline := time.Now().Add(drainTimeout)
	for f.g.completed[ph].Load() < f.issued[ph] {
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d of %d casts complete after %v",
				f.g.completed[ph].Load(), f.attempted[ph], drainTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	for f.unstable() > 0 {
		if time.Now().After(deadline) {
			return nil // reported as stability.unstable_at_drain
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// unstable sums the members' unstable-buffer occupancy.
func (f *fleet) unstable() int {
	total := 0
	for i, e := range f.eps {
		f.onDispatcher(i, func() {
			if st := e.m.Stability(); st != nil {
				total += st.Unstable()
			}
		})
	}
	return total
}

// netCounters are the public transport counters read at phase
// boundaries, summed over the fleet.
type netCounters struct {
	bytesOut, framesOut, flushes uint64
	drops, reconnects            uint64
	ctrlBytes, lost              uint64
}

func (f *fleet) counters() netCounters {
	var c netCounters
	for _, n := range f.nets {
		ns := n.NetStats()
		c.bytesOut += ns.BytesOut
		c.framesOut += ns.FramesOut
		c.flushes += ns.Flushes
		c.drops += ns.QueueDrops + ns.MailboxDrops + ns.WriteLost + ns.DecodeErrors + ns.FrameErrors
		c.reconnects += ns.Reconnects
		st := n.Stats()
		c.ctrlBytes += st.CtrlBytes
		c.lost += st.Dropped
	}
	return c
}

func (c netCounters) minus(o netCounters) netCounters {
	return netCounters{
		bytesOut: c.bytesOut - o.bytesOut, framesOut: c.framesOut - o.framesOut, flushes: c.flushes - o.flushes,
		drops: c.drops - o.drops, reconnects: c.reconnects - o.reconnects,
		ctrlBytes: c.ctrlBytes - o.ctrlBytes, lost: c.lost - o.lost,
	}
}

// setSlot switches which aggregate set the members' spans land in,
// between phases, on each dispatcher.
func (f *fleet) setSlot(slot int) {
	for i, e := range f.eps {
		if e.tr != nil {
			f.onDispatcher(i, func() { e.tr.slot = slot })
		}
	}
}

// prober samples, every 10 ms, each dispatcher's queueing delay (time
// from Inject to the injected function running) and each outbound
// queue's depth, until stop is closed. Traced runs only.
type prober struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	outbound hist
}

func (f *fleet) startProber() *prober {
	p := &prober{stop: make(chan struct{})}
	probeFns := make([]func(), len(f.eps))
	for i, e := range f.eps {
		probeFns[i] = e.tr.probe
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			for i, n := range f.nets {
				if f.eps[i].tr.probeAt.CompareAndSwap(0, wallNow()) {
					n.Inject(probeFns[i])
				}
				for to := range f.nets {
					if to != i {
						msgs, _ := n.Outbound(transport.NodeID(to))
						p.outbound.record(int64(msgs))
					}
				}
			}
		}
	}()
	return p
}

func (p *prober) halt() {
	close(p.stop)
	p.wg.Wait()
}

// latency merges the members' due -> deliver histograms, window by
// window, each read on its dispatcher.
func (f *fleet) latency() []hist {
	lat := make([]hist, f.windows)
	for i, e := range f.eps {
		f.onDispatcher(i, func() {
			for w := range lat {
				lat[w].merge(&e.lat[w])
			}
		})
	}
	return lat
}

// windowQuantile is the median over windows of each window's
// q-quantile, with the samples behind it and the fewest samples any
// window has beyond that quantile.
func windowQuantile(wins []hist, q float64) (value float64, n, beyond int64) {
	qs := make([]float64, len(wins))
	beyond = -1
	for i := range wins {
		qs[i] = wins[i].quantile(q)
		n += wins[i].n
		if b := wins[i].beyond(q); beyond < 0 || b < beyond {
			beyond = b
		}
	}
	return median(qs), n, beyond
}

// judge reads the oracles on their dispatchers and closes the
// books.
func (f *fleet) judge() verdict {
	oracles := make([]*memberOracle, len(f.eps))
	for i, e := range f.eps {
		f.onDispatcher(i, func() { o := e.oracle; oracles[i] = &o })
	}
	total := f.spec.substrate == "abcast"
	return judge(oracles, f.wseq[:], total)
}

// runTCP is one run of a tcp-* workload.
func runTCP(name string, spec tcpSpec, opt options) (*result, error) {
	res := &result{workload: name, traced: opt.traced}
	if opt.traced {
		return runTCPTraced(res, spec, opt)
	}
	setups := 5
	if opt.smoke {
		setups = 2
	}
	var f *fleet
	var setupS []float64
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = newFleet(spec, opt, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer f.close()
	runtime.GC()

	phaseDur := time.Duration(opt.seconds / 2 * float64(time.Second))
	sat, err := f.measure(phaseSat, outstanding, phaseDur, phaseDur/8)
	if err != nil {
		return nil, fmt.Errorf("sat: %w", err)
	}
	light, lightErr := f.measure(phaseLight, 1, phaseDur, phaseDur/8)
	lat := f.latency()
	f.account(res, lightErr)
	p50, samples, _ := windowQuantile(lat, 0.5)
	p99, _, beyond := windowQuantile(lat, 0.99)
	if beyond < 10 {
		return nil, fmt.Errorf("light: a window has only %d latency samples beyond its p99", beyond)
	}

	windows := fmt.Sprintf("median of %d windows of %.2f s", f.windows, sat.use.wall.Seconds()/float64(f.windows))
	res.add("setup_s", median(setupS), int64(len(setupS)), "median set-up: listen, build members, dial all pairs, 3000-cast warm-up")
	res.add("casts_per_s", median(sat.rates), sat.casts,
		fmt.Sprintf("sat: closed loop, %d casts in flight per member, %s, %.2f of %d cores busy",
			outstanding, windows, sat.use.cpu.Seconds()/sat.use.wall.Seconds(), runtime.NumCPU()))
	res.add("deliver_p50_us", p50/1e3, samples, "light: closed loop, 1 cast in flight per member, issue -> deliver at each member, "+windows)
	res.add("deliver_p99_us", p99/1e3, samples, fmt.Sprintf("light, %s, each with >= %d samples beyond", windows, beyond))
	res.add("cpu_us_per_delivery", median(light.cpuPerCast)/fleetSize/1e3, fleetSize*light.casts,
		fmt.Sprintf("light: getrusage user+sys / deliveries, %s; %.2f of %d cores busy", windows, light.use.cpu.Seconds()/light.use.wall.Seconds(), runtime.NumCPU()))
	res.add("wire_bytes_per_delivery", float64(light.stats.bytesOut)/float64(light.deliveries), light.deliveries, "light: sum of NetStats().BytesOut / deliveries")
	res.notes = append(res.notes, fmt.Sprintf("light: %.0f casts/s", median(light.rates)))
	return res, nil
}

// phaseWindows is how many measurement windows each phase of a run
// this long is cut into: about one per second of the phase.
func phaseWindows(seconds float64) int {
	w := int(seconds / 2 * 7 / 8)
	if w < 1 {
		w = 1
	}
	if w > 32 {
		w = 32
	}
	return w
}

// account turns the oracle's verdict and the completion counts into
// the run's attempted/failed figures over the two measured phases.
func (f *fleet) account(res *result, runErr error) {
	v := f.judge()
	var refused int64
	for _, e := range f.eps {
		refused += e.refused.Load()
	}
	attempted := f.attempted[phaseSat] + f.attempted[phaseLight]
	incomplete := attempted - f.g.completed[phaseSat].Load() - f.g.completed[phaseLight].Load()
	res.attempted = attempted
	res.failed = incomplete + v.violations + refused + f.g.done.overrun.Load()
	if v.diverged && res.failed == 0 {
		res.failed = 1
	}
	if res.failed > attempted {
		res.failed = attempted
	}
	res.notes = append(res.notes, v.notes...)
	if runErr != nil {
		res.notes = append(res.notes, runErr.Error())
	}
	if unissued := attempted - f.issued[phaseSat] - f.issued[phaseLight]; refused+unissued > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d casts refused by Multicast, %d by a full cast queue", refused, unissued))
	}
	res.correct = res.failed == 0 && v.ok() && runErr == nil
}

// runTCPTraced is the traced run: a short saturation of a plain fleet
// (the tracing overhead's baseline), then both phases on a fleet whose
// members sit on the tracing decorator.
func runTCPTraced(res *result, spec tcpSpec, opt options) (*result, error) {
	plainDur := time.Duration(0.2 * opt.seconds * float64(time.Second))
	phaseDur := time.Duration(0.35 * opt.seconds * float64(time.Second))

	plain, err := newFleet(spec, opt, false)
	if err != nil {
		return nil, err
	}
	plainSat, err := plain.measure(phaseSat, outstanding, plainDur, plainDur/4)
	plain.close()
	if err != nil {
		return nil, fmt.Errorf("untraced sat: %w", err)
	}
	runtime.GC()

	f, err := newFleet(spec, opt, true)
	if err != nil {
		return nil, err
	}
	defer f.close()
	probe := f.startProber()
	sat, err := f.measure(phaseSat, outstanding, phaseDur, phaseDur/4)
	probe.halt()
	if err != nil {
		return nil, fmt.Errorf("traced sat: %w", err)
	}
	outboundSat := &probe.outbound

	f.setSlot(1)
	probe = f.startProber()
	light, lightErr := f.measure(phaseLight, 1, phaseDur, phaseDur/4)
	probe.halt()
	f.account(res, lightErr)

	var stab stabilityPeaks
	tt := &traceTotals{}
	for i, e := range f.eps {
		f.onDispatcher(i, func() { stab.observe(e); tt.fold(e) })
	}
	lat := &hist{}
	windows := f.latency()
	for i := range windows {
		lat.merge(&windows[i])
	}
	addSharedLayers(res, layerInputs{
		tt: tt, timerSlot: 1, deliveries: fleetSize * light.casts, use: light.use,
		gcPauseNs: sat.use.pauseNs + light.use.pauseNs, appPayload: spec.payload, stab: stab,
		plainRate: median(plainSat.rates), tracedRate: median(sat.rates),
		cpuUtil: plainSat.use.cpu.Seconds() / plainSat.use.wall.Seconds(),
	})

	// The chain: each timed delivery's latency is late + cast + transit
	// + holdback exactly; the cover compares the parts' medians with the
	// whole's.
	chain := tt.late.quantile(0.5) + tt.castToSend.quantile(0.5) + tt.transit.quantile(0.5) + tt.hold.quantile(0.5)
	res.add("driver.late_p50_us", tt.late.quantile(0.5)/1e3, tt.late.n, "cast issued by the driver -> Member.Multicast entered on the caster's dispatcher, light")
	res.add("driver.late_p99_us", tt.late.quantile(0.99)/1e3, tt.late.n, fmt.Sprintf("%d samples beyond", tt.late.beyond(0.99)))
	if p50 := lat.quantile(0.5); p50 > 0 {
		res.add("driver.chain_cover_pct", 100*chain/p50, lat.n,
			fmt.Sprintf("median late+cast+transit+holdback over median issue->deliver (%.1f us, traced)", p50/1e3))
	}
	res.add("multicast.cast_p50_us", tt.castToSend.quantile(0.5)/1e3, tt.castToSend.n, "Member.Multicast entered -> Send of this receiver's copy, light")
	send := tt.agg[0][spanSend]
	if send.n > 0 {
		res.add("tcpnet.send_ns", float64(send.total)/float64(send.n), send.n, "Net.Send: encode + enqueue, mean per call, saturated phase")
	}
	res.add("tcpnet.transit_p50_us", tt.transit.quantile(0.5)/1e3, tt.transit.n, "Send at the sender -> handler entry at the receiver, light")
	res.add("tcpnet.transit_p99_us", tt.transit.quantile(0.99)/1e3, tt.transit.n, fmt.Sprintf("%d samples beyond", tt.transit.beyond(0.99)))
	if sat.stats.flushes > 0 && sat.stats.framesOut > 0 {
		res.add("tcpnet.frames_per_flush", float64(sat.stats.framesOut)/float64(sat.stats.flushes), int64(sat.stats.flushes), "FramesOut/Flushes, saturated phase")
		res.add("tcpnet.bytes_per_frame", float64(sat.stats.bytesOut)/float64(sat.stats.framesOut), int64(sat.stats.framesOut), "BytesOut/FramesOut, saturated phase")
	}
	res.add("tcpnet.outbound_depth_p99", outboundSat.quantile(0.99), outboundSat.n, "Outbound() msgs per peer queue, probed every 10 ms, saturated phase")
	res.add("tcpnet.dispatch_wait_p99_us", tt.dispatchWait[1].quantile(0.99)/1e3, tt.dispatchWait[1].n, "Inject(f) -> f running, probed every 10 ms, light")
	life := f.counters()
	res.add("tcpnet.drops", float64(life.drops), 1, "queue + mailbox + write-lost + decode + frame errors over the fleet's life")
	res.add("tcpnet.reconnects", float64(life.reconnects), 1, "successful dials after the first")
	res.add("transport.ctrl_bytes_per_delivery", float64(light.stats.ctrlBytes)/float64(light.deliveries), light.deliveries, "Stats().CtrlBytes, light")
	res.add("transport.lost_msgs", float64(life.lost), 1, "Stats().Dropped over the fleet's life")
	res.notes = append(res.notes, fmt.Sprintf("sends by class (data, retrans, order, ctrl): sat %v light %v", tt.sends[0], tt.sends[1]))
	res.notes = append(res.notes, fmt.Sprintf("chain p99 us: late %.0f cast %.0f transit %.0f holdback %.0f",
		tt.late.quantile(0.99)/1e3, tt.castToSend.quantile(0.99)/1e3, tt.transit.quantile(0.99)/1e3, tt.hold.quantile(0.99)/1e3))
	if opt.traceFile != "" {
		if err := writeTraceFile(opt.traceFile, res.workload, opt.seed, tt); err != nil {
			return nil, err
		}
	}
	return res, nil
}
