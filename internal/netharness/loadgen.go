package netharness

import (
	"fmt"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/metrics"
	"catocs/internal/pubsub"
	"catocs/internal/transport"
	"catocs/internal/transport/tcpnet"
)

// LoadConfig drives one loadgen worker: a bus endpoint hosting Clients
// virtual clients that publish "load" messages to its ingress fleet
// node at an aggregate open-loop Rate, and measures the wall-clock
// round trip until the fleet's ordered multicast echoes each message
// back as a "done" publication.
type LoadConfig struct {
	Worker  transport.NodeID
	Listen  string
	Ingress transport.NodeID
	// Addrs is the transport universe; must cover Worker and Ingress.
	Addrs map[transport.NodeID]string

	Clients  int           // virtual clients simulated by this worker
	Rate     float64       // aggregate publishes/sec across all clients
	MsgSize  int           // payload bytes (floored at SampleHeaderLen)
	Duration time.Duration // send phase length

	EpochNanos int64              // shared Now() epoch for the fleet
	Queue      flowcontrol.Budget // outbound queue override (zero = default)
}

// drainTimeout bounds the post-send wait for in-flight echoes: the
// drain gives up after this long without progress.
const drainTimeout = 2 * time.Second

// LoadResult is one worker's measurements.
type LoadResult struct {
	Sent     uint64
	Done     uint64
	Stale    uint64            // done events superseded under Latest-mode delivery
	Paused   uint64            // pacing ticks skipped while the ingress queue was backpressured
	Hist     metrics.Histogram // round-trip latencies, seconds
	Elapsed  time.Duration
	Stats    transport.Stats
	NetStats tcpnet.NetStats
}

// RunLoad runs one worker to completion. Clients are simulated, not
// goroutines: each is a sequence counter (8 bytes), so one worker
// hosts millions; the pacing loop runs on the transport's dispatch
// goroutine and spreads Rate over fixed ticks, skipping ticks while
// the transport reports backpressure toward the ingress node — the
// admission-window reaction to a slow fleet, instead of blind shedding.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("netharness: Clients must be positive")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("netharness: Rate must be positive")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("netharness: Duration must be positive")
	}
	net, err := tcpnet.New(tcpnet.Config{
		Listen:     cfg.Listen,
		Local:      []transport.NodeID{cfg.Worker},
		Addrs:      cfg.Addrs,
		EpochNanos: cfg.EpochNanos,
		Queue:      cfg.Queue,
	})
	if err != nil {
		return nil, err
	}
	defer net.Close()

	res := &LoadResult{}
	seqs := make([]uint64, cfg.Clients) // the "millions of clients"
	cursor := 0
	worker := uint32(cfg.Worker)
	sendDone := make(chan struct{})

	// Tick geometry: at least 1ms per tick, at least one message per
	// tick. Pacing is against the wall clock, not tick counts: each
	// tick sends whatever the elapsed-time target says is owed, so
	// timer-scheduling overhead (After re-arms after the handler runs)
	// does not stretch the effective period and erode the rate. The
	// catch-up after a slow tick is bounded to a few ticks' worth so a
	// stall ends in a ramp, not a thundering burst.
	tick := time.Millisecond
	if perTick := cfg.Rate * tick.Seconds(); perTick < 1 {
		tick = time.Duration(float64(time.Second) / cfg.Rate)
	}
	burst := 4*cfg.Rate*tick.Seconds() + 1

	start := time.Now()
	var sched float64        // messages owed so far under the wall-clock target
	var publish func([]byte) // bound to the bus inside the dispatch context
	var pace func()
	pace = func() {
		elapsed := time.Since(start)
		if elapsed >= cfg.Duration {
			close(sendDone)
			return
		}
		target := cfg.Rate * elapsed.Seconds()
		if net.Backpressured(cfg.Ingress) {
			res.Paused++
			sched = target // forgive the deficit: skipped, not deferred
		} else {
			if target-sched > burst {
				sched = target - burst
			}
			for ; sched+1 <= target; sched++ {
				client := cursor
				cursor = (cursor + 1) % cfg.Clients
				seqs[client]++
				payload := EncodeSample(Sample{
					Worker:   worker,
					Client:   uint64(client),
					Seq:      seqs[client],
					SentNano: time.Now().UnixNano(),
				}, cfg.MsgSize)
				publish(payload)
				res.Sent++
			}
		}
		net.After(tick, pace)
	}

	var bus *pubsub.Node
	ready := make(chan struct{})
	net.Inject(func() {
		bus = pubsub.NewNode(net, cfg.Worker, []transport.NodeID{cfg.Ingress})
		bus.Subscribe("done", pubsub.Latest, func(ev pubsub.Event) {
			value, ok := ev.Value.([]byte)
			if !ok {
				return
			}
			s, ok := DecodeSample(value)
			if !ok || s.Worker != worker {
				return
			}
			res.Done++
			res.Hist.ObserveDuration(s.Age(time.Now()))
		})
		publish = func(p []byte) { bus.Publish("load", p) }
		net.After(tick, pace)
		close(ready)
	})
	<-ready
	<-sendDone

	// Drain: wait for in-flight echoes until progress stops.
	lastDone := uint64(0)
	lastProgress := time.Now()
	for {
		var sent, done uint64
		probe := make(chan struct{})
		net.Inject(func() { sent, done = res.Sent, res.Done; close(probe) })
		<-probe
		if done >= sent {
			break
		}
		if done > lastDone {
			lastDone = done
			lastProgress = time.Now()
		} else if time.Since(lastProgress) > drainTimeout {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	final := make(chan struct{})
	net.Inject(func() {
		res.Elapsed = time.Since(start)
		res.Stale = bus.Stale.Value()
		close(final)
	})
	<-final
	res.Stats = net.Stats()
	res.NetStats = net.NetStats()
	return res, nil
}
