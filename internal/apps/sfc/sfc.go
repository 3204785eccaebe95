// Package sfc reproduces Figure 2 of the paper: the shop-floor-control
// hidden-channel anomaly.
//
// Two SFC instances serve client requests against a common database.
// Client A asks instance 1 to start processing lot A; client B asks
// instance 2 to stop it shortly after. The database serializes the two
// updates (start, then stop — so the lot ends stopped), but each
// instance multicasts its result independently. The database is a
// hidden channel: the communication substrate sees two concurrent
// multicasts from different senders, so causal (and total) multicast
// is free to deliver "stop" before "start" at the observing client,
// which then believes the lot is running.
//
// The state-level fix is on the same run: the database hands each
// update a version number, the multicast carries it, and the observer
// applies updates in version order (latest wins) — anomaly gone,
// because the version is a state clock recording the true order the
// hidden channel imposed.
package sfc

import (
	"fmt"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/sim"
	"catocs/internal/state"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// StatusMsg is an SFC instance's broadcast of a lot-state change.
type StatusMsg struct {
	Lot     string
	State   string
	Version uint64 // state clock from the shared database
}

// ApproxSize implements transport.Sizer.
func (StatusMsg) ApproxSize() int { return 48 }

// Config parameterizes a scenario run.
type Config struct {
	Seed int64
	// Ordering for the broadcast group (Causal reproduces the figure;
	// TotalSeq shows the same anomaly persists under total order).
	Ordering multicast.Ordering
	// ProcessingDelay1 is instance 1's delay between the DB update and
	// its broadcast (the scheduling delay that exposes the anomaly).
	ProcessingDelay1 time.Duration
	// RequestGap is the time between the start and stop requests.
	RequestGap time.Duration
	// Jitter is network jitter (for randomized trials).
	Jitter time.Duration
}

// DefaultConfig reproduces the figure deterministically.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Ordering:         multicast.Causal,
		ProcessingDelay1: 20 * time.Millisecond,
		RequestGap:       5 * time.Millisecond,
	}
}

// Result reports one run.
type Result struct {
	// Trace records the run, one node per diagram column in the order
	// ClientA, SFC1, DB, SFC2, ClientB.
	Trace *obs.Tracer
	// TrueFinal is the lot state in the shared database.
	TrueFinal string
	// RawFinal is observer B's belief applying broadcasts in delivery
	// order.
	RawFinal string
	// VersionedFinal is B's belief applying broadcasts in version
	// (state-clock) order.
	VersionedFinal string
	// AnomalyRaw is true when delivery order misled the observer.
	AnomalyRaw bool
	// AnomalyVersioned is true when the versioned observer is misled
	// (expected always false).
	AnomalyVersioned bool
}

// Run executes the scenario.
func Run(cfg Config) Result {
	k := sim.NewKernel(cfg.Seed)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: 2 * time.Millisecond, Jitter: cfg.Jitter})
	const clientA, dbCol, clientB = 0, 2, 4
	tr := obs.NewTracer()
	for i, col := range []string{"ClientA", "SFC1", "DB", "SFC2", "ClientB"} {
		tr.SetNodeLabel(i, col)
	}
	msgRef := func(name string) obs.MsgRef { return obs.MsgRef{Sender: -1, Label: name} }

	db := state.NewStore()
	const lot = "lotA"

	// Group: SFC1 (rank 0), SFC2 (rank 1), observer B (rank 2).
	nodes := []transport.NodeID{0, 1, 2}
	rawView := ""
	versioned := state.NewReorderer()
	versionedView := ""
	members := multicast.NewGroup(net, nodes, multicast.Config{Group: "sfc", Ordering: cfg.Ordering},
		func(rank vclock.ProcessID) multicast.DeliverFunc {
			if rank != 2 {
				return nil
			}
			return func(d multicast.Delivered) {
				msg := d.Payload.(StatusMsg)
				tr.Deliver(k.Now(), clientB, msgRef(fmt.Sprintf("%q", msg.State)),
					fmt.Sprintf("%q received by B (db version %d)", msg.State, msg.Version))
				rawView = msg.State
				for _, v := range versioned.Submit(msg.Version, msg.State) {
					versionedView = v.(string)
				}
			}
		})

	// handleRequest models an SFC instance: update the shared DB (the
	// hidden channel), then broadcast the result after a processing
	// delay.
	handleRequest := func(instance int, newState string, procDelay time.Duration) {
		col := 1 + 2*instance // SFC1 or SFC2
		tr.Mark(k.Now(), col, fmt.Sprintf("%q request (& reply)", newState))
		ver := db.Put(lot, newState)
		tr.Mark(k.Now(), dbCol, fmt.Sprintf("db: %s=%s #%d", lot, newState, ver.Seq))
		k.After(procDelay, func() {
			tr.Send(k.Now(), col, msgRef(fmt.Sprintf("%q", newState)), fmt.Sprintf("%q broadcast", newState))
			members[instance].Multicast(StatusMsg{Lot: lot, State: newState, Version: ver.Seq}, 32)
		})
	}

	// Client A -> instance 1: start. Client B -> instance 2: stop,
	// RequestGap later. Requests travel outside the substrate (direct
	// calls), as in the figure's dashed lines.
	k.At(0, func() {
		tr.Send(k.Now(), clientA, msgRef("start"), "Start request to SFC1")
		handleRequest(0, "started", cfg.ProcessingDelay1)
	})
	k.At(cfg.RequestGap, func() {
		tr.Send(k.Now(), clientB, msgRef("stop"), "Stop request to SFC2")
		handleRequest(1, "stopped", 0)
	})

	k.Run()
	trueFinal, _, _ := db.Get(lot)
	return Result{
		Trace:            tr,
		TrueFinal:        trueFinal.(string),
		RawFinal:         rawView,
		VersionedFinal:   versionedView,
		AnomalyRaw:       rawView != trueFinal,
		AnomalyVersioned: versionedView != trueFinal,
	}
}

// Trials runs n randomized trials (jittered network, randomized
// processing delay) and returns how many misled the raw observer and
// how many misled the versioned observer.
func Trials(n int, baseSeed int64, ordering multicast.Ordering) (rawAnomalies, versionedAnomalies int) {
	for i := 0; i < n; i++ {
		seedKernel := sim.NewKernel(baseSeed + int64(i))
		delay := time.Duration(seedKernel.Rand().Intn(30)) * time.Millisecond
		cfg := Config{
			Seed:             baseSeed + int64(i),
			Ordering:         ordering,
			ProcessingDelay1: delay,
			RequestGap:       5 * time.Millisecond,
			Jitter:           8 * time.Millisecond,
		}
		r := Run(cfg)
		if r.AnomalyRaw {
			rawAnomalies++
		}
		if r.AnomalyVersioned {
			versionedAnomalies++
		}
	}
	return rawAnomalies, versionedAnomalies
}
