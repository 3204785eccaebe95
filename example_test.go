package catocs_test

// Runnable documentation examples for the public API. Each runs under
// `go test` with deterministic output — the simulation kernel makes
// distributed executions reproducible enough to assert byte-for-byte.

import (
	"fmt"
	"time"

	"catocs"
	"catocs/internal/detect"
)

// A causal process group: the reply can never overtake the question.
func ExampleNewGroup() {
	sim := catocs.NewSimulation(42, catocs.LinkConfig{BaseDelay: 2 * time.Millisecond})
	nodes := []catocs.NodeID{0, 1, 2}
	var members []*catocs.Member
	members = catocs.NewGroup(sim.Mux, nodes,
		catocs.GroupConfig{Group: "demo", Ordering: catocs.Causal},
		func(rank catocs.ProcessID) catocs.DeliverFunc {
			return func(d catocs.Delivered) {
				if rank == 2 {
					fmt.Printf("member 2 delivered %v\n", d.Payload)
				}
				if rank == 1 && d.Payload == "question" {
					members[1].Multicast("answer", 6)
				}
			}
		})
	members[0].Multicast("question", 8)
	sim.Run()
	// Output:
	// member 2 delivered question
	// member 2 delivered answer
}

// Prescriptive ordering: the receiver restores order from state clocks,
// no ordered transport needed.
func ExampleNewReorderer() {
	r := catocs.NewReorderer()
	for _, v := range r.Submit(2, "second") {
		fmt.Println(v)
	}
	for _, v := range r.Submit(1, "first") {
		fmt.Println(v)
	}
	// Output:
	// first
	// second
}

// The order-preserving dependency cache: derived data is current only
// while its base has not advanced (the §4.1 trading check).
func ExampleNewCache() {
	c := catocs.NewCache()
	c.Apply(catocs.CacheUpdate{Object: "opt", Version: 1, Value: 25.5})
	c.Apply(catocs.CacheUpdate{Object: "theo", Version: 1, Value: 25.75,
		Deps: []catocs.Version{{Object: "opt", Seq: 1}}})
	fmt.Println("theo current:", c.Current("theo"))
	c.Apply(catocs.CacheUpdate{Object: "opt", Version: 2, Value: 26.0})
	fmt.Println("theo current after base tick:", c.Current("theo"))
	// Output:
	// theo current: true
	// theo current after base tick: false
}

// Two-phase commit: any participant can refuse, and the group aborts
// together — the capability ordered delivery lacks.
func ExampleNewTxCoordinator() {
	sim := catocs.NewSimulation(1, catocs.LinkConfig{BaseDelay: time.Millisecond})
	coord := catocs.NewTxCoordinator(sim.Net, 100)
	catocs.NewTxParticipant(sim.Net, 1, catocs.NewStore())
	p2 := catocs.NewTxParticipant(sim.Net, 2, catocs.NewStore())
	p2.Refuse = func(catocs.TxID, []catocs.TxWrite) bool { return true } // out of space
	coord.Run(map[catocs.NodeID][]catocs.TxWrite{
		1: {{Key: "k", Value: 1}},
		2: {{Key: "k", Value: 1}},
	}, func(o catocs.TxOutcome) {
		fmt.Printf("committed=%v refusals=%d\n", o.Committed, o.VotesNo)
	})
	sim.Run()
	// Output:
	// committed=false refusals=1
}

// The wait-for graph detects a distributed deadlock from merged
// periodic reports — no causal multicast anywhere.
func ExampleNewDeadlockMonitor() {
	mon := catocs.NewDeadlockMonitor()
	a15 := catocs.Instance{Proc: "A", ID: 15}
	b37 := catocs.Instance{Proc: "B", ID: 37}
	mon.Observe(catocs.WaitReport{Proc: "A", Seq: 1,
		Edges: []catocs.WaitEdge{{From: a15, To: b37}}})
	mon.Observe(catocs.WaitReport{Proc: "B", Seq: 1,
		Edges: []catocs.WaitEdge{{From: b37, To: a15}}})
	fmt.Println(mon.Deadlock())
	// Output:
	// [A15 B37]
}

// Virtually synchronous membership: node 3 crashes, the survivors flush
// and install a three-member view, then node 9 joins through the same
// protocol and its first multicast reaches every member of the new view.
func ExampleNewJoiner() {
	sim := catocs.NewSimulation(3, catocs.LinkConfig{BaseDelay: 2 * time.Millisecond})
	cfg := catocs.GroupConfig{Group: "demo", Ordering: catocs.Causal, Atomic: true}
	now := func() time.Duration { return sim.Kernel.Now().Round(time.Millisecond) }

	members := catocs.NewGroup(sim.Mux, []catocs.NodeID{0, 1, 2, 3}, cfg,
		func(rank catocs.ProcessID) catocs.DeliverFunc {
			return func(d catocs.Delivered) {
				fmt.Printf("%v node %d delivered %q\n", now(), rank, d.Payload)
			}
		})
	monitors := make([]*catocs.Monitor, len(members))
	for i, m := range members {
		monitors[i] = catocs.NewMonitor(sim.Mux, m, "demo", catocs.MonitorConfig{})
		monitors[i].OnView = func(epoch uint64, view []catocs.NodeID) {
			fmt.Printf("%v node %d installed view epoch=%d members=%v\n", now(), m.Node(), epoch, view)
		}
		monitors[i].Start()
	}
	sim.Kernel.At(10*time.Millisecond, func() { members[0].Multicast("hello", 8) })
	sim.Kernel.At(60*time.Millisecond, func() {
		fmt.Printf("%v node 3 crashes\n", now())
		sim.Net.Crash(3)
		monitors[3].Stop()
		members[3].Close()
	})

	joiner := catocs.NewJoiner(sim.Mux, 9, 0, "demo", cfg, func(d catocs.Delivered) {
		fmt.Printf("%v node 9 delivered %q\n", now(), d.Payload)
	})
	joiner.OnJoined = func(m *catocs.Member) {
		fmt.Printf("%v node 9 joined epoch=%d rank=%d view=%v\n", now(), m.Epoch(), m.Rank(), m.ViewNodes())
		catocs.NewMonitor(sim.Mux, m, "demo", catocs.MonitorConfig{}).Start()
		sim.Kernel.After(20*time.Millisecond, func() { m.Multicast("greetings from node 9", 8) })
	}
	sim.Kernel.At(400*time.Millisecond, func() {
		fmt.Printf("%v node 9 asks to join\n", now())
		joiner.Start()
	})
	sim.RunUntil(800 * time.Millisecond)
	// Output:
	// 12ms node 0 delivered "hello"
	// 12ms node 1 delivered "hello"
	// 12ms node 2 delivered "hello"
	// 12ms node 3 delivered "hello"
	// 60ms node 3 crashes
	// 108ms node 0 installed view epoch=1 members=[0 1 2]
	// 110ms node 1 installed view epoch=1 members=[0 1 2]
	// 110ms node 2 installed view epoch=1 members=[0 1 2]
	// 400ms node 9 asks to join
	// 410ms node 0 installed view epoch=2 members=[0 1 2 9]
	// 412ms node 1 installed view epoch=2 members=[0 1 2 9]
	// 412ms node 2 installed view epoch=2 members=[0 1 2 9]
	// 412ms node 9 joined epoch=2 rank=3 view=[0 1 2 9]
	// 434ms node 0 delivered "greetings from node 9"
	// 434ms node 1 delivered "greetings from node 9"
	// 434ms node 2 delivered "greetings from node 9"
	// 434ms node 9 delivered "greetings from node 9"
}

// A Chandy-Lamport consistent cut (§4.2) taken in the middle of a storm
// of transfers, by a protocol that runs only when a snapshot is wanted:
// recorded states plus recorded in-flight amounts add up to the money
// that exists.
func ExampleNewSnapProcess() {
	const procs, initial = 5, 1000
	sim := catocs.NewSimulation(7, catocs.LinkConfig{BaseDelay: time.Millisecond, Jitter: 5 * time.Millisecond})
	ps := make([]*catocs.SnapProcess, procs)
	var snaps []catocs.SnapLocal
	for i := range ps {
		var peers []catocs.NodeID
		for j := 0; j < procs; j++ {
			if j != i {
				peers = append(peers, catocs.NodeID(j))
			}
		}
		ps[i] = catocs.NewSnapProcess(sim.Net, catocs.NodeID(i), peers, initial)
		ps[i].OnComplete = func(s catocs.SnapLocal) { snaps = append(snaps, s) }
	}

	rng := sim.Kernel.Rand()
	for i := 0; i < 300; i++ {
		at := time.Duration(rng.Intn(100)) * time.Millisecond
		from, to := rng.Intn(procs), rng.Intn(procs)
		amount := int64(rng.Intn(80))
		if from != to {
			sim.Kernel.At(at, func() { ps[from].Send(catocs.NodeID(to), amount) })
		}
	}
	sim.Kernel.At(50*time.Millisecond, func() { ps[0].StartSnapshot(1) })
	sim.Run()

	detect.SortSnaps(snaps)
	for _, s := range snaps {
		var inflight int64
		for _, amount := range s.Channel {
			inflight += amount
		}
		fmt.Printf("process %d: state=%4d in-flight recorded=%3d\n", s.Node, s.State, inflight)
	}
	total := detect.GlobalTotal(snaps)
	fmt.Printf("snapshot total = %d, true total = %d -> consistent cut: %v\n",
		total, procs*initial, total == procs*initial)
	var live int64
	for _, p := range ps {
		live += p.Money()
	}
	fmt.Println("live total after the storm =", live)
	// Output:
	// process 0: state= 457 in-flight recorded=197
	// process 1: state= 869 in-flight recorded=  0
	// process 2: state=1050 in-flight recorded=  0
	// process 3: state=1185 in-flight recorded=  1
	// process 4: state=1241 in-flight recorded=  0
	// snapshot total = 5000, true total = 5000 -> consistent cut: true
	// live total after the storm = 5000
}

// The §4.1 trading floor on the information bus instead of ordered
// multicast: the theoretical price carries its base price's sequence
// number in-band, the monitor displays only dependency-current pairs
// (tick 5 overtakes the theoretical price computed from tick 4, which
// is filtered), and a late monitor synchronizes from publisher caches
// instead of replaying communication history.
func ExampleNewBus() {
	type theoPrice struct {
		Value   float64
		BaseSeq uint64
	}
	sim := catocs.NewSimulation(7, catocs.LinkConfig{BaseDelay: 2 * time.Millisecond, Jitter: 8 * time.Millisecond})
	now := func() time.Duration { return sim.Kernel.Now().Round(time.Millisecond) }
	pricer := catocs.NewBus(sim.Net, 0, []catocs.NodeID{1, 2, 3})
	computer := catocs.NewBus(sim.Net, 1, []catocs.NodeID{0, 2, 3})
	monitor := catocs.NewBus(sim.Net, 2, []catocs.NodeID{0, 1, 3})
	late := catocs.NewBus(sim.Net, 3, []catocs.NodeID{0, 1, 2})

	computer.Subscribe("prices.OPT", catocs.BusLatest, func(e catocs.BusEvent) {
		computer.Publish("theo.OPT", theoPrice{Value: e.Value.(float64) + 0.25, BaseSeq: e.Seq})
	})
	var optSeq uint64
	var optVal float64
	displayed, filtered := 0, 0
	monitor.Subscribe("prices.OPT", catocs.BusLatest, func(e catocs.BusEvent) {
		optSeq, optVal = e.Seq, e.Value.(float64)
	})
	monitor.Subscribe("theo.OPT", catocs.BusLatest, func(e catocs.BusEvent) {
		th := e.Value.(theoPrice)
		if th.BaseSeq < optSeq {
			filtered++ // a stale pairing: keep the previous consistent display
			return
		}
		displayed++
		fmt.Printf("%v display: option %.2f / theoretical %.2f (base #%d)\n", now(), optVal, th.Value, th.BaseSeq)
	})

	for i := 0; i < 6; i++ {
		price := 25.50 + 0.50*float64(i)
		sim.Kernel.At(time.Duration(i)*5*time.Millisecond, func() {
			fmt.Printf("%v tick: option -> %.2f\n", now(), price)
			pricer.Publish("prices.OPT", price)
		})
	}
	sim.Run()
	fmt.Printf("%d consistent displays, %d stale pairings filtered\n", displayed, filtered)

	got := map[string]any{}
	late.Subscribe("prices.>", catocs.BusLatest, func(e catocs.BusEvent) { got[e.Subject] = e.Value })
	late.Subscribe("theo.>", catocs.BusLatest, func(e catocs.BusEvent) { got[e.Subject] = e.Value })
	late.Sync(">")
	sim.Run()
	fmt.Println("late monitor synced:", got)
	// Output:
	// 0s tick: option -> 25.50
	// 5ms tick: option -> 26.00
	// 9ms display: option 25.50 / theoretical 25.75 (base #1)
	// 10ms tick: option -> 26.50
	// 15ms display: option 26.00 / theoretical 26.25 (base #2)
	// 15ms tick: option -> 27.00
	// 20ms tick: option -> 27.50
	// 20ms display: option 26.50 / theoretical 26.75 (base #3)
	// 25ms tick: option -> 28.00
	// 29ms display: option 27.50 / theoretical 27.75 (base #5)
	// 32ms display: option 28.00 / theoretical 28.25 (base #6)
	// 5 consistent displays, 1 stale pairings filtered
	// late monitor synced: map[prices.OPT:28 theo.OPT:{28.25 6}]
}
