package netharness

import (
	"fmt"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/pubsub"
	"catocs/internal/transport"
	"catocs/internal/transport/tcpnet"
	"catocs/internal/vclock"
	"catocs/internal/wal"
)

// SubstrateConfig maps a substrate name to the multicast configuration
// the chaos harness uses for it: "cbcast" is atomic causal broadcast,
// "abcast" the causally-consistent fixed-sequencer total order, both
// with stability tracking and loss recovery on — a real network drops
// real packets.
func SubstrateConfig(substrate string) (multicast.Config, error) {
	cfg := multicast.Config{Group: "fleet", Atomic: true}
	switch substrate {
	case "cbcast":
		cfg.Ordering = multicast.Causal
	case "abcast":
		cfg.Ordering = multicast.TotalCausal
	default:
		return cfg, fmt.Errorf("netharness: unknown substrate %q (want cbcast|abcast)", substrate)
	}
	return cfg, nil
}

// NodeConfig parameterises one fleet member process.
type NodeConfig struct {
	// ID is this process's fleet NodeID; its rank is ID's position in
	// the sorted key set of Nodes.
	ID transport.NodeID
	// Nodes maps every fleet member to its listen address.
	Nodes map[transport.NodeID]string
	// Workers maps loadgen bus endpoints to their listen addresses;
	// they are this node's pubsub peers for "done" echoes.
	Workers map[transport.NodeID]string

	Substrate  string // cbcast | abcast
	EpochNanos int64
	Queue      flowcontrol.Budget // tcpnet outbound budget override

	// Log, when non-nil, is this member's durable identity: every load
	// cast is written ahead of transmission, and Recovered (from
	// wal.OpenMemberLog on the same log) splices the member back into
	// the group's sequence space — send chain resumed at the stable
	// cast count, receive chains at the last LogChains checkpoint, the
	// unstable cast suffix re-multicast under its original sequence
	// numbers. This is the static-fleet analogue of the SimNet rejoin:
	// no view change exists to reset survivors' chains, so the WAL has
	// to carry them across the restart instead.
	Log       *wal.MemberLog
	Recovered wal.RecoveredMember

	Tracer   *obs.Tracer
	Registry *obs.Registry
}

// NodeSnapshot is a fleet node's observable state, serialised into the
// per-process stats files the E22 harness collects.
type NodeSnapshot struct {
	ID        int             `json:"id"`
	Rank      int             `json:"rank"`
	Substrate string          `json:"substrate"`
	Ingested  uint64          `json:"ingested"`  // load publications multicast
	Delivered uint64          `json:"delivered"` // ordered deliveries from the group
	Echoed    uint64          `json:"echoed"`    // own casts echoed back as "done"
	Replayed  uint64          `json:"replayed"`  // WAL casts re-multicast at startup
	Inc       uint32          `json:"inc"`       // WAL incarnation (0 = first life)
	Stats     transport.Stats `json:"transport"`
	NetStats  tcpnet.NetStats `json:"tcp"`
}

// FleetNode is one running group member process: a TCP transport
// hosting an ordered-multicast member and a pubsub endpoint on the
// same NodeID (demultiplexed by a transport.Mux). The bus ingests
// "load" publications from loadgen workers into Member.Multicast; when
// this member's own casts come back out of the total/causal order, it
// publishes them to its workers as "done" — so a worker's measured
// latency covers the full ordered-broadcast path.
type FleetNode struct {
	Net    *tcpnet.Net
	Member *multicast.Member
	Bus    *pubsub.Node

	cfg       NodeConfig
	rank      int
	ingested  uint64
	delivered uint64
	echoed    uint64
	replayed  uint64
}

// StartFleetNode builds the node and brings its listener up. All
// protocol construction happens on the transport's dispatch goroutine,
// because frames from already-running peers can arrive the moment the
// listener binds.
func StartFleetNode(cfg NodeConfig) (*FleetNode, error) {
	mcfg, err := SubstrateConfig(cfg.Substrate)
	if err != nil {
		return nil, err
	}
	mcfg.Tracer = cfg.Tracer
	listen, ok := cfg.Nodes[cfg.ID]
	if !ok {
		return nil, fmt.Errorf("netharness: node %d not present in fleet map", cfg.ID)
	}
	nodes := SortedIDs(cfg.Nodes)
	rank := -1
	for i, id := range nodes {
		if id == cfg.ID {
			rank = i
		}
	}
	net, err := tcpnet.New(tcpnet.Config{
		Listen:     listen,
		Local:      []transport.NodeID{cfg.ID},
		Addrs:      Merge(cfg.Nodes, cfg.Workers),
		EpochNanos: cfg.EpochNanos,
		Queue:      cfg.Queue,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Tracer != nil || cfg.Registry != nil {
		net.Instrument(cfg.Tracer, cfg.Registry, cfg.Substrate)
	}

	f := &FleetNode{Net: net, cfg: cfg, rank: rank}
	ready := make(chan struct{})
	net.Inject(func() {
		defer close(ready)
		mux := transport.NewMux(net)
		f.Member = multicast.NewMember(mux, nodes, vclock.ProcessID(rank), mcfg,
			func(d multicast.Delivered) {
				f.delivered++
				payload, ok := d.Payload.([]byte)
				if !ok {
					return
				}
				if int(d.ID.Sender) == rank {
					f.echoed++
					f.Bus.Publish("done", payload)
				}
			})
		f.Bus = pubsub.NewNode(mux, cfg.ID, SortedIDs(cfg.Workers))
		f.Bus.Subscribe("load", pubsub.Latest, func(ev pubsub.Event) {
			value, ok := ev.Value.([]byte)
			if !ok {
				return
			}
			f.ingested++
			if cfg.Log != nil {
				cfg.Log.LogCast(value) // write-ahead: replayable after a crash
			}
			f.Member.Multicast(value, len(value))
		})
		if cfg.Log != nil {
			// Splice back into the sequence space before any traffic:
			// resume the send chain at the stable prefix, the receive
			// chains at the last checkpoint, then re-multicast the
			// unstable suffix — it gets its pre-crash sequence numbers
			// back, so survivors dedup or deliver per copy as needed.
			stable := cfg.Log.CastCount() - uint64(len(cfg.Recovered.Casts))
			f.Member.ResumeChains(stable, len(cfg.Recovered.Casts), cfg.Recovered.AckClock, cfg.Recovered.TotalFrontier)
			for _, p := range cfg.Recovered.Casts {
				f.replayed++
				f.Member.Multicast(p, len(p))
			}
		}
	})
	<-ready
	return f, nil
}

// Snapshot reads the node's counters from the dispatch context.
func (f *FleetNode) Snapshot() NodeSnapshot {
	snap := NodeSnapshot{ID: int(f.cfg.ID), Rank: f.rank, Substrate: f.cfg.Substrate}
	done := make(chan struct{})
	if f.cfg.Log != nil {
		snap.Replayed = f.replayed
		snap.Inc = f.cfg.Log.Incarnation()
	}
	f.Net.Inject(func() {
		snap.Ingested = f.ingested
		snap.Delivered = f.delivered
		snap.Echoed = f.echoed
		close(done)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		// A wedged dispatcher still yields transport counters below.
	}
	snap.Stats = f.Net.Stats()
	snap.NetStats = f.Net.NetStats()
	return snap
}

// Persist checkpoints the member's recovery state into the WAL (no-op
// without one): the receive-chain clocks always and, when clean, a
// stability mark retiring every logged cast from the replay set. Clean
// is the operator-intended exit (SIGINT, -run elapsing) — the next
// start replays nothing. An unclean persist (the SIGTERM recovery
// drill) deliberately leaves the unstable suffix on the log, so the
// next start exercises the replay path exactly as a SimNet rejoin
// would.
func (f *FleetNode) Persist(clean bool) {
	if f.cfg.Log == nil {
		return
	}
	done := make(chan struct{})
	f.Net.Inject(func() {
		defer close(done)
		ack, totalFrontier := f.Member.CheckpointChains()
		f.cfg.Log.LogChains(ack, totalFrontier)
		if clean {
			f.cfg.Log.LogStable(f.cfg.Log.CastCount())
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		// A wedged dispatcher loses the checkpoint; replay covers it.
	}
}

// Close tears the node down.
func (f *FleetNode) Close() { f.Net.Close() }
