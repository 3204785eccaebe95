// Package catocs is a from-scratch implementation and experimental
// critique harness for causally and totally ordered communication
// support (CATOCS), reproducing Cheriton & Skeen, "Understanding the
// Limitations of Causally and Totally Ordered Communication"
// (SOSP 1993).
//
// The package exposes two toolkits and the machinery to compare them:
//
//   - The CATOCS stack: process groups with FIFO, causal
//     (CBCAST-style), and totally ordered (fixed-sequencer, plain or
//     causally consistent) multicast; atomic delivery with unstable-message
//     buffering, stability tracking, and NACK retransmission; heartbeat
//     failure detection and virtually synchronous view changes.
//   - The state-level alternatives the paper advocates: versioned
//     object stores, prescriptive (receiver-side) ordering, an
//     order-preserving dependency cache, strict-2PL + two-phase-commit
//     and optimistic transactions, consistent snapshots, instance-
//     granular deadlock detection, and temporal-precedence real-time
//     monitors.
//
// Everything runs over a pluggable transport: a deterministic
// discrete-event simulation (bit-reproducible under a seed, used by
// every experiment) or a live goroutine network. The experiment
// harness in internal/experiments reproduces each of the paper's
// figures and quantitative claims; see DESIGN.md and EXPERIMENTS.md.
//
// # Quick start
//
//	sim := catocs.NewSimulation(42, catocs.LinkConfig{
//		BaseDelay: 2 * time.Millisecond,
//		Jitter:    5 * time.Millisecond,
//	})
//	nodes := []catocs.NodeID{0, 1, 2}
//	members := catocs.NewGroup(sim.Mux, nodes,
//		catocs.GroupConfig{Group: "demo", Ordering: catocs.Causal},
//		func(rank catocs.ProcessID) catocs.DeliverFunc {
//			return func(d catocs.Delivered) {
//				fmt.Printf("member %d delivered %v\n", rank, d.Payload)
//			}
//		})
//	members[0].Multicast("hello", 5)
//	sim.Kernel.Run()
//
// The same group code runs on a live network via NewLiveNet.
package catocs

import (
	"time"

	"catocs/internal/detect"
	"catocs/internal/group"
	"catocs/internal/multicast"
	"catocs/internal/nameservice"
	"catocs/internal/pubsub"
	"catocs/internal/realtime"
	"catocs/internal/rpc"
	"catocs/internal/sim"
	"catocs/internal/state"
	"catocs/internal/transact"
	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wal"
)

// ---- Transport layer ----------------------------------------------------

// NodeID addresses an endpoint on a network.
type NodeID = transport.NodeID

// LinkConfig models a link: base delay, uniform jitter, loss and
// duplication probabilities.
type LinkConfig = transport.LinkConfig

// Network is the substrate interface all protocols run over.
type Network = transport.Network

// Mux fans one node's traffic out to several protocol endpoints.
type Mux = transport.Mux

// NewMux wraps a network for multi-protocol nodes.
func NewMux(net Network) *Mux { return transport.NewMux(net) }

// LiveNet is a goroutine-backed network with wall-clock delays.
type LiveNet = transport.LiveNet

// NewLiveNet builds a live network with the given default link model
// and a seed for its jitter/loss draws.
func NewLiveNet(def LinkConfig, seed int64) *LiveNet { return transport.NewLiveNet(def, seed) }

// Simulation bundles a deterministic kernel, its simulated network,
// and a mux, the standard harness for experiments and tests.
type Simulation struct {
	Kernel *sim.Kernel
	Net    *transport.SimNet
	Mux    *transport.Mux
}

// NewSimulation builds a simulated world. Identical seeds and
// workloads replay identically.
func NewSimulation(seed int64, def LinkConfig) *Simulation {
	k := sim.NewKernel(seed)
	n := transport.NewSimNet(k, def)
	return &Simulation{Kernel: k, Net: n, Mux: transport.NewMux(n)}
}

// Run drains the simulation.
func (s *Simulation) Run() { s.Kernel.Run() }

// RunUntil drains events up to the virtual deadline.
func (s *Simulation) RunUntil(d time.Duration) { s.Kernel.RunUntil(d) }

// ---- Logical clocks -----------------------------------------------------

// ProcessID is a dense group-member rank.
type ProcessID = vclock.ProcessID

// VC is a vector clock.
type VC = vclock.VC

// NewVC returns a zeroed vector clock for n processes.
func NewVC(n int) VC { return vclock.New(n) }

// Version is a state-level logical clock: (object, version) — the
// paper's preferred "clock ticks on the state".
type Version = vclock.Version

// ---- The CATOCS stack ---------------------------------------------------

// Ordering selects a group's delivery discipline.
type Ordering = multicast.Ordering

// Delivery disciplines.
const (
	// Unordered delivers on arrival.
	Unordered = multicast.Unordered
	// FIFO preserves per-sender order.
	FIFO = multicast.FIFO
	// Causal preserves happens-before (CBCAST).
	Causal = multicast.Causal
	// TotalSeq is total order via a fixed sequencer.
	TotalSeq = multicast.TotalSeq
	// TotalCausal is sequencer total order that also respects
	// happens-before.
	TotalCausal = multicast.TotalCausal
)

// GroupConfig parameterizes a process group.
type GroupConfig = multicast.Config

// Member is one endpoint of a process group.
type Member = multicast.Member

// Delivered describes a message handed to the application.
type Delivered = multicast.Delivered

// DeliverFunc receives ordered deliveries.
type DeliverFunc = multicast.DeliverFunc

// MsgID identifies a multicast within a group.
type MsgID = multicast.MsgID

// NewGroup builds a full process group on net.
func NewGroup(net Network, nodes []NodeID, cfg GroupConfig, deliverFor func(ProcessID) DeliverFunc) []*Member {
	return multicast.NewGroup(net, nodes, cfg, deliverFor)
}

// NewMember builds a single group endpoint.
func NewMember(net Network, nodes []NodeID, rank ProcessID, cfg GroupConfig, deliver DeliverFunc) *Member {
	return multicast.NewMember(net, nodes, rank, cfg, deliver)
}

// ---- Membership ----------------------------------------------------------

// MonitorConfig parameterizes failure detection.
type MonitorConfig = group.Config

// Monitor runs heartbeat failure detection and virtually synchronous
// view changes for one member.
type Monitor = group.Monitor

// NewMonitor attaches membership to a member. net must be a Mux (the
// member already owns a handler on the node).
func NewMonitor(net Network, member *Member, groupName string, cfg MonitorConfig) *Monitor {
	return group.NewMonitor(net, member, groupName, cfg)
}

// ---- State-level toolkit --------------------------------------------------

// Store is a versioned object store (state clocks).
type Store = state.Store

// NewStore returns an empty versioned store.
func NewStore() *Store { return state.NewStore() }

// Reorderer releases values in prescriptive (version) order.
type Reorderer = state.Reorderer

// NewReorderer returns a reorderer expecting versions 1, 2, 3, ...
func NewReorderer() *Reorderer { return state.NewReorderer() }

// Cache is the order-preserving dependency cache of §4.1.
type Cache = state.Cache

// CacheUpdate is one entry offered to a Cache.
type CacheUpdate = state.Update

// NewCache returns an empty cache.
func NewCache() *Cache { return state.NewCache() }

// ---- Membership: joining ---------------------------------------------------

// Joiner admits a new process into a running group via the flush
// protocol.
type Joiner = group.Joiner

// NewJoiner prepares a join through the given contact member's node.
func NewJoiner(net Network, node, contact NodeID, groupName string, cfg GroupConfig, deliver DeliverFunc) *Joiner {
	return group.NewJoiner(net, node, contact, groupName, cfg, deliver)
}

// ---- Detection (§4.2, Appendix 9.2) ----------------------------------------

// Instance names one RPC invocation or transaction within a process.
type Instance = detect.Instance

// WaitEdge is one instance-granular wait-for relationship.
type WaitEdge = detect.Edge

// WaitGraph is a wait-for graph with deterministic cycle detection.
type WaitGraph = detect.WaitGraph

// NewWaitGraph returns an empty wait-for graph.
func NewWaitGraph() *WaitGraph { return detect.NewWaitGraph() }

// WaitReport is a process's periodic wait-for snapshot.
type WaitReport = detect.Report

// DeadlockMonitor consumes periodic wait-for reports (latest-wins per
// process) and finds cycles — the paper's Appendix 9.2 detector.
type DeadlockMonitor = detect.StateMonitor

// NewDeadlockMonitor returns an empty report-driven deadlock monitor.
func NewDeadlockMonitor() *DeadlockMonitor { return detect.NewStateMonitor() }

// SnapProcess participates in Chandy-Lamport consistent snapshots.
type SnapProcess = detect.SnapProcess

// SnapLocal is one process's contribution to a global snapshot.
type SnapLocal = detect.LocalSnap

// NewSnapProcess registers a snapshot-capable process with an initial
// balance in the money-conservation model.
func NewSnapProcess(net Network, node NodeID, peers []NodeID, initial int64) *SnapProcess {
	return detect.NewSnapProcess(net, node, peers, initial)
}

// ---- Transactions (§4.3/§4.4) ----------------------------------------------

// TxID identifies a transaction.
type TxID = transact.TxID

// LockManager is a strict two-phase-locking lock manager with wait-for
// export.
type LockManager = transact.LockManager

// Lock modes.
const (
	// LockShared permits concurrent readers.
	LockShared = transact.Shared
	// LockExclusive permits a single writer.
	LockExclusive = transact.Exclusive
)

// TxWrite is one key/value assignment within a transaction.
type TxWrite = transact.Write

// TxOutcome reports a finished transaction.
type TxOutcome = transact.Outcome

// NewLockManager returns an empty lock manager.
func NewLockManager() *LockManager { return transact.NewLockManager() }

// TxCoordinator drives two-phase commit.
type TxCoordinator = transact.Coordinator

// NewTxCoordinator registers a 2PC coordinator at node.
func NewTxCoordinator(net Network, node NodeID) *TxCoordinator {
	return transact.NewCoordinator(net, node)
}

// TxParticipant is a 2PC resource manager applying committed writes to
// a versioned store.
type TxParticipant = transact.Participant

// NewTxParticipant registers a participant at node.
func NewTxParticipant(net Network, node NodeID, store *Store) *TxParticipant {
	return transact.NewParticipant(net, node, store)
}

// OptimisticValidator orders transactions at commit time
// (Kung-Robinson backward validation).
type OptimisticValidator = transact.Validator

// NewOptimisticValidator returns an empty validator.
func NewOptimisticValidator() *OptimisticValidator { return transact.NewValidator() }

// ---- Real-time monitoring (§4.6) -------------------------------------------

// Reading is a timestamped sensor sample.
type Reading = realtime.Reading

// RTMonitor tracks sensor readings.
type RTMonitor = realtime.Monitor

// NewTemporalMonitor returns a monitor with latest-timestamp-wins
// semantics (the paper's recommendation).
func NewTemporalMonitor() *RTMonitor { return realtime.NewTemporalMonitor() }

// ---- The state-level frameworks of the conclusion ---------------------------

// Bus is a subject-based Information Bus endpoint: publish/subscribe
// with per-stream prescriptive ordering, latest-value mode,
// request/reply, and cache-based late-join sync.
type Bus = pubsub.Node

// BusEvent is a delivered publication.
type BusEvent = pubsub.Event

// Subscription ordering modes.
const (
	// BusOrdered releases each (publisher, subject) stream in sequence
	// order.
	BusOrdered = pubsub.Ordered
	// BusLatest keeps newest-wins semantics and drops stale arrivals.
	BusLatest = pubsub.Latest
)

// NewBus attaches a bus endpoint at node with the given peer set.
func NewBus(net Network, node NodeID, peers []NodeID) *Bus {
	return pubsub.NewNode(net, node, peers)
}

// RPCEndpoint is an asynchronous RPC port with instance-granular wait
// tracking.
type RPCEndpoint = rpc.Endpoint

// RPCCtx identifies the serving instance inside a handler.
type RPCCtx = rpc.Ctx

// NewRPCEndpoint registers an RPC endpoint at node under a process
// name.
func NewRPCEndpoint(net Network, node NodeID, name string) *RPCEndpoint {
	return rpc.NewEndpoint(net, node, name)
}

// DirectoryReplica is a §4.5 gossip-replicated name service node.
type DirectoryReplica = nameservice.Replica

// NewDirectoryReplica registers a gossip directory replica.
func NewDirectoryReplica(net Network, node NodeID, peers []NodeID) *DirectoryReplica {
	return nameservice.NewReplica(net, node, peers)
}

// ---- Durability (§6) --------------------------------------------------------

// LogDevice models append-only stable storage.
type LogDevice = wal.Device

// NewLogDevice returns an empty device.
func NewLogDevice() *LogDevice { return wal.NewDevice() }

// DurableStore logs every update with its state clock before applying.
type DurableStore = wal.DurableStore

// NewDurableStore wraps a fresh store around the device.
func NewDurableStore(dev *LogDevice) *DurableStore { return wal.NewDurableStore(dev) }

// Recover replays a device's log into a fresh store.
func Recover(dev *LogDevice) (*Store, int, error) { return wal.Recover(dev) }
