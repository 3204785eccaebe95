package chaos

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"catocs/internal/detect"
	"catocs/internal/group"
	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/scalecast"
	"catocs/internal/state"
	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wal"
)

// The "churn" world runs the full dynamic-membership stack — monitors,
// joiner state transfer, WAL crash-recovery rejoin, graceful leave —
// under a schedule of join/leave/crash/recover ops, and checks three
// reconfiguration oracles on top of the WAL durability trial:
//
//   - joiner-state: every member alive at the end holds a store whose
//     snapshot digest equals every other's — a joiner (or recovered
//     member) that entered through state transfer is
//     delivery-equivalent to the survivors.
//   - no-stale-epoch: no member ever applies a payload from a previous
//     life of its origin once a view listing the origin's newer
//     incarnation is installed — except the origin's own WAL replay,
//     which legitimately re-issues unstable old-life casts under its
//     new life (at-least-once; appliers dedup).
//   - rejoin-liveness: every recovery and join that was initiated (and
//     not superseded by a later crash or leave) completes, and all
//     live members agree on the final view.
//
// The classic trace oracles (causal order, same-set) do not run here:
// they key messages by (sender rank, seq), and sendSeq restarts at
// every view change, so refs collide across epochs. The churn oracles
// are application-level instead — payloads carry their own identity.
//
// The episode keeps nodes 0 and 1 as a stable core (GenChurn never
// crashes them): they are the donors of every view and the contacts
// every joiner and recoverer rotates through.
//
// The "rewire" world (churn_scalecast.go) drives the same schedules
// over scalecast. Both share churnBase: raw SimNet links, the node
// table, the application-level apply path and the sender loop.

// churnNode is one process identity over its whole lifetime, crashes
// included. The rewire world leaves the membership fields nil.
type churnNode struct {
	id      transport.NodeID
	app     *state.Store
	deliver multicast.DeliverFunc
	send    func(payload []byte)
	up      bool
	inc     uint32 // current incarnation (payload stamps)
	seq     int    // payload counter, monotonic across lives

	dev     *wal.Device
	mlog    *wal.MemberLog
	member  *multicast.Member
	monitor *group.Monitor
	crashed bool   // down awaiting recover
	pending string // "recover" or "join" initiated but not completed

	sc *scalecast.Member // rewire world
}

type churnBase struct {
	net     *transport.SimNet
	nodes   map[transport.NodeID]*churnNode
	senders []*churnNode // the initial members, by rank
	applied uint64
	dups    uint64
}

func newChurnBase(e *episode, substrate string) churnBase {
	if e.cfg.N < 3 {
		panic("chaos: the churn worlds need N ≥ 3")
	}
	// Jitter makes the seed matter: with a fixed delay every episode
	// would replay the identical trace regardless of seed.
	net := transport.NewSimNet(e.k, transport.LinkConfig{BaseDelay: 1 * time.Millisecond, Jitter: 1 * time.Millisecond})
	net.Instrument(e.tracer, nil, substrate)
	return churnBase{net: net, nodes: make(map[transport.NodeID]*churnNode)}
}

// addNode registers a fresh identity. Its deliveries apply through
// application-level IDs, so a replayed copy counts as a dup instead of
// applying twice; audit, if non-nil, inspects every first apply.
func (b *churnBase) addNode(id transport.NodeID, audit func(ns *churnNode, key string)) *churnNode {
	ns := &churnNode{id: id, app: state.NewStore()}
	ns.deliver = func(d multicast.Delivered) {
		p, ok := d.Payload.([]byte)
		if !ok {
			return // fills may replay non-churn payloads; none exist here
		}
		key := string(p)
		if _, _, ok := ns.app.Get(key); ok {
			b.dups++
			return
		}
		if audit != nil {
			audit(ns, key)
		}
		ns.app.Put(key, uint64(1))
		b.applied++
	}
	b.nodes[id] = ns
	return ns
}

func (b *churnBase) cast(s, _ int) bool {
	ns := b.senders[s]
	if !ns.up {
		return false
	}
	payload := []byte(fmt.Sprintf("o%d.i%d.n%d", s, ns.inc, ns.seq))
	ns.seq++
	ns.send(payload)
	return true
}

// netOp applies a script's network op to the raw links. Link faults
// need the Interposer and are ignored.
func (b *churnBase) netOp(op Op) {
	switch op.Kind {
	case OpPartition:
		b.net.Partition(op.Islands...)
	case OpHeal:
		b.net.Heal()
	case OpSlow:
		b.net.Slow(op.Node, op.Lag)
	case OpFast:
		b.net.Fast(op.Node)
	}
}

// churnWorld is the atomic cbcast stack under group.Monitor membership
// with WAL rejoin — the only substrate with a membership protocol.
type churnWorld struct {
	churnBase
	mux        *transport.Mux
	mcfg       multicast.Config
	gcfg       group.Config
	monitors   []*group.Monitor
	replayed   map[string]bool // WAL replays, exempt from no-stale-epoch
	violations []Violation
}

var churnContacts = []transport.NodeID{0, 1}

func newChurnWorld(e *episode) *churnWorld {
	cfg := e.cfg
	w := &churnWorld{churnBase: newChurnBase(e, "cbcast"), replayed: make(map[string]bool)}
	w.mux = transport.NewMux(w.net)
	w.mcfg = multicast.Config{
		Group: "churn", Ordering: multicast.Causal, Atomic: true, Tracer: e.tracer,
		AckInterval: cfg.AckInterval, NackDelay: cfg.NackDelay,
	}
	w.gcfg = group.Config{HeartbeatInterval: cfg.Heartbeat, SuspectTimeout: cfg.Suspect}
	for _, id := range e.nodes {
		w.newNode(id)
	}
	members := multicast.NewGroup(w.mux, e.nodes, w.mcfg, func(rank vclock.ProcessID) multicast.DeliverFunc {
		return w.nodes[transport.NodeID(rank)].deliver
	})
	for i, m := range members {
		ns := w.nodes[e.nodes[i]]
		ns.member, ns.up = m, true
		mlog, _, err := wal.OpenMemberLog(ns.dev)
		if err != nil {
			panic(err)
		}
		ns.mlog = mlog
		w.attachMonitor(ns, m)
		w.senders = append(w.senders, ns)
	}
	return w
}

func (w *churnWorld) newNode(id transport.NodeID) *churnNode {
	ns := w.addNode(id, w.auditStale)
	ns.dev = wal.NewDevice()
	ns.send = func(p []byte) {
		ns.mlog.LogCast(p)
		ns.member.Multicast(p, len(p))
	}
	return ns
}

// auditStale is the no-stale-epoch oracle: once ns's view lists the
// payload's origin at a newer incarnation, payloads from the old life
// may only arrive via the origin's own replay.
func (w *churnWorld) auditStale(ns *churnNode, key string) {
	var origin, life, n int
	if _, err := fmt.Sscanf(key, "o%d.i%d.n%d", &origin, &life, &n); err != nil || ns.member == nil {
		return
	}
	incs := ns.member.ViewIncs()
	if incs == nil {
		return
	}
	for r, node := range ns.member.ViewNodes() {
		if node == transport.NodeID(origin) && incs[r] > uint32(life) && !w.replayed[key] {
			w.violations = append(w.violations, Violation{
				Oracle: "no-stale-epoch",
				Detail: fmt.Sprintf("node %d applied %q after installing inc %d for origin %d",
					ns.id, key, incs[r], origin),
			})
		}
	}
}

func (w *churnWorld) attachMonitor(ns *churnNode, m *multicast.Member) {
	mon := group.NewMonitor(w.mux, m, "churn", w.gcfg)
	mon.StateSource = func() []byte {
		data, err := ns.app.SnapshotBytes()
		if err != nil {
			panic(err) // churn stores hold only uint64 values
		}
		return data
	}
	mon.Start()
	ns.monitor = mon
	w.monitors = append(w.monitors, mon)
}

// restoreTo returns an OnState callback that installs a transferred
// snapshot at ns, flagging a snapshot that will not restore.
func (w *churnWorld) restoreTo(ns *churnNode, who string) func([]byte) {
	return func(data []byte) {
		if err := ns.app.RestoreBytes(data); err != nil {
			w.violations = append(w.violations, Violation{
				Oracle: "joiner-state",
				Detail: fmt.Sprintf("%s %d could not restore transferred state: %v", who, ns.id, err),
			})
		}
	}
}

// apply drives one op against the membership stack. Each op tolerates
// a missing precondition by doing nothing, so the shrinker can remove
// any op and leave its pair behind as a no-op.
func (w *churnWorld) apply(op Op) {
	ns := w.nodes[op.Node]
	switch op.Kind {
	case OpCrash:
		if ns == nil || !ns.up {
			return
		}
		w.net.Crash(ns.id)
		ns.monitor.Stop()
		ns.member.Close()
		ns.up, ns.crashed, ns.pending = false, true, ""
	case OpRecover:
		if ns == nil || !ns.crashed || ns.pending != "" {
			return
		}
		w.net.Recover(ns.id)
		// Register the replay set before the rejoin can re-issue it:
		// these payloads are exempt from the no-stale-epoch oracle.
		if _, rec0, err := wal.OpenMemberLog(ns.dev); err == nil {
			for _, c := range rec0.Casts {
				w.replayed[string(c)] = true
			}
		}
		rec := &group.Recoverer{
			OnState: w.restoreTo(ns, "node"),
			OnJoined: func(m *multicast.Member) {
				ns.member = m
				w.attachMonitor(ns, m)
			},
			OnRecovered: func(m *multicast.Member, epoch uint64, inc uint32, n int) {
				ns.up, ns.crashed, ns.pending, ns.inc = true, false, "", inc
			},
		}
		j, mlog, err := rec.Recover(w.mux, ns.id, churnContacts, "churn", w.mcfg, ns.deliver, ns.dev)
		if err != nil {
			w.violations = append(w.violations, Violation{
				Oracle: "rejoin-liveness",
				Detail: fmt.Sprintf("node %d recovery failed to open its WAL: %v", ns.id, err),
			})
			return
		}
		ns.mlog = mlog
		ns.pending = "recover"
		j.Start()
	case OpJoin:
		if ns != nil {
			return // identity already exists (alive, down, or pending)
		}
		ns = w.newNode(op.Node)
		ns.pending = "join"
		j := group.NewJoiner(w.mux, ns.id, churnContacts[0], "churn", w.mcfg, ns.deliver)
		j.Contacts = churnContacts
		j.OnState = w.restoreTo(ns, "joiner")
		j.OnJoined = func(m *multicast.Member) {
			ns.member = m
			w.attachMonitor(ns, m)
		}
		j.OnReady = func(*multicast.Member) {
			ns.up, ns.pending = true, ""
		}
		j.Start()
	case OpLeave:
		if ns == nil || !ns.up {
			return
		}
		ns.monitor.Leave()
		ns.up, ns.pending = false, ""
		delete(w.nodes, ns.id) // the identity is gone for good
	default:
		w.netOp(op)
	}
}

// finish runs the final-state oracles (ids sorted so violation order
// is deterministic) and reads the membership counters.
func (w *churnWorld) finish(_ []obs.Event, res *Result) {
	allIDs := make([]transport.NodeID, 0, len(w.nodes))
	for id := range w.nodes {
		allIDs = append(allIDs, id)
	}
	sort.Slice(allIDs, func(a, b int) bool { return allIDs[a] < allIDs[b] })
	var liveIDs []transport.NodeID
	for _, id := range allIDs {
		ns := w.nodes[id]
		if ns.pending != "" {
			w.violations = append(w.violations, Violation{
				Oracle: "rejoin-liveness",
				Detail: fmt.Sprintf("node %d initiated a %s that never completed", id, ns.pending),
			})
		}
		if ns.up {
			liveIDs = append(liveIDs, id)
		}
	}
	if len(liveIDs) > 0 {
		ref := w.nodes[liveIDs[0]]
		refView := ref.member.ViewNodes()
		refDigest := storeDigest(ref.app)
		for _, id := range liveIDs[1:] {
			ns := w.nodes[id]
			if !slices.Equal(refView, ns.member.ViewNodes()) {
				w.violations = append(w.violations, Violation{
					Oracle: "rejoin-liveness",
					Detail: fmt.Sprintf("node %d final view %v != node %d view %v",
						id, ns.member.ViewNodes(), ref.id, refView),
				})
			}
			if d := storeDigest(ns.app); d != refDigest {
				w.violations = append(w.violations, Violation{
					Oracle: "joiner-state",
					Detail: fmt.Sprintf("node %d state digest %x != node %d digest %x",
						id, d, ref.id, refDigest),
				})
			}
		}
		res.Epochs = ref.member.Epoch()
	}
	res.Violations = append(res.Violations, w.violations...)
	res.Delivered, res.Dups = w.applied, w.dups
	for _, mon := range w.monitors {
		res.FlushMsgs += mon.Stats.FlushMsgs.Value()
		res.TransferBytes += mon.Stats.StateBytes.Value()
		res.TransferChunks += mon.Stats.StateChunks.Value()
	}
}

func storeDigest(s *state.Store) uint64 {
	cut, err := detect.CaptureCut(0, s)
	if err != nil {
		panic(err)
	}
	return cut.Digest
}
