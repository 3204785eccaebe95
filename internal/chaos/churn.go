package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"catocs/internal/detect"
	"catocs/internal/group"
	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/sim"
	"catocs/internal/state"
	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wal"
)

// Churn episodes run the full dynamic-membership stack — monitors,
// joiner state transfer, WAL crash-recovery rejoin, graceful leave —
// under a randomized schedule of join/leave/crash/recover ops, and
// check three reconfiguration oracles on top of the WAL durability
// trial:
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

// ChurnConfig parameterises one churn episode on the cbcast/atomic
// membership stack.
type ChurnConfig struct {
	// N is the initial group size (≥3). Zero defaults to 8.
	N int
	// Senders is how many of the first N ranks originate traffic. Zero
	// defaults to min(N, 4). Senders 2.. are crashable, so recovery
	// replay gets exercised.
	Senders int
	// MsgsPer is messages per sender. Zero defaults to 30.
	MsgsPer int
	// Interval is the per-sender send period. Zero defaults to 5ms.
	Interval time.Duration
	// Settle is quiet time after the last send and op. Zero defaults to
	// 2s plus ten suspect timeouts, so the last reconfiguration
	// completes before the oracles run.
	Settle time.Duration
	// Seed drives the kernel and the WAL trial.
	Seed int64
	// Script is the churn schedule (crash/recover/join/leave ops; any
	// network ops present are ignored — churn episodes run a clean
	// network so reconfiguration itself is the only fault).
	Script Script
	// Heartbeat / Suspect configure the monitors (zero = the group
	// package defaults, 10ms/40ms). Scale them up with N: heartbeat
	// traffic is O(N²) per interval.
	Heartbeat time.Duration
	Suspect   time.Duration
	// AckInterval / NackDelay configure atomic-mode stability acks
	// (zero = the multicast defaults, 20ms/25ms). Scale them up with N
	// too: every cast burst triggers N² ack messages, each updating an
	// O(N) stability-matrix row — the §5 cost E24 measures at scale.
	AckInterval time.Duration
	NackDelay   time.Duration
}

func (cfg *ChurnConfig) fillDefaults() {
	if cfg.N == 0 {
		cfg.N = 8
	}
	if cfg.Senders == 0 {
		cfg.Senders = cfg.N
		if cfg.Senders > 4 {
			cfg.Senders = 4
		}
	}
	if cfg.MsgsPer == 0 {
		cfg.MsgsPer = 30
	}
	if cfg.Interval == 0 {
		cfg.Interval = 5 * time.Millisecond
	}
	if cfg.Settle == 0 {
		suspect := cfg.Suspect
		if suspect == 0 {
			suspect = 40 * time.Millisecond
		}
		cfg.Settle = 2*time.Second + 10*suspect
	}
}

// ChurnResult is what one churn episode measured.
type ChurnResult struct {
	Seed   int64
	Script Script
	// Digest hashes the full event trace (determinism check).
	Digest uint64
	// Sent / Skipped: application casts issued / elided because the
	// sender was down at fire time.
	Sent    uint64
	Skipped uint64
	// Applied counts first-time payload applies across all members;
	// Dups counts duplicate applies absorbed by application-level IDs
	// (the at-least-once replay cost the paper's §4.4 assigns to the
	// application).
	Applied uint64
	Dups    uint64
	// Epochs is the final view's epoch at the stable core — how many
	// reconfigurations the episode drove.
	Epochs uint64
	// ViewInstalls sums per-member view installations; FlushMsgs sums
	// membership-protocol messages — FlushMsgs/Epochs is the metadata
	// cost per reconfiguration.
	ViewInstalls uint64
	FlushMsgs    uint64
	// TransferBytes / TransferChunks: donor-side state-transfer volume.
	TransferBytes  uint64
	TransferChunks uint64
	// UnavailMax / UnavailMean: longest delivery silence over the
	// initial members (E18's availability-window metric).
	UnavailMax  time.Duration
	UnavailMean time.Duration
	// Violations is empty iff every oracle passed.
	Violations []Violation
}

// MetadataPerEpoch is the membership-message cost of one
// reconfiguration.
func (r ChurnResult) MetadataPerEpoch() float64 {
	if r.Epochs == 0 {
		return 0
	}
	return float64(r.FlushMsgs) / float64(r.Epochs)
}

// churnNode is one process identity over its whole lifetime, crashes
// included.
type churnNode struct {
	id      transport.NodeID
	app     *state.Store
	dev     *wal.Device
	mlog    *wal.MemberLog
	member  *multicast.Member
	monitor *group.Monitor
	deliver multicast.DeliverFunc
	up      bool
	crashed bool   // down awaiting recover
	pending string // "recover" or "join" initiated but not completed
	inc     uint32 // current incarnation (payload stamps)
	seq     int    // payload counter, monotonic across lives
}

// RunChurn executes one churn episode and checks the churn oracles.
// The substrate is the atomic cbcast stack — the only one with a
// membership protocol; E24 contrasts it against scalecast's
// rewire-only reconfiguration.
func RunChurn(cfg ChurnConfig) ChurnResult {
	cfg.fillDefaults()
	if cfg.N < 3 {
		panic("chaos: RunChurn needs N ≥ 3")
	}
	k := sim.NewKernel(cfg.Seed)
	k.SetEventLimit(200_000_000)
	// Jitter makes the seed matter: with a fixed delay every episode
	// would replay the identical trace regardless of seed.
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: 1 * time.Millisecond, Jitter: 1 * time.Millisecond})
	tracer := obs.NewTracer()
	net.Instrument(tracer, nil, "cbcast")
	mux := transport.NewMux(net)
	mcfg := multicast.Config{
		Group: "churn", Ordering: multicast.Causal, Atomic: true, Tracer: tracer,
		AckInterval: cfg.AckInterval, NackDelay: cfg.NackDelay,
	}
	gcfg := group.Config{HeartbeatInterval: cfg.Heartbeat, SuspectTimeout: cfg.Suspect}
	contacts := []transport.NodeID{0, 1}

	var violations []Violation
	var applied, dups uint64
	var monitors []*group.Monitor
	nodesByID := make(map[transport.NodeID]*churnNode)
	replayed := make(map[string]bool)

	newNode := func(id transport.NodeID) *churnNode {
		ns := &churnNode{id: id, app: state.NewStore(), dev: wal.NewDevice()}
		ns.deliver = func(d multicast.Delivered) {
			p, ok := d.Payload.([]byte)
			if !ok {
				return // fills may replay non-churn payloads; none exist here
			}
			key := string(p)
			if _, _, ok := ns.app.Get(key); ok {
				dups++
				return
			}
			var origin, life, n int
			if _, err := fmt.Sscanf(key, "o%d.i%d.n%d", &origin, &life, &n); err == nil && ns.member != nil {
				// no-stale-epoch: once this member's view lists the origin at
				// a newer incarnation, payloads from the old life may only
				// arrive via the origin's own replay.
				if incs := ns.member.ViewIncs(); incs != nil {
					for r, node := range ns.member.ViewNodes() {
						if node == transport.NodeID(origin) && incs[r] > uint32(life) && !replayed[key] {
							violations = append(violations, Violation{
								Oracle: "no-stale-epoch",
								Detail: fmt.Sprintf("node %d applied %q after installing inc %d for origin %d",
									ns.id, key, incs[r], origin),
							})
						}
					}
				}
			}
			ns.app.Put(key, uint64(1))
			applied++
		}
		nodesByID[id] = ns
		return ns
	}
	attachMonitor := func(ns *churnNode, m *multicast.Member) {
		mon := group.NewMonitor(mux, m, "churn", gcfg)
		mon.StateSource = func() []byte {
			data, err := ns.app.SnapshotBytes()
			if err != nil {
				panic(err) // churn stores hold only uint64 values
			}
			return data
		}
		mon.Start()
		ns.monitor = mon
		monitors = append(monitors, mon)
	}

	initial := make([]transport.NodeID, cfg.N)
	initialInts := make([]int, cfg.N)
	for i := range initial {
		initial[i] = transport.NodeID(i)
		initialInts[i] = i
		newNode(initial[i])
	}
	members := multicast.NewGroup(mux, initial, mcfg, func(rank vclock.ProcessID) multicast.DeliverFunc {
		return nodesByID[transport.NodeID(rank)].deliver
	})
	for i, m := range members {
		ns := nodesByID[initial[i]]
		ns.member = m
		ns.up = true
		mlog, _, err := wal.OpenMemberLog(ns.dev)
		if err != nil {
			panic(err)
		}
		ns.mlog = mlog
		attachMonitor(ns, m)
	}

	// Op drivers. Each tolerates a missing precondition by doing
	// nothing, so the shrinker can remove any op and leave its pair
	// behind as a no-op.
	for _, op := range cfg.Script.Ops {
		op := op
		k.At(op.At, func() {
			ns := nodesByID[op.Node]
			switch op.Kind {
			case OpCrash:
				if ns == nil || !ns.up {
					return
				}
				net.Crash(ns.id)
				ns.monitor.Stop()
				ns.member.Close()
				ns.up, ns.crashed, ns.pending = false, true, ""
			case OpRecover:
				if ns == nil || !ns.crashed || ns.pending != "" {
					return
				}
				net.Recover(ns.id)
				// Register the replay set before the rejoin can re-issue it:
				// these payloads are exempt from the no-stale-epoch oracle.
				if _, rec0, err := wal.OpenMemberLog(ns.dev); err == nil {
					for _, c := range rec0.Casts {
						replayed[string(c)] = true
					}
				}
				rec := &group.Recoverer{
					OnState: func(data []byte) {
						if err := ns.app.RestoreBytes(data); err != nil {
							violations = append(violations, Violation{
								Oracle: "joiner-state",
								Detail: fmt.Sprintf("node %d could not restore transferred state: %v", ns.id, err),
							})
						}
					},
					OnJoined: func(m *multicast.Member) {
						ns.member = m
						attachMonitor(ns, m)
					},
					OnRecovered: func(m *multicast.Member, epoch uint64, inc uint32, n int) {
						ns.up, ns.crashed, ns.pending, ns.inc = true, false, "", inc
					},
				}
				j, mlog, err := rec.Recover(mux, ns.id, contacts, "churn", mcfg, ns.deliver, ns.dev)
				if err != nil {
					violations = append(violations, Violation{
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
				ns = newNode(op.Node)
				ns.pending = "join"
				j := group.NewJoiner(mux, ns.id, contacts[0], "churn", mcfg, ns.deliver)
				j.Contacts = contacts
				j.OnState = func(data []byte) {
					if err := ns.app.RestoreBytes(data); err != nil {
						violations = append(violations, Violation{
							Oracle: "joiner-state",
							Detail: fmt.Sprintf("joiner %d could not restore transferred state: %v", ns.id, err),
						})
					}
				}
				j.OnJoined = func(m *multicast.Member) {
					ns.member = m
					attachMonitor(ns, m)
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
				delete(nodesByID, ns.id) // the identity is gone for good
			case OpPartition:
				net.Partition(op.Islands...)
			case OpHeal:
				net.Heal()
			case OpSlow:
				net.Slow(op.Node, op.Lag)
			case OpFast:
				net.Fast(op.Node)
			}
		})
	}

	var sent, skipped uint64
	for s := 0; s < cfg.Senders; s++ {
		ns := nodesByID[transport.NodeID(s)]
		for i := 0; i < cfg.MsgsPer; i++ {
			s, i := s, i
			k.At(time.Duration(i)*cfg.Interval+time.Duration(s)*100*time.Microsecond, func() {
				if !ns.up {
					skipped++ // fail-stop: a down process originates nothing
					return
				}
				payload := []byte(fmt.Sprintf("o%d.i%d.n%d", s, ns.inc, ns.seq))
				ns.seq++
				ns.mlog.LogCast(payload)
				ns.member.Multicast(payload, len(payload))
				sent++
			})
		}
	}

	horizon := time.Duration(cfg.MsgsPer) * cfg.Interval
	if end := cfg.Script.End(); end > horizon {
		horizon = end
	}
	k.RunUntil(horizon + cfg.Settle)

	// Final-state oracles (ids sorted so violation order is deterministic).
	allIDs := make([]transport.NodeID, 0, len(nodesByID))
	for id := range nodesByID {
		allIDs = append(allIDs, id)
	}
	sort.Slice(allIDs, func(a, b int) bool { return allIDs[a] < allIDs[b] })
	var liveIDs []transport.NodeID
	for _, id := range allIDs {
		ns := nodesByID[id]
		if ns.pending != "" {
			violations = append(violations, Violation{
				Oracle: "rejoin-liveness",
				Detail: fmt.Sprintf("node %d initiated a %s that never completed", id, ns.pending),
			})
		}
		if ns.up {
			liveIDs = append(liveIDs, id)
		}
	}
	if len(liveIDs) > 0 {
		ref := nodesByID[liveIDs[0]]
		refView := ref.member.ViewNodes()
		refDigest := storeDigest(ref.app)
		for _, id := range liveIDs[1:] {
			ns := nodesByID[id]
			if !sameView(refView, ns.member.ViewNodes()) {
				violations = append(violations, Violation{
					Oracle: "rejoin-liveness",
					Detail: fmt.Sprintf("node %d final view %v != node %d view %v",
						id, ns.member.ViewNodes(), ref.id, refView),
				})
			}
			if d := storeDigest(ns.app); d != refDigest {
				violations = append(violations, Violation{
					Oracle: "joiner-state",
					Detail: fmt.Sprintf("node %d state digest %x != node %d digest %x",
						id, d, ref.id, refDigest),
				})
			}
		}
	}
	violations = append(violations, checkWALDurability(cfg.Seed)...)

	events := tracer.Events()
	res := ChurnResult{
		Seed:       cfg.Seed,
		Script:     cfg.Script,
		Digest:     DigestEvents(events),
		Sent:       sent,
		Skipped:    skipped,
		Applied:    applied,
		Dups:       dups,
		Violations: violations,
	}
	if len(liveIDs) > 0 {
		res.Epochs = nodesByID[liveIDs[0]].member.Epoch()
	}
	for _, mon := range monitors {
		res.ViewInstalls += mon.Stats.ViewChanges.Value()
		res.FlushMsgs += mon.Stats.FlushMsgs.Value()
		res.TransferBytes += mon.Stats.StateBytes.Value()
		res.TransferChunks += mon.Stats.StateChunks.Value()
	}
	res.UnavailMax, res.UnavailMean = unavailability(events, initialInts)
	return res
}

func storeDigest(s *state.Store) uint64 {
	cut, err := detect.CaptureCut(0, s)
	if err != nil {
		panic(err)
	}
	return cut.Digest
}

func sameView(a, b []transport.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ShrinkChurn minimises a failing churn episode by greedily removing
// script ops while the episode still shows the original failure
// (keepsFailure). Op drivers are no-op tolerant, so removing one half
// of a pair leaves the other harmless. Budgeted at ~100 re-runs.
func ShrinkChurn(cfg ChurnConfig) (ChurnConfig, ChurnResult) {
	res := RunChurn(cfg)
	if len(res.Violations) == 0 {
		return cfg, res
	}
	orig := res.Violations
	budget := 100
	for {
		removed := false
		for i := 0; i < len(cfg.Script.Ops) && budget > 0; i++ {
			trial := cfg
			trial.Script.Ops = append(append([]Op{}, cfg.Script.Ops[:i]...), cfg.Script.Ops[i+1:]...)
			budget--
			if r := RunChurn(trial); keepsFailure(orig, r.Violations) {
				cfg, res = trial, r
				removed = true
				i--
			}
		}
		if !removed || budget <= 0 {
			break
		}
	}
	return cfg, res
}

// ChurnRunnerConfig parameterises a batch of randomized churn
// episodes.
type ChurnRunnerConfig struct {
	N        int
	Senders  int
	MsgsPer  int
	Interval time.Duration
	Episodes int
	// Seed is the base seed; episode i runs at Seed + i*1000003.
	Seed int64
	// Gen bounds the random churn schedules. Zero-valued counts default
	// to 2 crash→recover pairs and 2 joins (1 staying).
	Gen GenChurnConfig
	// NoRecover strips the recover half of every crash pair: crashed
	// members stay down and the group only shrinks. The rejoin oracles
	// then have nothing to check for those nodes — this mode stresses
	// repeated exclusion instead of the recovery path.
	NoRecover bool
	// Shrink minimises failing schedules before reporting them.
	Shrink    bool
	Heartbeat time.Duration
	Suspect   time.Duration
}

// ChurnFailure is one failing episode with its minimised reproduction.
type ChurnFailure struct {
	Seed      int64
	Result    ChurnResult
	MinConfig ChurnConfig
	MinResult ChurnResult
	Repro     string
}

// ChurnSummary aggregates a batch of churn episodes.
type ChurnSummary struct {
	Episodes       int
	Digest         uint64
	Sent           uint64
	Skipped        uint64
	Applied        uint64
	Dups           uint64
	Epochs         uint64
	ViewInstalls   uint64
	FlushMsgs      uint64
	TransferBytes  uint64
	TransferChunks uint64
	UnavailMax     time.Duration
	UnavailMean    time.Duration
	Failures       []ChurnFailure
}

// MetadataPerEpoch is the batch-wide membership-message cost per
// reconfiguration.
func (s ChurnSummary) MetadataPerEpoch() float64 {
	if s.Epochs == 0 {
		return 0
	}
	return float64(s.FlushMsgs) / float64(s.Epochs)
}

// ViolationCounts tallies the batch's violations by oracle name.
func (s ChurnSummary) ViolationCounts() map[string]int {
	counts := make(map[string]int)
	for _, f := range s.Failures {
		for _, v := range f.Result.Violations {
			counts[v.Oracle]++
		}
	}
	return counts
}

// ViolationSummary renders the tally compactly ("none" when clean).
func (s ChurnSummary) ViolationSummary() string {
	counts := s.ViolationCounts()
	if len(counts) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s×%d", k, counts[k]))
	}
	return fmt.Sprintf("%v", parts)
}

func (rc *ChurnRunnerConfig) fillDefaults() {
	if rc.N == 0 {
		rc.N = 8
	}
	if rc.MsgsPer == 0 {
		rc.MsgsPer = 30
	}
	if rc.Interval == 0 {
		rc.Interval = 5 * time.Millisecond
	}
	if rc.Episodes == 0 {
		rc.Episodes = 20
	}
	g := &rc.Gen
	g.Nodes = rc.N
	if g.Horizon == 0 {
		g.Horizon = time.Duration(rc.MsgsPer) * rc.Interval
	}
	if g.MaxOutage == 0 {
		g.MaxOutage = 250 * time.Millisecond
	}
	if g.Crashes == 0 && g.Joins == 0 {
		g.Crashes, g.Joins, g.Stayers = 2, 2, 1
		// Mix network faults into the membership churn: a short
		// sub-detection partition and an inbound-lag window per
		// episode, so reconfiguration is exercised under degraded
		// links, not just clean ones.
		g.Partitions, g.Slows = 1, 1
	}
}

// RunChurnEpisodes executes rc.Episodes seeded random-churn episodes
// and aggregates them. Any single episode replays in isolation from
// (sizes, seed, script).
func RunChurnEpisodes(rc ChurnRunnerConfig) ChurnSummary {
	rc.fillDefaults()
	sum := ChurnSummary{Episodes: rc.Episodes}
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < rc.Episodes; i++ {
		seed := rc.Seed + int64(i)*1000003
		script := GenChurn(rand.New(rand.NewSource(seed^0x636875726e)), rc.Gen) // "churn"
		if rc.NoRecover {
			kept := script.Ops[:0]
			for _, op := range script.Ops {
				if op.Kind != OpRecover {
					kept = append(kept, op)
				}
			}
			script.Ops = kept
		}
		cfg := ChurnConfig{
			N:         rc.N,
			Senders:   rc.Senders,
			MsgsPer:   rc.MsgsPer,
			Interval:  rc.Interval,
			Seed:      seed,
			Script:    script,
			Heartbeat: rc.Heartbeat,
			Suspect:   rc.Suspect,
		}
		res := RunChurn(cfg)
		for b := 0; b < 8; b++ {
			buf[b] = byte(res.Digest >> (8 * b))
		}
		h.Write(buf[:])
		sum.Sent += res.Sent
		sum.Skipped += res.Skipped
		sum.Applied += res.Applied
		sum.Dups += res.Dups
		sum.Epochs += res.Epochs
		sum.ViewInstalls += res.ViewInstalls
		sum.FlushMsgs += res.FlushMsgs
		sum.TransferBytes += res.TransferBytes
		sum.TransferChunks += res.TransferChunks
		if res.UnavailMax > sum.UnavailMax {
			sum.UnavailMax = res.UnavailMax
		}
		sum.UnavailMean += res.UnavailMean
		if len(res.Violations) > 0 {
			f := ChurnFailure{Seed: seed, Result: res, MinConfig: cfg, MinResult: res}
			if rc.Shrink {
				f.MinConfig, f.MinResult = ShrinkChurn(cfg)
			}
			f.Repro = fmt.Sprintf("go run ./cmd/chaos -churn -n %d -senders %d -msgs %d -seed %d -script %q",
				rc.N, cfg.Senders, rc.MsgsPer, seed, f.MinConfig.Script.String())
			sum.Failures = append(sum.Failures, f)
		}
	}
	sum.Digest = h.Sum64()
	if rc.Episodes > 0 {
		sum.UnavailMean /= time.Duration(rc.Episodes)
	}
	return sum
}
