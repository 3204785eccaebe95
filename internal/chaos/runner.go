package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/mgcast"
	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/scalecast"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wal"
)

// Substrates lists the broadcast disciplines the harness exercises,
// in report order.
var Substrates = []string{"cbcast", "abcast", "scalecast", "mgcast"}

// DefaultFaults is the background fault mix for randomized episodes:
// light loss, duplication, and reordering on every link, on top of
// whatever the schedule injects.
var DefaultFaults = LinkFault{
	DropProb:  0.02,
	DupProb:   0.02,
	DelayProb: 0.05,
	Delay:     5 * time.Millisecond,
}

// Config parameterises one chaos episode.
type Config struct {
	// Substrate is "cbcast" (atomic CBCAST), "abcast" (the repo's
	// causally-consistent fixed sequencer, run atomic), "scalecast", or
	// "mgcast" (Skeen-style multi-group atomic multicast).
	Substrate string
	// N is the group size. Zero defaults to 6.
	N int
	// Senders is how many of the first N ranks originate traffic. Zero
	// defaults to min(N, 4). Crashed senders skip their sends — the
	// fail-stop model the liveness oracle assumes.
	Senders int
	// MsgsPer is messages per sender. Zero defaults to 30.
	MsgsPer int
	// Interval is the per-sender send period. Zero defaults to 5ms.
	Interval time.Duration
	// Settle is quiet time after the last send and last fault op, so
	// recovery protocols finish before the oracles run. Zero defaults
	// to 2s.
	Settle time.Duration
	// Seed drives the kernel, the interposer, and the WAL trial.
	Seed int64
	// Script is the fault schedule. Gen's invariant applies: every
	// destructive op must be repaired before the settle window, or the
	// liveness oracle will (correctly) fire.
	Script Script
	// Faults is the background fault mix on every link.
	Faults LinkFault
	// Degree is the scalecast overlay degree (0 = its default).
	Degree int
	// Groups is the number of overlapping destination groups for mgcast
	// episodes (0 = 4); the WrapGroups topology spreads them over the N
	// nodes with group size max(2, N/2), so neighbours overlap.
	Groups int
	// K is how many destination groups each mgcast cast addresses
	// (0 = 2, clamped to Groups).
	K int
	// Budget bounds per-group buffer memory; the zero value is
	// unlimited. With a limited budget the bounded-memory oracle runs.
	Budget flowcontrol.Budget
	// Overflow picks what happens when the budget is hit. The runner
	// supports None, Block, Shed, and Spill; Suspect needs a membership
	// monitor the episode harness does not run.
	Overflow flowcontrol.Policy
}

func (cfg *Config) fillDefaults() {
	if cfg.N == 0 {
		cfg.N = 6
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
		cfg.Settle = 2 * time.Second
	}
	if cfg.Substrate == "mgcast" {
		if cfg.Groups == 0 {
			cfg.Groups = 4
		}
		if cfg.K == 0 {
			cfg.K = 2
		}
		if cfg.K > cfg.Groups {
			cfg.K = cfg.Groups
		}
	}
}

// Result is what one episode measured.
type Result struct {
	Substrate string
	Seed      int64
	Script    Script
	// Digest is an FNV-1a hash of the full event trace; two runs of
	// the same Config produce the same digest or determinism is broken.
	Digest uint64
	// Sent counts application multicasts; Skipped counts sends elided
	// because the sender was crashed at fire time.
	Sent    uint64
	Skipped uint64
	// Delivered counts application deliveries across all nodes.
	Delivered uint64
	// Faults counts what the interposer injected.
	Faults FaultStats
	// MaxHoldback is the worst holdback-queue occupancy any member saw
	// (buffer growth under faults — the §5 resource argument).
	MaxHoldback int64
	// StabHighWater is the worst unstable-message count any member's
	// stability matrix tracked (0 for scalecast, which has none).
	StabHighWater int64
	// UnavailMax / UnavailMean: the longest delivery silence per node
	// (max gap between consecutive deliveries, measured from the first
	// send), worst and mean over nodes. Partitions surface here — the
	// paper's §6 point that CATOCS blocks rather than degrades.
	UnavailMax  time.Duration
	UnavailMean time.Duration
	// Violations is empty iff every oracle passed.
	Violations []Violation
}

// Run executes one episode and checks every applicable oracle.
func Run(cfg Config) Result {
	cfg.fillDefaults()
	k := sim.NewKernel(cfg.Seed)
	k.SetEventLimit(200_000_000)
	net := transport.NewSimNet(k, transport.LinkConfig{
		BaseDelay: 2 * time.Millisecond,
		Jitter:    2 * time.Millisecond,
	})
	tracer := obs.NewTracer()
	net.Instrument(tracer, nil, cfg.Substrate)
	ip := NewInterposer(net, cfg.Seed^0x5eedfa01)
	ip.SetDefault(cfg.Faults)

	nodes := make([]transport.NodeID, cfg.N)
	groupNodes := make([]int, cfg.N)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
		groupNodes[i] = i
	}

	var delivered uint64
	onDeliver := func(multicast.Delivered) { delivered++ }
	deliverFor := func(vclock.ProcessID) multicast.DeliverFunc { return onDeliver }

	var multicastFrom func(rank int, payload any)
	var holdMax func() int64
	var stabHigh func() int64
	// destsFor (mgcast only) maps a sent message to its destination
	// node set for the dest-liveness oracle.
	var destsFor func(sender int64, seq uint64) []int
	switch cfg.Substrate {
	case "cbcast", "abcast":
		ordering := multicast.Causal
		if cfg.Substrate == "abcast" {
			ordering = multicast.TotalCausal
		}
		mcfg := multicast.Config{
			Group:    "chaos",
			Ordering: ordering,
			Atomic:   true, // stability tracking + ack/NACK loss recovery
			Tracer:   tracer,
			Budget:   cfg.Budget,
			Overflow: cfg.Overflow,
		}
		if cfg.Overflow == flowcontrol.Spill {
			mcfg.SpillDevice = wal.NewDevice()
		}
		members := multicast.NewGroup(ip, nodes, mcfg, deliverFor)
		multicastFrom = func(rank int, payload any) { members[rank].Multicast(payload, chaosPayloadBytes) }
		holdMax = func() int64 {
			var max int64
			for _, m := range members {
				if v := m.HoldbackGauge.Max(); v > max {
					max = v
				}
			}
			return max
		}
		stabHigh = func() int64 {
			var max int64
			for _, m := range members {
				if s := m.Stability(); s != nil {
					if v := s.HighWater(); v > max {
						max = v
					}
				}
			}
			return max
		}
		defer func() {
			for _, m := range members {
				m.Close()
			}
		}()
	case "scalecast":
		members := scalecast.NewGroup(ip, nodes, scalecast.Config{
			Group:    "chaos",
			Degree:   cfg.Degree,
			Tracer:   tracer,
			Budget:   cfg.Budget,
			Overflow: cfg.Overflow,
		}, deliverFor)
		multicastFrom = func(rank int, payload any) { members[rank].Multicast(payload, chaosPayloadBytes) }
		holdMax = func() int64 {
			var max int64
			for _, m := range members {
				if v := m.HoldbackGauge.Max(); v > max {
					max = v
				}
			}
			return max
		}
		stabHigh = func() int64 { return 0 }
		defer func() {
			for _, m := range members {
				m.Close()
			}
		}()
	case "mgcast":
		gsize := cfg.N / 2
		if gsize < 2 {
			gsize = 2
		}
		table := mgcast.WrapGroups(cfg.N, cfg.Groups, gsize)
		names := mgcast.GroupNames(cfg.Groups)
		members := mgcast.NewUniverse(ip, nodes, mgcast.Config{
			Groups:   table,
			Tracer:   tracer,
			Budget:   cfg.Budget.Share(cfg.Senders),
			Overflow: cfg.Overflow,
		}, func(vclock.ProcessID) mgcast.DeliverFunc {
			return func(mgcast.Delivered) { delivered++ }
		})
		// Destination picks are drawn up front from the episode seed so
		// the schedule replays bit-identically.
		pickRng := rand.New(rand.NewSource(cfg.Seed ^ 0x6d67636173)) // "mgcas"
		picks := make([][][]string, cfg.Senders)
		for s := range picks {
			picks[s] = make([][]string, cfg.MsgsPer)
			for i := range picks[s] {
				picks[s][i] = pickGroups(pickRng, names, cfg.K)
			}
		}
		dests := make(map[msgKey][]int)
		multicastFrom = func(rank int, payload any) {
			i := payload.(int)
			id := members[rank].Multicast(picks[rank][i], payload, chaosPayloadBytes)
			if id != (mgcast.MsgID{}) {
				ranks := members[rank].DestRanks(picks[rank][i])
				ds := make([]int, len(ranks))
				for j, r := range ranks {
					ds[j] = int(r)
				}
				dests[msgKey{Sender: int64(id.Sender), Seq: id.Seq}] = ds
			}
		}
		destsFor = func(sender int64, seq uint64) []int {
			return dests[msgKey{Sender: sender, Seq: seq}]
		}
		holdMax = func() int64 {
			var max int64
			for _, m := range members {
				if v := m.HoldbackGauge.Max(); v > max {
					max = v
				}
			}
			return max
		}
		stabHigh = func() int64 { return 0 }
		defer func() {
			for _, m := range members {
				m.Close()
			}
		}()
	default:
		panic("chaos: unknown substrate " + cfg.Substrate)
	}

	cfg.Script.Apply(ip)

	var sent, skipped uint64
	for s := 0; s < cfg.Senders; s++ {
		for i := 0; i < cfg.MsgsPer; i++ {
			s, i := s, i
			k.At(time.Duration(i)*cfg.Interval+time.Duration(s)*100*time.Microsecond, func() {
				if ip.Crashed(transport.NodeID(s)) {
					skipped++ // fail-stop: a crashed process originates nothing
					return
				}
				sent++
				multicastFrom(s, i)
			})
		}
	}
	horizon := time.Duration(cfg.MsgsPer) * cfg.Interval
	if end := cfg.Script.End(); end > horizon {
		horizon = end
	}
	k.RunUntil(horizon + cfg.Settle)

	events := tracer.Events()
	res := Result{
		Substrate:     cfg.Substrate,
		Seed:          cfg.Seed,
		Script:        cfg.Script,
		Digest:        DigestEvents(events),
		Sent:          sent,
		Skipped:       skipped,
		Delivered:     delivered,
		Faults:        ip.Stats(),
		MaxHoldback:   holdMax(),
		StabHighWater: stabHigh(),
	}
	res.UnavailMax, res.UnavailMean = unavailability(events, groupNodes)

	orders := DeliveryOrders(events)
	if cfg.Substrate == "mgcast" {
		// Skeen's agreement promises a single global timestamp order
		// across overlapping destination sets — the acyclicity oracle —
		// plus delivery at exactly the destination members. It does NOT
		// promise causal (or even per-sender FIFO) order: concurrent
		// proposals can finalise against send order, so the causal,
		// same-set, and stability oracles do not apply. Casts parked by
		// a Block window at episode end have no recorded destinations
		// and are skipped by the dest oracle.
		res.Violations = append(res.Violations, CheckAcyclicOrder(orders)...)
		res.Violations = append(res.Violations, CheckDestLiveness(events, destsFor, cfg.Script.CrashedNodes())...)
	} else {
		res.Violations = append(res.Violations, CheckCausalOrder(events)...)
		if cfg.Substrate == "abcast" {
			res.Violations = append(res.Violations, CheckTotalOrder(orders)...)
			// The cross-group acyclicity oracle degenerates to pairwise
			// total order within one group; run it too so both oracles
			// audit the same trace.
			res.Violations = append(res.Violations, CheckAcyclicOrder(orders)...)
		}
		res.Violations = append(res.Violations, CheckSameSet(orders, groupNodes)...)
		res.Violations = append(res.Violations, CheckLiveness(events, groupNodes, cfg.Script.CrashedNodes())...)
		if cfg.Substrate != "scalecast" {
			res.Violations = append(res.Violations, CheckStabilitySafety(events, groupNodes)...)
			// Scalecast's budget bounds its retransmission logs, not the
			// holdback/stability pair this oracle audits; its bound is
			// asserted by the package's own tests.
			res.Violations = append(res.Violations, CheckBoundedMemory(res.MaxHoldback, res.StabHighWater, cfg.Budget, cfg.Overflow)...)
		}
	}
	res.Violations = append(res.Violations, checkWALDurability(cfg.Seed)...)
	if (cfg.Substrate == "cbcast" || cfg.Substrate == "abcast") && cfg.Script.Whole() {
		res.Violations = append(res.Violations, CheckQuiescent(k, quiesceSpan)...)
	}
	return res
}

// quiesceSpan is how much longer a settled episode runs for the
// quiescence oracle.
const quiesceSpan = time.Second

// pickGroups draws k distinct group names from names.
func pickGroups(rng *rand.Rand, names []string, k int) []string {
	if k >= len(names) {
		return append([]string(nil), names...)
	}
	idx := rng.Perm(len(names))[:k]
	sort.Ints(idx)
	out := make([]string, k)
	for i, j := range idx {
		out[i] = names[j]
	}
	return out
}

// chaosPayloadBytes matches the E16/E17 payload model.
const chaosPayloadBytes = 64

// checkWALDurability runs the episode's durability trial: append a
// seeded batch of records, tear the final append (crash mid-write),
// and require recovery to return exactly the acknowledged prefix.
func checkWALDurability(seed int64) []Violation {
	rng := rand.New(rand.NewSource(seed ^ 0x77a1))
	dev := wal.NewDevice()
	n := 5 + rng.Intn(20)
	for i := 1; i <= n; i++ {
		dev.Append(wal.Record{Object: "o", Seq: uint64(i), Value: rng.Intn(1000)})
	}
	dev.AppendTorn(wal.Record{Object: "o", Seq: uint64(n + 1), Value: rng.Intn(1000)})
	s, got, err := wal.Recover(dev)
	if err != nil {
		return []Violation{{Oracle: "wal-durability", Detail: fmt.Sprintf("recovery failed on a torn tail: %v", err)}}
	}
	if got != n {
		return []Violation{{Oracle: "wal-durability", Detail: fmt.Sprintf("recovered %d records, want the %d acknowledged", got, n)}}
	}
	if v, ver, ok := s.Get("o"); !ok || ver.Seq != uint64(n) {
		return []Violation{{Oracle: "wal-durability", Detail: fmt.Sprintf("recovered state %v@%v, want seq %d", v, ver, n)}}
	}
	return nil
}

// DigestEvents folds the trace into an FNV-1a digest. Over SimNet the
// trace is bit-deterministic under a seed, so equal digests across
// runs certify determinism and unequal digests localise divergence.
func DigestEvents(events []obs.Event) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, e := range events {
		putU64(uint64(e.T))
		putU64(uint64(e.Node))
		putU64(uint64(e.Kind))
		putU64(uint64(e.Msg.Sender))
		putU64(e.Msg.Seq)
		h.Write([]byte(e.Msg.Label))
		h.Write([]byte(e.Ctx))
		h.Write([]byte(e.Name))
	}
	return h.Sum64()
}

// unavailability computes each node's longest delivery silence: the
// max gap between consecutive application deliveries, with the clock
// starting at the first send in the trace. Returns the worst and mean
// over nodes. A partitioned or crashed node shows its outage here.
func unavailability(events []obs.Event, nodes []int) (max, mean time.Duration) {
	firstSend := time.Duration(-1)
	last := make(map[int]time.Duration)
	gap := make(map[int]time.Duration)
	for _, e := range events {
		switch e.Kind {
		case obs.KSend:
			if firstSend < 0 {
				firstSend = e.T
				for _, n := range nodes {
					last[n] = e.T
				}
			}
		case obs.KDeliver:
			if firstSend < 0 {
				continue
			}
			if g := e.T - last[e.Node]; g > gap[e.Node] {
				gap[e.Node] = g
			}
			last[e.Node] = e.T
		}
	}
	if firstSend < 0 || len(nodes) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, n := range nodes {
		g := gap[n]
		if g > max {
			max = g
		}
		sum += g
	}
	return max, sum / time.Duration(len(nodes))
}

// Shrink minimises a failing episode: greedily remove script ops (and
// finally the background fault mix) while the episode still shows the
// original failure (keepsFailure). Returns the minimal config and its
// result; if cfg does not fail, it is returned unchanged. Budgeted at
// ~200 re-runs.
func Shrink(cfg Config) (Config, Result) {
	res := Run(cfg)
	if len(res.Violations) == 0 {
		return cfg, res
	}
	orig := res.Violations
	budget := 200
	for {
		removed := false
		for i := 0; i < len(cfg.Script.Ops) && budget > 0; i++ {
			trial := cfg
			trial.Script.Ops = append(append([]Op{}, cfg.Script.Ops[:i]...), cfg.Script.Ops[i+1:]...)
			budget--
			if r := Run(trial); keepsFailure(orig, r.Violations) {
				cfg, res = trial, r
				removed = true
				i--
			}
		}
		if !removed || budget <= 0 {
			break
		}
	}
	if budget > 0 && !cfg.Faults.IsZero() {
		trial := cfg
		trial.Faults = LinkFault{}
		if r := Run(trial); keepsFailure(orig, r.Violations) {
			cfg, res = trial, r
		}
	}
	return cfg, res
}

// keepsFailure reports whether a shrink trial still shows the failure
// being minimised: it violates at least one oracle, and only oracles
// the original run violated. Any failure at all is not enough — a
// quiescence failure on a crash→recover script would otherwise shrink
// to the bare crash, which fails liveness instead.
func keepsFailure(orig, trial []Violation) bool {
	for _, v := range trial {
		if !slices.ContainsFunc(orig, func(o Violation) bool { return o.Oracle == v.Oracle }) {
			return false
		}
	}
	return len(trial) > 0
}

// RunnerConfig parameterises a batch of randomized episodes.
type RunnerConfig struct {
	Substrate string
	N         int
	Senders   int
	MsgsPer   int
	Interval  time.Duration
	Episodes  int
	// Seed is the base seed; episode i runs at Seed + i*1000003.
	Seed int64
	// Gen bounds the random fault schedules. Zero-valued fields are
	// filled from the default mix (1 crash, 1 partition, 2 flaky
	// links, outages up to 250ms).
	Gen GenConfig
	// Faults is the background mix; the zero value means
	// DefaultFaults. Use NoFaults for a clean-network control.
	Faults LinkFault
	// NoFaults disables the background mix entirely.
	NoFaults bool
	// Shrink minimises failing schedules before reporting them.
	Shrink bool
	Degree int
	// Groups / K parameterise mgcast episodes (see Config).
	Groups int
	K      int
	// Budget/Overflow install flow control in every episode; a limited
	// budget arms the bounded-memory oracle.
	Budget   flowcontrol.Budget
	Overflow flowcontrol.Policy
}

// Failure is one episode that violated an oracle, with its minimised
// reproduction.
type Failure struct {
	Seed      int64
	Result    Result
	MinConfig Config
	MinResult Result
	// Repro is the one-line command that replays the minimised
	// failure.
	Repro string
}

// Summary aggregates a batch of episodes.
type Summary struct {
	Substrate string
	Episodes  int
	// Digest combines every episode digest; stable across runs of the
	// same RunnerConfig.
	Digest    uint64
	Sent      uint64
	Skipped   uint64
	Delivered uint64
	Faults    FaultStats
	// MaxHoldback / StabHighWater are worst-case over episodes.
	MaxHoldback   int64
	StabHighWater int64
	// UnavailMax is worst-case over episodes; UnavailMean averages the
	// per-episode means.
	UnavailMax  time.Duration
	UnavailMean time.Duration
	Failures    []Failure
}

func (rc *RunnerConfig) fillDefaults() {
	if rc.N == 0 {
		rc.N = 6
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
	if rc.Faults.IsZero() && !rc.NoFaults {
		rc.Faults = DefaultFaults
	}
	g := &rc.Gen
	g.Nodes = rc.N
	if g.Horizon == 0 {
		g.Horizon = time.Duration(rc.MsgsPer) * rc.Interval
	}
	if g.MaxOutage == 0 {
		g.MaxOutage = 250 * time.Millisecond
	}
	if g.Crashes == 0 && g.Partitions == 0 && g.FlakyLinks == 0 {
		g.Crashes, g.Partitions, g.FlakyLinks = 1, 1, 2
	}
	if g.Flaky.IsZero() {
		g.Flaky = LinkFault{DropProb: 0.3, DupProb: 0.2, DelayProb: 0.3, Delay: 20 * time.Millisecond}
	}
	if g.Slows > 0 && g.MaxLag == 0 {
		g.MaxLag = 100 * time.Millisecond
	}
}

// RunEpisodes executes rc.Episodes seeded random-fault episodes and
// aggregates them. Each episode's schedule is generated from its own
// derived seed, so any single episode replays in isolation from just
// (substrate, sizes, seed, script).
func RunEpisodes(rc RunnerConfig) Summary {
	rc.fillDefaults()
	sum := Summary{Substrate: rc.Substrate, Episodes: rc.Episodes}
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < rc.Episodes; i++ {
		seed := rc.Seed + int64(i)*1000003
		script := Gen(rand.New(rand.NewSource(seed^0x6368616f73)), rc.Gen)
		cfg := Config{
			Substrate: rc.Substrate,
			N:         rc.N,
			Senders:   rc.Senders,
			MsgsPer:   rc.MsgsPer,
			Interval:  rc.Interval,
			Seed:      seed,
			Script:    script,
			Faults:    rc.Faults,
			Degree:    rc.Degree,
			Groups:    rc.Groups,
			K:         rc.K,
			Budget:    rc.Budget,
			Overflow:  rc.Overflow,
		}
		res := Run(cfg)
		for b := 0; b < 8; b++ {
			buf[b] = byte(res.Digest >> (8 * b))
		}
		h.Write(buf[:])
		sum.Sent += res.Sent
		sum.Skipped += res.Skipped
		sum.Delivered += res.Delivered
		sum.Faults.Dropped += res.Faults.Dropped
		sum.Faults.Duplicated += res.Faults.Duplicated
		sum.Faults.Delayed += res.Faults.Delayed
		if res.MaxHoldback > sum.MaxHoldback {
			sum.MaxHoldback = res.MaxHoldback
		}
		if res.StabHighWater > sum.StabHighWater {
			sum.StabHighWater = res.StabHighWater
		}
		if res.UnavailMax > sum.UnavailMax {
			sum.UnavailMax = res.UnavailMax
		}
		sum.UnavailMean += res.UnavailMean
		if len(res.Violations) > 0 {
			f := Failure{Seed: seed, Result: res, MinConfig: cfg, MinResult: res}
			if rc.Shrink {
				f.MinConfig, f.MinResult = Shrink(cfg)
			}
			f.Repro = fmt.Sprintf("go run ./cmd/chaos -substrate %s -n %d -senders %d -msgs %d -seed %d -script %q",
				rc.Substrate, rc.N, f.MinConfig.Senders, rc.MsgsPer, seed, f.MinConfig.Script.String())
			if rc.Substrate == "mgcast" {
				f.Repro += fmt.Sprintf(" -groups %d -k %d", f.MinConfig.Groups, f.MinConfig.K)
			}
			sum.Failures = append(sum.Failures, f)
		}
	}
	sum.Digest = h.Sum64()
	if rc.Episodes > 0 {
		sum.UnavailMean /= time.Duration(rc.Episodes)
	}
	return sum
}

// ViolationCounts tallies a batch's violations by oracle name.
func (s Summary) ViolationCounts() map[string]int {
	counts := make(map[string]int)
	for _, f := range s.Failures {
		for _, v := range f.Result.Violations {
			counts[v.Oracle]++
		}
	}
	return counts
}

// ViolationSummary renders the tally compactly ("none" when clean).
func (s Summary) ViolationSummary() string {
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
