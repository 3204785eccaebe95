package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/obs"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/wal"
)

// Substrates lists the worlds that run under the fault Interposer, in
// report order. Two more worlds run membership churn (churn.go):
// "churn" and "rewire".
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

// Config parameterises one chaos episode. Substrate picks the world;
// each world reads the fields that apply to it and ignores the rest.
type Config struct {
	// Substrate names the world. The four Substrates run under the
	// fault Interposer: "cbcast" (atomic CBCAST), "abcast" (the repo's
	// causally-consistent fixed sequencer, run atomic), "scalecast",
	// and "mgcast" (Skeen-style multi-group atomic multicast). "churn"
	// runs the atomic cbcast membership stack under join/leave/crash/
	// recover scripts; "rewire" runs the same scripts over scalecast,
	// reconfigured by an operator (E24's comparison arm).
	Substrate string
	// N is the (initial) group size. Zero defaults to 6, or to 8 in
	// the churn worlds, which need N ≥ 3.
	N int
	// Senders is how many of the first N ranks originate traffic. Zero
	// defaults to min(N, 4). Down senders skip their sends — the
	// fail-stop model the liveness oracles assume.
	Senders int
	// MsgsPer is messages per sender. Zero defaults to 30.
	MsgsPer int
	// Interval is the per-sender send period. Zero defaults to 5ms.
	Interval time.Duration
	// Settle is quiet time after the last send and last script op, so
	// recovery protocols finish before the oracles run. Zero defaults
	// to 2s; the churn worlds add ten suspect timeouts, so the last
	// reconfiguration completes too.
	Settle time.Duration
	// Seed drives the kernel, the interposer, and the WAL trial.
	Seed int64
	// Script is the schedule. Gen's invariant applies: every
	// destructive op must be repaired before the settle window, or the
	// liveness oracles will (correctly) fire.
	Script Script
	// Faults is the background fault mix on every link of the
	// interposer worlds; the zero value is a clean network. The churn
	// worlds run raw links: reconfiguration and the script's network
	// ops are their only faults.
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
	// Budget bounds per-group buffer memory in the interposer worlds;
	// the zero value is unlimited. With a limited budget the
	// bounded-memory oracle runs.
	Budget flowcontrol.Budget
	// Overflow picks what happens when the budget is hit: None, Block,
	// Shed, or Spill. Suspect needs a membership monitor, which the
	// interposer worlds do not run.
	Overflow flowcontrol.Policy
	// Heartbeat / Suspect configure the churn world's monitors (zero =
	// the group package defaults, 10ms/40ms). Scale them up with N:
	// heartbeat traffic is O(N²) per interval.
	Heartbeat time.Duration
	Suspect   time.Duration
	// AckInterval / NackDelay configure the churn world's atomic-mode
	// stability acks (zero = the multicast defaults, 20ms/25ms). Scale
	// them up with N too: every cast burst triggers N² ack messages,
	// each updating an O(N) stability-matrix row — the §5 cost E24
	// measures at scale.
	AckInterval time.Duration
	NackDelay   time.Duration
}

// churn reports whether cfg names one of the churn worlds.
func (cfg *Config) churn() bool { return cfg.Substrate == "churn" || cfg.Substrate == "rewire" }

func (cfg *Config) fillDefaults() {
	if cfg.N == 0 {
		cfg.N = 6
		if cfg.churn() {
			cfg.N = 8
		}
	}
	if cfg.Senders == 0 {
		cfg.Senders = min(cfg.N, 4)
	}
	if cfg.MsgsPer == 0 {
		cfg.MsgsPer = 30
	}
	if cfg.Interval == 0 {
		cfg.Interval = 5 * time.Millisecond
	}
	if cfg.Settle == 0 {
		cfg.Settle = 2 * time.Second
		if cfg.churn() {
			suspect := cfg.Suspect
			if suspect == 0 {
				suspect = 40 * time.Millisecond
			}
			cfg.Settle += 10 * suspect
		}
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

// Counters are what an episode measured; a Summary sums them over a
// batch. Each world fills the ones it has and leaves the rest zero.
type Counters struct {
	// Sent counts application multicasts; Skipped counts sends elided
	// because the sender was down at fire time.
	Sent    uint64
	Skipped uint64
	// Delivered counts application deliveries across all nodes. In the
	// churn worlds it counts first-time applies; Dups counts the
	// duplicate applies application-level IDs absorbed (the
	// at-least-once replay cost the paper's §4.4 assigns to the
	// application).
	Delivered uint64
	Dups      uint64
	// Faults counts what the interposer injected.
	Faults FaultStats
	// MaxHoldback is the worst holdback-queue occupancy any member saw
	// (buffer growth under faults — the §5 resource argument).
	MaxHoldback int64
	// StabHighWater is the worst unstable-message count any member's
	// stability matrix tracked (0 where there is none).
	StabHighWater int64
	// Epochs counts reconfigurations: the final view's epoch at the
	// stable core (churn), or applied rewires (rewire). FlushMsgs sums
	// membership-protocol messages (churn) or link-control messages
	// over the whole run (rewire).
	Epochs    uint64
	FlushMsgs uint64
	// TransferBytes / TransferChunks: donor-side state-transfer volume.
	TransferBytes  uint64
	TransferChunks uint64
	// UnavailMax / UnavailMean: the longest delivery silence per
	// initial node (max gap between consecutive deliveries, measured
	// from the first send), worst and mean over nodes. Partitions
	// surface here — the paper's §6 point that CATOCS blocks rather
	// than degrades.
	UnavailMax  time.Duration
	UnavailMean time.Duration
}

// MetadataPerEpoch is the membership-message cost of one
// reconfiguration.
func (c Counters) MetadataPerEpoch() float64 {
	if c.Epochs == 0 {
		return 0
	}
	return float64(c.FlushMsgs) / float64(c.Epochs)
}

// add folds one episode into a batch total: worst case for the
// maxima, sums for the rest (UnavailMean too, divided by the episode
// count at the end).
func (c *Counters) add(o Counters) {
	c.Sent += o.Sent
	c.Skipped += o.Skipped
	c.Delivered += o.Delivered
	c.Dups += o.Dups
	c.Faults.Dropped += o.Faults.Dropped
	c.Faults.Duplicated += o.Faults.Duplicated
	c.Faults.Delayed += o.Faults.Delayed
	c.MaxHoldback = max(c.MaxHoldback, o.MaxHoldback)
	c.StabHighWater = max(c.StabHighWater, o.StabHighWater)
	c.Epochs += o.Epochs
	c.FlushMsgs += o.FlushMsgs
	c.TransferBytes += o.TransferBytes
	c.TransferChunks += o.TransferChunks
	c.UnavailMax = max(c.UnavailMax, o.UnavailMax)
	c.UnavailMean += o.UnavailMean
}

// Result is what one episode measured.
type Result struct {
	Substrate string
	Seed      int64
	Script    Script
	// Digest is an FNV-1a hash of the full event trace; two runs of
	// the same Config produce the same digest or determinism is broken.
	Digest uint64
	Counters
	// Violations is empty iff every oracle passed.
	Violations []Violation
}

// episode is what every world shares: the config with its defaults
// filled, the kernel, the tracer every world instruments its network
// with, and the initial members (rank i is node i), as node IDs and as
// the ints the oracles take.
type episode struct {
	cfg    Config
	k      *sim.Kernel
	tracer *obs.Tracer
	nodes  []transport.NodeID
	ranks  []int
}

// A world is one kind of system an episode runs. Its constructor
// builds the network and the members; Run owns the rest of the
// episode — the kernel, the script and send schedules, the horizon,
// the digest, unavailability, and the WAL trial.
type world interface {
	// cast fires sender s's i-th send and reports false if s is down,
	// in which case the send is skipped.
	cast(s, i int) bool
	// apply executes one script op at its scheduled time.
	apply(op Op)
	// finish fills the world's counters into res and appends its
	// oracles' violations.
	finish(events []obs.Event, res *Result)
}

func newWorld(e *episode) world {
	switch e.cfg.Substrate {
	case "cbcast", "abcast", "scalecast", "mgcast":
		return newFaultWorld(e)
	case "churn":
		return newChurnWorld(e)
	case "rewire":
		return newRewireWorld(e)
	}
	panic("chaos: unknown substrate " + e.cfg.Substrate)
}

// Run executes one episode and checks every oracle its world has.
func Run(cfg Config) Result {
	cfg.fillDefaults()
	e := &episode{cfg: cfg, k: sim.NewKernel(cfg.Seed), tracer: obs.NewTracer()}
	e.k.SetEventLimit(200_000_000)
	for i := 0; i < cfg.N; i++ {
		e.nodes = append(e.nodes, transport.NodeID(i))
		e.ranks = append(e.ranks, i)
	}
	w := newWorld(e)
	for _, op := range cfg.Script.Ops {
		e.k.At(op.At, func() { w.apply(op) })
	}
	res := Result{Substrate: cfg.Substrate, Seed: cfg.Seed, Script: cfg.Script}
	for s := 0; s < cfg.Senders; s++ {
		for i := 0; i < cfg.MsgsPer; i++ {
			e.k.At(time.Duration(i)*cfg.Interval+time.Duration(s)*100*time.Microsecond, func() {
				if w.cast(s, i) {
					res.Sent++
				} else {
					res.Skipped++ // fail-stop: a down process originates nothing
				}
			})
		}
	}
	e.k.RunUntil(max(time.Duration(cfg.MsgsPer)*cfg.Interval, cfg.Script.End()) + cfg.Settle)

	events := e.tracer.Events()
	res.Digest = DigestEvents(events)
	res.UnavailMax, res.UnavailMean = unavailability(events, e.ranks)
	w.finish(events, &res)
	res.Violations = append(res.Violations, checkWALDurability(cfg.Seed)...)
	return res
}

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
// original failure (keepsFailure). Op drivers tolerate a missing
// precondition, so removing one half of a pair leaves the other
// harmless. A schedule that ends whole keeps ending whole: a heal or
// recover goes only after its cut or crash, since without it the
// outage is permanent, and that is a different failure. Returns the
// minimal config and its result; if cfg does not fail, it is returned
// unchanged. Budgeted at ~200 re-runs.
func Shrink(cfg Config) (Config, Result) {
	res := Run(cfg)
	if len(res.Violations) == 0 {
		return cfg, res
	}
	orig := res.Violations
	whole := cfg.Script.Whole()
	budget := 200
	for {
		removed := false
		for i := 0; i < len(cfg.Script.Ops) && budget > 0; i++ {
			trial := cfg
			trial.Script.Ops = append(append([]Op{}, cfg.Script.Ops[:i]...), cfg.Script.Ops[i+1:]...)
			if whole && !trial.Script.Whole() {
				continue
			}
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
	// Config is the episode template. Its Seed is the base seed —
	// episode i runs at Seed + i*1000003 — and its Script is replaced
	// by each episode's generated schedule.
	Config
	// Episodes is the batch size. Zero defaults to 20.
	Episodes int
	// Gen bounds the interposer worlds' generated fault schedules.
	// Zero-valued fields are filled from the default mix (1 crash, 1
	// partition, 2 flaky links, outages up to 250ms).
	Gen GenConfig
	// GenChurn bounds the churn worlds' generated schedules. Zero
	// counts default to 2 crash→recover pairs and 2 joins (1 staying),
	// plus one sub-detection partition and one inbound-lag window, so
	// reconfiguration runs over degraded links, not just clean ones.
	GenChurn GenChurnConfig
	// NoRecover strips the recover half of every crash pair: crashed
	// members stay down and the group only shrinks. The rejoin oracles
	// then have nothing to check for those nodes — this mode stresses
	// repeated exclusion instead of the recovery path.
	NoRecover bool
	// Shrink minimises failing schedules before reporting them.
	Shrink bool
}

func (rc *RunnerConfig) fillDefaults() {
	ep := rc.Config
	ep.fillDefaults()
	rc.N, rc.MsgsPer, rc.Interval = ep.N, ep.MsgsPer, ep.Interval
	if rc.Episodes == 0 {
		rc.Episodes = 20
	}
	horizon := time.Duration(rc.MsgsPer) * rc.Interval
	if rc.churn() {
		g := &rc.GenChurn
		g.Nodes = rc.N
		if g.Horizon == 0 {
			g.Horizon = horizon
		}
		if g.MaxOutage == 0 {
			g.MaxOutage = 250 * time.Millisecond
		}
		if g.Crashes == 0 && g.Joins == 0 {
			g.Crashes, g.Joins, g.Stayers = 2, 2, 1
			g.Partitions, g.Slows = 1, 1
		}
		return
	}
	g := &rc.Gen
	g.Nodes = rc.N
	if g.Horizon == 0 {
		g.Horizon = horizon
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

// gen draws the schedule of the episode at seed: GenChurn in the churn
// worlds and Gen in the others, each from the seed XOR its own tag
// ("churn" / "chaos").
func (rc *RunnerConfig) gen(seed int64) Script {
	var s Script
	if rc.churn() {
		s = GenChurn(rand.New(rand.NewSource(seed^0x636875726e)), rc.GenChurn)
	} else {
		s = Gen(rand.New(rand.NewSource(seed^0x6368616f73)), rc.Gen)
	}
	if rc.NoRecover {
		s.Ops = slices.DeleteFunc(s.Ops, func(op Op) bool { return op.Kind == OpRecover })
	}
	return s
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
	Digest uint64
	// Counters sums the episodes' counters. MaxHoldback, StabHighWater
	// and UnavailMax are worst-case over episodes; UnavailMean averages
	// the per-episode means.
	Counters
	Failures []Failure
}

// RunEpisodes executes rc.Episodes seeded random-schedule episodes and
// aggregates them. Each episode's schedule is generated from its own
// derived seed, so any single episode replays in isolation from the
// Repro line of its failure.
func RunEpisodes(rc RunnerConfig) Summary {
	rc.fillDefaults()
	sum := Summary{Substrate: rc.Substrate, Episodes: rc.Episodes}
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < rc.Episodes; i++ {
		cfg := rc.Config
		cfg.Seed = rc.Seed + int64(i)*1000003
		cfg.Script = rc.gen(cfg.Seed)
		res := Run(cfg)
		for b := 0; b < 8; b++ {
			buf[b] = byte(res.Digest >> (8 * b))
		}
		h.Write(buf[:])
		sum.add(res.Counters)
		if len(res.Violations) > 0 {
			f := Failure{Seed: cfg.Seed, Result: res, MinConfig: cfg, MinResult: res}
			if rc.Shrink {
				f.MinConfig, f.MinResult = Shrink(cfg)
			}
			f.Repro = repro(f.MinConfig)
			sum.Failures = append(sum.Failures, f)
		}
	}
	sum.Digest = h.Sum64()
	if rc.Episodes > 0 {
		sum.UnavailMean /= time.Duration(rc.Episodes)
	}
	return sum
}

// repro renders the cmd/chaos line that replays cfg: its world, sizes,
// seed and script, and in the interposer worlds mgcast's topology, a
// zero background mix (-clean; any other mix replays as
// DefaultFaults) and the buffer budget. Fields cmd/chaos has no flag
// for (Interval, Degree, the churn timers) replay at their defaults.
func repro(cfg Config) string {
	world := "-churn"
	if cfg.Substrate != "churn" {
		world = "-substrate " + cfg.Substrate
	}
	line := fmt.Sprintf("go run ./cmd/chaos %s -n %d -senders %d -msgs %d -seed %d -script %q",
		world, cfg.N, cfg.Senders, cfg.MsgsPer, cfg.Seed, cfg.Script.String())
	if cfg.churn() {
		return line
	}
	if cfg.Substrate == "mgcast" {
		line += fmt.Sprintf(" -groups %d -k %d", cfg.Groups, cfg.K)
	}
	if cfg.Faults.IsZero() {
		line += " -clean"
	}
	if cfg.Budget.MaxMsgs > 0 {
		line += fmt.Sprintf(" -budget %d -policy %s", cfg.Budget.MaxMsgs, cfg.Overflow)
	}
	return line
}

// ViolationSummary tallies a batch's violations by oracle name and
// renders them compactly ("none" when clean).
func (s Summary) ViolationSummary() string {
	counts := make(map[string]int)
	for _, f := range s.Failures {
		for _, v := range f.Result.Violations {
			counts[v.Oracle]++
		}
	}
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
