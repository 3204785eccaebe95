package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"catocs/internal/transport"
)

// OpKind enumerates the fault operations a Script can schedule.
type OpKind int

const (
	OpCrash OpKind = iota
	OpRecover
	OpPartition
	OpHeal
	OpLink
	OpClearLink
	OpSlow
	OpFast
	// OpJoin and OpLeave are membership ops: a fresh node requests
	// admission; a member departs gracefully. Only the churn worlds
	// (churn.go) interpret them; the interposer worlds ignore them. In
	// the churn world OpCrash/OpRecover also gain membership meaning:
	// crash fail-stops a member (its WAL survives), recover restarts it
	// from that WAL and rejoins it as the same identity.
	OpJoin
	OpLeave
)

// Op is one scheduled fault action. Which fields are meaningful
// depends on Kind: Node for crash/recover/slow/fast, Lag for slow,
// Islands for part, From/To and Fault for link, From/To for clear,
// nothing extra for heal.
type Op struct {
	At      time.Duration
	Kind    OpKind
	Node    transport.NodeID
	Lag     time.Duration
	Islands [][]transport.NodeID
	From    transport.NodeID
	To      transport.NodeID
	Fault   LinkFault
}

// String renders one op in the script grammar.
func (o Op) String() string {
	switch o.Kind {
	case OpCrash:
		return fmt.Sprintf("@%s crash %d", o.At, o.Node)
	case OpRecover:
		return fmt.Sprintf("@%s recover %d", o.At, o.Node)
	case OpPartition:
		var islands []string
		for _, isl := range o.Islands {
			var ids []string
			for _, id := range isl {
				ids = append(ids, strconv.Itoa(int(id)))
			}
			islands = append(islands, strings.Join(ids, ","))
		}
		return fmt.Sprintf("@%s part %s", o.At, strings.Join(islands, "|"))
	case OpHeal:
		return fmt.Sprintf("@%s heal", o.At)
	case OpLink:
		return fmt.Sprintf("@%s link %d>%d %s", o.At, o.From, o.To, o.Fault)
	case OpClearLink:
		return fmt.Sprintf("@%s clear %d>%d", o.At, o.From, o.To)
	case OpSlow:
		return fmt.Sprintf("@%s slow %d %s", o.At, o.Node, o.Lag)
	case OpFast:
		return fmt.Sprintf("@%s fast %d", o.At, o.Node)
	case OpJoin:
		return fmt.Sprintf("@%s join %d", o.At, o.Node)
	case OpLeave:
		return fmt.Sprintf("@%s leave %d", o.At, o.Node)
	}
	return fmt.Sprintf("@%s ?", o.At)
}

// Script is an ordered fault schedule. Scripts print and parse a
// compact one-line grammar so a failing schedule can be pasted
// straight back into the CLI:
//
//	@12ms crash 3; @30ms recover 3; @40ms part 0,1,2|3,4; @90ms heal;
//	@10ms link 2>4 drop=0.30,dup=0.10,delay=0.50x20ms; @50ms clear 2>4;
//	@10ms slow 3 50ms; @200ms fast 3
type Script struct {
	Ops []Op
}

// String renders the schedule in the script grammar; empty scripts
// render as "".
func (s Script) String() string {
	var parts []string
	for _, op := range s.Ops {
		parts = append(parts, op.String())
	}
	return strings.Join(parts, "; ")
}

// ParseScript parses the grammar String produces. An empty string is
// an empty script.
func ParseScript(text string) (Script, error) {
	var s Script
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, clause := range strings.Split(text, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		op, err := parseOp(clause)
		if err != nil {
			return Script{}, fmt.Errorf("chaos: bad clause %q: %w", clause, err)
		}
		s.Ops = append(s.Ops, op)
	}
	return s, nil
}

func parseOp(clause string) (Op, error) {
	fields := strings.Fields(clause)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "@") {
		return Op{}, fmt.Errorf("want \"@<time> <verb> ...\"")
	}
	at, err := time.ParseDuration(strings.TrimPrefix(fields[0], "@"))
	if err != nil {
		return Op{}, err
	}
	op := Op{At: at}
	switch fields[1] {
	case "crash", "recover", "join", "leave":
		if len(fields) != 3 {
			return Op{}, fmt.Errorf("want \"%s <node>\"", fields[1])
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return Op{}, err
		}
		op.Node = transport.NodeID(n)
		switch fields[1] {
		case "crash":
			op.Kind = OpCrash
		case "recover":
			op.Kind = OpRecover
		case "join":
			op.Kind = OpJoin
		case "leave":
			op.Kind = OpLeave
		}
	case "part":
		if len(fields) != 3 {
			return Op{}, fmt.Errorf("want \"part a,b|c,d\"")
		}
		op.Kind = OpPartition
		for _, isl := range strings.Split(fields[2], "|") {
			var ids []transport.NodeID
			for _, tok := range strings.Split(isl, ",") {
				n, err := strconv.Atoi(tok)
				if err != nil {
					return Op{}, err
				}
				ids = append(ids, transport.NodeID(n))
			}
			op.Islands = append(op.Islands, ids)
		}
	case "heal":
		op.Kind = OpHeal
	case "slow":
		if len(fields) != 4 {
			return Op{}, fmt.Errorf("want \"slow <node> <lag>\"")
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return Op{}, err
		}
		lag, err := time.ParseDuration(fields[3])
		if err != nil {
			return Op{}, err
		}
		op.Kind, op.Node, op.Lag = OpSlow, transport.NodeID(n), lag
	case "fast":
		if len(fields) != 3 {
			return Op{}, fmt.Errorf("want \"fast <node>\"")
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return Op{}, err
		}
		op.Kind, op.Node = OpFast, transport.NodeID(n)
	case "link", "clear":
		if fields[1] == "link" && len(fields) != 4 {
			return Op{}, fmt.Errorf("want \"link a>b <fault>\"")
		}
		if fields[1] == "clear" && len(fields) != 3 {
			return Op{}, fmt.Errorf("want \"clear a>b\"")
		}
		pair := strings.SplitN(fields[2], ">", 2)
		if len(pair) != 2 {
			return Op{}, fmt.Errorf("want \"<from>><to>\"")
		}
		from, err := strconv.Atoi(pair[0])
		if err != nil {
			return Op{}, err
		}
		to, err := strconv.Atoi(pair[1])
		if err != nil {
			return Op{}, err
		}
		op.From, op.To = transport.NodeID(from), transport.NodeID(to)
		if fields[1] == "clear" {
			op.Kind = OpClearLink
			break
		}
		op.Kind = OpLink
		op.Fault, err = parseFault(fields[3])
		if err != nil {
			return Op{}, err
		}
	default:
		return Op{}, fmt.Errorf("unknown verb %q", fields[1])
	}
	return op, nil
}

func parseFault(text string) (LinkFault, error) {
	var f LinkFault
	if text == "clean" {
		return f, nil
	}
	for _, part := range strings.Split(text, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return f, fmt.Errorf("bad fault term %q", part)
		}
		switch kv[0] {
		case "drop":
			p, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return f, err
			}
			f.DropProb = p
		case "dup":
			p, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return f, err
			}
			f.DupProb = p
		case "delay":
			pd := strings.SplitN(kv[1], "x", 2)
			if len(pd) != 2 {
				return f, fmt.Errorf("want delay=<prob>x<duration>")
			}
			p, err := strconv.ParseFloat(pd[0], 64)
			if err != nil {
				return f, err
			}
			d, err := time.ParseDuration(pd[1])
			if err != nil {
				return f, err
			}
			f.DelayProb, f.Delay = p, d
		default:
			return f, fmt.Errorf("unknown fault term %q", kv[0])
		}
	}
	return f, nil
}

// CrashedNodes returns the distinct nodes the script crashes at any
// point, sorted — the "faulty" set the liveness oracle exempts from
// validity.
func (s Script) CrashedNodes() []int {
	seen := make(map[int]bool)
	var out []int
	for _, op := range s.Ops {
		if op.Kind == OpCrash && !seen[int(op.Node)] {
			seen[int(op.Node)] = true
			out = append(out, int(op.Node))
		}
	}
	sort.Ints(out)
	return out
}

// Whole reports whether the schedule ends with the network whole: every
// crashed node recovered and the last partition healed.
func (s Script) Whole() bool {
	ops := append([]Op(nil), s.Ops...)
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].At < ops[b].At })
	down := make(map[transport.NodeID]bool)
	parted := false
	for _, op := range ops {
		switch op.Kind {
		case OpCrash:
			down[op.Node] = true
		case OpRecover:
			delete(down, op.Node)
		case OpPartition:
			parted = true
		case OpHeal:
			parted = false
		}
	}
	return len(down) == 0 && !parted
}

// End returns the time of the last scheduled op (0 for an empty
// script) — runners extend the episode horizon past it so faults get
// a chance to bite and heal.
func (s Script) End() time.Duration {
	var end time.Duration
	for _, op := range s.Ops {
		if op.At > end {
			end = op.At
		}
	}
	return end
}

// GenConfig bounds the randomized fault schedules Gen produces.
type GenConfig struct {
	// Nodes is the group size; faults pick targets in [0, Nodes).
	Nodes int
	// Horizon is the window fault onsets are drawn from.
	Horizon time.Duration
	// MaxOutage bounds how long a crash or partition lasts before its
	// paired recover/heal.
	MaxOutage time.Duration
	// Crashes, Partitions, FlakyLinks, Slows count how many of each
	// fault pair to schedule.
	Crashes    int
	Partitions int
	FlakyLinks int
	Slows      int
	// MaxLag bounds the inbound delivery lag a generated slow-consumer
	// episode applies (the floor is MaxLag/4, mirroring outages).
	MaxLag time.Duration
	// Flaky bounds the per-link fault mix for FlakyLinks: each
	// generated link draws probabilities in [0, bound) and uses
	// Flaky.Delay verbatim.
	Flaky LinkFault
}

// Gen draws a random fault schedule within cfg's bounds from rng.
// Every destructive op is paired with its repair (crash→recover,
// part→heal, link→clear), so schedules always end with the network
// whole — the liveness oracle requires it under the fail-stop model.
// The result is stably sorted by onset time.
func Gen(rng *rand.Rand, cfg GenConfig) Script {
	if cfg.Nodes < 2 {
		panic("chaos: Gen needs at least 2 nodes")
	}
	dur := func(max time.Duration) time.Duration {
		if max <= 0 {
			return 0
		}
		return time.Duration(rng.Int63n(int64(max)))
	}
	var s Script
	for i := 0; i < cfg.Crashes; i++ {
		at := dur(cfg.Horizon)
		outage := cfg.MaxOutage/4 + dur(cfg.MaxOutage*3/4)
		node := transport.NodeID(rng.Intn(cfg.Nodes))
		s.Ops = append(s.Ops,
			Op{At: at, Kind: OpCrash, Node: node},
			Op{At: at + outage, Kind: OpRecover, Node: node},
		)
	}
	for i := 0; i < cfg.Partitions; i++ {
		at := dur(cfg.Horizon)
		outage := cfg.MaxOutage/4 + dur(cfg.MaxOutage*3/4)
		// Cut 1..Nodes/2 nodes into a minority island; the rest form
		// the implicit island 0.
		cut := 1 + rng.Intn(cfg.Nodes/2)
		perm := rng.Perm(cfg.Nodes)
		minority := make([]transport.NodeID, cut)
		for j := 0; j < cut; j++ {
			minority[j] = transport.NodeID(perm[j])
		}
		sort.Slice(minority, func(a, b int) bool { return minority[a] < minority[b] })
		var majority []transport.NodeID
	outer:
		for n := 0; n < cfg.Nodes; n++ {
			for _, m := range minority {
				if transport.NodeID(n) == m {
					continue outer
				}
			}
			majority = append(majority, transport.NodeID(n))
		}
		s.Ops = append(s.Ops,
			Op{At: at, Kind: OpPartition, Islands: [][]transport.NodeID{majority, minority}},
			Op{At: at + outage, Kind: OpHeal},
		)
	}
	for i := 0; i < cfg.FlakyLinks; i++ {
		at := dur(cfg.Horizon)
		outage := cfg.MaxOutage/4 + dur(cfg.MaxOutage*3/4)
		from := transport.NodeID(rng.Intn(cfg.Nodes))
		to := transport.NodeID(rng.Intn(cfg.Nodes - 1))
		if to >= from {
			to++
		}
		f := LinkFault{
			DropProb:  cfg.Flaky.DropProb * rng.Float64(),
			DupProb:   cfg.Flaky.DupProb * rng.Float64(),
			DelayProb: cfg.Flaky.DelayProb * rng.Float64(),
			Delay:     cfg.Flaky.Delay,
		}
		s.Ops = append(s.Ops,
			Op{At: at, Kind: OpLink, From: from, To: to, Fault: f},
			Op{At: at + outage, Kind: OpClearLink, From: from, To: to},
		)
	}
	for i := 0; i < cfg.Slows; i++ {
		at := dur(cfg.Horizon)
		outage := cfg.MaxOutage/4 + dur(cfg.MaxOutage*3/4)
		lag := cfg.MaxLag/4 + dur(cfg.MaxLag*3/4)
		node := transport.NodeID(rng.Intn(cfg.Nodes))
		// A slowed node is NOT in CrashedNodes: it stays alive and must
		// eventually deliver everything — that is the point of the
		// slow-consumer model, and the liveness oracle holds it to it.
		s.Ops = append(s.Ops,
			Op{At: at, Kind: OpSlow, Node: node, Lag: lag},
			Op{At: at + outage, Kind: OpFast, Node: node},
		)
	}
	sort.SliceStable(s.Ops, func(a, b int) bool { return s.Ops[a].At < s.Ops[b].At })
	return s
}

// GenChurnConfig bounds the randomized churn schedules GenChurn
// produces.
type GenChurnConfig struct {
	// Nodes is the initial group size. Crash targets are drawn from
	// [2, Nodes): ranks 0 and 1 form a stable core that is never
	// crashed, so every view always has two live donors and every
	// joiner a live contact. (Crashing both donors mid-transfer is the
	// known liveness hole of two-donor state transfer; the ROADMAP
	// tracks widening it.)
	Nodes int
	// Horizon is the window op onsets are drawn from.
	Horizon time.Duration
	// MaxOutage bounds how long a crash lasts before its paired
	// recover, and how long a joiner stays before its paired leave.
	MaxOutage time.Duration
	// Crashes is how many crash→recover pairs to schedule.
	Crashes int
	// Joins is how many join→leave pairs to schedule. Joined node IDs
	// are allocated from Nodes upward, so they never collide with the
	// initial members.
	Joins int
	// Stayers is how many of the Joins keep their member to the end of
	// the episode (no paired leave) — the state-transfer path with a
	// surviving joiner, which the joiner-state oracle checks hardest.
	Stayers int
	// Partitions is how many partition→heal pairs to schedule: one
	// non-core member cut off from everyone, healed within
	// SafePartition. The bound matters: there is no partition-merge
	// protocol, so a cut the failure detector notices becomes a
	// permanent eviction (§6's blocked-minority story, measured in
	// E18) — a *survivable* partition must heal before detection.
	Partitions int
	// SafePartition bounds a partition's duration (default 20ms, under
	// the default 40ms suspect timeout minus a heartbeat).
	SafePartition time.Duration
	// Slows is how many slow→fast windows to schedule. Inbound
	// consumer lag is deliberately invisible to silence-based failure
	// detection (the E19 point), so a slowed member rides through
	// concurrent reconfigurations without eviction — the oracles must
	// still hold once it catches up in the settle window.
	Slows int
	// MaxLag bounds the inbound lag of generated slow windows
	// (default 10ms).
	MaxLag time.Duration
}

// GenChurn draws a random churn schedule within cfg's bounds: paired
// crash→recover episodes over the initial members, join(→leave)
// episodes over fresh node IDs, short partition→heal cuts, and
// slow→fast inbound-lag windows — so generated campaigns mix network
// faults with membership change rather than testing them separately.
// Every crash is repaired — the rejoin-liveness oracle requires
// recovered members back in the final view — every partition heals
// before the failure detector fires, and leaves always follow their
// own join.
func GenChurn(rng *rand.Rand, cfg GenChurnConfig) Script {
	if cfg.Nodes < 3 {
		panic("chaos: GenChurn needs at least 3 nodes (a stable 2-node core plus a crashable member)")
	}
	dur := func(max time.Duration) time.Duration {
		if max <= 0 {
			return 0
		}
		return time.Duration(rng.Int63n(int64(max)))
	}
	var s Script
	for i := 0; i < cfg.Crashes; i++ {
		at := dur(cfg.Horizon)
		outage := cfg.MaxOutage/4 + dur(cfg.MaxOutage*3/4)
		node := transport.NodeID(2 + rng.Intn(cfg.Nodes-2))
		s.Ops = append(s.Ops,
			Op{At: at, Kind: OpCrash, Node: node},
			Op{At: at + outage, Kind: OpRecover, Node: node},
		)
	}
	for i := 0; i < cfg.Joins; i++ {
		at := dur(cfg.Horizon)
		node := transport.NodeID(cfg.Nodes + i)
		s.Ops = append(s.Ops, Op{At: at, Kind: OpJoin, Node: node})
		if i >= cfg.Stayers {
			stay := cfg.MaxOutage/4 + dur(cfg.MaxOutage*3/4)
			s.Ops = append(s.Ops, Op{At: at + stay, Kind: OpLeave, Node: node})
		}
	}
	safe := cfg.SafePartition
	if safe <= 0 {
		safe = 20 * time.Millisecond
	}
	for i := 0; i < cfg.Partitions; i++ {
		at := dur(cfg.Horizon)
		cut := safe/2 + dur(safe/2)
		node := transport.NodeID(2 + rng.Intn(cfg.Nodes-2))
		// Majority island first: unlisted nodes (joiners allocated
		// from Nodes upward) land in the implicit island 0, so they
		// stay with the majority rather than joining the cut member.
		rest := make([]transport.NodeID, 0, cfg.Nodes-1)
		for r := 0; r < cfg.Nodes; r++ {
			if transport.NodeID(r) != node {
				rest = append(rest, transport.NodeID(r))
			}
		}
		s.Ops = append(s.Ops,
			Op{At: at, Kind: OpPartition, Islands: [][]transport.NodeID{rest, {node}}},
			Op{At: at + cut, Kind: OpHeal},
		)
	}
	maxLag := cfg.MaxLag
	if maxLag <= 0 {
		maxLag = 10 * time.Millisecond
	}
	for i := 0; i < cfg.Slows; i++ {
		at := dur(cfg.Horizon)
		window := cfg.MaxOutage/4 + dur(cfg.MaxOutage*3/4)
		node := transport.NodeID(2 + rng.Intn(cfg.Nodes-2))
		lag := maxLag/2 + dur(maxLag/2)
		s.Ops = append(s.Ops,
			Op{At: at, Kind: OpSlow, Node: node, Lag: lag},
			Op{At: at + window, Kind: OpFast, Node: node},
		)
	}
	sort.SliceStable(s.Ops, func(a, b int) bool { return s.Ops[a].At < s.Ops[b].At })
	return s
}
