package chaos

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/obs"
	"catocs/internal/sim"
	"catocs/internal/transport"
)

// --- interposer ---

func TestInterposerDropAndDup(t *testing.T) {
	k := sim.NewKernel(1)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: time.Millisecond})
	ip := NewInterposer(net, 7)
	var got int
	net.Register(1, func(transport.NodeID, any) { got++ })

	ip.SetLink(0, 1, LinkFault{DropProb: 1})
	for i := 0; i < 10; i++ {
		ip.Send(0, 1, "x")
	}
	k.Run()
	if got != 0 {
		t.Fatalf("drop=1 link delivered %d messages", got)
	}
	if s := ip.Stats(); s.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", s.Dropped)
	}

	ip.SetLink(0, 1, LinkFault{DupProb: 1})
	for i := 0; i < 10; i++ {
		ip.Send(0, 1, "x")
	}
	k.Run()
	if got != 20 {
		t.Fatalf("dup=1 link delivered %d messages, want 20", got)
	}

	ip.ClearLink(0, 1)
	got = 0
	ip.Send(0, 1, "x")
	k.Run()
	if got != 1 {
		t.Fatalf("cleared link delivered %d, want 1", got)
	}
}

func TestInterposerDelayReorders(t *testing.T) {
	k := sim.NewKernel(1)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: time.Millisecond})
	ip := NewInterposer(net, 7)
	var order []string
	net.Register(1, func(_ transport.NodeID, p any) { order = append(order, p.(string)) })

	ip.SetLink(0, 1, LinkFault{DelayProb: 1, Delay: 10 * time.Millisecond})
	ip.Send(0, 1, "slow")
	ip.SetLink(0, 1, LinkFault{})
	ip.Send(0, 1, "fast")
	k.Run()
	if len(order) != 2 || order[0] != "fast" || order[1] != "slow" {
		t.Fatalf("delay did not reorder: %v", order)
	}
}

func TestInterposerForwardsFaultControls(t *testing.T) {
	k := sim.NewKernel(1)
	net := transport.NewSimNet(k, transport.LinkConfig{})
	ip := NewInterposer(net, 1)
	ip.Crash(3)
	if !ip.Crashed(3) || !net.Crashed(3) {
		t.Fatal("crash not forwarded")
	}
	ip.Recover(3)
	if ip.Crashed(3) {
		t.Fatal("recover not forwarded")
	}
	ip.Partition([]transport.NodeID{0, 1}, []transport.NodeID{2, 3})
	var got int
	net.Register(2, func(transport.NodeID, any) { got++ })
	ip.Send(0, 2, "x")
	k.Run()
	if got != 0 {
		t.Fatal("partition not forwarded")
	}
	ip.Heal()
	ip.Send(0, 2, "x")
	k.Run()
	if got != 1 {
		t.Fatal("heal not forwarded")
	}
}

// --- scripts ---

func TestScriptRoundTrip(t *testing.T) {
	text := "@12ms crash 3; @30ms recover 3; @40ms part 0,1,2|3,4; @90ms heal; " +
		"@10ms link 2>4 drop=0.30,dup=0.10,delay=0.50x20ms; @50ms clear 2>4"
	s, err := ParseScript(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ops) != 6 {
		t.Fatalf("parsed %d ops", len(s.Ops))
	}
	again, err := ParseScript(s.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", s.String(), err)
	}
	if s.String() != again.String() {
		t.Fatalf("round-trip changed script:\n  %s\n  %s", s, again)
	}
	if s.End() != 90*time.Millisecond {
		t.Fatalf("End = %s", s.End())
	}
}

func TestScriptParseErrors(t *testing.T) {
	for _, bad := range []string{
		"crash 3",            // missing @time
		"@10ms crash",        // missing node
		"@10ms explode 3",    // unknown verb
		"@10ms link 2>4",     // missing fault
		"@10ms link 24 x",    // bad pair
		"@10ms link 2>4 zap", // bad fault term
	} {
		if _, err := ParseScript(bad); err == nil {
			t.Errorf("ParseScript(%q) accepted", bad)
		}
	}
}

func TestGenDeterministicAndPaired(t *testing.T) {
	cfg := GenConfig{
		Nodes: 6, Horizon: 150 * time.Millisecond, MaxOutage: 100 * time.Millisecond,
		Crashes: 2, Partitions: 1, FlakyLinks: 2,
		Flaky: LinkFault{DropProb: 0.3, DupProb: 0.2, DelayProb: 0.3, Delay: 20 * time.Millisecond},
	}
	a := Gen(rand.New(rand.NewSource(42)), cfg)
	b := Gen(rand.New(rand.NewSource(42)), cfg)
	if a.String() != b.String() {
		t.Fatalf("Gen not deterministic:\n  %s\n  %s", a, b)
	}
	if len(a.Ops) != 2*(cfg.Crashes+cfg.Partitions+cfg.FlakyLinks) {
		t.Fatalf("ops = %d, want every fault paired with its repair", len(a.Ops))
	}
	counts := map[OpKind]int{}
	for _, op := range a.Ops {
		counts[op.Kind]++
	}
	if counts[OpCrash] != counts[OpRecover] || counts[OpPartition] != counts[OpHeal] ||
		counts[OpLink] != counts[OpClearLink] {
		t.Fatalf("unpaired faults: %v", counts)
	}
}

// --- oracles on synthetic traces ---

func ref(sender int, seq uint64) obs.MsgRef {
	return obs.MsgRef{Sender: int64(sender), Seq: seq, Label: "m"}
}

func TestCausalOrderOracleCatchesInversion(t *testing.T) {
	// Node 0 sends m1; node 1 delivers m1 then sends m2 (so m1 → m2);
	// node 2 delivers m2 before m1: violation.
	m1, m2 := ref(0, 1), ref(1, 1)
	events := []obs.Event{
		{T: 0, Node: 0, Kind: obs.KSend, Msg: m1},
		{T: 1, Node: 1, Kind: obs.KDeliver, Msg: m1},
		{T: 2, Node: 1, Kind: obs.KSend, Msg: m2},
		{T: 3, Node: 2, Kind: obs.KDeliver, Msg: m2},
		{T: 4, Node: 2, Kind: obs.KDeliver, Msg: m1},
	}
	if v := CheckCausalOrder(events); len(v) != 1 {
		t.Fatalf("violations = %v, want exactly the inversion at node 2", v)
	}
	// Swap node 2's deliveries into causal order: clean.
	events[3], events[4] = obs.Event{T: 3, Node: 2, Kind: obs.KDeliver, Msg: m1},
		obs.Event{T: 4, Node: 2, Kind: obs.KDeliver, Msg: m2}
	if v := CheckCausalOrder(events); len(v) != 0 {
		t.Fatalf("clean trace flagged: %v", v)
	}
}

func TestCausalOrderOracleIgnoresConcurrent(t *testing.T) {
	// Two concurrent sends delivered in opposite orders at two nodes:
	// fine causally (this is what total order adds).
	a, b := ref(0, 1), ref(1, 1)
	events := []obs.Event{
		{T: 0, Node: 0, Kind: obs.KSend, Msg: a},
		{T: 0, Node: 1, Kind: obs.KSend, Msg: b},
		{T: 1, Node: 2, Kind: obs.KDeliver, Msg: a},
		{T: 2, Node: 2, Kind: obs.KDeliver, Msg: b},
		{T: 1, Node: 3, Kind: obs.KDeliver, Msg: b},
		{T: 2, Node: 3, Kind: obs.KDeliver, Msg: a},
	}
	if v := CheckCausalOrder(events); len(v) != 0 {
		t.Fatalf("concurrent messages flagged: %v", v)
	}
	if v := CheckTotalOrder(DeliveryOrders(events)); len(v) != 1 {
		t.Fatalf("total-order oracle missed the disagreement: %v", v)
	}
}

func TestSameSetAndLivenessOracles(t *testing.T) {
	m := ref(0, 1)
	events := []obs.Event{
		{T: 0, Node: 0, Kind: obs.KSend, Msg: m},
		{T: 1, Node: 0, Kind: obs.KDeliver, Msg: m},
		{T: 1, Node: 1, Kind: obs.KDeliver, Msg: m},
		// node 2 never delivers m
	}
	nodes := []int{0, 1, 2}
	if v := CheckSameSet(DeliveryOrders(events), nodes); len(v) != 1 {
		t.Fatalf("same-set: %v", v)
	}
	if v := CheckLiveness(events, nodes, nil); len(v) != 1 {
		t.Fatalf("liveness: %v", v)
	}
	events = append(events, obs.Event{T: 2, Node: 2, Kind: obs.KDeliver, Msg: m})
	if v := CheckLiveness(events, nodes, nil); len(v) != 0 {
		t.Fatalf("clean liveness flagged: %v", v)
	}
}

func TestLivenessExemptsAllOrNothingLossAtCrashedSender(t *testing.T) {
	// Sender 0 crashed during the run and its message was delivered
	// nowhere: a legal all-or-nothing loss. Delivered SOMEWHERE, the
	// exemption ends — agreement requires it everywhere.
	m := ref(0, 1)
	events := []obs.Event{{T: 0, Node: 0, Kind: obs.KSend, Msg: m}}
	nodes := []int{0, 1}
	if v := CheckLiveness(events, nodes, []int{0}); len(v) != 0 {
		t.Fatalf("vanished message from crashed sender flagged: %v", v)
	}
	if v := CheckLiveness(events, nodes, nil); len(v) != 2 {
		t.Fatalf("healthy sender's vanished message not flagged: %v", v)
	}
	events = append(events, obs.Event{T: 1, Node: 1, Kind: obs.KDeliver, Msg: m})
	if v := CheckLiveness(events, nodes, []int{0}); len(v) != 1 {
		t.Fatalf("partial delivery from crashed sender must still violate agreement: %v", v)
	}
}

func TestStabilityOracleCatchesPrematureStabilize(t *testing.T) {
	m := ref(0, 1)
	events := []obs.Event{
		{T: 0, Node: 0, Kind: obs.KSend, Msg: m},
		{T: 1, Node: 0, Kind: obs.KDeliver, Msg: m},
		{T: 2, Node: 0, Kind: obs.KStabilize, Msg: m}, // node 1 hasn't delivered
		{T: 3, Node: 1, Kind: obs.KDeliver, Msg: m},
	}
	if v := CheckStabilitySafety(events, []int{0, 1}); len(v) != 1 {
		t.Fatalf("premature stabilize not caught: %v", v)
	}
	// Stabilize after both deliveries: clean.
	events[2], events[3] = events[3], obs.Event{T: 3, Node: 0, Kind: obs.KStabilize, Msg: m}
	if v := CheckStabilitySafety(events, []int{0, 1}); len(v) != 0 {
		t.Fatalf("clean stabilize flagged: %v", v)
	}
}

func TestQuiescenceOracle(t *testing.T) {
	for text, whole := range map[string]bool{
		"": true,
		"@40ms part 0,1|2,3; @140ms heal; @60ms crash 3; @180ms recover 3": true,
		"@10ms crash 3":                                  false,
		"@10ms part 0,1|2,3":                             false,
		"@50ms crash 3; @10ms recover 3":                 false, // applied in time order
		"@10ms part 0,1|2,3; @20ms heal; @30ms part 0|1": false,
	} {
		s, err := ParseScript(text)
		if err != nil {
			t.Fatal(err)
		}
		if s.Whole() != whole {
			t.Errorf("Whole(%q) = %v, want %v", text, s.Whole(), whole)
		}
	}
	k := sim.NewKernel(1)
	k.After(5*time.Millisecond, func() {})
	if v := CheckQuiescent(k, time.Second); len(v) != 0 {
		t.Fatalf("a kernel that drained was flagged: %v", v)
	}
	// A timer that re-arms itself forever never falls silent.
	var tick func()
	tick = func() { k.After(20*time.Millisecond, tick) }
	k.After(0, tick)
	if v := CheckQuiescent(k, time.Second); len(v) != 1 || v[0].Oracle != "quiescence" {
		t.Fatalf("a self-re-arming timer was not flagged: %v", v)
	}
}

// --- episodes ---

func TestEpisodeDeterministicDigest(t *testing.T) {
	script, err := ParseScript("@40ms part 0,1|2,3; @140ms heal; @60ms crash 3; @180ms recover 3")
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range Substrates {
		cfg := Config{Substrate: sub, N: 4, MsgsPer: 15, Seed: 11, Script: script, Faults: DefaultFaults}
		a := Run(cfg)
		b := Run(cfg)
		if a.Digest != b.Digest {
			t.Fatalf("%s: digests differ across identical runs: %016x vs %016x", sub, a.Digest, b.Digest)
		}
		if a.Sent == 0 || a.Delivered == 0 {
			t.Fatalf("%s: episode moved no traffic: %+v", sub, a)
		}
		if len(a.Violations) != 0 {
			t.Fatalf("%s: violations under repaired faults: %v", sub, a.Violations)
		}
	}
}

func TestEpisodePartitionShowsUnavailability(t *testing.T) {
	script, err := ParseScript("@30ms part 0,1,2|3; @230ms heal")
	if err != nil {
		t.Fatal(err)
	}
	// Senders 0–2 only: node 3's own local deliveries would otherwise
	// mask its receive silence.
	res := Run(Config{Substrate: "cbcast", N: 4, Senders: 3, MsgsPer: 30, Seed: 5, Script: script})
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	// Node 3 is cut off for 200ms; its delivery silence must show it.
	if res.UnavailMax < 160*time.Millisecond {
		t.Fatalf("UnavailMax = %s, want ≈ the 200ms outage", res.UnavailMax)
	}
}

func TestShrinkMinimisesFailingScript(t *testing.T) {
	// A crash that never recovers deterministically violates liveness.
	// Bury it in padding ops; shrink must strip the padding.
	script, err := ParseScript(
		"@5ms link 0>1 drop=0.20; @45ms clear 0>1; @10ms crash 3; @20ms part 0,1|2,3; @60ms heal")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Substrate: "cbcast", N: 4, MsgsPer: 10, Seed: 3, Script: script,
		Settle: 500 * time.Millisecond}
	res := Run(cfg)
	if len(res.Violations) == 0 {
		t.Fatal("unrepaired crash did not violate liveness")
	}
	min, minRes := Shrink(cfg)
	if len(minRes.Violations) == 0 {
		t.Fatal("shrunk config no longer fails")
	}
	if len(min.Script.Ops) >= len(cfg.Script.Ops) {
		t.Fatalf("shrink removed nothing: %d ops", len(min.Script.Ops))
	}
	if !strings.Contains(min.Script.String(), "crash 3") {
		t.Fatalf("shrink dropped the culprit: %s", min.Script)
	}
	// The shrunk episode fails the way the original did: every oracle it
	// violates, the original violated too.
	for _, v := range minRes.Violations {
		if !slices.ContainsFunc(res.Violations, func(o Violation) bool { return o.Oracle == v.Oracle }) {
			t.Fatalf("shrunk episode violates %s, which the original did not: %v", v.Oracle, res.Violations)
		}
	}
}

func TestKeepsFailure(t *testing.T) {
	orig := []Violation{{Oracle: "quiescence"}, {Oracle: "quiescence"}}
	for _, c := range []struct {
		trial []Violation
		want  bool
	}{
		{nil, false},
		{[]Violation{{Oracle: "quiescence"}}, true},
		{[]Violation{{Oracle: "liveness"}}, false},
		{[]Violation{{Oracle: "quiescence"}, {Oracle: "liveness"}}, false},
	} {
		if got := keepsFailure(orig, c.trial); got != c.want {
			t.Fatalf("keepsFailure(%v, %v) = %v, want %v", orig, c.trial, got, c.want)
		}
	}
}

func TestRunEpisodesAggregatesAndReproduces(t *testing.T) {
	rc := RunnerConfig{
		Config:   Config{Substrate: "scalecast", N: 5, MsgsPer: 12, Seed: 9, Faults: DefaultFaults},
		Episodes: 2,
	}
	a := RunEpisodes(rc)
	b := RunEpisodes(rc)
	if a.Digest != b.Digest {
		t.Fatalf("batch digest not deterministic: %016x vs %016x", a.Digest, b.Digest)
	}
	if a.Sent == 0 || a.Delivered == 0 {
		t.Fatalf("batch moved no traffic: %+v", a)
	}
	if len(a.Failures) != 0 {
		t.Fatalf("default mix produced violations: %v (repro: %s)",
			a.Failures[0].Result.Violations, a.Failures[0].Repro)
	}
	if a.ViolationSummary() != "none" {
		t.Fatalf("summary: %s", a.ViolationSummary())
	}
}

// The reproduce line must replay the episode that failed. A zero
// background mix — a clean batch, or a shrink that removed the mix —
// replays only with -clean, and a buffer budget only with its policy.
func TestReproReplaysCleanAndBudget(t *testing.T) {
	cfg := Config{
		Substrate: "cbcast", N: 5, Senders: 2, MsgsPer: 25, Seed: 42,
		Budget: flowcontrol.Budget{MaxMsgs: 48}, Overflow: flowcontrol.Spill,
	}
	if line := repro(cfg); !strings.HasSuffix(line, " -clean -budget 48 -policy spill") {
		t.Fatalf("clean spill-budget episode reproduces as %q", line)
	}
	cfg.Faults, cfg.Budget, cfg.Overflow = DefaultFaults, flowcontrol.Budget{}, flowcontrol.None
	if line := repro(cfg); strings.Contains(line, "-clean") || strings.Contains(line, "-budget") {
		t.Fatalf("default-mix episode reproduces as %q", line)
	}
	churn := Config{Substrate: "churn", N: 8, MsgsPer: 30, Seed: 7}
	if line := repro(churn); !strings.HasPrefix(line, "go run ./cmd/chaos -churn -n 8 ") || strings.Contains(line, "-clean") {
		t.Fatalf("churn episode reproduces as %q", line)
	}
}

func TestWALDurabilityOracle(t *testing.T) {
	if v := checkWALDurability(123); len(v) != 0 {
		t.Fatalf("durability trial failed: %v", v)
	}
}

func TestAcyclicOrderOracleCatchesCrossGroupCycle(t *testing.T) {
	// Three messages, three nodes, each node seeing a different pair in
	// a consistent order — yet the pairs compose into a 3-cycle
	// m1 < m2 < m3 < m1. Pairwise total order cannot catch this: no
	// two nodes share two messages.
	m1, m2, m3 := ref(0, 1), ref(1, 1), ref(2, 1)
	orders := map[int][]obs.MsgRef{
		0: {m1, m2},
		1: {m2, m3},
		2: {m3, m1},
	}
	if v := CheckTotalOrder(orders); len(v) != 0 {
		t.Fatalf("pairwise oracle unexpectedly fired: %v", v)
	}
	v := CheckAcyclicOrder(orders)
	if len(v) != 1 || v[0].Oracle != "acyclic-order" {
		t.Fatalf("acyclicity violations = %v, want exactly one cycle", v)
	}

	// Flip node 2 into the global order: clean.
	orders[2] = []obs.MsgRef{m1, m3}
	if v := CheckAcyclicOrder(orders); len(v) != 0 {
		t.Fatalf("clean orders flagged: %v", v)
	}
}

func TestAcyclicOrderSubsumesPairwiseDisagreement(t *testing.T) {
	a, b := ref(0, 1), ref(1, 1)
	orders := map[int][]obs.MsgRef{
		2: {a, b},
		3: {b, a},
	}
	if v := CheckAcyclicOrder(orders); len(v) != 1 {
		t.Fatalf("2-cycle not caught: %v", v)
	}
}

func TestDestLivenessOracle(t *testing.T) {
	m := ref(0, 1)
	events := []obs.Event{
		{T: 0, Node: 0, Kind: obs.KSend, Msg: m},
		{T: 1, Node: 0, Kind: obs.KDeliver, Msg: m},
		{T: 1, Node: 1, Kind: obs.KDeliver, Msg: m},
		// destination node 2 never delivers; node 3 is not a destination
		{T: 2, Node: 3, Kind: obs.KDeliver, Msg: m},
	}
	dests := func(sender int64, seq uint64) []int {
		if sender == 0 && seq == 1 {
			return []int{0, 1, 2}
		}
		return nil
	}
	v := CheckDestLiveness(events, dests, nil)
	if len(v) != 2 {
		t.Fatalf("violations = %v, want missing-dest and non-dest delivery", v)
	}
	// A message with unrecorded destinations is skipped entirely.
	events = append(events, obs.Event{T: 3, Node: 5, Kind: obs.KSend, Msg: ref(5, 9)})
	if got := CheckDestLiveness(events, dests, nil); len(got) != 2 {
		t.Fatalf("unrecorded message changed the verdict: %v", got)
	}
	// Crashed sender with zero deliveries anywhere: all-or-nothing loss.
	lost := []obs.Event{{T: 0, Node: 4, Kind: obs.KSend, Msg: ref(4, 1)}}
	allDests := func(int64, uint64) []int { return []int{0, 1} }
	if got := CheckDestLiveness(lost, allDests, []int{4}); len(got) != 0 {
		t.Fatalf("crashed-sender loss flagged: %v", got)
	}
	if got := CheckDestLiveness(lost, allDests, nil); len(got) != 2 {
		t.Fatalf("live-sender loss not flagged: %v", got)
	}
}

func TestMgcastEpisodesCleanAndDeterministic(t *testing.T) {
	rc := RunnerConfig{
		Config:   Config{Substrate: "mgcast", N: 8, MsgsPer: 10, Seed: 7, Faults: DefaultFaults},
		Episodes: 4,
	}
	sum := RunEpisodes(rc)
	if len(sum.Failures) != 0 {
		t.Fatalf("mgcast episodes violated oracles: %v (repro: %s)",
			sum.Failures[0].Result.Violations, sum.Failures[0].Repro)
	}
	if sum.Delivered == 0 {
		t.Fatalf("no deliveries across %d episodes", rc.Episodes)
	}
	if again := RunEpisodes(rc); again.Digest != sum.Digest {
		t.Fatalf("digest %x != %x: mgcast episodes are not deterministic", again.Digest, sum.Digest)
	}
}
