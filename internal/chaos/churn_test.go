package chaos

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"catocs/internal/transport"
)

func TestChurnScriptRoundTrip(t *testing.T) {
	text := "@10ms crash 2; @20ms join 8; @60ms recover 2; @80ms leave 8"
	s, err := ParseScript(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ops) != 4 {
		t.Fatalf("parsed %d ops", len(s.Ops))
	}
	if s.Ops[1].Kind != OpJoin || s.Ops[3].Kind != OpLeave {
		t.Fatalf("membership verbs parsed as %v and %v", s.Ops[1].Kind, s.Ops[3].Kind)
	}
	again, err := ParseScript(s.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", s.String(), err)
	}
	if s.String() != again.String() {
		t.Fatalf("round-trip changed script:\n  %s\n  %s", s, again)
	}
}

func TestGenChurnPairedAndStableCore(t *testing.T) {
	cfg := GenChurnConfig{
		Nodes:         8,
		Horizon:       150 * time.Millisecond,
		MaxOutage:     100 * time.Millisecond,
		Crashes:       3,
		Joins:         3,
		Stayers:       1,
		Partitions:    2,
		SafePartition: 20 * time.Millisecond,
		Slows:         2,
		MaxLag:        10 * time.Millisecond,
	}
	s := GenChurn(rand.New(rand.NewSource(42)), cfg)
	if again := GenChurn(rand.New(rand.NewSource(42)), cfg); s.String() != again.String() {
		t.Fatalf("GenChurn not deterministic")
	}

	recoverAt := map[transport.NodeID]time.Duration{}
	leaveAt := map[transport.NodeID]time.Duration{}
	healAts := []time.Duration{}
	fastAt := map[transport.NodeID]time.Duration{}
	for _, op := range s.Ops {
		switch op.Kind {
		case OpRecover:
			recoverAt[op.Node] = op.At
		case OpLeave:
			leaveAt[op.Node] = op.At
		case OpHeal:
			healAts = append(healAts, op.At)
		case OpFast:
			fastAt[op.Node] = op.At
		}
	}
	var joins, leaves, partitions, slows int
	for _, op := range s.Ops {
		switch op.Kind {
		case OpCrash:
			if op.Node < 2 || int(op.Node) >= cfg.Nodes {
				t.Fatalf("crash targets %d, outside the crashable range [2,%d)", op.Node, cfg.Nodes)
			}
			at, ok := recoverAt[op.Node]
			if !ok || at <= op.At {
				t.Fatalf("crash of %d at %s has no later recover", op.Node, op.At)
			}
		case OpJoin:
			joins++
			if int(op.Node) < cfg.Nodes {
				t.Fatalf("join reuses initial id %d", op.Node)
			}
			if at, ok := leaveAt[op.Node]; ok && at <= op.At {
				t.Fatalf("leave of %d at %s precedes its join at %s", op.Node, at, op.At)
			}
		case OpLeave:
			leaves++
		case OpPartition:
			partitions++
			if len(op.Islands) != 2 || len(op.Islands[1]) != 1 {
				t.Fatalf("partition islands %v, want [rest, {one}]", op.Islands)
			}
			if cut := op.Islands[1][0]; cut < 2 || int(cut) >= cfg.Nodes {
				t.Fatalf("partition cuts %d, outside the crashable range [2,%d)", cut, cfg.Nodes)
			}
			// Every cut must heal before the failure detector can fire:
			// there is no partition-merge protocol.
			healed := false
			for _, h := range healAts {
				if h > op.At && h <= op.At+cfg.SafePartition {
					healed = true
				}
			}
			if !healed {
				t.Fatalf("partition at %s has no heal within SafePartition=%s", op.At, cfg.SafePartition)
			}
		case OpSlow:
			slows++
			if op.Node < 2 || int(op.Node) >= cfg.Nodes {
				t.Fatalf("slow targets %d, outside the range [2,%d)", op.Node, cfg.Nodes)
			}
			if op.Lag <= 0 || op.Lag > cfg.MaxLag {
				t.Fatalf("slow lag %s outside (0,%s]", op.Lag, cfg.MaxLag)
			}
			if at, ok := fastAt[op.Node]; !ok || at <= op.At {
				t.Fatalf("slow of %d at %s has no later fast", op.Node, op.At)
			}
		case OpRecover, OpHeal, OpFast: // pairing already checked from the onset side
		default:
			t.Fatalf("GenChurn emitted non-churn op %v", op.Kind)
		}
	}
	if joins != cfg.Joins || leaves != cfg.Joins-cfg.Stayers {
		t.Fatalf("joins=%d leaves=%d, want %d and %d", joins, leaves, cfg.Joins, cfg.Joins-cfg.Stayers)
	}
	if partitions != cfg.Partitions || slows != cfg.Slows {
		t.Fatalf("partitions=%d slows=%d, want %d and %d", partitions, slows, cfg.Partitions, cfg.Slows)
	}
}

// One hand-written episode exercising all four churn ops: a sender
// crashes and recovers through its WAL, a fresh node joins via state
// transfer and stays, a second joiner leaves gracefully.
func churnTestConfig(seed int64) Config {
	// Ops spaced wider than the suspect timeout so each drives its own
	// view change; overlapping ops legitimately coalesce into one.
	script, err := ParseScript(
		"@30ms crash 2; @200ms recover 2; @350ms join 8; @450ms join 9; @600ms leave 9")
	if err != nil {
		panic(err)
	}
	return Config{Substrate: "churn", N: 6, Seed: seed, Script: script}
}

func TestChurnEpisodeCleanAndDeterministic(t *testing.T) {
	res := Run(churnTestConfig(3))
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %+v", res.Violations)
	}
	if res.Sent == 0 || res.Skipped == 0 {
		t.Fatalf("sent=%d skipped=%d: the crashed sender should skip some sends", res.Sent, res.Skipped)
	}
	if res.Epochs < 4 {
		t.Fatalf("epochs = %d, want ≥4 (crash, 2 joins, rejoin, leave)", res.Epochs)
	}
	if res.TransferBytes == 0 || res.TransferChunks == 0 {
		t.Fatalf("no state transferred (bytes=%d chunks=%d)", res.TransferBytes, res.TransferChunks)
	}
	if res.FlushMsgs == 0 || res.MetadataPerEpoch() <= 0 {
		t.Fatalf("no membership metadata recorded (flush=%d)", res.FlushMsgs)
	}
	if res.UnavailMax == 0 {
		t.Fatalf("crash produced no availability window")
	}
	if again := Run(churnTestConfig(3)); again.Digest != res.Digest {
		t.Fatalf("same seed produced digests %x and %x", res.Digest, again.Digest)
	}
	if other := Run(churnTestConfig(4)); other.Digest == res.Digest {
		t.Fatalf("different seeds share digest %x", res.Digest)
	}
}

func TestChurnRecoveryReplayAbsorbedAsDups(t *testing.T) {
	// The recovered sender replays its unstable WAL suffix; survivors
	// that already applied those payloads must absorb them as duplicates
	// (paper §4.4: reconciliation is application-level).
	res := Run(churnTestConfig(3))
	if res.Dups == 0 {
		t.Fatalf("recovery replay produced no duplicate applies; at-least-once path untested")
	}
	if res.Delivered <= res.Dups {
		t.Fatalf("applied=%d dups=%d: duplicates outnumber first applies", res.Delivered, res.Dups)
	}
}

func TestShrinkChurnKeepsCleanEpisode(t *testing.T) {
	cfg := churnTestConfig(3)
	minCfg, minRes := Shrink(cfg)
	if len(minRes.Violations) > 0 {
		t.Fatalf("shrinking a clean episode invented violations: %+v", minRes.Violations)
	}
	if minCfg.Script.String() != cfg.Script.String() {
		t.Fatalf("shrinking a clean episode changed the script")
	}
}

// A partition that outlives the suspect timeout evicts its minority for
// good (there is no partition merge). Shrinking it must keep the heal:
// the cut alone is a permanent partition, a different failure, and the
// minimal script would blame the wrong thing.
func TestShrinkKeepsRepairs(t *testing.T) {
	script, err := ParseScript("@20ms join 6; @100ms part 0,1,2,3,4|5; @300ms heal")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Substrate: "churn", N: 6, Seed: 3, Script: script}
	if res := Run(cfg); len(res.Violations) == 0 {
		t.Fatal("a 200 ms partition did not evict its minority")
	}
	min, minRes := Shrink(cfg)
	if len(minRes.Violations) == 0 {
		t.Fatal("shrunk config no longer fails")
	}
	if got, want := min.Script.String(), "@100ms part 0,1,2,3,4|5; @300ms heal"; got != want {
		t.Fatalf("minimal script %q, want %q", got, want)
	}
}

func TestRunChurnEpisodesCleanBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-episode churn batch")
	}
	sum := RunEpisodes(RunnerConfig{Config: Config{Substrate: "churn", N: 6, Seed: 100}, Episodes: 5})
	if len(sum.Failures) > 0 {
		t.Fatalf("%d failing episodes; first repro: %s", len(sum.Failures), sum.Failures[0].Repro)
	}
	if sum.ViolationSummary() != "none" {
		t.Fatalf("violation summary = %s", sum.ViolationSummary())
	}
	if sum.Epochs == 0 || sum.TransferBytes == 0 {
		t.Fatalf("batch drove no reconfigurations (epochs=%d transfer=%dB)", sum.Epochs, sum.TransferBytes)
	}
	if again := RunEpisodes(RunnerConfig{Config: Config{Substrate: "churn", N: 6, Seed: 100}, Episodes: 5}); again.Digest != sum.Digest {
		t.Fatalf("batch digest not deterministic: %x vs %x", sum.Digest, again.Digest)
	}
}

// A straggler whose NewView a short partition dropped keeps
// heartbeating in the old epoch until a peer re-sends the view. Those
// heartbeats are liveness: if they are ignored, every peer's last word
// from it dates from their own install, they excise a live member, and
// it ends alone in a singleton view with diverged state. Both schedules
// are the shrunk failures of 300-episode churn batches at seed 1 (n=8
// and n=6): a view change (a join, a crash) the ~12 ms cut hides from
// the cut member, healed well inside the 40 ms suspect timeout.
func TestStragglerHeartbeatIsLiveness(t *testing.T) {
	for _, c := range []struct {
		n      int
		seed   int64
		script string
	}{
		{8, 29000088, "@18.727865ms slow 6 8.900093ms; @99.101303ms join 9; " +
			"@134.286535ms part 0,1,2,3,4,5,7|6; @146.046523ms heal"},
		{6, 291000874, "@34.754878ms slow 2 7.153332ms; @69.604138ms crash 5; " +
			"@137.742897ms part 0,1,3,4,5|2; @154.894156ms heal; @275.655017ms recover 5"},
	} {
		t.Run(fmt.Sprintf("n%d-seed%d", c.n, c.seed), func(t *testing.T) {
			script, err := ParseScript(c.script)
			if err != nil {
				t.Fatal(err)
			}
			res := Run(Config{Substrate: "churn", N: c.n, Seed: c.seed, Script: script})
			for _, v := range res.Violations {
				t.Errorf("%s", v)
			}
		})
	}
}
