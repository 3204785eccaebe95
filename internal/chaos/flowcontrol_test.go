package chaos

import (
	"math/rand"
	"testing"
	"time"

	"catocs/internal/flowcontrol"
)

func TestScriptSlowFastRoundTrip(t *testing.T) {
	text := "@10ms slow 3 50ms; @200ms fast 3; @12ms crash 1; @40ms recover 1"
	s, err := ParseScript(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ops) != 4 {
		t.Fatalf("parsed %d ops", len(s.Ops))
	}
	if s.Ops[0].Kind != OpSlow || s.Ops[0].Lag != 50*time.Millisecond {
		t.Fatalf("slow op parsed as %+v", s.Ops[0])
	}
	again, err := ParseScript(s.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", s.String(), err)
	}
	if s.String() != again.String() {
		t.Fatalf("round-trip changed script:\n  %s\n  %s", s, again)
	}
	for _, bad := range []string{
		"@10ms slow 3",      // missing lag
		"@10ms slow x 50ms", // bad node
		"@10ms fast",        // missing node
	} {
		if _, err := ParseScript(bad); err == nil {
			t.Errorf("ParseScript(%q) accepted", bad)
		}
	}
}

func TestGenPairsSlowWithFast(t *testing.T) {
	cfg := GenConfig{
		Nodes: 6, Horizon: 150 * time.Millisecond, MaxOutage: 100 * time.Millisecond,
		Slows: 3, MaxLag: 80 * time.Millisecond,
	}
	s := Gen(rand.New(rand.NewSource(9)), cfg)
	counts := map[OpKind]int{}
	for _, op := range s.Ops {
		counts[op.Kind]++
		if op.Kind == OpSlow {
			if op.Lag < cfg.MaxLag/4 || op.Lag >= cfg.MaxLag {
				t.Fatalf("slow lag %s outside [%s, %s)", op.Lag, cfg.MaxLag/4, cfg.MaxLag)
			}
		}
	}
	if counts[OpSlow] != 3 || counts[OpFast] != 3 {
		t.Fatalf("unpaired slow/fast: %v", counts)
	}
	// Slowed nodes stay alive: they must not be exempted from liveness.
	if crashed := s.CrashedNodes(); len(crashed) != 0 {
		t.Fatalf("slow-only script reports crashed nodes %v", crashed)
	}
}

func TestBoundedMemoryOracle(t *testing.T) {
	budget := flowcontrol.Budget{MaxMsgs: 48}
	if v := CheckBoundedMemory(10, 20, flowcontrol.Budget{}, flowcontrol.Block); v != nil {
		t.Fatalf("unlimited budget produced violations %v", v)
	}
	if v := CheckBoundedMemory(10, 20, budget, flowcontrol.None); v != nil {
		t.Fatalf("no-policy run produced violations %v", v)
	}
	if v := CheckBoundedMemory(48, 48, budget, flowcontrol.Block); v != nil {
		t.Fatalf("at-budget occupancy produced violations %v", v)
	}
	v := CheckBoundedMemory(49, 60, budget, flowcontrol.Block)
	if len(v) != 2 {
		t.Fatalf("want 2 violations (holdback, stability), got %v", v)
	}
	// Spill admits every cast, so only the in-memory stability bound
	// applies to it; a deep holdback queue is legal.
	v = CheckBoundedMemory(200, 60, budget, flowcontrol.Spill)
	if len(v) != 1 {
		t.Fatalf("spill: want only the stability violation, got %v", v)
	}
}

// TestSlowConsumerEpisodesBoundedMemory is the satellite acceptance
// run: randomized slow-consumer episodes with a limited budget and the
// Spill policy, checked by the bounded-memory oracle (and every other
// oracle) on each episode. Spill is the policy under test because it
// admits every cast — so the liveness and same-set oracles keep their
// full force — while holding in-memory occupancy at the budget.
func TestSlowConsumerEpisodesBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized batch")
	}
	sum := RunEpisodes(RunnerConfig{
		Config: Config{
			Substrate: "cbcast",
			N:         5,
			Senders:   2,
			MsgsPer:   25,
			Seed:      2026,
			Budget:    flowcontrol.Budget{MaxMsgs: 48},
			Overflow:  flowcontrol.Spill,
		},
		Episodes: 25,
		Gen: GenConfig{
			Slows:  2,
			MaxLag: 120 * time.Millisecond,
			// Zero crashes/partitions/flaky-links would be refilled by
			// the default mix; ask for the minimum and rely on Slows for
			// the pressure.
			Crashes: 1,
		},
	})
	if len(sum.Failures) != 0 {
		t.Fatalf("violations: %s (first: %+v)", sum.ViolationSummary(), sum.Failures[0].Result.Violations)
	}
	if sum.StabHighWater > 48 {
		t.Fatalf("stability high-water %d exceeds budget", sum.StabHighWater)
	}
	if sum.StabHighWater == 0 {
		t.Fatal("no stability pressure at all; episode too gentle to test anything")
	}
}
