package chaos

import (
	"testing"
	"time"
)

// TestEpisodeDigestsPinned pins the values, not just the repeatability,
// of batch digests on every world. A refactor of the harness must leave
// each one unchanged; a behaviour change that moves one updates the
// constant here and declares the drift in its change.
func TestEpisodeDigestsPinned(t *testing.T) {
	// make smoke's first line: -substrate all -n 5 -msgs 20 -episodes 3 -seed 1.
	for sub, want := range map[string]uint64{
		"cbcast":    0x2e02608897fb0896,
		"abcast":    0xe4423d8413474ed2,
		"scalecast": 0x26b63901a9e1921d,
		"mgcast":    0x9bc61f23200682c3,
	} {
		sum := RunEpisodes(RunnerConfig{
			Config:   Config{Substrate: sub, N: 5, MsgsPer: 20, Seed: 1, Faults: DefaultFaults},
			Episodes: 3, Shrink: true,
		})
		if sum.Digest != want {
			t.Errorf("%s batch digest %016x, pinned %016x", sub, sum.Digest, want)
		}
	}

	// A churn batch at make smoke's churn size and seed.
	churn := RunEpisodes(RunnerConfig{Config: Config{Substrate: "churn", N: 8, Seed: 7}, Episodes: 50, Shrink: true})
	if want := uint64(0x1e9cfce9837270d9); churn.Digest != want {
		t.Errorf("churn batch digest %016x, pinned %016x", churn.Digest, want)
	}

	// E24's scalecast arm at its smallest tuning.
	script, err := ParseScript("@100ms crash 2; @500ms recover 2; @800ms join 8; @1s join 9; @1.4s leave 9")
	if err != nil {
		t.Fatal(err)
	}
	rewire := Run(Config{
		Substrate: "rewire", N: 8, Senders: 4, MsgsPer: 30, Interval: 20 * time.Millisecond, Seed: 24, Script: script,
	})
	if want := uint64(0xfe2f2431ad725c3f); rewire.Digest != want {
		t.Errorf("scalecast rewire digest %016x, pinned %016x", rewire.Digest, want)
	}
}
