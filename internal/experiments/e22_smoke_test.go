package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestE22Smoke is the real-network gate: build the real binaries, stand
// up a 3-process fleet per substrate, drive it with loadgen, and
// require zero ordering-oracle violations on the merged cross-process
// trace. This is the repo's only test whose subjects are separate OS
// processes talking over real sockets.
func TestE22Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes; skipped in -short")
	}
	bin := t.TempDir()
	if err := BuildNetBinaries(bin); err != nil {
		t.Fatal(err)
	}
	for _, substrate := range []string{"cbcast", "abcast"} {
		t.Run(substrate, func(t *testing.T) {
			pt, err := RunE22(E22Config{
				Substrate: substrate,
				Nodes:     3,
				Workers:   1,
				Clients:   2000,
				Rate:      300,
				MsgSize:   64,
				Duration:  1500 * time.Millisecond,
				Trace:     true,
				BinDir:    bin,
				WorkDir:   t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if pt.Sent == 0 || pt.Done == 0 {
				t.Fatalf("fleet moved no traffic: %s", pt.JSON())
			}
			if !pt.Audited || pt.TraceEvents == 0 {
				t.Fatalf("no merged trace to audit: %s", pt.JSON())
			}
			if pt.CausalViolations != 0 {
				t.Errorf("%d causal-order violations on the real network", pt.CausalViolations)
			}
			if substrate == "abcast" && pt.TotalViolations != 0 {
				t.Errorf("total-order oracle: %d violations, want 0 (checked)", pt.TotalViolations)
			}
			if substrate == "cbcast" && pt.TotalViolations != -1 {
				t.Errorf("total order should not be checked for cbcast, got %d", pt.TotalViolations)
			}
			// Atomic mode: every process must have delivered every
			// multicast the fleet accepted.
			if pt.MinDelivered != pt.MaxDelivered {
				t.Errorf("delivery counts diverge across processes: min %d max %d",
					pt.MinDelivered, pt.MaxDelivered)
			}
			if pt.MinDelivered != pt.Sent {
				t.Errorf("delivered %d of %d accepted casts", pt.MinDelivered, pt.Sent)
			}
			t.Logf("%s fleet: %s", substrate, pt.JSON())
		})
	}
}

// TestTableE22Renders exercises the render path without spawning
// processes.
func TestTableE22Renders(t *testing.T) {
	pts := []E22Point{
		{Substrate: "abcast", Nodes: 3, Clients: 1000, Sent: 900, Done: 900,
			MsgsPerSec: 450.5, P50Ms: 1.2, P99Ms: 4.5, P999Ms: 9.1, BytesMsg: 210,
			Audited: true, CausalViolations: 0, TotalViolations: 0},
		{Substrate: "cbcast", Nodes: 3, Clients: 1000, Sent: 900, Done: 890, Lost: 10,
			MsgsPerSec: 445, TotalViolations: -1},
	}
	out := TableE22From(pts).Render()
	for _, want := range []string{"E22", "abcast", "cbcast", "causal viol"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "-") {
		t.Errorf("untraced arm should render '-' cells:\n%s", out)
	}
}
