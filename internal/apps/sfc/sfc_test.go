package sfc

import (
	"strings"
	"testing"

	"catocs/internal/multicast"
	"catocs/internal/obs"
)

func TestFigure2AnomalyReproduced(t *testing.T) {
	r := Run(DefaultConfig())
	if r.TrueFinal != "stopped" {
		t.Fatalf("database final state = %q, want stopped", r.TrueFinal)
	}
	if !r.AnomalyRaw {
		t.Fatalf("default config must reproduce the figure: raw view = %q", r.RawFinal)
	}
	if r.RawFinal != "started" {
		t.Fatalf("raw view = %q, want the anomalous 'started'", r.RawFinal)
	}
	if r.AnomalyVersioned {
		t.Fatalf("version-ordered observer misled: %q", r.VersionedFinal)
	}
	if r.VersionedFinal != "stopped" {
		t.Fatalf("versioned view = %q", r.VersionedFinal)
	}
}

func TestAnomalyPersistsUnderTotalOrder(t *testing.T) {
	// The paper notes the same behaviour under totally ordered
	// multicast: the hidden channel is invisible to any
	// communication-level ordering.
	cfg := DefaultConfig()
	cfg.Ordering = multicast.TotalSeq
	r := Run(cfg)
	if !r.AnomalyRaw {
		t.Fatal("hidden-channel anomaly should persist under total order")
	}
	if r.AnomalyVersioned {
		t.Fatal("versioned observer misled under total order")
	}
}

func TestNoAnomalyWithoutProcessingDelay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProcessingDelay1 = 0
	r := Run(cfg)
	if r.AnomalyRaw {
		t.Fatal("without the scheduling delay the broadcasts should arrive in true order on a uniform network")
	}
}

func TestEventLogRendersFigure(t *testing.T) {
	r := Run(DefaultConfig())
	out := obs.RenderSpaceTime("Figure 2", r.Trace.Labels(), r.Trace.Events())
	for _, want := range []string{"Start request", "Stop request", `"stopped" broadcast`, "received by B"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Delivery order at B shows the anomaly: stop before start.
	var order []string
	for _, e := range r.Trace.Events() {
		if e.Kind == obs.KDeliver && r.Trace.Labels()[e.Node] == "ClientB" {
			order = append(order, e.Msg.Label)
		}
	}
	if len(order) != 2 || order[0] != `"stopped"` || order[1] != `"started"` {
		t.Fatalf("B's delivery order = %v", order)
	}
}

// figure2 is the default run's diagram, trailing blanks trimmed: the
// columns stay in declared order and the ten rows in recorded order.
const figure2 = `Figure 2
              ClientA           SFC1             DB             SFC2          ClientB
                 |               |               |               |               |
    0.00ms   send start          |               |               |               |          Start request to SFC1
    0.00ms       |              mark             |               |               |          "started" request (& reply)
    0.00ms       |               |              mark             |               |          db: lotA=started #1
    5.00ms       |               |               |               |           send stop      Stop request to SFC2
    5.00ms       |               |               |              mark             |          "stopped" request (& reply)
    5.00ms       |               |              mark             |               |          db: lotA=stopped #2
    5.00ms       |               |               |         send "stopped"        |          "stopped" broadcast
    7.00ms       |               |               |               |         dlvr "stopped"   "stopped" received by B (db version 2)
   20.00ms       |         send "started"        |               |               |          "started" broadcast
   22.00ms       |               |               |               |         dlvr "started"   "started" received by B (db version 1)
`

func TestFigure2Diagram(t *testing.T) {
	r := Run(DefaultConfig())
	lines := strings.Split(obs.RenderSpaceTime("Figure 2", r.Trace.Labels(), r.Trace.Events()), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	if got := strings.Join(lines, "\n"); got != figure2 {
		t.Fatalf("diagram drifted:\n%s\nwant:\n%s", got, figure2)
	}
}

func TestTrialsVersionedAlwaysCorrect(t *testing.T) {
	raw, versioned := Trials(50, 100, multicast.Causal)
	if versioned != 0 {
		t.Fatalf("versioned observer misled in %d/50 trials", versioned)
	}
	if raw == 0 {
		t.Fatal("no raw anomalies in 50 randomized trials; scenario lost its teeth")
	}
	if raw == 50 {
		t.Fatal("raw anomaly in every trial; randomization is not randomizing")
	}
}
