package experiments

import (
	"fmt"
	"time"

	"catocs/internal/chaos"
)

// E24 — dynamic membership at scale: what one churn wave costs each
// substrate as the group grows.
//
// Each (substrate, N) cell drives the same reconfiguration schedule —
// a sender crashes and later recovers, two fresh processes join, one
// of them leaves — against a group of N members with background
// traffic, and measures the three costs ISSUE's tentpole threads
// through the stack:
//
//   - availability: the longest delivery silence any initial member
//     suffers (E18's metric). The membership substrate pays a
//     suspect-timeout detection window before every exclusion; the
//     scalecast arm is re-wired by an omniscient operator at the
//     instant of the fault, so its window is the best case any
//     external reconfiguration service could achieve.
//   - state transfer: bytes shipped to make a joiner
//     delivery-equivalent to the survivors. Structurally zero for
//     scalecast — a joiner sees the causal future only, and a
//     recovered process restarts empty; rebuilding state is pushed to
//     the application, the paper's §4.4 position taken to its limit.
//   - metadata per reconfiguration: membership-protocol messages
//     (flush/view traffic) per installed view for the CATOCS stack,
//     vs the extra link-control traffic (barriers, acks) a rewire
//     costs scalecast after subtracting a churn-free control run.
//
// The headline is the §5 trade at N=512: the membership stack's costs
// grow with the group — O(N) flush messages per view on top of the
// O(N²)-message, O(N³)-work stability acks that price every cast —
// while scalecast's reconfiguration cost stays near-constant, having
// externalised exactly the state and failure services the membership
// stack provides.

// E24Point is one (substrate, N) measurement.
type E24Point struct {
	Substrate string
	N         int
	// Reconfigs: installed views (multicast) / applied rewires
	// (scalecast) — 5 for the full schedule when none coalesce.
	Reconfigs uint64
	Sent      uint64
	Applied   uint64
	// Dups: replayed casts absorbed by application-level IDs (the
	// at-least-once rejoin cost; always 0 for scalecast, which replays
	// nothing and loses the crashed member's unstable casts instead).
	Dups       uint64
	Violations int
	// TransferBytes: donor→joiner snapshot volume.
	TransferBytes uint64
	// MetaPerReconfig: membership metadata messages per reconfiguration.
	MetaPerReconfig float64
	UnavailMax      float64
	UnavailMean     float64
	Digest          uint64
}

// E24Sizes is the published sweep.
var E24Sizes = []int{32, 128, 512}

// e24Tuning scales the protocol timers with N. Monitor heartbeats are
// N² per interval and stability acks N² per cast burst, so the larger
// groups run slower timers and lighter traffic — the experiment holds
// the *schedule* fixed, not the load.
func e24Tuning(n int) (cfg chaos.Config, step time.Duration) {
	switch {
	case n <= 32:
		step = 100 * time.Millisecond
		cfg = chaos.Config{MsgsPer: 30, Interval: 20 * time.Millisecond, Senders: 4}
	case n <= 128:
		step = 100 * time.Millisecond
		cfg = chaos.Config{
			MsgsPer: 30, Interval: 50 * time.Millisecond, Senders: 4,
			Heartbeat: 25 * time.Millisecond, Suspect: 100 * time.Millisecond,
			AckInterval: 50 * time.Millisecond, NackDelay: 60 * time.Millisecond,
		}
	default:
		step = 1000 * time.Millisecond
		cfg = chaos.Config{
			MsgsPer: 10, Interval: 100 * time.Millisecond, Senders: 2,
			Heartbeat: 250 * time.Millisecond, Suspect: 1000 * time.Millisecond,
			AckInterval: 100 * time.Millisecond, NackDelay: 150 * time.Millisecond,
			Settle: 4 * time.Second,
		}
	}
	cfg.N = n
	return cfg, step
}

// e24Script is the fixed churn wave, scaled so every op outlives the
// detection timeout of the slower large-N timers: crash a sender,
// recover it through its WAL, admit two joiners, lose one gracefully.
func e24Script(n int, step time.Duration) chaos.Script {
	text := fmt.Sprintf("@%s crash 2; @%s recover 2; @%s join %d; @%s join %d; @%s leave %d",
		step, 5*step, 8*step, n, 10*step, n+1, 14*step, n+1)
	s, err := chaos.ParseScript(text)
	if err != nil {
		panic(err)
	}
	return s
}

// e24Worlds maps E24's arms to the chaos worlds that run them.
var e24Worlds = map[string]string{"multicast": "churn", "scalecast": "rewire"}

// RunE24 measures one (substrate, N) cell. Substrate is "multicast"
// (the atomic cbcast + membership stack) or "scalecast".
func RunE24(substrate string, n int, seed int64) E24Point {
	world, ok := e24Worlds[substrate]
	if !ok {
		panic("e24: unknown substrate " + substrate)
	}
	cfg, step := e24Tuning(n)
	cfg.Substrate, cfg.Seed, cfg.Script = world, seed, e24Script(n, step)
	res := chaos.Run(cfg)
	pt := E24Point{
		Substrate: substrate, N: n, Reconfigs: res.Epochs,
		Sent: res.Sent, Applied: res.Delivered, Dups: res.Dups,
		Violations: len(res.Violations), TransferBytes: res.TransferBytes,
		MetaPerReconfig: res.MetadataPerEpoch(),
		UnavailMax:      res.UnavailMax.Seconds(), UnavailMean: res.UnavailMean.Seconds(),
		Digest: res.Digest,
	}
	if substrate == "scalecast" {
		// Link maintenance costs control traffic even without churn:
		// charge the rewires only what a churn-free run does not send.
		control := cfg
		control.Script = chaos.Script{}
		base := chaos.Run(control)
		pt.MetaPerReconfig = 0
		if res.Epochs > 0 && res.FlushMsgs > base.FlushMsgs {
			pt.MetaPerReconfig = float64(res.FlushMsgs-base.FlushMsgs) / float64(res.Epochs)
		}
	}
	return pt
}

// RunE24Sweep measures both substrates at each size.
func RunE24Sweep(sizes []int, seed int64) []E24Point {
	var pts []E24Point
	for _, n := range sizes {
		for _, sub := range []string{"multicast", "scalecast"} {
			pts = append(pts, RunE24(sub, n, seed))
		}
	}
	return pts
}

// TableE24 runs the sweep and renders it.
func TableE24(sizes []int, seed int64) *Table {
	t := &Table{
		ID:    "E24",
		Title: "Dynamic membership at scale: churn cost per substrate (§4.4, §5, §6)",
		Claim: "membership, state transfer, and rejoin are services the communication layer can provide — at availability windows and per-view metadata that grow with the group — or push to the application, which is scalecast's (and the paper's) answer",
		Headers: []string{"substrate", "N", "reconfigs", "sent", "applied", "dups",
			"violations", "transfer B", "meta/reconfig", "unavail max ms", "unavail mean ms"},
	}
	for _, pt := range RunE24Sweep(sizes, seed) {
		t.Rows = append(t.Rows, []string{
			pt.Substrate, fmtI(pt.N), fmtU(pt.Reconfigs), fmtU(pt.Sent), fmtU(pt.Applied),
			fmtU(pt.Dups), fmtI(pt.Violations), fmtU(pt.TransferBytes),
			fmtF(pt.MetaPerReconfig), fmtMs(pt.UnavailMax), fmtMs(pt.UnavailMean),
		})
	}
	t.Notes = append(t.Notes,
		"schedule per cell: crash a sender, recover it via WAL replay + snapshot transfer, admit two joiners, one leaves — op spacing and protocol timers scale with N (heartbeats are N² per interval, stability acks N² per cast burst)",
		"multicast rows: churn oracles active (joiner-state equivalence, no-stale-epoch delivery, rejoin liveness) — violations would print; transfer B is donor snapshot volume, meta/reconfig is flush+view messages per installed view",
		"scalecast rows: an omniscient operator rewires the overlay at the instant of each op (zero detection latency — the lower bound for any external reconfiguration service); no oracle can demand store equivalence because a recovered process restarts empty — state transfer and rejoin are the application's problem, the §4.4 position at its limit",
		"scalecast meta/reconfig is the rewire-attributable link-control traffic (barriers, acks) after subtracting a churn-free control run",
		"the crashed multicast sender replays its unstable WAL suffix on rejoin; survivors absorb the replay as dups — §4.4's at-least-once reconciliation made visible")
	return t
}
