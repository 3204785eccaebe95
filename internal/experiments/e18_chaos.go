package experiments

import (
	"fmt"
	"time"

	"catocs/internal/chaos"
)

// E18 — chaos: invariant safety and availability under injected
// faults. The harness (internal/chaos) drives seeded episodes of
// crashes, partitions, and flaky links against all three substrates
// and checks every guarantee each one advertises: causal order,
// total-order agreement (abcast), delivery-set agreement, liveness,
// stability safety, and WAL durability.
//
// The experiment makes two of the paper's claims quantitative at
// once. First, the safety half of the reproduction: under a heavy
// randomized fault mix the oracles report zero violations — the
// substrates' ordering guarantees hold exactly where the paper says
// they hold. Second, §6's availability cost: the guarantees are
// maintained *by blocking*. The scripted-partition row shows a
// minority member's delivery silence tracking the outage length
// one-for-one, and the random-mix rows show holdback buffers and the
// unstable-message high-water growing with the fault rate — ordered
// + atomic delivery converts faults into latency and memory, never
// into anomalies.

// E18Point is one (substrate, fault mix) measurement.
type E18Point struct {
	Substrate string
	Mix       string // "random" or "partition"
	Episodes  int
	Sent      uint64
	Delivered uint64
	// Injected fault counts.
	Drops  uint64
	Dups   uint64
	Delays uint64
	// Violations across all oracles (the headline: zero).
	Violations int
	// Resource growth under faults.
	HoldbackMax   int64
	StabHighWater int64
	// Availability: worst and mean per-node delivery silence, seconds.
	UnavailMax  float64
	UnavailMean float64
	// Digest certifies determinism: same seed, same digest.
	Digest uint64
}

// e18PartitionOutage is the scripted-partition row's outage length.
const e18PartitionOutage = 250 * time.Millisecond

// e18PartitionScript isolates the last node for e18PartitionOutage.
func e18PartitionScript(n int) chaos.Script {
	s, err := chaos.ParseScript(fmt.Sprintf("@30ms part %s|%d; @%s heal",
		rangeList(n-1), n-1, 30*time.Millisecond+e18PartitionOutage))
	if err != nil {
		panic(err)
	}
	return s
}

func rangeList(n int) string {
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprint(i)
	}
	return out
}

// RunE18 measures one substrate under the randomized default mix
// (episodes seeded batches of crash+partition+flaky-link schedules
// over background drop/dup/delay) and under a single scripted
// partition that cuts off the last node for 250ms while the others
// keep sending.
func RunE18(substrate string, episodes, n, msgsPer int, seed int64) []E18Point {
	sum := chaos.RunEpisodes(chaos.RunnerConfig{
		Config: chaos.Config{
			Substrate: substrate, N: n, MsgsPer: msgsPer,
			Seed: seed, Faults: chaos.DefaultFaults,
		},
		Episodes: episodes, Shrink: true,
	})
	violations := 0
	for _, f := range sum.Failures {
		violations += len(f.Result.Violations)
	}
	random := E18Point{
		Substrate: substrate, Mix: "random", Episodes: episodes,
		Sent: sum.Sent, Delivered: sum.Delivered,
		Drops: sum.Faults.Dropped, Dups: sum.Faults.Duplicated, Delays: sum.Faults.Delayed,
		Violations:  violations,
		HoldbackMax: sum.MaxHoldback, StabHighWater: sum.StabHighWater,
		UnavailMax: sum.UnavailMax.Seconds(), UnavailMean: sum.UnavailMean.Seconds(),
		Digest: sum.Digest,
	}

	// Scripted partition: senders are the majority only, so the
	// minority node's silence is pure receive unavailability.
	res := chaos.Run(chaos.Config{
		Substrate: substrate, N: n, Senders: min(n-1, 4), MsgsPer: msgsPer,
		Seed: seed, Script: e18PartitionScript(n),
	})
	part := E18Point{
		Substrate: substrate, Mix: "partition", Episodes: 1,
		Sent: res.Sent, Delivered: res.Delivered,
		Drops: res.Faults.Dropped, Dups: res.Faults.Duplicated, Delays: res.Faults.Delayed,
		Violations:  len(res.Violations),
		HoldbackMax: res.MaxHoldback, StabHighWater: res.StabHighWater,
		UnavailMax: res.UnavailMax.Seconds(), UnavailMean: res.UnavailMean.Seconds(),
		Digest: res.Digest,
	}
	return []E18Point{random, part}
}

// RunE18Sweep measures all three substrates.
func RunE18Sweep(episodes, n, msgsPer int, seed int64) []E18Point {
	var pts []E18Point
	for _, sub := range chaos.Substrates {
		pts = append(pts, RunE18(sub, episodes, n, msgsPer, seed)...)
	}
	return pts
}

// TableE18 runs the sweep and renders it.
func TableE18(episodes, n, msgsPer int, seed int64) *Table {
	t := &Table{
		ID:    "E18",
		Title: "Chaos: invariant safety and availability under injected faults (§4.3, §6)",
		Claim: "under crashes, partitions, and lossy links the ordering invariants hold with zero violations — paid for as blocking (unavailability windows) and buffer growth, exactly the §6 trade",
		Headers: []string{"substrate", "mix", "episodes", "sent", "delivered", "drops", "dups",
			"violations", "holdback max", "stab hw", "unavail max ms", "unavail mean ms"},
	}
	for _, pt := range RunE18Sweep(episodes, n, msgsPer, seed) {
		t.Rows = append(t.Rows, []string{
			pt.Substrate, pt.Mix, fmtI(pt.Episodes), fmtU(pt.Sent), fmtU(pt.Delivered),
			fmtU(pt.Drops), fmtU(pt.Dups), fmtI(pt.Violations),
			fmtI(int(pt.HoldbackMax)), fmtI(int(pt.StabHighWater)),
			fmtMs(pt.UnavailMax), fmtMs(pt.UnavailMean),
		})
	}
	t.Notes = append(t.Notes,
		"random mix: per-episode generated schedules (1 crash, 1 partition, 2 flaky links; outages ≤250ms) over background drop=2% dup=2% delay=5%×5ms links",
		"oracles: causal order, total-order agreement (abcast), delivery-set agreement, liveness, stability safety (cbcast/abcast), quiescence (cbcast/abcast), WAL torn-tail recovery",
		"partition mix: the last node is isolated for 250ms while the rest send; its 'unavail max' tracks the outage — the §6 point that CATOCS blocks the minority rather than delivering inconsistently",
		"holdback max / stab hw: worst holdback-queue occupancy and unstable-message high-water — §5's buffer-growth cost made visible under faults",
		"every failure would shrink to a minimal fault script with a one-line repro (cmd/chaos); none occurred")
	return t
}
