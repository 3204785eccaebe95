// Command chaos runs seeded fault-injection episodes against the
// ordered-broadcast substrates and checks the invariants each one
// advertises. Two modes:
//
// Randomized batch (default): N seeded episodes per substrate, each
// with a generated crash/partition/flaky-link schedule on top of a
// background drop/dup/delay mix. Any violation is shrunk to a minimal
// fault script and reported with a one-line reproduction command.
//
//	go run ./cmd/chaos -substrate scalecast -seed 42 -episodes 50
//
// Scripted episode (-script): one episode with an explicit fault
// schedule — the replay side of the reproduction line above.
//
//	go run ./cmd/chaos -substrate cbcast -seed 5 \
//	    -script "@30ms part 0,1,2|3; @230ms heal"
//
// Churn mode (-churn): seeded dynamic-membership episodes over the
// full membership stack — joiner state transfer, WAL crash-recovery
// rejoin, graceful leave — checked by the churn oracles (joiner-state
// equivalence, no-stale-epoch delivery, rejoin liveness). Generated
// schedules mix membership churn with network faults: short
// sub-detection partitions and inbound-lag slow windows ride alongside
// the crash/join pairs. -churn-rate scales how many of each a schedule
// carries; -recover=false drops the recover half of each crash pair
// (crashed members stay down, exercising pure shrinkage).
// With -script, runs that one churn schedule instead.
//
//	go run ./cmd/chaos -churn -n 32 -episodes 100 -seed 7
//	go run ./cmd/chaos -churn -seed 3 \
//	    -script "@30ms crash 2; @200ms recover 2; @350ms join 8"
//
// Exit status is 1 if any oracle found a violation, so the command
// slots into CI (make smoke).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"catocs/internal/chaos"
	"catocs/internal/flowcontrol"
	"catocs/internal/obs/live"
)

func main() {
	var (
		substrate  = flag.String("substrate", "all", "cbcast | abcast | scalecast | mgcast | all")
		n          = flag.Int("n", 6, "group size")
		senders    = flag.Int("senders", 0, "sending ranks (0 = min(n, 4))")
		msgs       = flag.Int("msgs", 30, "messages per sender")
		episodes   = flag.Int("episodes", 20, "episodes per substrate (batch mode)")
		seed       = flag.Int64("seed", 1, "base seed")
		script     = flag.String("script", "", "explicit fault schedule (single-episode mode)")
		crashes    = flag.Int("crashes", 1, "crash/recover pairs per generated schedule")
		partitions = flag.Int("partitions", 1, "partition/heal pairs per generated schedule")
		flaky      = flag.Int("flaky", 2, "flaky-link windows per generated schedule")
		slows      = flag.Int("slows", 0, "slow-consumer windows per generated schedule")
		maxLag     = flag.Duration("max-lag", 0, "max inbound lag for generated slow windows (0 = 100ms)")
		budget     = flag.Int("budget", 0, "group buffer budget in messages (0 = unlimited)")
		policy     = flag.String("policy", "", "overflow policy with -budget: block | shed | spill")
		clean      = flag.Bool("clean", false, "disable the background drop/dup/delay mix")
		noShrink   = flag.Bool("no-shrink", false, "report failures without minimising them")
		groups     = flag.Int("groups", 0, "mgcast: overlapping destination groups (0 = 4)")
		k          = flag.Int("k", 0, "mgcast: destination groups per cast (0 = 2)")
		profile    = flag.String("profile", "", `write a pprof profile of the run: "cpu" or "heap" (to cpu.pprof / heap.pprof)`)
		churn      = flag.Bool("churn", false, "dynamic-membership mode: join/leave/crash/recover episodes on the membership stack")
		churnRate  = flag.Float64("churn-rate", 1.0, "churn mode: scales crash→recover and join→leave pairs plus partition/slow windows per generated schedule (1.0 = 2+2+1+1)")
		doRecover  = flag.Bool("recover", true, "churn mode: false strips the recover half of crash pairs (crashed members stay down)")
	)
	flag.Parse()

	stopProfile := func() error { return nil }
	if *profile != "" {
		stop, err := live.StartProfile(*profile, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		stopProfile = stop
	}

	var (
		fcBudget flowcontrol.Budget
		fcPolicy flowcontrol.Policy
	)
	if *budget > 0 {
		fcBudget = flowcontrol.Budget{MaxMsgs: *budget}
		var err error
		if fcPolicy, err = flowcontrol.ParsePolicy(*policy); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if fcPolicy == flowcontrol.Suspect {
			// Episodes run no group.Monitor, so an accusation would reach
			// nobody and Suspect would quietly behave as Block.
			fmt.Fprintln(os.Stderr, "chaos: -policy suspect needs a membership layer to act on its accusations, and chaos episodes run none; use block, shed or spill")
			os.Exit(2)
		}
	}

	subs := chaos.Substrates
	if *churn {
		subs = []string{"churn"}
	} else if *substrate != "all" {
		if !slices.Contains(chaos.Substrates, *substrate) {
			fmt.Fprintf(os.Stderr, "chaos: unknown substrate %q\n", *substrate)
			os.Exit(2)
		}
		subs = []string{*substrate}
	}
	s, err := chaos.ParseScript(*script)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	failed := false
	for _, sub := range subs {
		cfg := chaos.Config{
			Substrate: sub, N: *n, Senders: *senders, MsgsPer: *msgs,
			Seed: *seed, Script: s,
			Groups: *groups, K: *k,
			Budget: fcBudget, Overflow: fcPolicy,
		}
		if !*clean && !*churn {
			cfg.Faults = chaos.DefaultFaults
		}
		if *script != "" {
			res := chaos.Run(cfg)
			printResult(res)
			failed = failed || len(res.Violations) > 0
			continue
		}
		rc := chaos.RunnerConfig{
			Config: cfg, Episodes: *episodes, Shrink: !*noShrink,
			NoRecover: *churn && !*doRecover,
			Gen: chaos.GenConfig{
				Crashes: *crashes, Partitions: *partitions, FlakyLinks: *flaky,
				Slows: *slows, MaxLag: *maxLag,
			},
			// rate scales the default 2 crash + 2 join (1 staying) mix
			// plus a sub-detection partition and an inbound-lag window
			// per episode; the stable two-node core bounds how much of
			// the group may churn.
			GenChurn: chaos.GenChurnConfig{
				Crashes:    min(int(*churnRate*2+0.5), *n-2),
				Joins:      int(*churnRate*2 + 0.5),
				Partitions: int(*churnRate + 0.5),
				Slows:      int(*churnRate + 0.5),
			},
		}
		rc.GenChurn.Stayers = (rc.GenChurn.Joins + 1) / 2
		sum := chaos.RunEpisodes(rc)
		printSummary(sum)
		failed = failed || len(sum.Failures) > 0
	}
	// Finish the profile before the violation exit: a failing batch is
	// exactly the run worth profiling.
	if err := stopProfile(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if failed {
		os.Exit(1)
	}
}

// counters renders a line's world-specific fields: delivery, fault and
// buffer counts under the interposer, reconfiguration costs in churn.
func counters(substrate string, c chaos.Counters) string {
	if substrate == "churn" {
		return fmt.Sprintf("applied=%d dups=%d reconfigs=%d meta/reconfig=%.1f transfer=%dB",
			c.Delivered, c.Dups, c.Epochs, c.MetadataPerEpoch(), c.TransferBytes)
	}
	return fmt.Sprintf("delivered=%d faults(drop=%d dup=%d delay=%d) holdback-max=%d stab-hw=%d",
		c.Delivered, c.Faults.Dropped, c.Faults.Duplicated, c.Faults.Delayed, c.MaxHoldback, c.StabHighWater)
}

func printResult(r chaos.Result) {
	fmt.Printf("%-10s seed=%-6d digest=%016x sent=%d skipped=%d %s unavail(max=%s mean=%s)\n",
		r.Substrate, r.Seed, r.Digest, r.Sent, r.Skipped, counters(r.Substrate, r.Counters),
		round(r.UnavailMax), round(r.UnavailMean))
	if len(r.Script.Ops) > 0 {
		fmt.Printf("  script: %s\n", r.Script)
	}
	for _, v := range r.Violations {
		fmt.Printf("  VIOLATION %s\n", v)
	}
	if len(r.Violations) == 0 && r.Substrate == "churn" {
		fmt.Println("  all churn oracles passed")
	} else if len(r.Violations) == 0 {
		fmt.Println("  all oracles passed")
	}
}

func printSummary(s chaos.Summary) {
	fmt.Printf("%-10s episodes=%-3d digest=%016x sent=%d skipped=%d %s unavail(max=%s mean=%s) violations=%s\n",
		s.Substrate, s.Episodes, s.Digest, s.Sent, s.Skipped, counters(s.Substrate, s.Counters),
		round(s.UnavailMax), round(s.UnavailMean), s.ViolationSummary())
	for _, f := range s.Failures {
		fmt.Printf("  FAILING EPISODE seed=%d\n", f.Seed)
		for _, v := range f.Result.Violations {
			fmt.Printf("    %s\n", v)
		}
		fmt.Printf("    minimal script: %s\n", f.MinConfig.Script)
		fmt.Printf("    reproduce: %s\n", f.Repro)
	}
}

func round(d time.Duration) time.Duration { return d.Round(100 * time.Microsecond) }
