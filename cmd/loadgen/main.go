// Command loadgen drives simulated clients through the pubsub bus
// against a running fleet of cmd/node processes and reports sustained
// throughput, delivery-latency quantiles and wire overhead as one JSON
// line (netharness.LoadReport).
//
// Each -workers entry becomes one worker shard with its own TCP
// transport and dispatch goroutine; -clients and -rate are split
// evenly across shards, and each shard attaches to a fleet node
// round-robin. Clients are sequence counters, not goroutines, so one
// process simulates millions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"catocs/internal/metrics"
	"catocs/internal/netharness"
	"catocs/internal/transport"
)

func main() {
	var (
		nodesFlag   = flag.String("nodes", "", "fleet topology: id=host:port,...")
		workersFlag = flag.String("workers", "", "worker shards: id=host:port,... (listen addresses in this process)")
		clients     = flag.Int("clients", 100000, "total simulated clients, split across workers")
		rate        = flag.Float64("rate", 2000, "total publishes/sec, split across workers")
		size        = flag.Int("size", 64, "payload bytes per message")
		duration    = flag.Duration("duration", 10*time.Second, "send phase length")
		epoch       = flag.Int64("epoch", 0, "shared wall-clock epoch (unix nanos; 0 = process start)")
		substrate   = flag.String("substrate", "", "substrate label recorded in the report")
		outPath     = flag.String("out", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()
	if err := realMain(*nodesFlag, *workersFlag, *clients, *rate, *size, *duration, *epoch, *substrate, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func realMain(nodesFlag, workersFlag string, clients int, rate float64, size int, duration time.Duration, epoch int64, substrate, outPath string) error {
	nodes, err := netharness.ParseNodeMap(nodesFlag)
	if err != nil {
		return err
	}
	workers, err := netharness.ParseNodeMap(workersFlag)
	if err != nil {
		return err
	}
	if len(nodes) == 0 || len(workers) == 0 {
		return fmt.Errorf("-nodes and -workers are required")
	}
	nodeIDs := netharness.SortedIDs(nodes)
	workerIDs := netharness.SortedIDs(workers)

	nw := len(workerIDs)
	results := make([]*netharness.LoadResult, nw)
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for i, w := range workerIDs {
		ingress := nodeIDs[i%len(nodeIDs)]
		cfg := netharness.LoadConfig{
			Worker:  w,
			Listen:  workers[w],
			Ingress: ingress,
			Addrs: netharness.Merge(nodes, map[transport.NodeID]string{
				w: workers[w],
			}),
			Clients:    shard(clients, i, nw),
			Rate:       rate / float64(nw),
			MsgSize:    size,
			Duration:   duration,
			EpochNanos: epoch,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = netharness.RunLoad(cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", int(workerIDs[i]), err)
		}
	}

	report := netharness.LoadReport{
		Substrate:  substrate,
		Nodes:      len(nodeIDs),
		Workers:    nw,
		Clients:    clients,
		TargetRate: rate,
		DurationS:  duration.Seconds(),
	}
	var hist metrics.Histogram
	var elapsed time.Duration
	for _, r := range results {
		report.Sent += r.Sent
		report.Done += r.Done
		report.WireBytesIn += r.NetStats.BytesIn
		report.WireBytesOut += r.NetStats.BytesOut
		for _, v := range r.Hist.Samples() {
			hist.Observe(v)
		}
		if r.Elapsed > elapsed {
			elapsed = r.Elapsed
		}
	}
	report.Lost = report.Sent - report.Done
	if elapsed > 0 {
		report.MsgsPerSec = float64(report.Done) / elapsed.Seconds()
	}
	if report.Done > 0 {
		report.BytesPerMsg = float64(report.WireBytesIn+report.WireBytesOut) / float64(report.Done)
	}
	report.Latency = netharness.Summarize(&hist)

	out := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return json.NewEncoder(out).Encode(report)
}

// shard splits total into nw near-equal pieces.
func shard(total, i, nw int) int {
	base := total / nw
	if i < total%nw {
		base++
	}
	if base == 0 {
		base = 1
	}
	return base
}
