GO ?= go

.PHONY: verify vet build test race bench benchdiff experiments profile e17-smoke chaos-smoke slow-consumer-smoke mgcast-smoke obs-smoke net-smoke churn-smoke bench-smoke

verify: vet build test race e17-smoke chaos-smoke slow-consumer-smoke mgcast-smoke obs-smoke net-smoke churn-smoke bench-smoke benchdiff

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The E17 latency-breakdown smoke gate: the trace pipeline must
# decompose deliveries on every substrate.
e17-smoke:
	$(GO) test ./internal/experiments -run 'TestE17' -count=1 -v

# The chaos smoke gate: seeded fault-injection episodes on every
# substrate with all invariant oracles armed. On failure the command
# prints the seed and a shrunk minimal fault script, so the breakage
# reproduces with the printed one-liner.
chaos-smoke:
	$(GO) run ./cmd/chaos -substrate all -n 5 -msgs 20 -episodes 3 -seed 1

# The slow-consumer smoke gate: a tiny E19. Exits 1 if the no-policy
# baseline fails to show unbounded growth, if any overflow policy lets
# a buffer exceed its budget, or if the bounded-memory oracle fires on
# the randomized slow-consumer batch.
slow-consumer-smoke:
	$(GO) test ./internal/experiments -run 'TestE19' -count=1 -v

# The multi-group multicast smoke gate: a small E20 (both arms must be
# violation-free and mgcast must carry less per-node load), plus a
# seeded mgcast chaos batch with the cross-group acyclicity and
# destination-liveness oracles armed.
mgcast-smoke:
	$(GO) test ./internal/experiments -run 'TestE20' -count=1 -v
	$(GO) run ./cmd/chaos -substrate mgcast -n 8 -msgs 15 -episodes 5 -seed 1

# The observability smoke gate: the live HTTP plane must serve valid
# Prometheus exposition on /metrics and live holdback depth on
# /statusz, and a small E21 must show every observation arm delivering
# the identical workload.
obs-smoke:
	$(GO) test ./internal/experiments -run 'TestObsEndpointSmoke|TestE21SmallRun' -count=1 -v

# The dynamic-membership smoke gate: a short E24 (both substrates must
# reconfigure cleanly at small N, with state actually transferred and
# the WAL replay absorbed as dups), then 50 seeded churn episodes —
# generated join/leave/crash/recover schedules with the churn oracles
# armed (joiner-state equivalence, no-stale-epoch delivery, rejoin
# liveness). Any violation exits 1 with a shrunk minimal schedule and
# a reproduction one-liner.
churn-smoke:
	$(GO) test ./internal/experiments -run 'TestE24' -count=1 -v
	$(GO) run ./cmd/chaos -churn -n 8 -episodes 50 -seed 7

# The real-network smoke gate: build cmd/node and cmd/loadgen, stand
# up a 3-OS-process fleet per substrate over TCP, drive it with
# loadgen, and require zero causal/total-order oracle violations on
# the merged cross-process obs trace.
net-smoke:
	$(GO) test ./internal/experiments -run 'TestE22' -count=1 -v

# The benchmark smoke gate: every BENCHMARK.json workload at about
# 0.5 s a phase, its delivery oracle on. Exits 1 if any cast is not
# delivered exactly once, in order, at every member.
bench-smoke:
	$(GO) run ./bench -smoke -workload all

# The bench-trajectory regression gate: compare the two most recent
# BENCH_<n>.json snapshots and flag any gobench ns/op regression over
# 20%. Warn-only by default (1x-iteration snapshots are noisy);
# BENCHDIFF_STRICT=1 makes a flagged regression fail the build. Skips
# quietly when fewer than two snapshots exist.
benchdiff:
	@if [ $$(ls BENCH_*.json 2>/dev/null | wc -l) -lt 2 ]; then \
		echo "benchdiff: fewer than two BENCH_<n>.json snapshots, skipping"; \
	elif [ "$(BENCHDIFF_STRICT)" = "1" ]; then \
		$(GO) run ./cmd/benchdiff; \
	else \
		$(GO) run ./cmd/benchdiff || echo "benchdiff: regression flagged (warn-only; set BENCHDIFF_STRICT=1 to enforce)"; \
	fi

# bench appends a machine-readable snapshot BENCH_<n>.json (next free
# n): every Go benchmark at -benchtime=1x plus the scalecast and
# mgcast sweeps in JSON form, all run from fixed seeds. The whole
# multicast-throughput family (including the observability-cost
# trio) and the wire-encode bench are then re-run
# at 50000x so steady-state numbers land in the snapshot with real
# signal (benchdiff keeps the last line per name). A real-network
# loadgen fleet run (cmd/netbench) closes the snapshot, so the
# trajectory tracks real TCP latency quantiles alongside the
# simulator's numbers. Apart from the leading provenance line (commit
# + timestamp), timing jitter, and the wall-clock loadgen lines,
# regenerating a snapshot from an unchanged tree is near-identical.
# After writing, the new snapshot is diffed against its predecessor
# (warn-only).
bench:
	@n=1; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	out=BENCH_$$n.json; \
	{ $(GO) run ./cmd/benchsnap -header < /dev/null; \
	  $(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' . | $(GO) run ./cmd/benchsnap -kind gobench; \
	  $(GO) test -bench 'MulticastThroughput|WireEncodeDataMsg' -benchmem -benchtime=50000x -run '^$$' . | $(GO) run ./cmd/benchsnap -kind gobench; \
	  $(GO) run ./cmd/scalebench -exp scalecast -sizes 8,32 -json | $(GO) run ./cmd/benchsnap -kind scalecast; \
	  $(GO) run ./cmd/scalebench -exp latbreak -sizes 8,32 -msgs 20 -json | $(GO) run ./cmd/benchsnap -kind latbreak; \
	  $(GO) run ./cmd/scalebench -exp mgcast -sizes 8,32 -ks 1,2,4 -msgs 10 -json | $(GO) run ./cmd/benchsnap -kind mgcast; \
	  $(GO) run ./cmd/netbench | $(GO) run ./cmd/benchsnap -kind loadgen; \
	} > $$out; \
	echo "wrote $$out ($$(wc -l < $$out) lines)"; \
	$(MAKE) --no-print-directory benchdiff

experiments:
	$(GO) run ./cmd/experiments

# profile captures cpu.pprof and heap.pprof of the E5c header-overhead
# sweep (scalebench -exp header) — a pure hot-loop exercise of the
# stamp, encode, and delivery-check paths, which is where the
# per-message ordering overhead the paper's §3.4 warns about lives.
# Inspect with `go tool pprof cpu.pprof` (top, list, web).
profile:
	$(GO) run ./cmd/scalebench -exp header -sizes 4,16,64 -msgs 400 -profile cpu > /dev/null
	$(GO) run ./cmd/scalebench -exp header -sizes 4,16,64 -msgs 400 -profile heap > /dev/null
