GO ?= go

.PHONY: verify vet build test race smoke fuzz experiments profile pairs

verify: vet build test race smoke

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The smoke gate: the five end-to-end runs that are not already tests.
# Seeded fault-injection episodes on every substrate with all invariant
# oracles armed; an mgcast batch with the cross-group acyclicity and
# destination-liveness oracles; 50 churn episodes (generated
# join/leave/crash/recover schedules; joiner-state equivalence,
# no-stale-epoch delivery, rejoin liveness) and a 300-episode churn
# batch at seed 1, which holds a straggler that loses its NewView to a
# short partition (about 7 s). On a violation cmd/chaos
# exits 1 with the seed, a shrunk minimal script and a reproduction
# one-liner. Last, every BENCHMARK.json workload at about 0.5 s a
# phase with its delivery oracle on: exits 1 if any cast is not
# delivered exactly once, in order, at every member.
smoke:
	$(GO) run ./cmd/chaos -substrate all -n 5 -msgs 20 -episodes 3 -seed 1
	$(GO) run ./cmd/chaos -substrate mgcast -n 8 -msgs 15 -episodes 5 -seed 1
	$(GO) run ./cmd/chaos -churn -n 8 -episodes 50 -seed 7
	$(GO) run ./cmd/chaos -churn -n 8 -episodes 300 -seed 1
	$(GO) run ./bench -smoke -workload all

# fuzz attacks every registered codec's parse path for 10 s each: the
# multicast, scalecast and pubsub kinds and the four mgcast kinds. Each
# fuzzer checks that what decodes re-encodes to its own frame and that
# the size model charges exactly its length. The tcpnet line attacks
# tcpnet's frame reader: the poison rule, and that no later read
# rewrites a delivered payload's slab region. FuzzWindow drives the
# sequence window every per-sender buffer uses and a map through the
# same operations and compares them. Not part of verify.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 10s ./internal/multicast
	$(GO) test -run '^$$' -fuzz '^FuzzScalecastWireDecode$$' -fuzztime 10s ./internal/scalecast
	$(GO) test -run '^$$' -fuzz '^FuzzPubsubWireDecode$$' -fuzztime 10s ./internal/pubsub
	$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 10s ./internal/mgcast
	$(GO) test -run '^$$' -fuzz '^FuzzFrameStream$$' -fuzztime 10s ./internal/transport/tcpnet
	$(GO) test -run '^$$' -fuzz '^FuzzWindow$$' -fuzztime 10s ./internal/seqwin

experiments:
	$(GO) run ./cmd/experiments

# pairs is the paired benchmark comparison a performance claim is judged
# on: ./bench built from BASE's committed tree and from the working
# tree, PAIRS alternating runs of WORKLOAD at SEED, then each end-to-end
# metric's two medians and how many pairs the change won. Ten 20 s
# pairs take about 8 minutes. Not part of verify.
BASE ?= HEAD
WORKLOAD ?= tcp-cbcast-64b
PAIRS ?= 10
SEED ?= 1
pairs:
	BASE=$(BASE) PAIRS=$(PAIRS) SEED=$(SEED) sh scripts/pairs.sh $(WORKLOAD)

# profile captures cpu.pprof and heap.pprof of the E5c header-overhead
# sweep (scalebench -exp header) — a pure hot-loop exercise of the
# stamp, encode, and delivery-check paths, which is where the
# per-message ordering overhead the paper's §3.4 warns about lives.
# Inspect with `go tool pprof cpu.pprof` (top, list, web).
profile:
	$(GO) run ./cmd/scalebench -exp header -sizes 4,16,64 -msgs 400 -profile cpu > /dev/null
	$(GO) run ./cmd/scalebench -exp header -sizes 4,16,64 -msgs 400 -profile heap > /dev/null
