#!/bin/sh
# Repeatability check: runs every workload SEEDS times (seeds 1..SEEDS),
# SETS times over, and prints for each workload x end-to-end metric the
# median of each set, the gap between the sets' medians and the spread
# (interquartile range over median) of each set, beside the bound from
# BENCHMARK.json. Exits non-zero when a gap or a spread (setup_s's
# spread excepted) exceeds its bound.
#
#   sh bench/repeat.sh            # 2 sets x 10 seeds x 5 workloads, ~40 min
#   SEEDS=3 SETS=2 sh bench/repeat.sh tcp-cbcast-64b
set -eu
cd "$(dirname "$0")/.."
SEEDS=${SEEDS:-10}
SETS=${SETS:-2}
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
WORKLOADS=${*:-$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}
mkdir -p .bench_build
go build -o .bench_build/bench ./bench
out=.bench_build/repeat.jsonl
: > "$out"
for set in $(seq 1 "$SETS"); do
	for w in $WORKLOADS; do
		for seed in $(seq 1 "$SEEDS"); do
			line=$(.bench_build/bench -workload "$w" -seed "$seed" -seconds "$SECONDS_PER_RUN" -trace 0 | tail -n 1)
			echo "{\"set\": $set, \"workload\": \"$w\", \"seed\": $seed, \"result\": $line}" >> "$out"
			echo "set $set $w seed $seed done" >&2
		done
	done
done
python3 bench/repeat.py "$out"
