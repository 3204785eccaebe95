#!/bin/sh
# Paired comparison: builds ./bench from the committed tree of BASE and
# from the working tree, runs PAIRS alternating pairs of one workload
# (base first on odd pairs, change first on even ones), then prints
# for every end-to-end metric in BENCHMARK.json both sides' medians,
# the change in percent, the base's quartile distance and how many
# pairs the change won. The base is unpacked with `git archive`, so
# only committed files are compared and no worktree is registered.
#
#   make pairs BASE=HEAD~1 WORKLOAD=tcp-cbcast-64b            # 10 pairs of 20 s
#   BASE=main PAIRS=3 SECONDS_PER_RUN=5 sh scripts/pairs.sh tcp-abcast-64b
set -eu
cd "$(dirname "$0")/.."
BASE=${BASE:-HEAD}
WORKLOAD=${1:-${WORKLOAD:-tcp-cbcast-64b}}
PAIRS=${PAIRS:-10}
SEED=${SEED:-1}
SECONDS_PER_RUN=${SECONDS_PER_RUN:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
dir=.bench_build/pairs
rm -rf "$dir/base"
mkdir -p "$dir/base"
git archive "$BASE" | tar -x -C "$dir/base"
(cd "$dir/base" && go build -o ../bench-base ./bench)
go build -o "$dir/bench-change" ./bench
out="$dir/$WORKLOAD.jsonl"
: > "$out"
for i in $(seq 1 "$PAIRS"); do
	order="base change"
	if [ $((i % 2)) -eq 0 ]; then order="change base"; fi
	for side in $order; do
		line=$("$dir/bench-$side" -workload "$WORKLOAD" -seed "$SEED" -seconds "$SECONDS_PER_RUN" -trace 0 | tail -n 1)
		echo "{\"pair\": $i, \"side\": \"$side\", \"result\": $line}" >> "$out"
	done
	echo "pair $i of $PAIRS done" >&2
done
python3 - "$out" "$WORKLOAD" "$BASE" <<'PY'
import json, statistics, sys
runs = [json.loads(l) for l in open(sys.argv[1])]
bench = json.load(open("BENCHMARK.json"))
print(f"{sys.argv[2]} base={sys.argv[3]} pairs={len(runs) // 2}")
print(f"{'metric':24} {'base':>12} {'change':>12} {'delta':>8} {'base iqr':>10} {'won':>6}")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    val = {(r["pair"], r["side"]): r["result"]["metrics"].get(name, {}).get("value") for r in runs}
    pairs = sorted({p for p, _ in val if val[(p, "base")] is not None and val.get((p, "change")) is not None})
    if not pairs:
        continue
    b = [val[(p, "base")] for p in pairs]
    c = [val[(p, "change")] for p in pairs]
    won = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    mb, mc = statistics.median(b), statistics.median(c)
    iqr = 0.0
    if len(b) >= 2:
        q = statistics.quantiles(b, n=4)
        iqr = q[2] - q[0]
    delta = (mc - mb) / mb * 100 if mb else 0.0
    print(f"{name:24} {mb:12.4f} {mc:12.4f} {delta:+7.1f}% {iqr:10.4f} {won:3}/{len(pairs)}")
for side in ("base", "change"):
    att = sum(r["result"]["attempted"] for r in runs if r["side"] == side)
    fail = sum(r["result"]["failed"] for r in runs if r["side"] == side)
    bad = sum(not r["result"]["correct"] for r in runs if r["side"] == side)
    print(f"{side}: failed {fail} of {att} casts, {bad} runs incorrect")
PY
