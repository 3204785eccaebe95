"""Summarise repeat.sh's runs: per workload x end-to-end metric, each
set's median and spread, the gap between sets, and the bound."""
import json
import statistics
import sys

bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]
sets = sorted({r["set"] for r in runs})
bad = 0
print(f"{'workload':22} {'metric':24} " + " ".join(f"{'median' + str(s):>14} {'iqr/med':>8}" for s in sets) + f" {'gap':>8} {'bound':>6}")
for w in [w["name"] for w in bench["workloads"]]:
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        meds, cols = [], []
        for s in sets:
            vals = [r["result"]["metrics"][name]["value"] for r in runs if r["set"] == s and r["workload"] == w]
            if not vals:
                continue
            med = statistics.median(vals)
            spread = 0.0
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med
            meds.append(med)
            cols.append(f"{med:14.4f} {spread:8.4f}")
            if name != "setup_s" and spread > bound:
                bad += 1
        if not meds:
            continue
        gap = 0.0
        if len(meds) >= 2:
            # positive = the second set is worse
            gap = (meds[1] - meds[0]) / meds[0] * (1 if lower else -1)
            if gap > bound:
                bad += 1
        print(f"{w:22} {name:24} " + " ".join(cols) + f" {gap:8.4f} {bound:6.2f}")
    failed = sum(r["result"]["failed"] for r in runs if r["workload"] == w)
    wrong = sum(not r["result"]["correct"] for r in runs if r["workload"] == w)
    if failed or wrong:
        bad += 1
    print(f"{w:22} {'failed casts':24} {failed} in {sum(r['workload'] == w for r in runs)} runs, {wrong} runs incorrect")
sys.exit(1 if bad else 0)
