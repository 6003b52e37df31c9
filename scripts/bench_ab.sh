#!/usr/bin/env bash
# A/B one benchmark workload between two checkouts, the way a gain is
# claimed (benchmark/README.md, "Steadiness"): alternating pairs at the
# run length BENCHMARK.json fixes, every run reported, then each side's
# median and quartiles.
#
#   scripts/bench_ab.sh <parent-dir> <change-dir> <workload> <pairs> [first-seed]
#
# Each side runs the `command` of its own BENCHMARK.json from its own
# root, so each builds what it runs from its own source (the first run of
# a side includes that build). Pair i uses seed first-seed + i (default
# 200) on both sides; odd pairs run the change first.
#
# Per run it prints throughput_msgs_s, peak_rss_mb, the median per-repetition
# window-full share (the forwarding workloads fail under 0.30), the
# Little's-law product throughput x p50 (chain_rpc fails outside 128 +- 15%)
# and any FAILED: line.
set -euo pipefail

if [ $# -lt 4 ]; then
    sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
first_seed=${5:-200}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run_side() { # side dir seed pair
    local side=$1 dir=$2 seed=$3 pair=$4 log="$out/$1.$4.log"
    (
        cd "$dir"
        # First line the run length, then the command, a word a line.
        mapfile -t spec < <(python3 -c 'import json; b = json.load(open("BENCHMARK.json")); print(b["run_seconds"], *b["command"], sep="\n")')
        "${spec[@]:1}" --workload "$workload" --seed "$seed" --seconds "${spec[0]}" --trace 0
    ) >"$log" 2>&1 || echo "  ($side exited non-zero)"
    python3 - "$side" "$pair" "$seed" "$log" "$out/$side.tsv" <<'EOF'
import json, re, statistics, sys
side, pair, seed, log, tsv = sys.argv[1:]
lines = open(log).read().splitlines()
full = [float(m.group(1)) for l in lines if (m := re.search(r"window-full ([0-9.]+)$", l))]
failed = [l.strip() for l in lines if l.startswith("FAILED:")]
try:
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
except (IndexError, ValueError, KeyError):
    print(f"pair {pair} {side:6} seed {seed}: no result line; last output: {lines[-1:] or ''}")
    sys.exit(0)
row = {
    "pair": int(pair),
    "throughput_msgs_s": metrics["throughput_msgs_s"],
    "peak_rss_mb": metrics["peak_rss_mb"],
    "window_full": statistics.median(full) if full else float("nan"),
    "little": metrics["throughput_msgs_s"] * metrics["latency_p50_us"] / 1e6,
}
print(f"pair {pair} {side:6} seed {seed}: "
      + "  ".join(f"{k}={v:.2f}" for k, v in row.items() if k != "pair")
      + "".join(f"\n    {f}" for f in failed))
with open(tsv, "a") as f:
    f.write("\t".join(f"{k}={v}" for k, v in row.items()) + "\n")
EOF
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run_side parent "$parent" "$seed" "$i"
        run_side change "$change" "$seed" "$i"
    else
        run_side change "$change" "$seed" "$i"
        run_side parent "$parent" "$seed" "$i"
    fi
done

python3 - "$out" "$workload" <<'EOF'
import statistics, sys
out, workload = sys.argv[1:]
def rows(side):
    try:
        return [dict(kv.split("=") for kv in l.split("\t")) for l in open(f"{out}/{side}.tsv")]
    except FileNotFoundError:
        return []
sides = {s: rows(s) for s in ("parent", "change")}
print(f"\n{workload}: median [lower quartile, upper quartile] over each side's runs")
for key in ("throughput_msgs_s", "peak_rss_mb", "window_full", "little"):
    for side, rs in sides.items():
        vals = sorted(float(r[key]) for r in rs)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4, method="inclusive")
            print(f"  {key:18} {side:6} {q[1]:12.2f} [{q[0]:.2f}, {q[2]:.2f}]  n={len(vals)}")
        elif vals:
            print(f"  {key:18} {side:6} {vals[0]:12.2f}  n=1")
by_pair = {s: {r["pair"]: r for r in rs} for s, rs in sides.items()}
both = [(p, by_pair["change"][i]) for i, p in by_pair["parent"].items() if i in by_pair["change"]]
if both:
    wins = sum(float(c["throughput_msgs_s"]) > float(p["throughput_msgs_s"]) for p, c in both)
    print(f"  change wins throughput_msgs_s in {wins} of {len(both)} pairs")
EOF
