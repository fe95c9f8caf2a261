#!/usr/bin/env bash
# Agreement check: do two sets of runs of the same code agree within the
# benchmark's own bounds?
#
#   benchmark/agree.sh N [SECONDS]
#
# Runs N invocations of every workload (seeds 1..N, SECONDS of measured
# time per workload, default 10), assigns them alternately to set A and
# set B, and prints each end-to-end metric's median and spread (IQR over
# median) per set and per workload. A metric passes when each set's
# spread, setup_s excepted, is within the bound from BENCHMARK.json and
# set B's median is not worse than set A's by more than the bound.
# Exits 1 if any metric fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:?usage: agree.sh N [SECONDS]}"
secs="${2:-10}"
out="$here/out/agree"
mkdir -p "$out"
rm -f "$out"/run-*.json
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
for i in $(seq 1 "$n"); do
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
        --seed "$i" --seconds "$secs" 2>"$out/run-$i.log" | tail -n 1 >"$out/run-$i.json"
    echo "run $i/$n done" >&2
done
python3 - "$here/../BENCHMARK.json" "$out" "$n" <<'EOF'
import json, statistics, sys
spec, out, n = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
runs = [json.load(open(f"{out}/run-{i}.json")) for i in range(1, n + 1)]
sets = {"A": runs[0::2], "B": runs[1::2]}
ok = all(r["correct"] for r in runs)
workloads = [w["name"] for w in spec["workloads"]]
for w in workloads:
    print(w)
    for m in spec["end_to_end"]:
        stats = {}
        for name, rs in sets.items():
            vals = [r["metrics"][f"{w}.{m['name']}"]["value"] for r in rs]
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            med = statistics.median(vals)
            stats[name] = (med, (q[2] - q[0]) / med if med else 0.0)
        (ma, sa), (mb, sb) = stats["A"], stats["B"]
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        good = worse <= m["bound"] and (m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
        ok &= good
        print(f"  {m['name']:12} A {ma:12.6g} ({sa:6.1%})  B {mb:12.6g} ({sb:6.1%})"
              f"  B worse by {worse:+6.1%}  bound {m['bound']:.0%}  {'PASS' if good else 'FAIL'}")
print("all runs correct" if all(r["correct"] for r in runs) else "SOME RUNS FAILED THEIR OUTPUT CHECKS")
sys.exit(0 if ok else 1)
EOF
