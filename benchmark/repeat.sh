#!/usr/bin/env bash
# Run the full benchmark twice at one seed and compare the two results:
# a per-workload table of both values and their relative gap for every
# end-to-end metric. Fails if a host metric's gap exceeds that metric's
# bound, if any simulated metric differs at all, or if any job failed.
#
#   benchmark/repeat.sh [--seed S] [--seconds N] [--smoke]
#
# (arguments are passed through to `benchmark --all`).
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
mkdir -p out
for run in a b; do
    echo "== run $run =="
    cargo run --release --offline -- --all --tag "repeat-$run" "$@" >"out/repeat-$run.log" 2>&1 || {
        tail -n 40 "out/repeat-$run.log"
        echo "run $run failed (full log: benchmark/out/repeat-$run.log)"
        exit 1
    }
done

python3 - out/result-repeat-a.json out/result-repeat-b.json <<'PY'
import json, sys

a, b = (json.load(open(p)) for p in sys.argv[1:3])
bad = []
if a["host"] != b["host"] or a["seed"] != b["seed"] or a["seconds"] != b["seconds"]:
    bad.append("the two runs have different fingerprints: %s vs %s" % (a["host"], b["host"]))
print("host:", a["host"], "seed", a["seed"], "seconds", a["seconds"])
for name, wa in a["workloads"].items():
    wb = b["workloads"][name]
    print(f"\n== {name} ==")
    print(f"{'metric':<14} {'unit':<6} {'clock':<10} {'run a':>16} {'run b':>16} {'gap':>9} {'bound':>7}")
    for metric, ma in wa["end_to_end"].items():
        mb = wb["end_to_end"][metric]
        va, vb = ma["value"], mb["value"]
        gap = abs(vb - va) / abs(va) if va else float(vb != va)
        exact = ma["clock"] == "simulated"
        limit = 0.0 if exact else ma["bound"]
        verdict = "" if gap <= limit else "  <-- outside"
        print(f"{metric:<14} {ma['unit']:<6} {ma['clock']:<10} {va:>16.4f} {vb:>16.4f} "
              f"{gap * 100:>8.2f}% {'exact' if exact else '%.0f%%' % (limit * 100):>7}{verdict}")
        if verdict:
            bad.append(f"{name}/{metric}: {va} vs {vb}, gap {gap * 100:.2f}% > {limit * 100:.0f}%")
    for run, w in (("a", wa), ("b", wb)):
        print(f"run {run}: {w['failed']} of {w['attempted']} jobs failed (failed_share {w['failed_share']})")
        if w["failed"] or not w["correct"]:
            bad.append(f"{name}: run {run} failed {w['failed']} jobs: {w['errors']}")
if bad:
    print("\nFAILED:\n  " + "\n  ".join(bad))
    sys.exit(1)
print("\nevery host metric inside its bound, every simulated metric identical, no failed job")
PY
