#!/usr/bin/env bash
# Smoke-runs every workload of the benchmark, untraced and traced, and
# verifies that each run is correct and reports exactly the metrics
# BENCHMARK.json names, each with the unit BENCHMARK.json gives it.
#
# Run from the repository root:   examples/benchmark/check.sh
# (1 s warm-up + 2 s window per run; about a minute in all.)
set -euo pipefail

cd "$(dirname "$0")/../.."
manifest=examples/benchmark/Cargo.toml
cargo build --release --quiet --offline --manifest-path "$manifest"

status=0
for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  for trace in 0 1; do
    result=$(cargo run --release --quiet --offline --manifest-path "$manifest" -- \
      --workload "$workload" --seed 7 --smoke --trace "$trace" | tail -n 1) || true
    python3 - "$workload" "$trace" "$result" <<'PY' || status=1
import json, sys
workload, trace, line = sys.argv[1], sys.argv[2], sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
got = json.loads(line)
problems = []
if set(got) != {"correct", "attempted", "failed", "metrics"}:
    problems.append(f"result keys {sorted(got)}")
if got.get("correct") is not True:
    problems.append("correct is not true")
if got.get("failed") != 0 or got.get("attempted", 0) < 1:
    problems.append(f"attempted={got.get('attempted')} failed={got.get('failed')}")
metrics = got.get("metrics", {})
for name in sorted(set(want) - set(metrics)):
    problems.append(f"missing metric {name}")
for name in sorted(set(metrics) - set(want)):
    problems.append(f"metric {name} is not in BENCHMARK.json")
for name, unit in want.items():
    m = metrics.get(name)
    if m is not None and (m.get("unit") != unit or not isinstance(m.get("value"), (int, float))):
        problems.append(f"{name}: {m} (want unit {unit})")
tag = f"{workload} trace={trace}"
if problems:
    print(f"FAIL {tag}: " + "; ".join(problems))
    sys.exit(1)
print(f"ok   {tag}: {len(metrics)} metrics, attempted {got['attempted']}")
PY
  done
done
exit $status
