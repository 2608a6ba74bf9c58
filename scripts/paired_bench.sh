#!/usr/bin/env bash
# Paired end-to-end benchmark runs: the working tree against a parent revision.
#
# Usage:
#   scripts/paired_bench.sh <parent-rev> <workload> <first-seed> <pairs> [benchmark args...]
#   scripts/paired_bench.sh --aa <rev> <workload> <first-seed> <pairs> [benchmark args...]
#
# Example (ten pairs of tpcc_durable, seeds 101..110, 15 s windows):
#   scripts/paired_bench.sh HEAD~1 tpcc_durable 101 10
#
# With --aa the "change" side is not the working tree but a second copy of
# <rev>, extracted into another directory and built there: the A/A control.
# Its verdicts show how far two builds of one revision drift apart on this
# host; a real comparison should move further than that.
#
# What it does:
#   - extracts <parent-rev> with `git archive` into a work directory (no
#     network, and no worktree registered in the repository);
#   - builds each side's examples/benchmark offline, into its own
#     CARGO_TARGET_DIR ("parent" from that tree, "change" from this working
#     tree, uncommitted edits included);
#   - runs <pairs> pairs on seeds <first-seed>.. ; even pairs run the parent
#     first, odd pairs the change first;
#   - prints one TSV row per run: side, seed, correct, failed and the four
#     end-to-end metrics;
#   - ends with each side's median and interquartile range per metric, how
#     many pairs the change won on each, the parent's spread and a verdict;
#   - exits non-zero if any run is not `correct` or has `failed > 0`.
#
# A/A runs keep their rows and result lines apart (file names end in -aa).
#
# Extra arguments go to every benchmark run; the default is
# `--seconds 15 --trace 0`, the benchmark's own window. Every run's full
# result line (per-layer metrics too, with `--trace 1`) is appended to
# results.jsonl in the work directory, ${TMPDIR:-/tmp}/dynamast-paired-<rev>.
# Builds there are reused by later invocations against the same revision.
#
# The verdict column applies EXPERIMENTS.md's rules, with each metric's
# bound and direction read from BENCHMARK.json's `end_to_end` entries:
#   - spread = the parent's IQR / its median; spread > bound: "unresolved";
#   - "better": the change wins >= 90 % of pairs and the medians are further
#     apart than the parent's IQR;
#   - "worse": the parent wins >= 90 % of pairs and the medians are further
#     apart than the parent's IQR;
#   - anything else: "within bound".
# Run nothing else on the host meanwhile.
set -euo pipefail

aa=
if [ "${1:-}" = --aa ]; then
    aa=-aa
    shift
fi
if [ "$#" -lt 4 ]; then
    sed -n '2,9p' "$0" >&2
    exit 2
fi
parent_rev=$1
workload=$2
first_seed=$3
pairs=$4
shift 4
bench_args=("$@")
if [ "${#bench_args[@]}" -eq 0 ]; then
    bench_args=(--seconds 15 --trace 0)
fi

repo=$(git rev-parse --show-toplevel)
rev=$(git -C "$repo" rev-parse --short "$parent_rev")
work="${TMPDIR:-/tmp}/dynamast-paired-$rev"
mkdir -p "$work"

declare -A src=([parent]="$work/parent" [change]="$repo")
declare -A target=([parent]="$work/parent-target" [change]="$work/change-target")
if [ -n "$aa" ]; then
    src[change]="$work/aa"
    target[change]="$work/aa-target"
fi
for dir in "${src[parent]}" "${src[change]}"; do
    if [ ! -f "$dir/Cargo.toml" ]; then
        mkdir -p "$dir"
        git -C "$repo" archive "$rev" | tar -x -C "$dir"
    fi
done

for side in parent change; do
    echo "building $side (${src[$side]}) ..." >&2
    CARGO_TARGET_DIR="${target[$side]}" cargo build --release --quiet --offline \
        --manifest-path "${src[$side]}/examples/benchmark/Cargo.toml" >&2
done

tsv="$work/results$aa-$workload-$first_seed.tsv"
jsonl="$work/results$aa.jsonl"
metrics="throughput_tps latency_p50_us update_p50_us setup_s"
printf 'side\tseed\tcorrect\tfailed\t%s\n' "${metrics// /$'\t'}" | tee "$tsv"

run() { # side seed
    local side=$1 seed=$2 line
    line=$(cd "${src[$side]}" &&
        CARGO_TARGET_DIR="${target[$side]}" "${target[$side]}/release/benchmark" \
            --workload "$workload" --seed "$seed" "${bench_args[@]}" | tail -n 1) || true
    printf '{"side":"%s","seed":%s,"result":%s}\n' "$side" "$seed" "${line:-null}" \
        >>"$jsonl"
    python3 - "$side" "$seed" "$metrics" "$line" <<'EOF' | tee -a "$tsv"
import json, sys
side, seed, names, line = sys.argv[1], sys.argv[2], sys.argv[3].split(), sys.argv[4]
try:
    result = json.loads(line)
except ValueError:
    result = {"correct": False, "failed": -1, "metrics": {}}
values = [str(result["metrics"].get(n, {}).get("value", "nan")) for n in names]
print("\t".join([side, seed, str(result["correct"]).lower(), str(result["failed"])] + values))
EOF
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
done

status=0
python3 - "$tsv" "$repo/BENCHMARK.json" <<'EOF' || status=$?
import csv, json, math, statistics, sys

rows = list(csv.DictReader(open(sys.argv[1]), delimiter="\t"))
gated = {m["name"]: m for m in json.load(open(sys.argv[2]))["end_to_end"]}
names = [n for n in rows[0] if n not in ("side", "seed", "correct", "failed")]
by = {(r["side"], r["seed"]): r for r in rows}
seeds = sorted({r["seed"] for r in rows}, key=int)
bad = [r for r in rows if r["correct"] != "true" or r["failed"] != "0"]
print(f"\n{len(seeds)} pairs; runs not correct or with failures: {len(bad)}")
print(f"{'metric':<16} {'parent median':>14} {'parent IQR':>11} "
      f"{'change median':>14} {'change IQR':>11} {'ratio':>7} {'change wins':>12} "
      f"{'spread':>7}  verdict")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent_median, parent_iqr, change_median, wins, losses, pairs, bound):
    """EXPERIMENTS.md's rules; returns (spread, verdict)."""
    spread = parent_iqr / parent_median if parent_median else float("inf")
    apart = abs(change_median - parent_median) > parent_iqr
    if spread > bound:
        return spread, "unresolved"
    if wins >= 0.9 * pairs and apart:
        return spread, "better"
    if losses >= 0.9 * pairs and apart:
        return spread, "worse"
    return spread, "within bound"


for name in names:
    stats = {}
    for side in ("parent", "change"):
        values = [float(by[(side, s)][name]) for s in seeds if (side, s) in by]
        q1, q2, q3 = quartiles(values)
        stats[side] = (q2, q3 - q1)
    higher = gated[name]["better"] == "higher"
    wins = losses = pairs = 0
    for s in seeds:
        if ("parent", s) in by and ("change", s) in by:
            p, c = float(by[("parent", s)][name]), float(by[("change", s)][name])
            pairs += 1
            wins += c > p if higher else c < p
            losses += c < p if higher else c > p
    (pm, piqr), (cm, ciqr) = stats["parent"], stats["change"]
    ratio = cm / pm if pm else float("nan")
    spread, call = verdict(pm, piqr, cm, wins, losses, pairs, gated[name]["bound"])
    if math.isnan(pm) or math.isnan(cm):
        call = "no data"  # a traced run reports no end-to-end metrics
    print(f"{name:<16} {pm:>14.2f} {piqr:>11.2f} {cm:>14.2f} {ciqr:>11.2f} "
          f"{ratio:>7.3f} {wins:>7}/{pairs:<4} {spread:>7.2f}  {call}")
sys.exit(1 if bad else 0)
EOF
echo "rows: $tsv; result lines: $jsonl" >&2
exit "$status"
