#!/usr/bin/env bash
# Runs two builds of the benchmark as alternating pairs and says, per
# end-to-end metric and workload, whether the second beat the first.
#
#   scripts/paired_bench.sh <parent-binary> <change-binary>
#       [--pairs 10] [--seconds 15] [--first-seed 1] [--out paired_bench.jsonl]
#       [workload ...]                      (default: every workload of BENCHMARK.json)
#   scripts/paired_bench.sh --judge <jsonl> prints the table for every run
#                                          in an existing JSONL file, running nothing
#
# Build each side once with `benchmark/run.sh` (or `cargo build --release
# --manifest-path benchmark/Cargo.toml` under its own CARGO_TARGET_DIR)
# in its own checkout and copy `target/release/maya-benchmark` out. Pair
# i runs both binaries with `--seed <first-seed + i> --trace 0`, the
# parent first on even pairs and the change first on odd ones: this
# container steps between speed modes for seconds at a time, so only
# back-to-back runs compare. A run whose result line is not `"correct":
# true` with `"failed": 0` stops everything. Every run is appended to
# the JSONL file as it finishes; the table is computed from that file's
# new lines. A gain is the change winning at least nine tenths of the
# pairs (ties count for neither) with the medians further apart than
# the parent's inter-quartile spread; a loss is the same the other way
# round. A worse median beyond the metric's bound in BENCHMARK.json is
# a REGRESSION. A spread too wide to tell, either side's inter-quartile
# range above the bound times the parent's median, reads unresolved
# instead of REGRESSION (unless every change run reads worse than every
# parent run) and instead of - (unless every change run reads better
# than every parent run). No pair to judge is an error. Each run's
# minor page faults (the child's `ru_minflt`) go into its JSONL line,
# and under the table each side's median faults per attempted
# operation, per workload: a p50 shift with a shift in faults may be
# the allocator's mode, not the code's speed.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pairs=10 seconds=15 first_seed=1 out=paired_bench.jsonl judge=
bins=() workloads=()
while (($#)); do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --first-seed) first_seed="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --judge) judge="$2"; shift 2 ;;
        -h | --help) sed -n '2,32p' "${BASH_SOURCE[0]}"; exit 0 ;;
        -*) echo "paired_bench: unknown option $1" >&2; exit 2 ;;
        *) if ((${#bins[@]} < 2)); then bins+=("$1"); else workloads+=("$1"); fi; shift ;;
    esac
done
# Prints the table for the JSONL runs on standard input.
judge() {
    python3 -c '
import json, statistics, sys
contract = json.load(open(sys.argv[1]))
runs = {}
for line in sys.stdin:
    r = json.loads(line)
    runs.setdefault(r["workload"], {}).setdefault(r["seed"], {})[r["side"]] = r
if not runs:
    sys.exit("paired_bench: no runs to judge")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print("workload metric unit better | parent median [q1 .. q3] | change median [q1 .. q3] | change/parent | wins/pairs | verdict")
for workload, by_seed in runs.items():
    pairs = [p for p in by_seed.values() if "parent" in p and "change" in p]
    if not pairs:
        sys.exit(f"paired_bench: {workload}: no seed ran on both sides")
    for metric in contract["end_to_end"]:
        name, unit, goal = metric["name"], metric["unit"], metric["better"]
        lower = goal == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        pct = (cm / pm - 1) * 100 if pm else float("nan")
        better = (cm < pm) if lower else (cm > pm)
        apart = abs(cm - pm) > p3 - p1
        wide = max(p3 - p1, c3 - c1) > metric["bound"] * abs(pm)
        all_worse = (min(change) > max(parent)) if lower else (max(change) < min(parent))
        all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
        if better and wins * 10 >= len(pairs) * 9 and apart:
            verdict = "gain"
        elif not better and abs(pct) / 100 > metric["bound"]:
            verdict = "REGRESSION" if all_worse or not wide else "unresolved"
        elif not better and losses * 10 >= len(pairs) * 9 and apart:
            verdict = "loss"
        elif wide and not all_better:
            verdict = "unresolved"
        else:
            verdict = "-"
        print(f"{workload} {name} {unit} {goal} | "
              f"{pm:.4g} [{p1:.4g} .. {p3:.4g}] | {cm:.4g} [{c1:.4g} .. {c3:.4g}] | "
              f"{pct:+.1f}% | {wins}/{len(pairs)} | {verdict}")

print()
print("workload | parent | change: median minor page faults per attempted operation")
for workload, by_seed in runs.items():
    medians = [statistics.median(p[side]["minflt"] / max(p[side]["attempted"], 1)
                                 for p in by_seed.values() if side in p)
               for side in ("parent", "change")]
    print(workload, *(f"{m:.4g}" for m in medians), sep=" | ")
' "$repo/BENCHMARK.json"
}

if [[ -n $judge ]]; then
    [[ -f $judge ]] || { echo "paired_bench: $judge is not a file" >&2; exit 2; }
    judge < "$judge"
    exit
fi
if ((${#bins[@]} != 2)); then
    echo "usage: paired_bench.sh <parent-binary> <change-binary> [options] [workload ...]" >&2
    echo "       paired_bench.sh --judge <jsonl>" >&2
    exit 2
fi
for bin in "${bins[@]}"; do
    [[ -x "$bin" ]] || { echo "paired_bench: $bin is not an executable" >&2; exit 2; }
done
if ((${#workloads[@]} == 0)); then
    mapfile -t workloads < <(python3 -c '
import json, sys
print(*(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]), sep="\n")
' "$repo/BENCHMARK.json")
fi

# One run: prints the result line with its provenance and the run's
# minor page faults (the child's `ru_minflt`) folded in.
run() { # side binary workload seed order
    MAYA_BENCHMARK_DIR="$repo/benchmark" python3 -c '
import json, resource, subprocess, sys
side, binary, workload, seed, order, seconds = sys.argv[1:]
faults = lambda: resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
before = faults()
proc = subprocess.run([binary, "--workload", workload, "--seed", seed, "--seconds", seconds,
                       "--trace", "0"], stdout=subprocess.PIPE, text=True)
minflt = faults() - before
if proc.returncode != 0:
    sys.exit(f"paired_bench: {side} {workload} seed {seed}: exit code {proc.returncode}")
line = (proc.stdout.splitlines() or [""])[-1]
try:
    result = json.loads(line)
except ValueError:
    sys.exit(f"paired_bench: {side} {workload} seed {seed}: last line is not JSON: {line[:200]!r}")
if result.get("correct") is not True or result.get("failed") != 0:
    verdict = {k: result.get(k) for k in ("correct", "attempted", "failed")}
    sys.exit(f"paired_bench: {side} {workload} seed {seed}: refused, {verdict}")
metrics = {name: m["value"] for name, m in result["metrics"].items()}
print(json.dumps({"side": side, "workload": workload, "seed": int(seed), "ran": order,
                  "attempted": result["attempted"], "minflt": minflt, "metrics": metrics}))
' "$1" "$2" "$3" "$4" "$5" "$seconds"
}

start_line=$(($( [[ -f "$out" ]] && wc -l < "$out" || echo 0) + 1))
: >> "$out"
for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((first_seed + i))
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            if [[ $side == parent ]]; then bin="${bins[0]}"; else bin="${bins[1]}"; fi
            if [[ $side == "${order[0]}" ]]; then ran=first; else ran=second; fi
            run "$side" "$bin" "$workload" "$seed" "$ran" >> "$out"
            tail -n 1 "$out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
print("  {workload} seed {seed} {side:6} ({ran:6}) p50 {p50:.3f} ms".format(
      p50=r["metrics"]["latency_p50_ms"], **r), file=sys.stderr)'
        done
    done
done

tail -n "+$start_line" "$out" | judge
