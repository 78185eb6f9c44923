#!/usr/bin/env bash
# Paired measurement of two checkouts with the repo's benchmark, the way
# docs/BENCHMARKS.md and the choosing-metrics rule ask for it: for every
# pair one fresh seed, every workload of BENCHMARK.json on both sides with
# the benchmark's own command and run length, the side that goes first
# alternating from pair to pair. Writes one JSON file at the root of the
# change checkout: seeds, machine, per metric and side the median and
# quartiles, wins / losses / ties over the pairs, and every run.
#
#   scripts/bench_pairs.sh <parent-checkout> <change-checkout> <pairs> <out.json>
#
# The output path is required: a default would be some PR's committed
# trajectory file, and the next PR's run would overwrite it.
#
# FIRST_SEED=<n> fixes the seeds (n, n+1, …); the default is the clock, so
# that a claim is never measured on a seed used while writing the change.
# After the pairs, one `--trace 1` run per side and workload records the
# per-layer metrics (they are not part of the pairing).
#
# A run that crashes, prints no result line or reports `correct` other
# than true does not stop the others, but after the JSON is written the
# script lists every such run on stderr and exits 1.
set -euo pipefail

if [ "$#" -ne 4 ]; then
    echo "usage: $0 <parent-checkout> <change-checkout> <pairs> <out.json>" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=$3
out=$4
first_seed=${FIRST_SEED:-$(( $(date +%s) % 1000000 ))}
contract=$change/BENCHMARK.json
runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT

mapfile -t command < <(jq -r '.command[]' "$contract")
mapfile -t workloads < <(jq -r '.workloads[].name' "$contract")
seconds=$(jq -r '.run_seconds' "$contract")

# Build both sides before anything is timed (the command is `cargo run`).
for side in "$parent" "$change"; do
    (cd "$side" && "${command[@]}" --seed 1 --smoke --workload "${workloads[0]}" >/dev/null)
done

# run <side-name> <checkout> <workload> <seed> <trace> <file>: the last
# line of stdout is the benchmark's result line. A failed run leaves what
# it printed; the report below names it.
run() {
    local name=$1 dir=$2 workload=$3 seed=$4 trace=$5 file=$6
    echo "  $name $workload seed $seed trace $trace" >&2
    (cd "$dir" && "${command[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" | tail -n 1) >"$file.line" || true
    cp "$dir/results/pipeline/$workload.json" "$file.result" 2>/dev/null || echo '{}' >"$file.result"
}

for ((pair = 0; pair < pairs; pair++)); do
    seed=$((first_seed + pair))
    echo "pair $pair (seed $seed)" >&2
    for workload in "${workloads[@]}"; do
        if ((pair % 2 == 0)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            dir=$parent
            [ "$side" = change ] && dir=$change
            run "$side" "$dir" "$workload" "$seed" 0 "$runs/$pair.$workload.$side"
        done
    done
done
for workload in "${workloads[@]}"; do
    run parent "$parent" "$workload" "$first_seed" 1 "$runs/traced.$workload.parent"
    run change "$change" "$workload" "$first_seed" 1 "$runs/traced.$workload.change"
done

commit() { git -C "$1" rev-parse HEAD 2>/dev/null || echo unknown; }
dirty() { [ -n "$(git -C "$1" status --porcelain 2>/dev/null)" ] && echo true || echo false; }

python3 - "$runs" "$contract" "$pairs" "$first_seed" "$out" \
    "$(commit "$parent")" "$(commit "$change")" "$(dirty "$change")" \
    "$(uname -srm)" "$(nproc)" <<'PY'
import json, statistics, sys
from pathlib import Path

runs, contract, pairs, first_seed, out, parent_commit, change_commit, dirty, uname, cores = sys.argv[1:]
runs, pairs, first_seed = Path(runs), int(pairs), int(first_seed)
contract = json.loads(Path(contract).read_text())
workloads = [w["name"] for w in contract["workloads"]]


def load(path):
    try:
        return json.loads(path.read_text().strip() or "{}")
    except (OSError, ValueError):
        return {}


# Every run, paired and traced, that crashed, printed no result line or
# was not correct.
bad = []
for line in sorted(runs.glob("*.line")):
    result = load(line)
    if not result:
        bad.append(f"{line.stem}: no result line")
    elif result.get("correct") is not True:
        bad.append(f"{line.stem}: correct = {result.get('correct')}")


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


report = {
    "benchmark_command": contract["command"],
    "run_seconds": contract["run_seconds"],
    "pairs": pairs,
    "seeds": [first_seed + p for p in range(pairs)],
    "order": "parent first on even pairs, change first on odd pairs, per workload",
    "parent": {"commit": parent_commit},
    "change": {"commit": change_commit, "uncommitted_changes": dirty == "true"},
    "machine": {"uname": uname, "cores": int(cores)},
    "workloads": {},
}
for workload in workloads:
    listed, by_side = [], {"parent": [], "change": []}
    for pair in range(pairs):
        for side in ("parent", "change"):
            base = runs / f"{pair}.{workload}.{side}"
            line, result = load(Path(f"{base}.line")), load(Path(f"{base}.result"))
            metrics = {k: v["value"] for k, v in line.get("metrics", {}).items()}
            entry = {
                "pair": pair,
                "seed": first_seed + pair,
                "side": side,
                "ran_first": (pair % 2 == 0) == (side == "parent"),
                "correct": line.get("correct"),
                "attempted": line.get("attempted"),
                "failed": line.get("failed"),
                "release_digest": result.get("release_digest"),
                "sum_rows_per_s": result.get("machine", {}).get("sum_rows_per_s"),
                "failed_checks": [c["name"] for c in result.get("checks", []) if not c["ok"]],
                "metrics": metrics,
            }
            listed.append(entry)
            by_side[side].append(entry)
    table = {}
    for m in contract["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        wins = losses = ties = 0
        for p, c in zip(by_side["parent"], by_side["change"]):
            a, b = p["metrics"].get(name), c["metrics"].get(name)
            if a is None or b is None:
                continue
            if a == b:
                ties += 1
            elif (b > a) == higher:
                wins += 1
            else:
                losses += 1
        sides = {
            side: quartiles([e["metrics"][name] for e in by_side[side] if name in e["metrics"]])
            for side in by_side
        }
        a, b = sides["parent"]["median"], sides["change"]["median"]
        table[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            **sides,
            "change_wins": wins,
            "change_losses": losses,
            "ties": ties,
            "median_change_rel": (b - a) / a if a and b is not None else None,
        }
    digests_equal = all(
        p["release_digest"] == c["release_digest"] and p["release_digest"] is not None
        for p, c in zip(by_side["parent"], by_side["change"])
    )
    per_layer = {
        side: {
            k: v["value"]
            for k, v in load(runs / f"traced.{workload}.{side}.line").get("metrics", {}).items()
        }
        for side in ("parent", "change")
    }
    report["workloads"][workload] = {
        "end_to_end": table,
        "release_digests_equal_pair_by_pair": digests_equal,
        "all_correct": all(e["correct"] is True for e in listed),
        "per_layer_one_traced_run": {"seed": first_seed, **per_layer},
        "runs": listed,
    }
Path(out).write_text(json.dumps(report, indent=1) + "\n")
print(f"wrote {out}")
if bad:
    print(f"{len(bad)} failed run(s), named <pair|traced>.<workload>.<side>:", file=sys.stderr)
    for b in bad:
        print(f"  {b}", file=sys.stderr)
    sys.exit(1)
PY
