#!/usr/bin/env bash
# The benchmark's entry point. Run it from the repository root.
#
#   bash perf/run.sh --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
#       One run, as BENCHMARK.json's `command` does it: builds offline, then
#       runs `perf` (--trace 0, the default: every end-to-end metric) or
#       `perf-trace` (--trace 1: every per-layer metric, spans to perf/out/).
#       The last line of standard output is the result object.
#   bash perf/run.sh
#       The four workloads, then the four traced passes; prints one JSON
#       object per workload.
#   bash perf/run.sh --self-check
#       Two full end-to-end sets of the same code; fails if any end-to-end
#       metric of the second is worse than the first by more than its bound
#       in BENCHMARK.json, or if a metric the simulation decides differs at all.
#
# Only the binary a mode needs is built, so a refactor that breaks
# `perf-trace` (the wide API surface, see API.md) leaves the end-to-end
# gate runnable.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$here/target}
workloads=(fast_lan_write craft_geo_write fast_churn_rw shard_zipf_g256)

build() { # <bin>
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$1"
}

last_line() { # <bin> <args...>: the run's result object
    local bin=$1
    shift
    "$CARGO_TARGET_DIR/release/$bin" "$@" | tail -n 1
}

case "${1:-}" in
"")
    build perf
    build perf-trace
    for w in "${workloads[@]}"; do
        e2e=$(last_line perf --workload "$w")
        layers=$(last_line perf-trace --workload "$w")
        printf '{"workload": "%s", "end_to_end": %s, "per_layer": %s}\n' "$w" "$e2e" "$layers"
    done
    ;;
--self-check)
    build perf
    out=$here/out/self-check
    mkdir -p "$out"
    for set in a b; do
        for w in "${workloads[@]}"; do
            last_line perf --workload "$w" >"$out/$w.$set.json"
        done
    done
    python3 - "$here/../BENCHMARK.json" "$out" "${workloads[@]}" <<'EOF'
import json, sys
bench, out, workloads = json.load(open(sys.argv[1])), sys.argv[2], sys.argv[3:]
# Same seeds, same code: what the simulation decides must repeat exactly, and
# allocation figures to one part in 10 000 (HashMap's random hasher seeds move
# a table growth now and then; see NOISE.md).
exact = {"sim_ops_per_s": 0.0, "commit_mean_ms": 0.0,
         "allocs_per_op": 1e-4, "alloc_bytes_per_op": 1e-4, "peak_heap_mb": 1e-4}
bad = 0
for w in workloads:
    a, b = (json.load(open(f"{out}/{w}.{s}.json")) for s in "ab")
    if not (a["correct"] and b["correct"] and a["failed"] == b["failed"] == 0):
        print(f"FAIL {w}: correct/failed {a['correct']}/{a['failed']} then {b['correct']}/{b['failed']}")
        bad += 1
    for m in bench["end_to_end"]:
        name, x, y = m["name"], a["metrics"][m["name"]]["value"], b["metrics"][m["name"]]["value"]
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        ok = abs(y - x) <= exact[name] * x if name in exact else worse <= m["bound"]
        print(f"{'ok  ' if ok else 'FAIL'} {w:16} {name:20} {x:>16.6g} {y:>16.6g}  worse by {worse:+.2%} (bound {m['bound']:.0%})")
        bad += not ok
sys.exit(1 if bad else 0)
EOF
    ;;
*)
    bin=perf
    args=("$@")
    for ((i = 0; i < ${#args[@]}; i++)); do
        if [[ ${args[i]} == --trace && ${args[i + 1]:-} == 1 ]]; then
            bin=perf-trace
        fi
    done
    build "$bin"
    exec "$CARGO_TARGET_DIR/release/$bin" "$@"
    ;;
esac
