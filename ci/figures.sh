#!/usr/bin/env bash
# Every simulated figure, recorded exactly. Takes no arguments:
#
#   bash ci/figures.sh
#
# Reruns each figure at its ledger parameters and rewrites ci/figures/:
#   - <bench>.json: the `--json` output of one bench binary at
#     `--quick --seeds 1`;
#   - BENCH_commit.json, BENCH_shard.json: the full-length commit_path and
#     shard_sweep runs (default parameters) that README cites;
#   - perf_sim.json: sim_ops_per_s and commit_mean_ms of perf's four
#     workloads at their default seeds, and commit_p50_ms / commit_p99_ms of
#     the three harness workloads from perf's traced pass (`--trace 1`).
# Then prints old -> new for every value that moved and exits non-zero when
# any ledger file changed.
#
# The simulator is deterministic, so code that keeps its behaviour reproduces
# every file byte for byte. A change that moves a figure on purpose re-pins
# by running this script, reviewing the diff and committing it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

out=ci/figures
cargo build -q --release -p bench

for b in fig3 fig4 fig5 rounds ext_batch ext_mode ext_contention residency read_mix lease_mix commit_path shard_sweep; do
    cargo run -q --release -p bench --bin "$b" -- --quick --seeds 1 --json "$out/$b.json" >/dev/null
done
cargo run -q --release -p bench --bin commit_path -- --json "$out/BENCH_commit.json" >/dev/null
cargo run -q --release -p bench --bin shard_sweep -- --json "$out/BENCH_shard.json" >/dev/null

# One value per seed (every repetition of a seed agrees), median over the
# seeds: run length and host speed cannot move these, only the simulation.
# The commit percentiles pool every seed's writes, each seed run once, so
# they repeat exactly too. shard_zipf_g256 has no traced percentiles: its
# traced pass records no commit latencies and reports 0.
for w in fast_lan_write craft_geo_write fast_churn_rw shard_zipf_g256; do
    result=$(bash perf/run.sh --workload "$w" --seconds 2 | tail -n 1)
    echo "$w e2e $result"
    if [[ $w != shard_zipf_g256 ]]; then
        result=$(bash perf/run.sh --workload "$w" --seconds 1 --trace 1 | tail -n 1)
        echo "$w trace $result"
    fi
done | python3 -c '
import json, sys
names = {"e2e": ("sim_ops_per_s", "commit_mean_ms"), "trace": ("commit_p50_ms", "commit_p99_ms")}
series = {}
for line in sys.stdin:
    workload, kind, result = line.split(" ", 2)
    metrics = json.loads(result)["metrics"]
    for name in names[kind]:
        series[f"{workload}/{name}"] = metrics[name]["value"]
print(json.dumps({"bench": "perf_sim", "series": series}, indent=2))
' >"$out/perf_sim.json"

git --no-pager diff --word-diff -U0 --exit-code -- "$out"
