#!/usr/bin/env bash
# Every bench binary is run by CI: for each crates/bench/src/bin/*.rs, fails
# unless its stem appears as a whole word in .github/workflows/ci.yml, as a
# `--bin <stem>` or as an entry of a `for b in ...` list (prose does not
# count: "all four workloads" does not run `all`).
#
# Nine of nineteen binaries once ran in no job, the paper's Fig. 4 among
# them, and every refactor still had to keep them compiling. A binary that no
# job runs is either added to the workflow or deleted, not left to rot.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workflow=.github/workflows/ci.yml
missing=()
total=0
for f in crates/bench/src/bin/*.rs; do
    stem=$(basename "$f" .rs)
    total=$((total + 1))
    grep -Eqw -- "--bin $stem" "$workflow" ||
        grep -E '^ *for b in ' "$workflow" | grep -qw -- "$stem" ||
        missing+=("$stem")
done
echo "crates/bench/src/bin: $total binaries, $((total - ${#missing[@]})) named in $workflow"
if ((${#missing[@]} > 0)); then
    echo "no CI job runs: ${missing[*]}" >&2
    exit 1
fi
