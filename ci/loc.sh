#!/usr/bin/env bash
# Line ceiling for the two protocol crates: prints the non-comment, non-blank
# line count of crates/raft/src + crates/core/src and fails above CEILING.
#
# PR 21 moved what classic Raft and Fast Raft both carry onto one
# `raft::replica::Replica` (6,981 lines before it); the ceiling is the count
# that PR reached. Next to ci/alloc_ceiling.json it keeps the gain from
# eroding: raise it only with a CHANGES.md row saying what the new lines buy,
# and never by moving code into tests or deleting comments to make room.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

CEILING=6850

lines=$(find crates/raft/src crates/core/src -name '*.rs' | xargs cat | grep -v '^\s*//' | grep -vc '^\s*$')
echo "crates/raft/src + crates/core/src: $lines non-comment, non-blank lines (ceiling $CEILING)"
if ((lines > CEILING)); then
    echo "line ceiling exceeded by $((lines - CEILING))" >&2
    exit 1
fi
