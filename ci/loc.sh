#!/usr/bin/env bash
# Line ceiling for the two protocol crates: prints the non-comment, non-blank
# line count of crates/raft/src + crates/core/src and fails above CEILING.
#
# PR 21 moved what classic Raft and Fast Raft both carry onto one
# `raft::replica::Replica` (6,981 lines before it); the ceiling is the count
# that PR reached. Next to ci/alloc_ceiling.json it keeps the gain from
# eroding: raise it only with a CHANGES.md row saying what the new lines buy,
# and never by moving code into tests or deleting comments to make room.
#
# A second ceiling holds crates/des/src, whose event queue is the one heap
# implementation in the crate (`TimerWheel` is a key index over it): library
# code only, each file cut at its `#[cfg(test)]` module, so tests never count
# against it and a second copy of the heap cannot grow back unnoticed. The
# same rule applies to raising it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

CEILING=6850
DES_CEILING=649

status=0
lines=$(find crates/raft/src crates/core/src -name '*.rs' | xargs cat | grep -v '^\s*//' | grep -vc '^\s*$')
echo "crates/raft/src + crates/core/src: $lines non-comment, non-blank lines (ceiling $CEILING)"
if ((lines > CEILING)); then
    echo "line ceiling exceeded by $((lines - CEILING))" >&2
    status=1
fi

des=$(for f in crates/des/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done | grep -v '^\s*//' | grep -vc '^\s*$')
echo "crates/des/src: $des non-comment, non-blank, non-test lines (ceiling $DES_CEILING)"
if ((des > DES_CEILING)); then
    echo "des line ceiling exceeded by $((des - DES_CEILING))" >&2
    status=1
fi
exit "$status"
