#!/usr/bin/env bash
# One thread: fails when library code names `std::sync::Arc` (as a path, or
# inside a `std::sync::{...}` import list).
#
# The protocol stack runs on one thread (ARCHITECTURE "Invariants"), so a
# shared payload is an `Rc`: every `Bytes` clone, `EntryList` fan-out and
# `LogEntry` drop on the hot path would otherwise pay a locked read-modify-
# write (a clone+drop in a tight loop: ~19 ns for `Arc`, ~10 ns for `Rc`, on
# a 2-vCPU Xeon VM). A runner that needs threads moves raw frames between
# them and decodes on the thread that owns the engine; it does not make the
# engine's types `Send`.
#
# "Library code" is crates/*/src except the `bench` crate (its binaries are
# tools, not simulator state), plus vendor/*/src and the root facade, each
# file cut at its `#[cfg(test)]` module; comment lines do not count.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

status=0
while IFS= read -r f; do
    if awk '/^#\[cfg\(test\)\]/ { exit }
            !/^[[:space:]]*\/\// && (/sync::Arc([^A-Za-z0-9_]|$)/ || /sync::\{([^}]*[^A-Za-z0-9_])?Arc([^A-Za-z0-9_]|$)/) {
                print FILENAME ":" FNR ": " $0; found = 1
            }
            END { exit !found }' "$f"; then
        status=1
    fi
done < <(find crates/*/src vendor/*/src src -name '*.rs' -not -path 'crates/bench/*' | sort)

if ((status)); then
    echo "library code above names std::sync::Arc: share single-threaded payloads with std::rc::Rc" >&2
else
    echo "one thread: no std::sync::Arc in library code"
fi
exit "$status"
