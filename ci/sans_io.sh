#!/usr/bin/env bash
# Sans-IO protocol crates: fails when library code of wire, raft, core,
# storage, des or simnet names `std::env` or uses a `print!`, `eprint!`,
# `println!`, `eprintln!` or `dbg!` macro.
#
# These crates are state machines driven by their embedding: every input is
# a message, a timer, a client request or a clock reading, and every effect
# leaves through `Actions` (sends, persists, timers, commits, observations).
# An environment variable read inside a step is an input no schedule or
# trace records, and a print is an output no test or runner sees. What a
# debugging print would say belongs in an `Observation`.
#
# "Library code" is each file cut at its `#[cfg(test)]` module; comment
# lines do not count.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

status=0
while IFS= read -r f; do
    if awk '/^#\[cfg\(test\)\]/ { exit }
            !/^[[:space:]]*\/\// && (/std::env([^A-Za-z0-9_]|$)/ || /(^|[^A-Za-z0-9_])(e?print(ln)?|dbg)!/) {
                print FILENAME ":" FNR ": " $0; found = 1
            }
            END { exit !found }' "$f"; then
        status=1
    fi
done < <(find crates/{wire,raft,core,storage,des,simnet}/src -name '*.rs' | sort)

if ((status)); then
    echo "library code above reads the environment or prints: a protocol step takes its inputs as arguments and reports through Actions (an Observation)" >&2
else
    echo "sans-IO: no std::env and no print/dbg macro in wire, raft, core, storage, des, simnet library code"
fi
exit "$status"
