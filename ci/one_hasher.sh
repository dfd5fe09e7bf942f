#!/usr/bin/env bash
# One hasher for every simulator table: fails when library code names
# `HashMap`, `HashSet` or `RandomState` anywhere but crates/des/src/hash.rs,
# which defines `des::IdMap` / `des::IdSet` over the seedless `IdHasher`.
#
# std's default hasher is SipHash under a per-instance random seed: it costs
# more than the probe it feeds, and the seed makes table growth (so the
# allocation count) differ between two runs of one schedule. A table keyed by
# input from outside the program is the exception to argue for in review,
# with its own hasher named here.
#
# "Library code" is crates/*/src except the `bench` crate (its binaries are
# tools, not simulator state), each file cut at its `#[cfg(test)]` module;
# comment lines do not count.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

status=0
while IFS= read -r f; do
    [[ $f == crates/des/src/hash.rs ]] && continue
    if awk '/^#\[cfg\(test\)\]/ { exit }
            !/^[[:space:]]*\/\// && /(^|[^A-Za-z0-9_])(HashMap|HashSet|RandomState)([^A-Za-z0-9_]|$)/ {
                print FILENAME ":" FNR ": " $0; found = 1
            }
            END { exit !found }' "$f"; then
        status=1
    fi
done < <(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort)

if ((status)); then
    echo "library code above uses std's seeded hasher: key the table with des::IdMap / des::IdSet (wire re-exports both)" >&2
else
    echo "one hasher: no HashMap / HashSet / RandomState in library code outside crates/des/src/hash.rs"
fi
exit "$status"
