#!/usr/bin/env bash
# One statement of the wire format: fails unless `fn encoded_len` is defined
# exactly once under crates/*/src, as the default method of `wire::Wire`
# (crates/wire/src/codec.rs).
#
# Every `Wire` type states its format in `encode`, written against a `Sink`;
# `encoded_len` runs that `encode` into a `Counter`. A hand-written
# `encoded_len` next to an `encode` is a second copy of the format, kept in
# step only by tests, and the bytes the network charges per send (fig5's
# inter-region bytes, perf's simnet.bytes_per_op) would rest on it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

defs=$(grep -rn --include='*.rs' -E '^[[:space:]]*fn encoded_len[[:space:]]*\(' crates/*/src || true)
count=$(printf '%s' "$defs" | grep -c . || true)
if [[ $count -eq 1 && $defs == crates/wire/src/codec.rs:* ]]; then
    echo "one format: the only fn encoded_len is Wire's default ($defs)"
    exit 0
fi
printf '%s\n' "$defs" >&2
echo "expected exactly one fn encoded_len under crates/*/src, Wire's default in crates/wire/src/codec.rs; found $count: state a type's format in its encode only" >&2
exit 1
