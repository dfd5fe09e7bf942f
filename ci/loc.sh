#!/usr/bin/env bash
# Line ceiling for the two protocol crates: prints the non-comment, non-blank
# library line count of crates/raft/src + crates/core/src (each file cut at
# its first `#[cfg(test)]`, like the other three ceilings) and fails above
# CEILING.
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
#
# A third ceiling, under the same cut-at-`#[cfg(test)]` rule, holds the
# code that hosts protocol nodes: the four embeddings (the DES runner, the
# shard fabric, the explorer's world, the lockstep testkit) plus what they
# share in `wire` (the `Driver` node table, the `SafetyChecker` and the
# `ClientLane`). Node
# tables, clock stamping, `Actions` recycling and commit checking live in
# `Driver` once, so a fifth hosting loop, or one growing its own copy back,
# shows here. The testkit's move onto `Driver` set CEILING to 6,813; dropping
# the engine's stderr tracing, bare-data proposals and the settled-id reads
# set it to 6,785. Deleting pipelined apply (the `Timing` knob, the engines'
# commit/apply split and drain, the reads parked behind it, and the drain
# stage in every host) set CEILING to 6,659 and EMBED_CEILING to 2,373.
# Building each shared buffer in one allocation paid for its own lines
# (`GateRecorder::new` and `pending` went) and set CEILING to 6,652.
# The smaller commit book (24 bytes per index instead of 32: a per-log
# committer table and 1-based positions into it, in `safety.rs`) raised
# EMBED_CEILING by its own 11 lines, to 2,384.
#
# A fourth ceiling, under the same rule, holds the log and its shared list
# (crates/wire/src/log.rs and entry.rs): one slot tail holds every entry
# above the compaction horizon and an `EntryList` is a buffer it recycles, so a
# second log tier (deleting the sealed segments took them from 883 lines to
# 658) cannot grow back unnoticed. Recycling each log's AppendEntries list
# buffers paid for its own lines (the counting pass, the unused
# `collect_range` and `EntryList`'s hand-written `Default` went) and set
# LOG_CEILING to 648. Moving that pool onto `wire::Recycler`
# (crates/wire/src/recycle.rs, which C-Raft's global-state entries share)
# took `take_list` out of log.rs and set LOG_CEILING to 644.
#
# Every ceiling counts rustfmt-formatted lines since the workspace was
# formatted (CI checks `cargo fmt --all --check`). Formatting alone, with
# no code change, moved the four counts from 6,652 / 649 / 2,384 / 658 to
# 6,718 / 652 / 2,410 / 653, and each ceiling was restated at the new
# count of the same code. The commit book's horizon (`safety.rs`, and the
# snapshot feed in `driver.rs`) was paid for inside the node-hosting files,
# which hold at 2,410; the testkit's shorter exactly-once check set CEILING
# to 6,711.
#
# The client side of the session contract lives once, in `wire`'s
# `ClientLane` (crates/wire/src/lane.rs), counted here with the hosts it
# came out of. It replaced the harness runner's `OutstandingOp`, seq and
# read counters and its `(session, seq)` matching; the shard runner's
# `OutOp` (second op id, unread attempt count, seq, group, data), per-group
# seq map and request building; and the explorer's `Pending` and lane
# counters. That set EMBED_CEILING to 2,371.
#
# CEILING used to count the in-file `#[cfg(test)]` modules of raft and core
# too, so a unit test added in `src` ate the budget and deleting one made
# room for library code. It now counts library lines only, like the other
# three; restated with no code change, the same code's 6,711 lines (tests
# included) are 5,900 library lines.
#
# Classic Raft and Fast Raft then shared one client gateway
# (crates/raft/src/replica/gateway.rs): one table of in-flight writes on
# `Replica` in place of `RaftNode::pending`, `FastRaftEngine::client_pending`
# and `Replica::client_writes`, and one door, commit-time answer, relayed-
# outcome step and post-install sweep in place of each engine's copy. That
# set CEILING to 5,838. The shard fabric's `safety()` accessor, which lets
# callers see its linearizability violations, raised EMBED_CEILING by its
# own 3 lines, to 2,374. Dropping a down site from its log's commit book
# once a configuration without it commits (`SafetyChecker::config_committed`,
# the `CommitBook::rise` helper it shares with `snapshot_stable`, a dropped
# site's re-entry at 0 and the call in `Driver::step`) raised it by its own
# 28 lines, to 2,402.
#
# Stating each wire format once, in `Wire::encode` over a `Sink` (the
# `encoded_len` arithmetic of `FastRaftMessage`, `CRaftMessage` and
# `RaftMessage` went; ci/one_format.sh keeps it gone), and deleting the
# server-assigned session ids set CEILING to 5,793.
#
# Counting Fast Raft's fast quorum from the votes at its own index deleted
# `fast_match` (5,774). Telling a losing proposer of its loss when the leader
# decides (`notify_losers`, `on_lost_index`, the index a `ProposeReply` now
# carries) bought `fast_lan_write` a commit mean of 105 ms instead of 127 ms
# and set CEILING to 5,830.
#
# Recycling each global-state entry's `Rc` through `wire::Recycler` added 8
# lines to craft.rs; dropping `become_leader`'s front-gap probe, which took
# an ordinary in-flight Fast Raft hole for a reconstructed global view,
# removed 11 from election.rs. That set CEILING to 5,827.
#
# Moving the insert gate into the engine (`InsertGate`, `ProceedGate`,
# `GatePurpose`, every `gate` parameter and the three bypasses went),
# landing gated inserts by one rule, and deleting `maybe_proactive_repair`,
# which nothing reached once no site held a leader-approved suffix above a
# hole, set CEILING to 5,717.
#
# Deleting both engines' sender filter and `FastRaftMessage::is_client_traffic`
# (membership now counts only where a quorum is counted), net of scoping
# `PossibleEntries::voters_at` / `most_voted` to the configuration and of
# the one-change-at-a-time rule for a leader's inherited configuration, set
# CEILING to 5,694. Reverting the configuration when a later leader writes
# over the configuration entry obeyed so far (`Replica::readopt_config`,
# which restore and classic Raft's truncation now share, and the
# `bootstrap` configuration it falls back to, all behind one `obey`) raised
# it by its own 14 lines, to 5,708.
#
# One Fast Raft type: the `FastRaftNode` wrapper (core/src/fastraft.rs) and
# `TimerProfile` went, the engine became `FastRaftNode` and implements
# `ConsensusProtocol` itself, `Replica` and both engines arm only base timer
# kinds (craft.rs renames its global engine's by one table), and one
# scoped constructor replaced the eleven-argument `recover`. With the dead
# surface that went alongside (`RaftMessage::{kind, term}`,
# `FastRaftMessage::kind`, `CRaftMessage::kind`, `RecoveryCompleted`'s
# emission, `decision_point`) and net of the inherited-batch fixes the
# explorer's snapshot sweep called for, that set CEILING to 5,452. The
# gated node's `Explorable` impl moved out of the explorer's world.rs into
# gated.rs, and the world gained its compaction and install counts and
# enters every site into the commit books up front: EMBED_CEILING 2,401.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

CEILING=5452
DES_CEILING=652
EMBED_CEILING=2401
LOG_CEILING=644
EMBED_FILES=(
    crates/harness/src/runner.rs
    crates/shard/src/runner.rs
    crates/explorer/src/world.rs
    crates/raft/src/testkit.rs
    crates/wire/src/driver.rs
    crates/wire/src/safety.rs
    crates/wire/src/lane.rs
)

library_lines() { # <file>...: non-comment, non-blank lines above each #[cfg(test)]
    for f in "$@"; do sed '/^#\[cfg(test)\]/,$d' "$f"; done | grep -v '^\s*//' | grep -vc '^\s*$'
}

status=0
lines=$(library_lines $(find crates/raft/src crates/core/src -name '*.rs' | sort))
echo "crates/raft/src + crates/core/src: $lines non-comment, non-blank, non-test lines (ceiling $CEILING)"
if ((lines > CEILING)); then
    echo "line ceiling exceeded by $((lines - CEILING))" >&2
    status=1
fi

des=$(library_lines crates/des/src/*.rs)
echo "crates/des/src: $des non-comment, non-blank, non-test lines (ceiling $DES_CEILING)"
if ((des > DES_CEILING)); then
    echo "des line ceiling exceeded by $((des - DES_CEILING))" >&2
    status=1
fi

embed=$(library_lines "${EMBED_FILES[@]}")
echo "node hosting (${#EMBED_FILES[@]} files): $embed non-comment, non-blank, non-test lines (ceiling $EMBED_CEILING)"
if ((embed > EMBED_CEILING)); then
    echo "node-hosting line ceiling exceeded by $((embed - EMBED_CEILING))" >&2
    status=1
fi
log=$(library_lines crates/wire/src/log.rs crates/wire/src/entry.rs)
echo "crates/wire/src/{log,entry}.rs: $log non-comment, non-blank, non-test lines (ceiling $LOG_CEILING)"
if ((log > LOG_CEILING)); then
    echo "log line ceiling exceeded by $((log - LOG_CEILING))" >&2
    status=1
fi
exit "$status"
