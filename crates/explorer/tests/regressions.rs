//! Replays the checked-in minimized reproducer traces.
//!
//! Each trace in `crates/explorer/traces/` was found by the explorer
//! against a real bug, minimized by [`explorer::shrink`], and checked in
//! once the fix landed. Replays are bit-identical — same setup header,
//! same choice sequence, same virtual-time evolution — so a regression
//! flips the verdict from pass back to the original violation.

use explorer::{replay_setup, Trace};

fn replay_checked_in(name: &str) -> Option<explorer::Violation> {
    let path = format!("{}/traces/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let trace = Trace::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"));
    replay_setup(&trace.setup, &trace.choices)
}

/// The gated-no-op liveness wedge: a re-elected leader's gated term no-op
/// parked a `LeaderAppend` continuation whose release never drained its
/// `gated_decisions` reservation, holding `leader_log_settled()` false
/// forever — wedging reconfig, read nudges, and (under LeaderForward)
/// every forwarded proposal. Found by `explore --proto gated --strategy
/// hammer` at seed 1; fixed in `gate_ready`'s LeaderAppend arm.
///
/// The same schedule also loses a proposal: leader n2 reserves slot 1 for
/// n1's forwarded `n1:0`, its term ends before the gate releases, slot 1
/// commits `n0:0`, and the stale reservation answered n1's retry
/// `committed` — no log ever held `n1:0`. The lost-proposal oracle flags
/// it; fixed by dropping the reservation with the insert in the same arm,
/// and by `Replica::is_committed` checking that the log holds the id.
#[test]
fn gated_noop_wedge_stays_fixed() {
    let v = replay_checked_in("gated_noop_wedge.trace");
    assert!(v.is_none(), "gated no-op wedge regressed: {}", v.unwrap());
}

/// The double-assign divergence the wedge masked: a forwarded proposal's
/// deferred insert reserved no slot, so `leader_log_settled()` stayed true
/// and the read nudge (or a reconfig) could claim the same index — two
/// same-term entries racing for one slot, the second release overwriting
/// the first after it replicated. Found by `explore --proto gated
/// --strategy random` at seed 39 (with the no-op fix already applied —
/// the wedge had to fall first); fixed by reserving the slot in
/// `leader_accept_forwarded`'s Defer arm.
#[test]
fn gated_double_assign_stays_fixed() {
    let v = replay_checked_in("gated_double_assign.trace");
    assert!(v.is_none(), "double-assign divergence regressed: {}", v.unwrap());
}

/// The hole-election divergence: gated inserts can complete out of order,
/// so a node's `lastLeaderIndex` advances past a slot whose insert is
/// still pending — a hole holding, at other nodes, a *committed* entry.
/// The §IV-C up-to-dateness check compared raw `lastLeaderIndex`, so such
/// a node could win an election and its decision loop would re-fill the
/// hole with a different entry: two entries committed at one index. Found
/// by `explore --proto gated --strategy hammer` at seed 4 (ops 3,
/// read-every 2 — the CI smoke shape, with both earlier gated fixes
/// applied); fixed by comparing votes on `leader_coverage()`, the top of
/// the dense leader-approved prefix that acked matchIndexes actually
/// certify.
#[test]
fn gated_hole_election_stays_fixed() {
    let v = replay_checked_in("gated_hole_election.trace");
    assert!(v.is_none(), "hole-election divergence regressed: {}", v.unwrap());
}
