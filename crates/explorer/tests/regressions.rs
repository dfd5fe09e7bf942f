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
/// parked a continuation whose release never drained its slot
/// reservation, holding `leader_log_settled()` false
/// forever — wedging reconfig, read nudges, and (under LeaderForward)
/// every forwarded proposal. Found by `explore --proto gated --strategy
/// hammer` at seed 1; fixed in `gate_ready`'s arm for leader appends
/// (since then, a reservation drains when it lands or when its leader
/// steps down).
///
/// The same schedule also loses a proposal: leader n2 reserves slot 1 for
/// n1's forwarded `n1:0`, its term ends before the gate releases, slot 1
/// commits `n0:0`, and the stale reservation answered n1's retry
/// `committed` — no log ever held `n1:0`. The lost-proposal oracle flags
/// it; fixed by dropping the reservation with the insert in the same arm,
/// and by `Replica::committed_index` checking that the log holds the id.
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
    assert!(
        v.is_none(),
        "double-assign divergence regressed: {}",
        v.unwrap()
    );
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
    assert!(
        v.is_none(),
        "hole-election divergence regressed: {}",
        v.unwrap()
    );
}

/// The fast quorum counted the wrong index: the leader kept one
/// `fast_match` per site, the highest decided index at which that site had
/// voted for the decided entry, and fast-committed `k` once a fast quorum's
/// maximum reached `k`. A site that voted for another entry at `k + 1`
/// therefore counted as holding the decided entry at `k`, and a fast
/// commit could rest on a classic quorum: `n1:1` committed at index 2 on
/// one site while a later leader re-decided `n0:0` there. Found by
/// `explore --proto fast --strategy hammer` at seed 75 in the explorer's
/// default shape (3 sites, 3 ops); fixed by counting only the votes at `k`
/// that name the leader's entry there.
#[test]
fn fast_quorum_counts_votes_at_its_index() {
    let v = replay_checked_in("fast_quorum_at_index.trace");
    assert!(
        v.is_none(),
        "fast quorum at index regressed: {}",
        v.unwrap()
    );
}

/// A leading hole is not a front gap: a C-Raft site won its cluster's
/// election holding local entries at 2..=5 above an empty index 1, with
/// nothing committed and nothing compacted, an ordinary in-flight Fast
/// Raft hole (§III-B). `become_leader` took any hole at the compaction
/// horizon for a reconstructed global view: with debug assertions on it
/// panicked ("front-gapped log outside the C-Raft global reconstruction
/// path"), and release builds counted the hole as an
/// `Observation::GlobalViewGap`. Found by `explore --proto craft --strategy
/// random --seeds 59..60 --sites 4 --clusters 2` in a debug build; fixed by
/// leaving the probe to the global reconstruction, the one path whose view
/// can lack entries it once held.
#[test]
fn a_local_leading_hole_is_not_a_front_gap() {
    let v = replay_checked_in("craft_local_front_hole.trace");
    assert!(v.is_none(), "local leading hole regressed: {}", v.unwrap());
}

/// Gated inserts landing out of order: on the gated global level, two
/// entries committed at one index ("n1 committed n2:1 but n0 committed
/// n1:2" at index 2). Found by `explore --proto gated --strategy hammer`
/// at seed 9 in the explorer's default shape, one of 20 failing seeds of
/// 0..1000; with debug assertions on, the dispatch assertion that
/// AppendEntries ship only leader-approved entries fired first. Fixed by
/// giving gated inserts one landing rule (see `consensus_core`'s `gate`
/// module): a leader's inserts land in index order, an AppendEntries batch
/// lands whole in index order and only in its own term, a follower inserts
/// only the run contiguous with its verified prefix, and a leader ships
/// only its dense leader-approved prefix; and by putting every insert
/// behind the engine's one gate.
#[test]
fn gated_inserts_land_in_index_order() {
    let v = replay_checked_in("gated_landing_order.trace");
    assert!(v.is_none(), "gated landing order regressed: {}", v.unwrap());
}

/// The same defect in full C-Raft: with 4 sites in 2 clusters, two
/// entries committed at global index 1. Found by `explore --proto craft
/// --strategy hammer --seeds 628..629 --sites 4 --clusters 2`; fixed with
/// the gated global level above.
#[test]
fn craft_global_inserts_land_in_index_order() {
    let v = replay_checked_in("craft_landing_order.trace");
    assert!(
        v.is_none(),
        "C-Raft global landing order regressed: {}",
        v.unwrap()
    );
}

/// The configuration-filter wedge: a site that obeyed a configuration
/// excluding the current leader dropped that leader's messages as "sender
/// not in configuration", was then evicted, and its join never landed, so
/// client n2/0 waited forever at seq 2. Found by `explore --proto fast
/// --strategy random --seeds 2315..2316`; fixed by deleting the sender
/// filter in both engines. Membership now counts only where a quorum is
/// counted: election votes, the decision rule's votes, replication and
/// read acks, and leases.
#[test]
fn a_member_follows_a_leader_outside_its_configuration() {
    let v = replay_checked_in("fast_config_filter_wedge.trace");
    assert!(
        v.is_none(),
        "configuration filter wedge regressed: {}",
        v.unwrap()
    );
}

/// The same wedge on the gated global level: a leader cut off from a peer
/// suspects it, the configuration entry removing it lands, and the leader
/// then ignores the traffic of the leader elected next. Found by `explore
/// --proto gated --strategy random --seeds 106..107`; fixed with the Fast
/// Raft case above.
#[test]
fn a_gated_member_follows_a_leader_outside_its_configuration() {
    let v = replay_checked_in("gated_config_filter_wedge_106.trace");
    assert!(v.is_none(), "gated filter wedge regressed: {}", v.unwrap());
}

/// A second schedule of the gated wedge, found by the same sweep at
/// `--seeds 753..754`.
#[test]
fn a_gated_member_follows_a_leader_outside_its_configuration_again() {
    let v = replay_checked_in("gated_config_filter_wedge_753.trace");
    assert!(v.is_none(), "gated filter wedge regressed: {}", v.unwrap());
}

/// Two configuration changes in flight: leader n0 queued the removal of
/// n2 and of n1, stepped down before the first committed, and, elected
/// again, proposed the second while its log still held the first
/// uncommitted, then committed alone in the one-site configuration it
/// obeyed. Found by `explore --proto fast --strategy random --seeds
/// 605..606` once a step-down stopped leaving `pending_config` set (which
/// had blocked every later change); fixed by proposing a change only once
/// the configuration the leader obeys is committed.
#[test]
fn an_inherited_configuration_commits_before_the_next_change() {
    let v = replay_checked_in("fast_inherited_config_change.trace");
    assert!(
        v.is_none(),
        "two configuration changes in flight: {}",
        v.unwrap()
    );
}
