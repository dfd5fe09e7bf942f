//! Thundering-herd session reconnect, under the liveness oracle.
//!
//! The shape: every client lane opens with an explicit `Register`, the
//! network is fully partitioned before any of them can land, leadership
//! churns behind the cuts, and then everything heals at once. All the
//! registrations and their first data ops retry together the moment the
//! partition lifts — the worst reconnect storm a session layer faces.
//! The quiescence drain's liveness oracle demands that every lane's
//! registration *and* every scripted op resolve; a session table that
//! loses a registration under the herd, or a dedup path that wedges a
//! resubmitted first op, fails these tests.

use explorer::{replay_setup, Choice, Proto, Setup};
use wire::{NodeId, TimerKind};

/// Scripts the herd: cut every directed link, churn elections behind the
/// cuts, fire every lane's opening op into the partitioned network, then
/// heal everything at once and let the drain resolve the storm.
fn herd_schedule(sites: u64, lanes: u32) -> Vec<Choice> {
    let mut choices = Vec::new();
    for from in 0..sites {
        for to in 0..sites {
            if from != to {
                choices.push(Choice::Cut {
                    from: NodeId(from),
                    to: NodeId(to),
                });
            }
        }
    }
    // Term churn behind the partition: candidacies that cannot win, so the
    // healed cluster must first converge on a term before serving the herd.
    for n in 0..sites {
        choices.push(Choice::Timer {
            node: NodeId(n),
            kind: TimerKind::Election,
        });
    }
    // Every lane at every gateway opens its session into the void.
    for n in 0..sites {
        for lane in 0..lanes {
            choices.push(Choice::Client {
                node: NodeId(n),
                lane,
            });
        }
    }
    choices.push(Choice::HealAll);
    choices
}

fn herd_setup(proto: Proto, seed: u64) -> Setup {
    Setup {
        proto,
        sites: 3,
        clusters: 0,
        seed,
        ops: 2,
        read_every: 0,
        lanes: 3,
        register_first: true,
        snapshot: None,
    }
}

#[test]
fn fast_raft_herd_resolves_after_heal() {
    for seed in [1, 5, 9] {
        let setup = herd_setup(Proto::Fast, seed);
        let v = replay_setup(&setup, &herd_schedule(setup.sites, setup.lanes));
        assert!(
            v.is_none(),
            "seed {seed}: reconnect herd left unresolved work: {}",
            v.unwrap()
        );
    }
}

/// The same storm with every insert behind an explorer-controlled gate
/// (C-Raft's global level in isolation): the healed leader's term no-op,
/// the nine forwarded registrations, and their data ops all queue behind
/// gates that release in schedule order. Pre-fix, the no-op's leaked
/// reservation would have wedged the entire herd behind a
/// never-settling leader log.
#[test]
fn gated_herd_resolves_after_heal() {
    for seed in [1, 5] {
        let setup = herd_setup(Proto::Gated, seed);
        let v = replay_setup(&setup, &herd_schedule(setup.sites, setup.lanes));
        assert!(
            v.is_none(),
            "seed {seed}: gated reconnect herd left unresolved work: {}",
            v.unwrap()
        );
    }
}
