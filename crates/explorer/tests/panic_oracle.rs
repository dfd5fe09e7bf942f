//! A panicking step is a violation like any other.
//!
//! Under the `explore` profile every protocol `debug_assert!` is an oracle,
//! and a schedule that trips one must still come back as a schedule the
//! explorer can shrink and save. These tests drive a deliberately
//! panicking toy protocol through [`explorer::World`] and check that the
//! panic comes back as [`Violation::Panic`], with the choice that
//! triggered it recorded last, from exploration, replay, the quiescence
//! drain and the shrinker alike.

use explorer::{explore_world, replay_world, shrink, Choice, Enabled, Explorable, Strategy};
use explorer::{Violation, World, WorldConfig};
use wire::{
    Actions, ClientOutcome, ClientRequest, ConsensusProtocol, LogIndex, LogScope, Message, NodeId,
    Observation, SafetyChecker, TimerKind,
};

use des::SimDuration;

#[derive(Clone, Debug)]
struct Ping;

impl Message for Ping {
    fn wire_size(&self) -> usize {
        1
    }
}

/// Answers every client op at once, and panics when its election timer
/// fires.
struct Bomb {
    id: NodeId,
    committed: u64,
}

impl ConsensusProtocol for Bomb {
    type Message = Ping;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_message(&mut self, _from: NodeId, _msg: Ping, _out: &mut Actions<Ping>) {}

    fn on_timer(&mut self, _kind: TimerKind, _out: &mut Actions<Ping>) {
        panic!("bomb {} went off", self.id);
    }

    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<Ping>) {
        self.committed += 1;
        out.observe(Observation::ClientResponse {
            session: req.session,
            seq: req.seq,
            outcome: ClientOutcome::Committed {
                index: LogIndex(self.committed),
            },
        });
    }

    fn bootstrap(&mut self, out: &mut Actions<Ping>) {
        out.set_timer(TimerKind::Election, SimDuration::from_millis(10));
    }
}

impl Explorable for Bomb {}

fn bomb_world() -> World<Bomb> {
    let cfg = WorldConfig {
        ops: 2,
        read_every: u32::MAX,
        ..WorldConfig::new(LogScope::Global)
    };
    let bomb = |id| Bomb { id, committed: 0 };
    World::new(
        [bomb(NodeId(0))],
        cfg,
        SafetyChecker::new(),
        Box::new(move |id, _stable| bomb(id)),
    )
}

/// Plays a fixed list of choices, then stops.
struct Script(std::vec::IntoIter<Choice>);

impl Strategy for Script {
    fn choose(&mut self, _enabled: &Enabled) -> Option<Choice> {
        self.0.next()
    }
}

fn is_bomb(v: &Violation) -> bool {
    v.kind() == "panic" && v.message() == "bomb n0 went off"
}

#[test]
fn a_panicking_step_is_reported_with_its_choice_last() {
    let client = Choice::Client {
        node: NodeId(0),
        lane: 0,
    };
    let timer = Choice::Timer {
        node: NodeId(0),
        kind: TimerKind::Election,
    };
    let script = vec![client.clone(), timer.clone(), client.clone()];
    let report = explore_world(&mut bomb_world(), &mut Script(script.into_iter()), 10);
    let v = report.violation.expect("the timer panics");
    assert!(is_bomb(&v), "wrong violation: {v}");
    assert_eq!(report.choices, vec![client, timer]);

    let replayed = replay_world(&mut bomb_world(), &report.choices);
    assert!(replayed.as_ref().is_some_and(is_bomb), "{replayed:?}");

    // The drain fires the timer too, so the shrinker keeps the kind and
    // needs no choice at all to reproduce it.
    let shrunk = shrink(|c| replay_world(&mut bomb_world(), c), &report.choices, 100);
    assert!(is_bomb(&shrunk.violation), "{}", shrunk.violation);
    assert!(shrunk.choices.is_empty(), "{:?}", shrunk.choices);
}
