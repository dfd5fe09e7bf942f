//! The liveness oracle, tested against itself.
//!
//! A liveness oracle that never fires is worse than none — these tests
//! drive deliberately broken toy protocols through [`explorer::World`] and
//! assert the oracle trips for the right reason, then drive deliberately
//! *noisy but correct* protocols and assert quiescence detection is not
//! fooled by them (timer treadmills, far-future armed timers such as
//! lease expiries, gates that drain late).

use explorer::{explore_world, Explorable, World, WorldConfig};
use wire::{
    Actions, ClientOutcome, ClientRequest, ConsensusProtocol, LogIndex, LogScope, Message, NodeId,
    Observation, SafetyChecker, TimerKind,
};

use des::SimDuration;

/// A trivially cloneable wire message for toy protocols.
#[derive(Clone, Debug)]
struct Ping;

impl Message for Ping {
    fn wire_size(&self) -> usize {
        1
    }
}

/// Answers every client op immediately — except, when `swallow_from` is
/// set, ops with `seq >= swallow_from`, which it silently drops forever:
/// a deliberate liveness wedge. Optionally re-arms an election timer on
/// every fire (a treadmill the drain must bound by its horizon) and arms
/// one far-future timer at bootstrap (an armed lease expiry must not be
/// mistaken for pending work).
struct Toy {
    id: NodeId,
    swallow_from: Option<u64>,
    treadmill: bool,
    far_timer: bool,
    committed: u64,
    leaked_reservations: usize,
}

impl Toy {
    fn answering(id: NodeId) -> Self {
        Toy {
            id,
            swallow_from: None,
            treadmill: false,
            far_timer: false,
            committed: 0,
            leaked_reservations: 0,
        }
    }

    fn swallowing(id: NodeId, from_seq: u64) -> Self {
        Toy {
            swallow_from: Some(from_seq),
            ..Toy::answering(id)
        }
    }
}

impl ConsensusProtocol for Toy {
    type Message = Ping;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_message(&mut self, _from: NodeId, _msg: Ping, _out: &mut Actions<Ping>) {}

    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<Ping>) {
        if self.treadmill && kind == TimerKind::Election {
            // Re-arms forever; quiescence must still be reached once the
            // deadline passes the drain horizon.
            out.set_timer(TimerKind::Election, SimDuration::from_millis(10));
        }
    }

    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<Ping>) {
        if self.swallow_from.is_some_and(|from| req.seq >= from) {
            return; // The wedge: no response, ever.
        }
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
        if self.treadmill {
            out.set_timer(TimerKind::Election, SimDuration::from_millis(10));
        }
        if self.far_timer {
            // Models an armed lease: a deadline far past the drain horizon.
            out.set_timer(TimerKind::Heartbeat, SimDuration::from_secs(3_600));
        }
    }
}

impl Explorable for Toy {
    fn gate_debt(&self) -> (usize, usize) {
        (0, self.leaked_reservations)
    }
}

fn world_of(nodes: Vec<Toy>, ops: u32) -> World<Toy> {
    let cfg = WorldConfig {
        ops,
        read_every: u32::MAX, // writes only: toys have no read path
        ..WorldConfig::new(LogScope::Global)
    };
    World::new(
        nodes,
        cfg,
        SafetyChecker::new(),
        Box::new(|id, _stable| Toy::answering(id)),
    )
}

/// A no-op strategy: the oracle must fire from the drain alone.
struct Idle;

impl explorer::Strategy for Idle {
    fn choose(&mut self, _enabled: &explorer::Enabled) -> Option<explorer::Choice> {
        None
    }
}

#[test]
fn oracle_fires_on_swallowed_op() {
    let mut world = world_of(vec![Toy::swallowing(NodeId(0), 2)], 3);
    let report = explore_world(&mut world, &mut Idle, 10);
    let v = report.violation.expect("swallowed op must trip the oracle");
    assert_eq!(v.kind(), "liveness", "wrong oracle: {v}");
    assert!(
        v.message().contains("wedged at seq 2"),
        "verdict must name the wedged op: {v}"
    );
}

#[test]
fn oracle_names_every_wedged_lane() {
    let nodes = vec![Toy::swallowing(NodeId(0), 1), Toy::swallowing(NodeId(1), 2)];
    let mut world = world_of(nodes, 2);
    let report = explore_world(&mut world, &mut Idle, 10);
    let v = report.violation.expect("both lanes wedge");
    assert!(v.message().contains("client n0/0"), "{v}");
    assert!(v.message().contains("client n1/0"), "{v}");
}

#[test]
fn oracle_fires_on_leaked_gate_reservation() {
    let mut leaky = Toy::answering(NodeId(0));
    leaky.leaked_reservations = 1;
    let mut world = world_of(vec![leaky], 2);
    let report = explore_world(&mut world, &mut Idle, 10);
    let v = report.violation.expect("leaked reservation must trip");
    assert_eq!(v.kind(), "liveness");
    assert!(
        v.message().contains("1 leaked decision reservation"),
        "verdict must name the gate debt: {v}"
    );
}

#[test]
fn timer_treadmill_does_not_defeat_quiescence() {
    let mut node = Toy::answering(NodeId(0));
    node.treadmill = true;
    let mut world = world_of(vec![node], 2);
    let report = explore_world(&mut world, &mut Idle, 10);
    assert!(
        report.violation.is_none(),
        "a self-rearming timer is not pending work: {:?}",
        report.violation
    );
}

#[test]
fn far_future_armed_timer_is_not_pending_work() {
    let mut node = Toy::answering(NodeId(0));
    node.far_timer = true;
    let mut world = world_of(vec![node], 2);
    let report = explore_world(&mut world, &mut Idle, 10);
    assert!(
        report.violation.is_none(),
        "an armed lease-style deadline past the horizon must not wedge \
         or trip the oracle: {:?}",
        report.violation
    );
}

#[test]
fn clean_toy_is_clean() {
    let mut world = world_of(
        vec![Toy::answering(NodeId(0)), Toy::answering(NodeId(1))],
        3,
    );
    let report = explore_world(&mut world, &mut Idle, 10);
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert_eq!(world.unresolved_ops(), 0);
}
