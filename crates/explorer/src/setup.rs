//! Deployment builders and the generic explore/replay/shrink drivers.
//!
//! A [`Setup`] fully names a deployment; this module turns it into a
//! [`World`] over the right protocol type and dispatches the three
//! operations every CLI command and test needs. Construction mirrors the
//! harness scenarios (same RNG split labels, same recovery wiring), so a
//! seed means the same thing here and there.

use consensus_core::{CRaftConfig, CRaftNode, FastRaftNode};
use des::SimRng;
use raft::{RaftNode, Timing};
use wire::{ClusterId, Configuration, LogScope, NodeId, SafetyChecker};

use crate::gated::GatedFastRaftNode;
use crate::oracle::Violation;
use crate::schedule::{Choice, Proto, Setup};
use crate::shrink::{shrink, Shrunk};
use crate::strategy::Strategy;
use crate::world::{Explorable, World, WorldConfig};

/// What one exploration produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Every choice that actually applied, in order — the failing schedule
    /// when `violation` is set.
    pub choices: Vec<Choice>,
    /// The violation the run ended with, if any.
    pub violation: Option<Violation>,
    /// Commits the safety oracle checked.
    pub commits_seen: u64,
    /// Linearizable reads the lin oracle checked.
    pub reads_checked: u64,
    /// `(log compactions, snapshots installed from a transfer)`.
    pub snapshots: (u64, u64),
}

/// Runs one step against a world, turning a panic into
/// [`Violation::Panic`]. The world is not stepped again after one.
fn guarded<T>(step: impl FnOnce() -> T) -> Result<T, Violation> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)).map_err(|payload| {
        let message = match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or("a non-string panic payload", |s| s)
                .to_string(),
        };
        Violation::Panic(message)
    })
}

/// Drives `strategy` against `world` for up to `max_steps` applied choices,
/// checking the safety oracle after every step, then runs the quiescence
/// drain and the liveness oracle. A panicking step ends the run with its
/// choice recorded last.
pub fn explore_world<P: Explorable>(
    world: &mut World<P>,
    strategy: &mut dyn Strategy,
    max_steps: u64,
) -> RunReport {
    let mut choices = Vec::new();
    // Disabled picks burn attempts, not steps; the 4x margin keeps a
    // strategy that often picks disabled events from looping forever.
    let max_attempts = max_steps.saturating_mul(4);
    let mut attempts = 0u64;
    let mut violation = None;
    while (choices.len() as u64) < max_steps && attempts < max_attempts {
        attempts += 1;
        let view = world.enabled();
        let Some(choice) = strategy.choose(&view) else {
            break;
        };
        match guarded(|| world.apply(&choice)) {
            Ok(true) => choices.push(choice),
            Ok(false) => {}
            Err(panic) => {
                choices.push(choice);
                violation = Some(panic);
                break;
            }
        }
        if let Some(v) = world.check_safety() {
            violation = Some(v);
            break;
        }
    }
    let violation = violation.or_else(|| guarded(|| world.quiesce()).unwrap_or_else(Some));
    RunReport {
        choices,
        violation,
        commits_seen: world.safety().commits_seen(),
        reads_checked: world.safety().reads_checked(),
        snapshots: world.snapshots(),
    }
}

/// Replays a schedule against `world`: applies each choice (silently
/// skipping ones no longer enabled), checking safety after every step, then
/// drains to quiescence under the liveness oracle. A panicking step ends
/// the replay.
pub fn replay_world<P: Explorable>(world: &mut World<P>, choices: &[Choice]) -> Option<Violation> {
    for choice in choices {
        if let Err(panic) = guarded(|| world.apply(choice)) {
            return Some(panic);
        }
        if let Some(v) = world.check_safety() {
            return Some(v);
        }
    }
    guarded(|| world.quiesce()).unwrap_or_else(Some)
}

fn world_cfg(s: &Setup, ack_scope: LogScope) -> WorldConfig {
    WorldConfig {
        ops: s.ops,
        read_every: s.read_every,
        lanes: s.lanes.max(1),
        register_first: s.register_first,
        ..WorldConfig::new(ack_scope)
    }
}

/// `Timing::lan()`, with the setup's snapshot threshold if it names one.
fn timing(s: &Setup) -> Timing {
    let lan = Timing::lan();
    Timing {
        snapshot_threshold: s.snapshot.unwrap_or(lan.snapshot_threshold),
        ..lan
    }
}

/// `CRaftConfig::paper`, with the setup's snapshot threshold on both levels
/// if it names one.
fn craft_cfg(snapshot: Option<u64>) -> impl Fn(ClusterId) -> CRaftConfig + Clone {
    move |cluster| {
        let mut cfg = CRaftConfig::paper(cluster);
        if let Some(n) = snapshot {
            cfg.local_timing.snapshot_threshold = n;
            cfg.global_snapshot_threshold = n;
        }
        cfg
    }
}

fn build_raft(s: &Setup) -> World<RaftNode> {
    let cfg: Configuration = (0..s.sites).map(NodeId).collect();
    let root = SimRng::seed_from_u64(s.seed);
    let timing = timing(s);
    let nodes: Vec<RaftNode> = (0..s.sites)
        .map(|i| {
            RaftNode::new(
                NodeId(i),
                cfg.clone(),
                timing,
                root.split_indexed("raft-node", i),
            )
        })
        .collect();
    let recover_rng = root.split("recover");
    World::new(
        nodes,
        world_cfg(s, LogScope::Global),
        SafetyChecker::new(),
        Box::new(move |id, stable| {
            RaftNode::recover(
                id,
                stable,
                cfg.clone(),
                timing,
                recover_rng.split_indexed("r", id.as_u64()),
            )
        }),
    )
}

fn build_fast(s: &Setup) -> World<FastRaftNode> {
    let cfg: Configuration = (0..s.sites).map(NodeId).collect();
    let root = SimRng::seed_from_u64(s.seed);
    let timing = timing(s);
    let nodes: Vec<FastRaftNode> = (0..s.sites)
        .map(|i| {
            FastRaftNode::new(
                NodeId(i),
                cfg.clone(),
                timing,
                root.split_indexed("fast-node", i),
            )
        })
        .collect();
    let recover_rng = root.split("recover");
    World::new(
        nodes,
        world_cfg(s, LogScope::Global),
        SafetyChecker::new(),
        Box::new(move |id, stable| {
            FastRaftNode::recover(
                id,
                stable,
                cfg.clone(),
                timing,
                recover_rng.split_indexed("r", id.as_u64()),
            )
        }),
    )
}

fn build_gated(s: &Setup) -> World<GatedFastRaftNode> {
    let cfg: Configuration = (0..s.sites).map(NodeId).collect();
    let root = SimRng::seed_from_u64(s.seed);
    let timing = timing(s);
    let nodes: Vec<GatedFastRaftNode> = (0..s.sites)
        .map(|i| {
            GatedFastRaftNode::new(FastRaftNode::new(
                NodeId(i),
                cfg.clone(),
                timing,
                root.split_indexed("gated-node", i),
            ))
        })
        .collect();
    let recover_rng = root.split("recover");
    World::new(
        nodes,
        world_cfg(s, LogScope::Global),
        SafetyChecker::new(),
        Box::new(move |id, stable| {
            GatedFastRaftNode::new(FastRaftNode::recover(
                id,
                stable,
                cfg.clone(),
                timing,
                recover_rng.split_indexed("r", id.as_u64()),
            ))
        }),
    )
}

fn build_craft(s: &Setup) -> World<CRaftNode> {
    let clusters = s.clusters.max(1);
    assert_eq!(
        s.sites % clusters,
        0,
        "sites must divide evenly into clusters"
    );
    let per = s.sites / clusters;
    let cfg_for = craft_cfg(s.snapshot);
    let (nodes, global_bootstrap) =
        consensus_core::build_deployment(clusters, per, cfg_for.clone(), s.seed);
    let seed = s.seed;
    World::new(
        nodes,
        world_cfg(s, LogScope::Local),
        SafetyChecker::with_domains(move |n| n.as_u64() / per),
        Box::new(move |id, stable| {
            let cluster = id.as_u64() / per;
            let members: Configuration = (0..per).map(|i| NodeId(cluster * per + i)).collect();
            CRaftNode::recover(
                id,
                stable,
                members,
                global_bootstrap.clone(),
                cfg_for(ClusterId(cluster)),
                SimRng::seed_from_u64(seed).split_indexed("craft-recover", id.as_u64()),
            )
        }),
    )
}

/// Explores the deployment named by `setup`.
pub fn explore_setup(setup: &Setup, strategy: &mut dyn Strategy, max_steps: u64) -> RunReport {
    match setup.proto {
        Proto::Raft => explore_world(&mut build_raft(setup), strategy, max_steps),
        Proto::Fast => explore_world(&mut build_fast(setup), strategy, max_steps),
        Proto::Gated => explore_world(&mut build_gated(setup), strategy, max_steps),
        Proto::Craft => explore_world(&mut build_craft(setup), strategy, max_steps),
    }
}

/// Replays `choices` against a fresh world built from `setup`.
pub fn replay_setup(setup: &Setup, choices: &[Choice]) -> Option<Violation> {
    match setup.proto {
        Proto::Raft => replay_world(&mut build_raft(setup), choices),
        Proto::Fast => replay_world(&mut build_fast(setup), choices),
        Proto::Gated => replay_world(&mut build_gated(setup), choices),
        Proto::Craft => replay_world(&mut build_craft(setup), choices),
    }
}

/// Minimizes a failing schedule for `setup`, preserving the violation kind.
pub fn shrink_setup(setup: &Setup, choices: &[Choice], max_replays: u32) -> Shrunk {
    shrink(|cand| replay_setup(setup, cand), choices, max_replays)
}
