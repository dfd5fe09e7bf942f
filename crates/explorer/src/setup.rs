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
}

/// Drives `strategy` against `world` for up to `max_steps` applied choices,
/// checking the safety oracle after every step, then runs the quiescence
/// drain and the liveness oracle.
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
        if world.apply(&choice) {
            choices.push(choice);
        }
        if let Some(v) = world.check_safety() {
            violation = Some(v);
            break;
        }
    }
    let violation = violation.or_else(|| world.quiesce());
    RunReport {
        choices,
        violation,
        commits_seen: world.safety().commits_seen(),
        reads_checked: world.safety().reads_checked(),
    }
}

/// Replays a schedule against `world`: applies each choice (silently
/// skipping ones no longer enabled), checking safety after every step, then
/// drains to quiescence under the liveness oracle.
pub fn replay_world<P: Explorable>(world: &mut World<P>, choices: &[Choice]) -> Option<Violation> {
    for choice in choices {
        world.apply(choice);
        if let Some(v) = world.check_safety() {
            return Some(v);
        }
    }
    world.quiesce()
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

fn build_raft(s: &Setup) -> World<RaftNode> {
    let cfg: Configuration = (0..s.sites).map(NodeId).collect();
    let root = SimRng::seed_from_u64(s.seed);
    let timing = Timing::lan();
    let nodes: Vec<RaftNode> = (0..s.sites)
        .map(|i| RaftNode::new(NodeId(i), cfg.clone(), timing, root.split_indexed("raft-node", i)))
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
    let timing = Timing::lan();
    let nodes: Vec<FastRaftNode> = (0..s.sites)
        .map(|i| {
            FastRaftNode::new(NodeId(i), cfg.clone(), timing, root.split_indexed("fast-node", i))
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
    let timing = Timing::lan();
    let nodes: Vec<GatedFastRaftNode> = (0..s.sites)
        .map(|i| {
            GatedFastRaftNode::new(
                NodeId(i),
                cfg.clone(),
                timing,
                root.split_indexed("gated-node", i),
            )
        })
        .collect();
    let recover_rng = root.split("recover");
    World::new(
        nodes,
        world_cfg(s, LogScope::Global),
        SafetyChecker::new(),
        Box::new(move |id, stable| {
            GatedFastRaftNode::recover(
                id,
                stable,
                cfg.clone(),
                timing,
                recover_rng.split_indexed("r", id.as_u64()),
            )
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
    let (nodes, global_bootstrap) =
        consensus_core::build_deployment(clusters, per, CRaftConfig::paper, s.seed);
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
                CRaftConfig::paper(ClusterId(cluster)),
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
