//! The schedule: a sequence of explorer decisions, serializable to a
//! replayable trace file.
//!
//! A trace is the complete recipe for one execution: a [`Setup`] header
//! naming the deployment (protocol, sites, seed, workload shape) followed by
//! one [`Choice`] per line. Replaying a trace rebuilds the world from the
//! header and applies the choices in order; because every source of
//! nondeterminism is either in the header's seed or in the choice list, the
//! replay is bit-identical to the run that produced it.
//!
//! The format is deliberately plain text — one decision per line, editable
//! by hand — so a minimized repro checked into the repository doubles as a
//! readable description of the failing interleaving.

use wire::{NodeId, TimerKind};

/// One explorer decision: which enabled event fires next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Deliver the in-flight message at `slot` (any slot may be picked —
    /// delivering out of order *is* network reordering).
    Deliver {
        /// Index into the in-flight pool.
        slot: u32,
    },
    /// Clone the in-flight message at `slot` (bounded duplication).
    Duplicate {
        /// Index into the in-flight pool.
        slot: u32,
    },
    /// Silently discard the in-flight message at `slot` (message loss).
    Drop {
        /// Index into the in-flight pool.
        slot: u32,
    },
    /// Fire an armed timer: virtual time jumps to (at least) its deadline,
    /// so timers never fire early — late delivery of a timer is feasible
    /// (scheduling delay), early firing would be a clock violation.
    Timer {
        /// The timer's owner.
        node: NodeId,
        /// Which timer.
        kind: TimerKind,
    },
    /// Advance one client lane at its gateway: issue its next scripted
    /// operation, or resubmit the outstanding one (client-side retry).
    Client {
        /// The gateway node.
        node: NodeId,
        /// Which client lane at that gateway.
        lane: u32,
    },
    /// Crash a node (volatile state lost; stable storage survives).
    Crash {
        /// The victim.
        node: NodeId,
    },
    /// Recover a crashed node from stable storage.
    Recover {
        /// The node to rebuild.
        node: NodeId,
    },
    /// Cut the `from → to` direction only (asymmetric partition).
    Cut {
        /// Sender side of the cut.
        from: NodeId,
        /// Receiver side of the cut.
        to: NodeId,
    },
    /// Heal one directed cut.
    HealLink {
        /// Sender side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
    },
    /// Heal every partition.
    HealAll,
    /// Stall the node's disk: steps that persist hold their outgoing
    /// messages (write-ahead) until the stall lifts.
    Stall {
        /// The node whose disk stalls.
        node: NodeId,
    },
    /// Lift a persist stall, releasing the held messages.
    Unstall {
        /// The stalled node.
        node: NodeId,
    },
    /// Release an armed insert gate (the "intra-cluster replication
    /// finished" signal, delivered in an order of the explorer's choosing).
    Release {
        /// The gate's owner.
        node: NodeId,
        /// The gate token to release.
        token: u64,
    },
}

/// Which protocol deployment a trace drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// Classic Raft.
    Raft,
    /// Fast Raft (ungated, broadcast proposals).
    Fast,
    /// Fast Raft with every insert behind an explorer-controlled gate and
    /// leader-forwarded proposals — C-Raft's global level in isolation,
    /// with the intra-cluster replication delay under adversarial control.
    Gated,
    /// Full two-level C-Raft.
    Craft,
}

impl Proto {
    /// Parse from the trace-header token.
    pub fn parse(s: &str) -> Option<Proto> {
        Some(match s {
            "raft" => Proto::Raft,
            "fast" => Proto::Fast,
            "gated" => Proto::Gated,
            "craft" => Proto::Craft,
            _ => return None,
        })
    }

    /// The trace-header token.
    pub fn name(self) -> &'static str {
        match self {
            Proto::Raft => "raft",
            Proto::Fast => "fast",
            Proto::Gated => "gated",
            Proto::Craft => "craft",
        }
    }
}

/// The deployment a schedule runs against — everything needed to rebuild
/// the world deterministically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Setup {
    /// Which protocol.
    pub proto: Proto,
    /// Number of sites (for [`Proto::Craft`]: total across clusters).
    pub sites: u64,
    /// Number of clusters (ignored except for [`Proto::Craft`]).
    pub clusters: u64,
    /// Seed for node RNGs.
    pub seed: u64,
    /// Scripted data operations per client lane.
    pub ops: u32,
    /// Every `read_every`-th data op is a linearizable read (0 = writes
    /// only).
    pub read_every: u32,
    /// Client lanes (independent sessions) per gateway node.
    pub lanes: u32,
    /// Each lane's first op is an explicit session registration.
    pub register_first: bool,
    /// Snapshot threshold of every log (C-Raft: both levels); `None` keeps
    /// `Timing::lan()`'s and `CRaftConfig::paper`'s.
    pub snapshot: Option<u64>,
}

impl Setup {
    /// A 3-site deployment with 2 writes per client — the smallest
    /// interesting world.
    pub fn small(proto: Proto, seed: u64) -> Setup {
        Setup {
            proto,
            sites: 3,
            clusters: if proto == Proto::Craft { 1 } else { 0 },
            seed,
            ops: 2,
            read_every: 0,
            lanes: 1,
            register_first: false,
            snapshot: None,
        }
    }
}

/// A complete replayable schedule: setup header plus decision list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The deployment.
    pub setup: Setup,
    /// The decisions, in order.
    pub choices: Vec<Choice>,
}

const MAGIC: &str = "explorer-trace v1";

fn timer_name(kind: TimerKind) -> &'static str {
    match kind {
        TimerKind::Election => "election",
        TimerKind::Heartbeat => "heartbeat",
        TimerKind::LeaderTick => "leadertick",
        TimerKind::ProposalRetry => "proposalretry",
        TimerKind::JoinRetry => "joinretry",
        TimerKind::BatchFlush => "batchflush",
        TimerKind::GlobalElection => "gelection",
        TimerKind::GlobalHeartbeat => "gheartbeat",
        TimerKind::GlobalLeaderTick => "gleadertick",
        TimerKind::GlobalProposalRetry => "gproposalretry",
        TimerKind::GlobalJoinRetry => "gjoinretry",
    }
}

fn timer_from_name(s: &str) -> Option<TimerKind> {
    Some(match s {
        "election" => TimerKind::Election,
        "heartbeat" => TimerKind::Heartbeat,
        "leadertick" => TimerKind::LeaderTick,
        "proposalretry" => TimerKind::ProposalRetry,
        "joinretry" => TimerKind::JoinRetry,
        "batchflush" => TimerKind::BatchFlush,
        "gelection" => TimerKind::GlobalElection,
        "gheartbeat" => TimerKind::GlobalHeartbeat,
        "gleadertick" => TimerKind::GlobalLeaderTick,
        "gproposalretry" => TimerKind::GlobalProposalRetry,
        "gjoinretry" => TimerKind::GlobalJoinRetry,
        _ => return None,
    })
}

impl Trace {
    /// Serializes to the line-based trace format.
    pub fn to_text(&self) -> String {
        let s = &self.setup;
        let mut text = format!(
            "{MAGIC}\nproto={} sites={} clusters={} seed={} ops={} read-every={} lanes={} register={}\n",
            s.proto.name(),
            s.sites,
            s.clusters,
            s.seed,
            s.ops,
            s.read_every,
            s.lanes,
            u8::from(s.register_first),
        );
        if let Some(n) = s.snapshot {
            text.insert_str(text.len() - 1, &format!(" snapshot={n}"));
        }
        for c in &self.choices {
            let line = match c {
                Choice::Deliver { slot } => format!("deliver {slot}"),
                Choice::Duplicate { slot } => format!("dup {slot}"),
                Choice::Drop { slot } => format!("drop {slot}"),
                Choice::Timer { node, kind } => {
                    format!("timer {} {}", node.as_u64(), timer_name(*kind))
                }
                Choice::Client { node, lane } => format!("client {} {lane}", node.as_u64()),
                Choice::Crash { node } => format!("crash {}", node.as_u64()),
                Choice::Recover { node } => format!("recover {}", node.as_u64()),
                Choice::Cut { from, to } => format!("cut {} {}", from.as_u64(), to.as_u64()),
                Choice::HealLink { from, to } => {
                    format!("heal {} {}", from.as_u64(), to.as_u64())
                }
                Choice::HealAll => "healall".to_string(),
                Choice::Stall { node } => format!("stall {}", node.as_u64()),
                Choice::Unstall { node } => format!("unstall {}", node.as_u64()),
                Choice::Release { node, token } => {
                    format!("release {} {token}", node.as_u64())
                }
            };
            text.push_str(&line);
            text.push('\n');
        }
        text
    }

    /// Parses the line-based trace format. Returns a description of the
    /// first malformed line on failure.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines().enumerate();
        let (_, magic) = lines.next().ok_or("empty trace")?;
        if magic.trim() != MAGIC {
            return Err(format!("bad magic: {magic:?} (want {MAGIC:?})"));
        }
        let (_, header) = lines.next().ok_or("missing setup header")?;
        let setup = parse_setup(header)?;
        let mut choices = Vec::new();
        for (n, line) in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            choices.push(parse_choice(line).ok_or_else(|| format!("line {}: {line:?}", n + 1))?);
        }
        Ok(Trace { setup, choices })
    }
}

fn parse_setup(header: &str) -> Result<Setup, String> {
    let mut proto = None;
    let (mut sites, mut clusters, mut seed) = (0u64, 0u64, 0u64);
    let (mut ops, mut read_every, mut lanes) = (0u32, 0u32, 1u32);
    let mut register_first = false;
    let mut snapshot = None;
    for kv in header.split_whitespace() {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("bad header token {kv:?}"))?;
        let bad = || format!("bad header value {kv:?}");
        match k {
            "proto" => proto = Some(Proto::parse(v).ok_or_else(bad)?),
            "sites" => sites = v.parse().map_err(|_| bad())?,
            "clusters" => clusters = v.parse().map_err(|_| bad())?,
            "seed" => seed = v.parse().map_err(|_| bad())?,
            "ops" => ops = v.parse().map_err(|_| bad())?,
            "read-every" => read_every = v.parse().map_err(|_| bad())?,
            "lanes" => lanes = v.parse().map_err(|_| bad())?,
            "register" => register_first = v == "1",
            "snapshot" => snapshot = Some(v.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown header key {k:?}")),
        }
    }
    Ok(Setup {
        proto: proto.ok_or("header missing proto")?,
        sites,
        clusters,
        seed,
        ops,
        read_every,
        lanes,
        register_first,
        snapshot,
    })
}

fn parse_choice(line: &str) -> Option<Choice> {
    let mut parts = line.split_whitespace();
    let verb = parts.next()?;
    let mut num = || parts.next()?.parse::<u64>().ok();
    Some(match verb {
        "deliver" => Choice::Deliver {
            slot: num()? as u32,
        },
        "dup" => Choice::Duplicate {
            slot: num()? as u32,
        },
        "drop" => Choice::Drop {
            slot: num()? as u32,
        },
        "timer" => {
            let node = NodeId(num()?);
            let kind = timer_from_name(parts.next()?)?;
            Choice::Timer { node, kind }
        }
        "client" => Choice::Client {
            node: NodeId(num()?),
            lane: num()? as u32,
        },
        "crash" => Choice::Crash {
            node: NodeId(num()?),
        },
        "recover" => Choice::Recover {
            node: NodeId(num()?),
        },
        "cut" => Choice::Cut {
            from: NodeId(num()?),
            to: NodeId(num()?),
        },
        "heal" => Choice::HealLink {
            from: NodeId(num()?),
            to: NodeId(num()?),
        },
        "healall" => Choice::HealAll,
        "stall" => Choice::Stall {
            node: NodeId(num()?),
        },
        "unstall" => Choice::Unstall {
            node: NodeId(num()?),
        },
        "release" => Choice::Release {
            node: NodeId(num()?),
            token: num()?,
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips() {
        let trace = Trace {
            setup: Setup {
                proto: Proto::Gated,
                sites: 3,
                clusters: 0,
                seed: 41,
                ops: 2,
                read_every: 2,
                lanes: 2,
                register_first: true,
                snapshot: Some(3),
            },
            choices: vec![
                Choice::Client {
                    node: NodeId(0),
                    lane: 1,
                },
                Choice::Deliver { slot: 3 },
                Choice::Duplicate { slot: 0 },
                Choice::Drop { slot: 1 },
                Choice::Timer {
                    node: NodeId(2),
                    kind: TimerKind::Election,
                },
                Choice::Timer {
                    node: NodeId(1),
                    kind: TimerKind::GlobalHeartbeat,
                },
                Choice::Crash { node: NodeId(1) },
                Choice::Recover { node: NodeId(1) },
                Choice::Cut {
                    from: NodeId(0),
                    to: NodeId(2),
                },
                Choice::HealLink {
                    from: NodeId(0),
                    to: NodeId(2),
                },
                Choice::HealAll,
                Choice::Stall { node: NodeId(2) },
                Choice::Unstall { node: NodeId(2) },
                Choice::Release {
                    node: NodeId(0),
                    token: 7,
                },
            ],
        };
        let text = trace.to_text();
        let back = Trace::parse(&text).expect("parse");
        assert_eq!(back, trace);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "explorer-trace v1\nproto=fast sites=3 clusters=0 seed=1 ops=1 read-every=0 lanes=1 register=0\n\n# a comment\ndeliver 0\n";
        let t = Trace::parse(text).expect("parse");
        assert_eq!(t.choices, vec![Choice::Deliver { slot: 0 }]);
    }

    #[test]
    fn malformed_lines_are_reported() {
        let text = "explorer-trace v1\nproto=fast sites=3 clusters=0 seed=1 ops=1 read-every=0 lanes=1 register=0\nfrobnicate 7\n";
        assert!(Trace::parse(text).is_err());
    }

    #[test]
    fn every_timer_kind_round_trips() {
        for kind in [
            TimerKind::Election,
            TimerKind::Heartbeat,
            TimerKind::LeaderTick,
            TimerKind::ProposalRetry,
            TimerKind::JoinRetry,
            TimerKind::BatchFlush,
            TimerKind::GlobalElection,
            TimerKind::GlobalHeartbeat,
            TimerKind::GlobalLeaderTick,
            TimerKind::GlobalProposalRetry,
            TimerKind::GlobalJoinRetry,
        ] {
            assert_eq!(timer_from_name(timer_name(kind)), Some(kind));
        }
    }
}
