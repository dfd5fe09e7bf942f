//! The simulated disk farm: one [`StableState`] per site.
//!
//! Models the paper's assumption that "each site has a means of stable
//! storage that can be read from upon recovery" (§II). A crash destroys a
//! node's volatile state; the harness rebuilds the node from the state held
//! here. Wiping a site's storage models a *permanent* departure (the site
//! could only return as a fresh joiner).

use wire::{IdMap, NodeId, PersistCmd};

use crate::{PersistBatch, StableState};

/// Stable storage for a whole simulated deployment.
///
/// # Examples
///
/// ```
/// use storage::SimDisk;
/// use wire::{NodeId, PersistCmd, Term};
///
/// let mut disk = SimDisk::new();
/// disk.apply(NodeId(1), &[PersistCmd::SetTermVote { scope: wire::LogScope::Global, term: Term(2), voted_for: None }]);
/// assert_eq!(disk.read(NodeId(1)).unwrap().global.current_term, Term(2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimDisk {
    states: IdMap<NodeId, StableState>,
}

impl SimDisk {
    /// An empty disk farm.
    pub fn new() -> Self {
        SimDisk::default()
    }

    /// Provisions empty storage for `node` if it has none yet.
    pub fn provision(&mut self, node: NodeId) -> &mut StableState {
        self.states.entry(node).or_default()
    }

    /// Reads a site's stable state, if the site has storage.
    pub fn read(&self, node: NodeId) -> Option<&StableState> {
        self.states.get(&node)
    }

    /// Applies write-ahead commands for `node`, provisioning on first write.
    ///
    /// Each command is its own fsync boundary — the unbatched write path.
    /// Group commit goes through [`SimDisk::apply_batch`].
    pub fn apply<'a>(&mut self, node: NodeId, cmds: impl IntoIterator<Item = &'a PersistCmd>) {
        self.provision(node).apply_all(cmds);
    }

    /// Applies one atomic [`PersistBatch`] for `node` — a single fsync
    /// boundary covering every command — provisioning on first write.
    pub fn apply_batch(&mut self, node: NodeId, batch: &PersistBatch) {
        self.provision(node).apply_batch(batch);
    }

    /// Destroys a site's storage (permanent departure).
    ///
    /// Returns the final state, if any existed.
    pub fn wipe(&mut self, node: NodeId) -> Option<StableState> {
        self.states.remove(&node)
    }

    /// Number of provisioned sites.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if no site has storage.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Total fsync boundaries across all sites.
    pub fn total_persist_batches(&self) -> u64 {
        self.states.values().map(StableState::persist_batches).sum()
    }

    /// Total write-ahead commands applied across all sites.
    pub fn total_cmds_applied(&self) -> u64 {
        self.states.values().map(StableState::cmds_applied).sum()
    }

    /// Iterates `(node, state)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &StableState)> {
        self.states.iter().map(|(&n, s)| (n, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{LogIndex, LogScope, Term};

    #[test]
    fn provision_is_idempotent() {
        let mut d = SimDisk::new();
        d.provision(NodeId(1)).apply(&PersistCmd::SetTermVote {
            scope: LogScope::Global,
            term: Term(5),
            voted_for: None,
        });
        d.provision(NodeId(1));
        assert_eq!(d.read(NodeId(1)).unwrap().global.current_term, Term(5));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn apply_provisions_on_demand() {
        let mut d = SimDisk::new();
        assert!(d.read(NodeId(3)).is_none());
        d.apply(
            NodeId(3),
            &[PersistCmd::SetTermVote {
                scope: LogScope::Global,
                term: Term(1),
                voted_for: Some(NodeId(3)),
            }],
        );
        assert_eq!(d.read(NodeId(3)).unwrap().global.voted_for, Some(NodeId(3)));
    }

    #[test]
    fn wipe_destroys_state() {
        let mut d = SimDisk::new();
        d.provision(NodeId(1));
        assert!(d.wipe(NodeId(1)).is_some());
        assert!(d.read(NodeId(1)).is_none());
        assert!(d.wipe(NodeId(1)).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn crash_recovery_preserves_stable_only() {
        use bytes::Bytes;
        use wire::{EntryId, LogEntry, SessionId};
        let mut d = SimDisk::new();
        let entry = LogEntry::write(
            Term(1),
            EntryId::new(NodeId(1), 0),
            SessionId::client(1),
            1,
            Bytes::from_static(b"v"),
        );
        d.apply(
            NodeId(1),
            &[
                PersistCmd::SetTermVote {
                    scope: LogScope::Global,
                    term: Term(1),
                    voted_for: Some(NodeId(1)),
                },
                PersistCmd::Insert {
                    scope: LogScope::Global,
                    index: LogIndex(1),
                    entry,
                },
            ],
        );
        // "Crash": clone what a recovering node would read.
        let recovered = d.read(NodeId(1)).unwrap().clone();
        assert_eq!(recovered.global.current_term, Term(1));
        assert_eq!(recovered.global.log.len(), 1);
        // commitIndex is volatile: StableState has no such field at all,
        // which is the type-level statement of §IV-A's volatility note.
    }

    #[test]
    fn fsync_accounting_aggregates() {
        let mut d = SimDisk::new();
        // Unbatched: one fsync per command.
        d.apply(
            NodeId(1),
            &[PersistCmd::SetTermVote {
                scope: LogScope::Global,
                term: Term(1),
                voted_for: None,
            }],
        );
        // Batched: two commands, one fsync boundary.
        let batch: PersistBatch = [
            PersistCmd::SetTermVote {
                scope: LogScope::Global,
                term: Term(1),
                voted_for: None,
            },
            PersistCmd::SetTermVote {
                scope: LogScope::Global,
                term: Term(2),
                voted_for: None,
            },
        ]
        .into_iter()
        .collect();
        d.apply_batch(NodeId(2), &batch);
        assert_eq!(d.total_cmds_applied(), 3);
        assert_eq!(d.total_persist_batches(), 2);
        assert_eq!(d.iter().count(), 2);
        assert_eq!(d.read(NodeId(2)).unwrap().global.current_term, Term(2));
    }
}
