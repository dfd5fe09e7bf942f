//! Group commit: one fsync boundary covering many write-ahead commands.
//!
//! The write-ahead contract says every [`PersistCmd`] a protocol step emits
//! must be durable *before* that step's messages leave the site — but it
//! says nothing about each command being its own fsync. A [`PersistBatch`]
//! is the unit that actually hits the disk: all commands emitted within one
//! tick (one handler invocation) coalesce into a single batch, applied
//! atomically by [`StableState::apply_batch`](crate::StableState::apply_batch)
//! and charged **one** fsync in the accounting (`persist_batches`), however
//! many commands (`cmds_applied`) it carries.
//!
//! Under load a leader tick inserts an entry, reserves proposal ids, and
//! stamps term/vote state; a follower tick inserts every entry of an
//! AppendEntries payload. Group commit turns those N boundaries into one —
//! the measured win in `BENCH_commit.json`.

use wire::PersistCmd;

/// An ordered group of write-ahead commands forming one fsync boundary.
///
/// Commands within a batch apply in emission order (order matters: an
/// insert-then-truncate differs from truncate-then-insert), and the batch
/// becomes durable as a unit. The DES crash model may still interrupt a
/// batch mid-way — a torn batch is a *prefix* of its commands, never a
/// reordering — which is exactly the crash window the recovery tests pin.
///
/// # Examples
///
/// ```
/// use storage::{PersistBatch, StableState};
/// use wire::{LogScope, PersistCmd, Term};
///
/// let batch: PersistBatch = [PersistCmd::SetTermVote {
///     scope: LogScope::Global,
///     term: Term(2),
///     voted_for: None,
/// }]
/// .into_iter()
/// .collect();
/// let mut state = StableState::new();
/// state.apply_batch(&batch);
/// assert_eq!(state.persist_batches(), 1);
/// assert_eq!(state.cmds_applied(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PersistBatch {
    cmds: Vec<PersistCmd>,
}

impl PersistBatch {
    /// An empty batch (applying it is a no-op and charges no fsync).
    pub fn new() -> Self {
        PersistBatch::default()
    }

    /// Wraps already-collected commands as one batch. O(1): the vector is
    /// moved, not copied — the runner drains a tick's `Actions::persists`
    /// straight into the batch.
    pub fn from_cmds(cmds: Vec<PersistCmd>) -> Self {
        PersistBatch { cmds }
    }

    /// Hands the command vector back, so a caller that built the batch
    /// with [`PersistBatch::from_cmds`] can clear it and reuse its capacity.
    pub fn into_cmds(self) -> Vec<PersistCmd> {
        self.cmds
    }

    /// Appends a command to the batch.
    pub fn push(&mut self, cmd: PersistCmd) {
        self.cmds.push(cmd);
    }

    /// Number of commands in the batch.
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// `true` when the batch carries no commands.
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }

    /// The commands, in application order.
    pub fn cmds(&self) -> &[PersistCmd] {
        &self.cmds
    }

    /// Iterates the commands in application order.
    pub fn iter(&self) -> core::slice::Iter<'_, PersistCmd> {
        self.cmds.iter()
    }

    /// The first `n` commands as their own batch — the torn-write prefix a
    /// mid-batch crash leaves behind in the DES model.
    pub fn prefix(&self, n: usize) -> PersistBatch {
        PersistBatch {
            cmds: self.cmds[..n.min(self.cmds.len())].to_vec(),
        }
    }
}

impl FromIterator<PersistCmd> for PersistBatch {
    fn from_iter<I: IntoIterator<Item = PersistCmd>>(iter: I) -> Self {
        PersistBatch {
            cmds: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a PersistBatch {
    type Item = &'a PersistCmd;
    type IntoIter = core::slice::Iter<'a, PersistCmd>;
    fn into_iter(self) -> Self::IntoIter {
        self.cmds.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{LogScope, Term};

    fn set_term(t: u64) -> PersistCmd {
        PersistCmd::SetTermVote {
            scope: LogScope::Global,
            term: Term(t),
            voted_for: None,
        }
    }

    #[test]
    fn batch_builds_and_iterates_in_order() {
        let mut b = PersistBatch::new();
        assert!(b.is_empty());
        b.push(set_term(1));
        b.push(set_term(2));
        assert_eq!(b.len(), 2);
        let terms: Vec<_> = b
            .iter()
            .map(|c| match c {
                PersistCmd::SetTermVote { term, .. } => term.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(terms, vec![1, 2]);
    }

    #[test]
    fn prefix_models_torn_batches() {
        let b: PersistBatch = (1..=3).map(set_term).collect();
        assert_eq!(b.prefix(2).len(), 2);
        assert_eq!(b.prefix(0).len(), 0);
        assert_eq!(b.prefix(99), b);
        assert_eq!(b.prefix(2).cmds(), &b.cmds()[..2]);
    }
}
