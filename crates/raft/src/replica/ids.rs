//! Proposal id minting with write-ahead sequence reservation.

use wire::{Actions, EntryId, LogScope, NodeId, PersistCmd};

/// Proposal-sequence numbers are reserved in stable storage in blocks of
/// this size (one write-ahead command per block, not per proposal). A crash
/// discards at most one partial block of unused ids.
const SEQ_RESERVE_BLOCK: u64 = 64;

/// Mints this proposer's [`EntryId`]s at one consensus level.
///
/// The invariant: `next_seq` never reaches `reserved_seqs` without first
/// extending the persisted reservation, so a node recovered at the persisted
/// floor never re-mints an id a peer might still hold in its dedup index
/// (peers would answer the *old* entry's commit for the new proposal, or
/// drop it outright).
#[derive(Debug)]
pub struct ProposalIds {
    me: NodeId,
    scope: LogScope,
    next_seq: u64,
    /// One past the highest sequence number covered by a persisted
    /// [`PersistCmd::ReserveProposalSeqs`].
    reserved_seqs: u64,
}

impl ProposalIds {
    /// A fresh proposer `me` at consensus level `scope`.
    pub fn new(me: NodeId, scope: LogScope) -> Self {
        ProposalIds::resume(me, scope, 0)
    }

    /// Resumes after a crash at the persisted reservation `floor`: above
    /// every id this site may ever have sent.
    pub fn resume(me: NodeId, scope: LogScope, floor: u64) -> Self {
        ProposalIds {
            me,
            scope,
            next_seq: floor,
            reserved_seqs: floor,
        }
    }

    /// Mints a proposal id, extending the persisted sequence reservation
    /// when the current block runs out. The reservation rides the same
    /// write-ahead channel as log inserts — it is durable before any
    /// message carrying the id leaves this site.
    pub fn fresh_id<M>(&mut self, out: &mut Actions<M>) -> EntryId {
        if self.next_seq >= self.reserved_seqs {
            self.reserved_seqs = self.next_seq + SEQ_RESERVE_BLOCK;
            out.persist(PersistCmd::ReserveProposalSeqs {
                scope: self.scope,
                through: self.reserved_seqs,
            });
        }
        let id = EntryId::new(self.me, self.next_seq);
        self.next_seq += 1;
        id
    }

    /// The sequence number the next minted id will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Highest proposal-sequence ceiling persisted so far; embeddings that
    /// cache engine state across deactivation (C-Raft's global side) carry
    /// it forward as the next activation's floor.
    pub fn reserved_seqs(&self) -> u64 {
        self.reserved_seqs
    }
}
