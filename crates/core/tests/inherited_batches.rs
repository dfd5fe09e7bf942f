//! A global batch a C-Raft successor inherits from its cluster's previous
//! leader (`FastRaftNode::track_pending_proposal`, under the predecessor's
//! id) stops being retried once this site knows it committed: when it
//! applies the commit, and when an installed snapshot's session table
//! holds every item.
//!
//! Otherwise, with a global snapshot threshold of a few entries, the
//! successor forwards the batch again after every install, the leader
//! (whose id map forgot the compacted id) commits it again, and the global
//! log never goes quiet.

use std::rc::Rc;

use bytes::Bytes;
use consensus_core::{FastRaftMessage, FastRaftNode, ProposalMode};
use des::SimRng;
use raft::Timing;
use wire::{
    Actions, Batch, BatchItem, ClusterId, Configuration, ConsensusProtocol, EntryId, LogIndex,
    LogScope, NodeId, Payload, SessionId, SessionTable, Snapshot, Term, TimerKind,
};

/// The predecessor's batch: one item, the write `(session 1, seq 1)`.
fn inherited_batch() -> (EntryId, Payload) {
    let item = BatchItem {
        id: EntryId::new(NodeId(9), 7),
        key: Some((SessionId::client(1), 1)),
        data: Bytes::from_static(b"v"),
    };
    let batch = Batch::new(ClusterId(1), 0, [item]);
    (EntryId::new(NodeId(9), 0), Payload::Batch(batch))
}

fn forwarding_node(id: u64, members: Configuration) -> FastRaftNode {
    let mut n = FastRaftNode::new(NodeId(id), members, Timing::lan(), SimRng::seed_from_u64(1));
    n.set_proposal_mode(ProposalMode::LeaderForward);
    n
}

#[test]
fn an_inherited_batch_leaves_the_proposer_table_when_it_commits() {
    let mut n = forwarding_node(0, [NodeId(0)].into_iter().collect());
    let mut out = Actions::new();
    n.bootstrap(&mut out);
    n.on_timer(TimerKind::Election, &mut out);
    assert!(n.is_leader());
    let (id, payload) = inherited_batch();
    n.track_pending_proposal(id, payload, LogIndex::ZERO, &mut out);
    out.clear();
    // A one-site leader commits the retried batch inside the retry step.
    n.on_timer(TimerKind::ProposalRetry, &mut out);
    let k = *n.id_index().get(&id).expect("the retry placed the batch");
    assert!(k <= n.commit_index(), "the retry did not commit");
    assert_eq!(
        n.pending_proposals(),
        0,
        "a committed batch is still retried"
    );
}

#[test]
fn an_install_covering_every_item_settles_an_inherited_batch() {
    let members: Configuration = (0..3).map(NodeId).collect();
    let install = |sessions: SessionTable| {
        let mut n = forwarding_node(1, members.clone());
        let mut out = Actions::new();
        n.bootstrap(&mut out);
        let (id, payload) = inherited_batch();
        n.track_pending_proposal(id, payload, LogIndex(1), &mut out);
        let snapshot = Snapshot {
            scope: LogScope::Global,
            last_index: LogIndex(5),
            last_term: Term(1),
            config: members.clone(),
            state: Snapshot::digest_state(0),
            sessions: Rc::new(sessions),
        };
        let msg = FastRaftMessage::InstallSnapshot {
            term: Term(1),
            leader: NodeId(0),
            snapshot,
        };
        n.on_message(NodeId(0), msg, &mut out);
        n.pending_proposals()
    };
    let mut covering = SessionTable::default();
    covering.apply(SessionId::client(1), 1, LogIndex(3));
    assert_eq!(install(covering), 0, "a covered batch is still retried");
    // A table without the item says nothing: the batch may have been lost.
    assert_eq!(install(SessionTable::default()), 1);
}
