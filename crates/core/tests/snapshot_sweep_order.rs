//! The Fast Raft gateway's post-install sweep answers in `(session, seq)`
//! order, never in `HashMap` iteration order (ARCHITECTURE.md
//! "Invariants"). Twin of the classic-Raft case in
//! `crates/raft/tests/replica_core.rs`; the collect-and-sort is shared
//! (`raft::replica::Applied::sweep_client_pending`), the answering loop is
//! per engine.

use bytes::Bytes;
use consensus_core::{FastRaftMessage, FastRaftNode};
use des::SimRng;
use raft::Timing;
use wire::{
    Actions, ClientOutcome, ClientRequest, Configuration, ConsensusProtocol, LogIndex, LogScope,
    NodeId, Observation, SessionId, SessionTable, Snapshot, Term,
};

#[test]
fn snapshot_install_answers_covered_gateway_writes_in_session_order() {
    let members: Configuration = (0..3).map(NodeId).collect();
    // Submission order differs from sorted order; one is a registration.
    let sessions = [41u64, 7, 99, 23].map(SessionId::client);
    let registering = sessions[2];
    let mut table = SessionTable::new();
    for (i, s) in sessions.iter().enumerate() {
        table.apply(*s, 1, LogIndex(1 + i as u64));
    }
    let snapshot = Snapshot {
        scope: LogScope::Global,
        last_index: LogIndex(8),
        last_term: Term(1),
        config: members.clone(),
        state: Snapshot::digest_state(0xfeed),
        sessions: table.into(),
    };
    for fresh in 0..32 {
        let mut gateway = FastRaftNode::new(
            NodeId(2),
            members.clone(),
            Timing::lan(),
            SimRng::seed_from_u64(fresh),
        );
        let mut out = Actions::new();
        for s in sessions {
            let req = if s == registering {
                ClientRequest::register(s)
            } else {
                ClientRequest::write(s, 1, Bytes::from_static(b"w"))
            };
            gateway.on_client_request(req, &mut out);
        }
        out.clear();
        gateway.on_message(
            NodeId(0),
            FastRaftMessage::InstallSnapshot {
                term: Term(1),
                leader: NodeId(0),
                snapshot: snapshot.clone(),
            },
            &mut out,
        );
        let answered: Vec<(SessionId, bool)> = out
            .observations
            .iter()
            .filter_map(|o| match o {
                Observation::ClientResponse {
                    session,
                    seq: 1,
                    outcome,
                } => match outcome {
                    ClientOutcome::Duplicate { .. } => Some((*session, false)),
                    ClientOutcome::Registered { .. } => Some((*session, true)),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        let mut sorted = sessions.to_vec();
        sorted.sort();
        let expect: Vec<_> = sorted.iter().map(|s| (*s, *s == registering)).collect();
        assert_eq!(answered, expect, "node #{fresh}");
        assert_eq!(gateway.pending_proposals(), 0);
    }
}
