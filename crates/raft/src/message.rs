//! Classic Raft's message vocabulary (§III-A), extended with the typed
//! client-session surface (sessioned writes, linearizable reads).

use bytes::Bytes;
use des::SimTime;
use wire::{
    ClientOutcome, DecodeError, Decoder, Encoder, EntryId, EntryList, LogIndex, Message, NodeId,
    SessionId, Snapshot, Term, Wire,
};

/// Messages exchanged by classic Raft sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RaftMessage {
    /// Gateway → leader: replicate this session-tagged write.
    Propose {
        /// Proposal identity (gateway + sequence), for in-flight dedup.
        id: EntryId,
        /// The issuing client session.
        session: SessionId,
        /// Session-local sequence number (retries reuse it).
        seq: u64,
        /// The value.
        data: Bytes,
    },
    /// Gateway → leader: run a linearizable ReadIndex round and answer with
    /// the confirmed commit floor.
    ClientRead {
        /// The issuing client session.
        session: SessionId,
        /// The request's sequence number.
        seq: u64,
    },
    /// Any site → gateway: the typed outcome of a client request
    /// (committed/duplicate write, read floor, redirect, retry).
    ClientReply {
        /// The session this answers.
        session: SessionId,
        /// The request's sequence number.
        seq: u64,
        /// What happened.
        outcome: ClientOutcome,
    },
    /// Leader → follower: replicate entries / heartbeat.
    AppendEntries {
        /// Leader's term.
        term: Term,
        /// Leader's id, for redirecting proposers.
        leader: NodeId,
        /// Index of the entry immediately before `entries`.
        prev_index: LogIndex,
        /// Term of the entry at `prev_index`.
        prev_term: Term,
        /// Entries to replicate (empty for pure heartbeat). `Rc`-shared:
        /// every follower addressed at the same `nextIndex` receives a
        /// handle to the same allocation.
        entries: EntryList,
        /// Leader's commit index.
        leader_commit: LogIndex,
        /// ReadIndex round tag: followers echo it in their reply, and a
        /// pending linearizable read only counts acks whose echoed probe is
        /// at least the probe current when the read was registered — an ack
        /// already in flight when the read arrived proves nothing about
        /// leadership at read time.
        probe: u64,
    },
    /// Follower → leader: AppendEntries outcome.
    AppendEntriesReply {
        /// Follower's term, so a stale leader steps down.
        term: Term,
        /// `true` if `prev_index`/`prev_term` matched and entries were
        /// appended.
        success: bool,
        /// Highest index now known to match the leader (valid when
        /// `success`); on failure, a hint for nextIndex back-off.
        match_index: LogIndex,
        /// Echo of the request's ReadIndex probe.
        probe: u64,
        /// Leader-lease grant accompanying a successful ack: the follower
        /// promises not to vote for a different leader before this instant
        /// **on its own clock** (`ack time + Timing::lease_duration`).
        /// [`SimTime::ZERO`] when the follower is clockless or the ack
        /// failed — no grant.
        lease_until: SimTime,
    },
    /// Candidate → all: request a vote (§III-A).
    RequestVote {
        /// Candidate's term.
        term: Term,
        /// The candidate.
        candidate: NodeId,
        /// Index of candidate's last log entry.
        last_log_index: LogIndex,
        /// Term of candidate's last log entry.
        last_log_term: Term,
    },
    /// Voter → candidate: the vote.
    RequestVoteReply {
        /// Voter's term.
        term: Term,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader → laggard follower: the follower's `nextIndex` fell below the
    /// leader's first retained log index, so the compacted prefix is
    /// transferred as a snapshot instead of replayed entry by entry.
    InstallSnapshot {
        /// Leader's term.
        term: Term,
        /// Leader's id.
        leader: NodeId,
        /// The snapshot covering the compacted prefix.
        snapshot: Snapshot,
    },
    /// Follower → leader: snapshot transfer outcome.
    InstallSnapshotReply {
        /// Follower's term, so a stale leader steps down.
        term: Term,
        /// Highest index the follower's log now covers via the snapshot
        /// (the leader resumes AppendEntries just above it).
        last_index: LogIndex,
    },
}

impl RaftMessage {
    /// Short tag for traces and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            RaftMessage::Propose { .. } => "propose",
            RaftMessage::ClientRead { .. } => "client_read",
            RaftMessage::ClientReply { .. } => "client_reply",
            RaftMessage::AppendEntries { .. } => "append_entries",
            RaftMessage::AppendEntriesReply { .. } => "append_entries_reply",
            RaftMessage::RequestVote { .. } => "request_vote",
            RaftMessage::RequestVoteReply { .. } => "request_vote_reply",
            RaftMessage::InstallSnapshot { .. } => "install_snapshot",
            RaftMessage::InstallSnapshotReply { .. } => "install_snapshot_reply",
        }
    }

    /// The term carried by the message, if any (client traffic is
    /// term-free).
    pub fn term(&self) -> Option<Term> {
        match self {
            RaftMessage::AppendEntries { term, .. }
            | RaftMessage::AppendEntriesReply { term, .. }
            | RaftMessage::RequestVote { term, .. }
            | RaftMessage::RequestVoteReply { term, .. }
            | RaftMessage::InstallSnapshot { term, .. }
            | RaftMessage::InstallSnapshotReply { term, .. } => Some(*term),
            RaftMessage::Propose { .. }
            | RaftMessage::ClientRead { .. }
            | RaftMessage::ClientReply { .. } => None,
        }
    }
}

impl Wire for RaftMessage {
    fn encode(&self, e: &mut Encoder) {
        match self {
            RaftMessage::Propose {
                id,
                session,
                seq,
                data,
            } => {
                e.put_u8(0);
                id.encode(e);
                session.encode(e);
                e.put_u64(*seq);
                data.encode(e);
            }
            RaftMessage::ClientRead { session, seq } => {
                e.put_u8(1);
                session.encode(e);
                e.put_u64(*seq);
            }
            RaftMessage::ClientReply {
                session,
                seq,
                outcome,
            } => {
                e.put_u8(8);
                session.encode(e);
                e.put_u64(*seq);
                outcome.encode(e);
            }
            RaftMessage::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                leader_commit,
                probe,
            } => {
                e.put_u8(2);
                term.encode(e);
                leader.encode(e);
                prev_index.encode(e);
                prev_term.encode(e);
                entries.encode(e);
                leader_commit.encode(e);
                e.put_u64(*probe);
            }
            RaftMessage::AppendEntriesReply {
                term,
                success,
                match_index,
                probe,
                lease_until,
            } => {
                e.put_u8(3);
                term.encode(e);
                success.encode(e);
                match_index.encode(e);
                e.put_u64(*probe);
                e.put_u64(lease_until.as_micros());
            }
            RaftMessage::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                e.put_u8(4);
                term.encode(e);
                candidate.encode(e);
                last_log_index.encode(e);
                last_log_term.encode(e);
            }
            RaftMessage::RequestVoteReply { term, granted } => {
                e.put_u8(5);
                term.encode(e);
                granted.encode(e);
            }
            RaftMessage::InstallSnapshot {
                term,
                leader,
                snapshot,
            } => {
                e.put_u8(6);
                term.encode(e);
                leader.encode(e);
                snapshot.encode(e);
            }
            RaftMessage::InstallSnapshotReply { term, last_index } => {
                e.put_u8(7);
                term.encode(e);
                last_index.encode(e);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => RaftMessage::Propose {
                id: EntryId::decode(d)?,
                session: SessionId::decode(d)?,
                seq: d.u64()?,
                data: Bytes::decode(d)?,
            },
            1 => RaftMessage::ClientRead {
                session: SessionId::decode(d)?,
                seq: d.u64()?,
            },
            8 => RaftMessage::ClientReply {
                session: SessionId::decode(d)?,
                seq: d.u64()?,
                outcome: ClientOutcome::decode(d)?,
            },
            2 => RaftMessage::AppendEntries {
                term: Term::decode(d)?,
                leader: NodeId::decode(d)?,
                prev_index: LogIndex::decode(d)?,
                prev_term: Term::decode(d)?,
                entries: EntryList::decode(d)?,
                leader_commit: LogIndex::decode(d)?,
                probe: d.u64()?,
            },
            3 => RaftMessage::AppendEntriesReply {
                term: Term::decode(d)?,
                success: bool::decode(d)?,
                match_index: LogIndex::decode(d)?,
                probe: d.u64()?,
                lease_until: SimTime::from_micros(d.u64()?),
            },
            4 => RaftMessage::RequestVote {
                term: Term::decode(d)?,
                candidate: NodeId::decode(d)?,
                last_log_index: LogIndex::decode(d)?,
                last_log_term: Term::decode(d)?,
            },
            5 => RaftMessage::RequestVoteReply {
                term: Term::decode(d)?,
                granted: bool::decode(d)?,
            },
            6 => RaftMessage::InstallSnapshot {
                term: Term::decode(d)?,
                leader: NodeId::decode(d)?,
                snapshot: Snapshot::decode(d)?,
            },
            7 => RaftMessage::InstallSnapshotReply {
                term: Term::decode(d)?,
                last_index: LogIndex::decode(d)?,
            },
            tag => {
                return Err(DecodeError::InvalidTag {
                    ty: "RaftMessage",
                    tag,
                })
            }
        })
    }

    /// Allocation-free size computation (overrides the encode-and-measure
    /// default: the network layer charges `wire_size` on every send).
    fn encoded_len(&self) -> usize {
        1 + match self {
            RaftMessage::Propose { id, data, .. } => id.encoded_len() + 8 + 8 + data.encoded_len(),
            RaftMessage::ClientRead { .. } => 8 + 8,
            RaftMessage::ClientReply { outcome, .. } => 8 + 8 + outcome.encoded_len(),
            RaftMessage::AppendEntries { entries, .. } => {
                8 + 8 + 8 + 8 + entries.encoded_len() + 8 + 8
            }
            RaftMessage::AppendEntriesReply { .. } => 8 + 1 + 8 + 8 + 8,
            RaftMessage::RequestVote { .. } => 8 + 8 + 8 + 8,
            RaftMessage::RequestVoteReply { .. } => 8 + 1,
            RaftMessage::InstallSnapshot { snapshot, .. } => 8 + 8 + snapshot.encoded_len(),
            RaftMessage::InstallSnapshotReply { .. } => 8 + 8,
        }
    }
}

impl Message for RaftMessage {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

impl crate::replica::ClientReplyMessage for RaftMessage {
    fn client_reply(session: SessionId, seq: u64, outcome: ClientOutcome) -> Self {
        RaftMessage::ClientReply {
            session,
            seq,
            outcome,
        }
    }

    fn client_read(session: SessionId, seq: u64) -> Self {
        RaftMessage::ClientRead { session, seq }
    }

    fn append_entries(
        term: Term,
        leader: NodeId,
        prev_index: LogIndex,
        prev_term: Term,
        entries: EntryList,
        leader_commit: LogIndex,
        probe: u64,
    ) -> Self {
        RaftMessage::AppendEntries {
            term,
            leader,
            prev_index,
            prev_term,
            entries,
            leader_commit,
            probe,
        }
    }

    fn install_snapshot(term: Term, leader: NodeId, snapshot: Snapshot) -> Self {
        RaftMessage::InstallSnapshot {
            term,
            leader,
            snapshot,
        }
    }

    fn install_snapshot_reply(term: Term, last_index: LogIndex) -> Self {
        RaftMessage::InstallSnapshotReply { term, last_index }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::LogScope;

    fn roundtrip(m: &RaftMessage) {
        let b = m.to_bytes();
        assert_eq!(b.len(), m.wire_size());
        assert_eq!(&RaftMessage::from_bytes(&b).unwrap(), m);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(&RaftMessage::Propose {
            id: EntryId::new(NodeId(1), 5),
            session: SessionId::client(1),
            seq: 6,
            data: Bytes::from_static(b"value"),
        });
        roundtrip(&RaftMessage::ClientRead {
            session: SessionId::client(1),
            seq: 7,
        });
        roundtrip(&RaftMessage::ClientReply {
            session: SessionId::client(1),
            seq: 7,
            outcome: ClientOutcome::ReadOk {
                scope: LogScope::Global,
                commit_floor: LogIndex(42),
            },
        });
        roundtrip(&RaftMessage::ClientReply {
            session: SessionId::client(2),
            seq: 1,
            outcome: ClientOutcome::Redirect {
                leader_hint: Some(NodeId(3)),
            },
        });
        roundtrip(&RaftMessage::AppendEntries {
            term: Term(3),
            leader: NodeId(2),
            prev_index: LogIndex(9),
            prev_term: Term(2),
            entries: EntryList::from_vec(vec![(
                LogIndex(10),
                wire::LogEntry::write(
                    Term(3),
                    EntryId::new(NodeId(1), 5),
                    SessionId::client(1),
                    6,
                    Bytes::from_static(b"v"),
                ),
            )]),
            leader_commit: LogIndex(9),
            probe: 4,
        });
        roundtrip(&RaftMessage::AppendEntriesReply {
            term: Term(3),
            success: false,
            match_index: LogIndex(4),
            probe: 4,
            lease_until: SimTime::from_millis(1234),
        });
        roundtrip(&RaftMessage::RequestVote {
            term: Term(4),
            candidate: NodeId(3),
            last_log_index: LogIndex(10),
            last_log_term: Term(3),
        });
        roundtrip(&RaftMessage::RequestVoteReply {
            term: Term(4),
            granted: true,
        });
        roundtrip(&RaftMessage::InstallSnapshot {
            term: Term(5),
            leader: NodeId(2),
            snapshot: Snapshot {
                scope: wire::LogScope::Global,
                last_index: LogIndex(128),
                last_term: Term(4),
                config: wire::Configuration::new([NodeId(1), NodeId(2)]),
                state: Snapshot::digest_state(42),
                sessions: Default::default(),
            },
        });
        roundtrip(&RaftMessage::InstallSnapshotReply {
            term: Term(5),
            last_index: LogIndex(128),
        });
    }

    #[test]
    fn kind_and_term() {
        let m = RaftMessage::RequestVoteReply {
            term: Term(4),
            granted: true,
        };
        assert_eq!(m.kind(), "request_vote_reply");
        assert_eq!(m.term(), Some(Term(4)));
        let p = RaftMessage::Propose {
            id: EntryId::new(NodeId(1), 0),
            session: SessionId::client(1),
            seq: 1,
            data: Bytes::new(),
        };
        assert_eq!(p.term(), None);
        assert_eq!(
            RaftMessage::ClientRead {
                session: SessionId::client(1),
                seq: 1
            }
            .term(),
            None
        );
    }

    #[test]
    fn heartbeat_is_small() {
        // An empty AppendEntries (pure heartbeat) should be compact —
        // bandwidth accounting depends on realistic sizes.
        let hb = RaftMessage::AppendEntries {
            term: Term(1),
            leader: NodeId(1),
            prev_index: LogIndex(0),
            prev_term: Term(0),
            entries: EntryList::empty(),
            leader_commit: LogIndex(0),
            probe: 0,
        };
        assert!(hb.wire_size() < 72, "heartbeat {} bytes", hb.wire_size());
    }
}
