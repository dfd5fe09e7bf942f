//! Fast Raft and C-Raft message vocabulary (§IV, §V).

use des::SimTime;
use wire::{
    ClientOutcome, DecodeError, Decoder, Encoder, EntryId, EntryList, LogEntry, LogIndex, Message,
    NodeId, SessionId, Snapshot, Term, Wire,
};

/// Messages exchanged by Fast Raft sites (one consensus level).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FastRaftMessage {
    /// Proposer → **all** members: insert `entry` at `index` (§IV-B
    /// "To propose an entry": send to all members in the configuration).
    ProposeAt {
        /// Target log index chosen by the proposer.
        index: LogIndex,
        /// The proposed entry (self-approved on insert).
        entry: LogEntry,
    },
    /// Site → leader: its vote — "Send log\[i\] and commitIndex to leaderId".
    Vote {
        /// The index voted on.
        index: LogIndex,
        /// The entry present at that index in the voter's log.
        entry: LogEntry,
        /// The voter's commit index (the leader resets `nextIndex` from it).
        commit_index: LogIndex,
    },
    /// Leader (or any site) → proposer: proposal outcome / redirect.
    ProposeReply {
        /// The proposal this refers to.
        id: EntryId,
        /// `true` once committed.
        committed: bool,
        /// Current leader, for redirects.
        leader_hint: Option<NodeId>,
    },
    /// Leader → follower: classic-track replication of **leader-approved**
    /// entries, plus heartbeat.
    AppendEntries {
        /// Leader's term.
        term: Term,
        /// Leader id.
        leader: NodeId,
        /// Index just before the replicated range (`nextIndex - 1`). The
        /// leader's belief is backed by the follower's own write-ahead
        /// acknowledgements, so the follower may treat its log as verified
        /// up to here when contiguous.
        prev_index: LogIndex,
        /// Explicitly indexed entries (Fast Raft logs may be sparse).
        /// `Rc`-shared: followers addressed at the same `nextIndex`
        /// receive handles to one allocation.
        entries: EntryList,
        /// Leader's commit index.
        leader_commit: LogIndex,
        /// C-Raft piggyback (§V-B): the cluster leader's **global** commit
        /// index, so cluster members learn which global entries committed.
        /// Zero outside C-Raft's local level.
        global_commit: LogIndex,
        /// ReadIndex round tag: followers echo it in their reply, and a
        /// pending linearizable read only counts acks whose echoed probe is
        /// at least the probe current when the read was registered.
        probe: u64,
    },
    /// Follower → leader: replication ack.
    AppendEntriesReply {
        /// Follower's term.
        term: Term,
        /// Whether entries were accepted.
        success: bool,
        /// Highest index now matching the leader.
        match_index: LogIndex,
        /// Echo of the request's ReadIndex probe.
        probe: u64,
        /// Leader-lease grant accompanying a successful ack: the follower
        /// promises not to vote for a different leader before this instant
        /// **on its own clock** (`ack time + Timing::lease_duration`).
        /// [`SimTime::ZERO`] when the follower is clockless or the ack
        /// failed — no grant. At C-Raft's global level the "followers" are
        /// the other cluster leaders, making this the recursive grant of
        /// the hierarchy.
        lease_until: SimTime,
    },
    /// Gateway → leader: run a linearizable ReadIndex round and answer with
    /// the confirmed commit floor (at C-Raft's global level this is how a
    /// cluster leader serves a global read).
    ClientRead {
        /// The issuing client session.
        session: SessionId,
        /// The request's sequence number.
        seq: u64,
    },
    /// Any site → gateway: the typed outcome of a client request.
    ClientReply {
        /// The session this answers.
        session: SessionId,
        /// The request's sequence number.
        seq: u64,
        /// What happened.
        outcome: ClientOutcome,
    },
    /// Candidate → all: request a vote. Up-to-dateness is judged on
    /// **leader-approved** entries only (§IV-C).
    RequestVote {
        /// Candidate's term.
        term: Term,
        /// The candidate.
        candidate: NodeId,
        /// Index of candidate's last leader-approved entry.
        last_leader_index: LogIndex,
        /// Term of that entry.
        last_leader_term: Term,
    },
    /// Voter → candidate: the vote, carrying the voter's self-approved
    /// entries for the recovery algorithm (§IV-C).
    RequestVoteReply {
        /// Voter's term.
        term: Term,
        /// Whether the vote was granted.
        granted: bool,
        /// All self-approved entries in the voter's log (empty on refusal).
        self_approved: Vec<(LogIndex, LogEntry)>,
    },
    /// Joining site → members: request to join the configuration (§IV-D).
    JoinRequest {
        /// The joining site.
        node: NodeId,
    },
    /// Member → joining site: redirect or completion notice.
    JoinReply {
        /// `true` once the new configuration including the site committed.
        accepted: bool,
        /// Current leader, for redirects.
        leader_hint: Option<NodeId>,
    },
    /// Departing site → leader: announced leave (§IV-D).
    LeaveRequest {
        /// The departing site.
        node: NodeId,
    },
    /// Leader → laggard site: the site's `nextIndex` fell below the
    /// leader's first retained log index (it was absent past the compaction
    /// horizon, or is a fresh joiner), so the decided prefix is transferred
    /// as a snapshot instead of replayed entry by entry (§IV-D catch-up).
    InstallSnapshot {
        /// Leader's term.
        term: Term,
        /// Leader's id.
        leader: NodeId,
        /// The snapshot covering the compacted prefix.
        snapshot: Snapshot,
    },
    /// Laggard → leader: snapshot transfer outcome.
    InstallSnapshotReply {
        /// The site's term, so a stale leader steps down.
        term: Term,
        /// Highest index the site's log now covers via the snapshot.
        last_index: LogIndex,
    },
}

impl FastRaftMessage {
    /// Short tag for traces and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            FastRaftMessage::ProposeAt { .. } => "propose_at",
            FastRaftMessage::Vote { .. } => "vote",
            FastRaftMessage::ProposeReply { .. } => "propose_reply",
            FastRaftMessage::AppendEntries { .. } => "append_entries",
            FastRaftMessage::AppendEntriesReply { .. } => "append_entries_reply",
            FastRaftMessage::ClientRead { .. } => "client_read",
            FastRaftMessage::ClientReply { .. } => "client_reply",
            FastRaftMessage::RequestVote { .. } => "request_vote",
            FastRaftMessage::RequestVoteReply { .. } => "request_vote_reply",
            FastRaftMessage::JoinRequest { .. } => "join_request",
            FastRaftMessage::JoinReply { .. } => "join_reply",
            FastRaftMessage::LeaveRequest { .. } => "leave_request",
            FastRaftMessage::InstallSnapshot { .. } => "install_snapshot",
            FastRaftMessage::InstallSnapshotReply { .. } => "install_snapshot_reply",
        }
    }

    /// `true` for client-level traffic exempt from the configuration filter.
    pub fn is_client_traffic(&self) -> bool {
        matches!(
            self,
            FastRaftMessage::ProposeReply { .. }
                | FastRaftMessage::ClientRead { .. }
                | FastRaftMessage::ClientReply { .. }
                | FastRaftMessage::JoinRequest { .. }
                | FastRaftMessage::JoinReply { .. }
                | FastRaftMessage::LeaveRequest { .. }
        )
    }
}

impl Wire for FastRaftMessage {
    fn encode(&self, e: &mut Encoder) {
        match self {
            FastRaftMessage::ProposeAt { index, entry } => {
                e.put_u8(0);
                index.encode(e);
                entry.encode(e);
            }
            FastRaftMessage::Vote {
                index,
                entry,
                commit_index,
            } => {
                e.put_u8(1);
                index.encode(e);
                entry.encode(e);
                commit_index.encode(e);
            }
            FastRaftMessage::ProposeReply {
                id,
                committed,
                leader_hint,
            } => {
                e.put_u8(2);
                id.encode(e);
                committed.encode(e);
                leader_hint.encode(e);
            }
            FastRaftMessage::AppendEntries {
                term,
                leader,
                prev_index,
                entries,
                leader_commit,
                global_commit,
                probe,
            } => {
                e.put_u8(3);
                term.encode(e);
                leader.encode(e);
                prev_index.encode(e);
                entries.encode(e);
                leader_commit.encode(e);
                global_commit.encode(e);
                e.put_u64(*probe);
            }
            FastRaftMessage::AppendEntriesReply {
                term,
                success,
                match_index,
                probe,
                lease_until,
            } => {
                e.put_u8(4);
                term.encode(e);
                success.encode(e);
                match_index.encode(e);
                e.put_u64(*probe);
                e.put_u64(lease_until.as_micros());
            }
            FastRaftMessage::ClientRead { session, seq } => {
                e.put_u8(12);
                session.encode(e);
                e.put_u64(*seq);
            }
            FastRaftMessage::ClientReply {
                session,
                seq,
                outcome,
            } => {
                e.put_u8(13);
                session.encode(e);
                e.put_u64(*seq);
                outcome.encode(e);
            }
            FastRaftMessage::RequestVote {
                term,
                candidate,
                last_leader_index,
                last_leader_term,
            } => {
                e.put_u8(5);
                term.encode(e);
                candidate.encode(e);
                last_leader_index.encode(e);
                last_leader_term.encode(e);
            }
            FastRaftMessage::RequestVoteReply {
                term,
                granted,
                self_approved,
            } => {
                e.put_u8(6);
                term.encode(e);
                granted.encode(e);
                self_approved.encode(e);
            }
            FastRaftMessage::JoinRequest { node } => {
                e.put_u8(7);
                node.encode(e);
            }
            FastRaftMessage::JoinReply {
                accepted,
                leader_hint,
            } => {
                e.put_u8(8);
                accepted.encode(e);
                leader_hint.encode(e);
            }
            FastRaftMessage::LeaveRequest { node } => {
                e.put_u8(9);
                node.encode(e);
            }
            FastRaftMessage::InstallSnapshot {
                term,
                leader,
                snapshot,
            } => {
                e.put_u8(10);
                term.encode(e);
                leader.encode(e);
                snapshot.encode(e);
            }
            FastRaftMessage::InstallSnapshotReply { term, last_index } => {
                e.put_u8(11);
                term.encode(e);
                last_index.encode(e);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => FastRaftMessage::ProposeAt {
                index: LogIndex::decode(d)?,
                entry: LogEntry::decode(d)?,
            },
            1 => FastRaftMessage::Vote {
                index: LogIndex::decode(d)?,
                entry: LogEntry::decode(d)?,
                commit_index: LogIndex::decode(d)?,
            },
            2 => FastRaftMessage::ProposeReply {
                id: EntryId::decode(d)?,
                committed: bool::decode(d)?,
                leader_hint: Option::decode(d)?,
            },
            3 => FastRaftMessage::AppendEntries {
                term: Term::decode(d)?,
                leader: NodeId::decode(d)?,
                prev_index: LogIndex::decode(d)?,
                entries: EntryList::decode(d)?,
                leader_commit: LogIndex::decode(d)?,
                global_commit: LogIndex::decode(d)?,
                probe: d.u64()?,
            },
            4 => FastRaftMessage::AppendEntriesReply {
                term: Term::decode(d)?,
                success: bool::decode(d)?,
                match_index: LogIndex::decode(d)?,
                probe: d.u64()?,
                lease_until: SimTime::from_micros(d.u64()?),
            },
            12 => FastRaftMessage::ClientRead {
                session: SessionId::decode(d)?,
                seq: d.u64()?,
            },
            13 => FastRaftMessage::ClientReply {
                session: SessionId::decode(d)?,
                seq: d.u64()?,
                outcome: ClientOutcome::decode(d)?,
            },
            5 => FastRaftMessage::RequestVote {
                term: Term::decode(d)?,
                candidate: NodeId::decode(d)?,
                last_leader_index: LogIndex::decode(d)?,
                last_leader_term: Term::decode(d)?,
            },
            6 => FastRaftMessage::RequestVoteReply {
                term: Term::decode(d)?,
                granted: bool::decode(d)?,
                self_approved: Vec::decode(d)?,
            },
            7 => FastRaftMessage::JoinRequest {
                node: NodeId::decode(d)?,
            },
            8 => FastRaftMessage::JoinReply {
                accepted: bool::decode(d)?,
                leader_hint: Option::decode(d)?,
            },
            9 => FastRaftMessage::LeaveRequest {
                node: NodeId::decode(d)?,
            },
            10 => FastRaftMessage::InstallSnapshot {
                term: Term::decode(d)?,
                leader: NodeId::decode(d)?,
                snapshot: Snapshot::decode(d)?,
            },
            11 => FastRaftMessage::InstallSnapshotReply {
                term: Term::decode(d)?,
                last_index: LogIndex::decode(d)?,
            },
            tag => {
                return Err(DecodeError::InvalidTag {
                    ty: "FastRaftMessage",
                    tag,
                })
            }
        })
    }

    /// Allocation-free size computation (overrides the encode-and-measure
    /// default: the network layer charges `wire_size` on every send).
    fn encoded_len(&self) -> usize {
        1 + match self {
            FastRaftMessage::ProposeAt { entry, .. } => 8 + entry.encoded_len(),
            FastRaftMessage::Vote { entry, .. } => 8 + entry.encoded_len() + 8,
            FastRaftMessage::ProposeReply { leader_hint, .. } => 16 + 1 + leader_hint.encoded_len(),
            FastRaftMessage::AppendEntries { entries, .. } => {
                8 + 8 + 8 + entries.encoded_len() + 8 + 8 + 8
            }
            FastRaftMessage::AppendEntriesReply { .. } => 8 + 1 + 8 + 8 + 8,
            FastRaftMessage::ClientRead { .. } => 8 + 8,
            FastRaftMessage::ClientReply { outcome, .. } => 8 + 8 + outcome.encoded_len(),
            FastRaftMessage::RequestVote { .. } => 8 + 8 + 8 + 8,
            FastRaftMessage::RequestVoteReply { self_approved, .. } => {
                8 + 1 + self_approved.encoded_len()
            }
            FastRaftMessage::JoinRequest { .. } => 8,
            FastRaftMessage::JoinReply { leader_hint, .. } => 1 + leader_hint.encoded_len(),
            FastRaftMessage::LeaveRequest { .. } => 8,
            FastRaftMessage::InstallSnapshot { snapshot, .. } => 8 + 8 + snapshot.encoded_len(),
            FastRaftMessage::InstallSnapshotReply { .. } => 8 + 8,
        }
    }
}

impl Message for FastRaftMessage {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

impl raft::replica::ClientReplyMessage for FastRaftMessage {
    fn client_reply(session: SessionId, seq: u64, outcome: ClientOutcome) -> Self {
        FastRaftMessage::ClientReply {
            session,
            seq,
            outcome,
        }
    }

    fn client_read(session: SessionId, seq: u64) -> Self {
        FastRaftMessage::ClientRead { session, seq }
    }

    fn append_entries(
        term: Term,
        leader: NodeId,
        prev_index: LogIndex,
        _prev_term: Term,
        entries: EntryList,
        leader_commit: LogIndex,
        probe: u64,
    ) -> Self {
        FastRaftMessage::AppendEntries {
            term,
            leader,
            prev_index,
            entries,
            leader_commit,
            global_commit: LogIndex::ZERO,
            probe,
        }
    }

    fn install_snapshot(term: Term, leader: NodeId, snapshot: Snapshot) -> Self {
        FastRaftMessage::InstallSnapshot {
            term,
            leader,
            snapshot,
        }
    }

    fn install_snapshot_reply(term: Term, last_index: LogIndex) -> Self {
        FastRaftMessage::InstallSnapshotReply { term, last_index }
    }
}

/// C-Raft traffic: Fast Raft messages tagged with the consensus level they
/// belong to (§V-B: sites hold state for both levels).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CRaftMessage {
    /// Intra-cluster (local-log) consensus traffic.
    Local(FastRaftMessage),
    /// Inter-cluster (global-log) consensus traffic among cluster leaders.
    Global(FastRaftMessage),
}

impl CRaftMessage {
    /// Short tag for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            CRaftMessage::Local(m) => m.kind(),
            CRaftMessage::Global(m) => m.kind(),
        }
    }

    /// `true` for global-level traffic.
    pub fn is_global(&self) -> bool {
        matches!(self, CRaftMessage::Global(_))
    }
}

impl Wire for CRaftMessage {
    fn encode(&self, e: &mut Encoder) {
        match self {
            CRaftMessage::Local(m) => {
                e.put_u8(0);
                m.encode(e);
            }
            CRaftMessage::Global(m) => {
                e.put_u8(1);
                m.encode(e);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => CRaftMessage::Local(FastRaftMessage::decode(d)?),
            1 => CRaftMessage::Global(FastRaftMessage::decode(d)?),
            tag => {
                return Err(DecodeError::InvalidTag {
                    ty: "CRaftMessage",
                    tag,
                })
            }
        })
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            CRaftMessage::Local(m) | CRaftMessage::Global(m) => m.encoded_len(),
        }
    }
}

impl Message for CRaftMessage {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use wire::Term;

    fn entry() -> LogEntry {
        LogEntry::write(
            Term(2),
            EntryId::new(NodeId(3), 7),
            SessionId::client(1),
            1,
            Bytes::from_static(b"payload"),
        )
    }

    fn roundtrip_fast(m: &FastRaftMessage) {
        let b = m.to_bytes();
        assert_eq!(b.len(), m.wire_size());
        assert_eq!(&FastRaftMessage::from_bytes(&b).unwrap(), m);
    }

    #[test]
    fn all_fast_variants_roundtrip() {
        roundtrip_fast(&FastRaftMessage::ProposeAt {
            index: LogIndex(4),
            entry: entry(),
        });
        roundtrip_fast(&FastRaftMessage::Vote {
            index: LogIndex(4),
            entry: entry(),
            commit_index: LogIndex(3),
        });
        roundtrip_fast(&FastRaftMessage::ProposeReply {
            id: EntryId::new(NodeId(3), 7),
            committed: true,
            leader_hint: None,
        });
        roundtrip_fast(&FastRaftMessage::AppendEntries {
            term: Term(2),
            leader: NodeId(1),
            prev_index: LogIndex(3),
            entries: EntryList::from_vec(vec![(LogIndex(4), entry())]),
            leader_commit: LogIndex(3),
            global_commit: LogIndex(2),
            probe: 9,
        });
        roundtrip_fast(&FastRaftMessage::AppendEntriesReply {
            term: Term(2),
            success: true,
            match_index: LogIndex(4),
            probe: 9,
            lease_until: SimTime::from_millis(7777),
        });
        roundtrip_fast(&FastRaftMessage::ClientRead {
            session: SessionId::client(3),
            seq: 11,
        });
        roundtrip_fast(&FastRaftMessage::ClientReply {
            session: SessionId::client(3),
            seq: 11,
            outcome: ClientOutcome::ReadOk {
                scope: wire::LogScope::Global,
                commit_floor: LogIndex(44),
            },
        });
        roundtrip_fast(&FastRaftMessage::RequestVote {
            term: Term(3),
            candidate: NodeId(2),
            last_leader_index: LogIndex(9),
            last_leader_term: Term(2),
        });
        roundtrip_fast(&FastRaftMessage::RequestVoteReply {
            term: Term(3),
            granted: true,
            self_approved: vec![(LogIndex(5), entry())],
        });
        roundtrip_fast(&FastRaftMessage::JoinRequest { node: NodeId(9) });
        roundtrip_fast(&FastRaftMessage::JoinReply {
            accepted: false,
            leader_hint: Some(NodeId(1)),
        });
        roundtrip_fast(&FastRaftMessage::LeaveRequest { node: NodeId(4) });
        roundtrip_fast(&FastRaftMessage::InstallSnapshot {
            term: Term(3),
            leader: NodeId(1),
            snapshot: Snapshot {
                scope: wire::LogScope::Global,
                last_index: LogIndex(300),
                last_term: Term(3),
                config: wire::Configuration::new([NodeId(1), NodeId(2), NodeId(3)]),
                state: Snapshot::digest_state(99),
                sessions: Default::default(),
            },
        });
        roundtrip_fast(&FastRaftMessage::InstallSnapshotReply {
            term: Term(3),
            last_index: LogIndex(300),
        });
    }

    #[test]
    fn craft_wrapping_roundtrips() {
        for m in [
            CRaftMessage::Local(FastRaftMessage::JoinRequest { node: NodeId(1) }),
            CRaftMessage::Global(FastRaftMessage::ProposeAt {
                index: LogIndex(1),
                entry: entry(),
            }),
        ] {
            let b = m.to_bytes();
            assert_eq!(&CRaftMessage::from_bytes(&b).unwrap(), &m);
        }
        assert!(CRaftMessage::Global(FastRaftMessage::JoinRequest { node: NodeId(1) }).is_global());
    }

    #[test]
    fn client_traffic_classification() {
        assert!(FastRaftMessage::JoinRequest { node: NodeId(1) }.is_client_traffic());
        assert!(!FastRaftMessage::Vote {
            index: LogIndex(1),
            entry: entry(),
            commit_index: LogIndex(0),
        }
        .is_client_traffic());
    }

    #[test]
    fn broadcast_proposal_size_is_linear_in_payload() {
        let small = FastRaftMessage::ProposeAt {
            index: LogIndex(1),
            entry: LogEntry::write(
                Term(1),
                EntryId::new(NodeId(1), 0),
                SessionId::client(1),
                1,
                Bytes::from(vec![0; 16]),
            ),
        };
        let big = FastRaftMessage::ProposeAt {
            index: LogIndex(1),
            entry: LogEntry::write(
                Term(1),
                EntryId::new(NodeId(1), 0),
                SessionId::client(1),
                1,
                Bytes::from(vec![0; 1600]),
            ),
        };
        assert_eq!(big.wire_size() - small.wire_size(), 1600 - 16);
    }
}
