//! Direct tests of the shared replica core (`raft::replica`): no network,
//! no `Lockstep` — the structs are driven the way an engine drives them.
//! The per-engine suites (`lease.rs`, `session_expiry.rs`, and their
//! `consensus-core` twins) remain the reference that both engines still
//! behave as before.

use bytes::Bytes;
use des::SimRng;
use raft::replica::{Applied, ProposalIds, ReadPath};
use raft::{RaftMessage, RaftNode, Timing};
use wire::{
    Actions, ClientOutcome, ClientRequest, Configuration, ConsensusProtocol, EntryId, LogEntry,
    LogIndex, LogScope, NodeId, Observation, PersistCmd, SessionId, SessionTable, Snapshot,
    SparseLog, Term,
};

type Out = Actions<RaftMessage>;

fn cfg(members: impl IntoIterator<Item = u64>) -> Configuration {
    members.into_iter().map(NodeId).collect()
}

fn write_entry(i: u64, session: SessionId, seq: u64) -> LogEntry {
    LogEntry::write(
        Term(1),
        EntryId::new(NodeId(0), i),
        session,
        seq,
        Bytes::from_static(b"v"),
    )
}

/// Applies `log[k]` the way both engines do: digest fold, session apply for
/// writes, expiry sweep, applied mark.
fn apply(applied: &mut Applied, log: &SparseLog, k: u64, out: &mut Out) {
    let k = LogIndex(k);
    let entry = log.get(k).expect("dense test log");
    applied.fold_commit(k, entry.id);
    if let Some((session, seq)) = entry.payload.session_key() {
        applied.apply_client_write(session, seq, false, k, out);
    }
    applied.evict_idle_sessions(k, out);
    applied.mark_applied(k);
}

#[test]
fn compaction_snapshot_adopt_roundtrips_digest_sessions_and_config_at_cut() {
    let mut timing = Timing::lan();
    timing.snapshot_threshold = 4;
    let (old_cfg, new_cfg) = (cfg(0..3), cfg(0..4));
    let session = SessionId::client(9);

    // Config entries at 2 (inside the cut) and 8 (above it); writes elsewhere.
    let mut log = SparseLog::new();
    for i in 1..=8u64 {
        let entry = match i {
            2 => LogEntry::config(Term(1), EntryId::new(NodeId(0), i), old_cfg.clone()),
            8 => LogEntry::config(Term(1), EntryId::new(NodeId(0), i), new_cfg.clone()),
            _ => write_entry(i, session, i),
        };
        log.insert(LogIndex(i), entry);
    }
    let mut applied = Applied::new(LogScope::Global, &timing);
    let mut out = Out::new();
    for k in 1..=6 {
        apply(&mut applied, &log, k, &mut out);
    }
    // Below the threshold nothing happens; the engine obeys the config
    // inserted at 8, which the cut at 6 must not capture.
    assert!(applied.snapshot().is_none());
    applied.maybe_compact(&mut log, &new_cfg, LogIndex(8), &mut out);

    let persisted: Vec<&Snapshot> = out
        .persists
        .iter()
        .filter_map(|p| match p {
            PersistCmd::InstallSnapshot { snapshot } => Some(snapshot),
            _ => None,
        })
        .collect();
    assert_eq!(persisted.len(), 1, "compaction is write-ahead, once");
    let snap = applied
        .current_snapshot(&log, &new_cfg, LogIndex(8))
        .expect("compacted");
    assert_eq!(
        &snap, persisted[0],
        "the served snapshot is the persisted one"
    );
    assert_eq!(snap.last_index, LogIndex(6));
    assert_eq!(
        snap.config, old_cfg,
        "config in force at the cut, not above it"
    );
    assert_eq!(snap.state_digest(), Some(applied.digest()));
    assert_eq!(log.compacted_through(), LogIndex(6));
    assert!(out.observations.iter().any(|o| matches!(
        o,
        Observation::LogCompacted { through, .. } if *through == LogIndex(6)
    )));

    // Adoption by a laggard and recovery from the persisted snapshot both
    // land on the compacting site's exact image.
    let mut laggard = Applied::new(LogScope::Global, &timing);
    laggard.adopt(snap.clone());
    let recovered = Applied::recover(LogScope::Global, &timing, Some(snap.clone()), LogIndex(6));
    for image in [&laggard, &recovered] {
        assert_eq!(image.index(), LogIndex(6));
        assert_eq!(image.digest(), applied.digest());
        assert_eq!(image.sessions(), applied.sessions());
        assert_eq!(image.snapshot(), Some(&snap));
    }
    // ...and stays convergent when the suffix applies on top.
    for image in [&mut applied, &mut laggard] {
        apply(image, &log, 7, &mut out);
        apply(image, &log, 8, &mut out);
    }
    assert_eq!(laggard.digest(), applied.digest());
    assert_eq!(laggard.sessions(), applied.sessions());
}

#[test]
fn read_admitted_above_applied_index_is_released_exactly_at_its_floor_in_admission_order() {
    let me = NodeId(0);
    // A single-voter configuration confirms reads itself, so admission goes
    // straight to the apply-floor check.
    let solo = cfg([0]);
    let mut reads = ReadPath::new(me, LogScope::Global, &Timing::lan());
    let mut out = Out::new();
    let s = SessionId::client(1);
    let applied = LogIndex(3);
    // (seq, gateway, floor): reads at floor 5 around one at floor 4, one of
    // them forwarded by another gateway.
    for (seq, gateway, floor) in [(1, me, 5), (2, me, 4), (3, NodeId(7), 5), (4, me, 5)] {
        if gateway == me {
            reads.track_local(s, seq);
        }
        let floor = LogIndex(floor);
        let probe_now = reads.register_read(s, seq, gateway, floor, applied, &solo, &mut out);
        assert!(!probe_now, "self-confirmed reads need no heartbeat round");
    }
    let local = |out: &Out| -> Vec<(u64, LogIndex)> {
        out.observations
            .iter()
            .filter_map(|o| match o {
                Observation::ClientResponse {
                    seq,
                    outcome: ClientOutcome::ReadOk { commit_floor, .. },
                    ..
                } => Some((*seq, *commit_floor)),
                _ => None,
            })
            .collect()
    };
    assert!(
        local(&out).is_empty(),
        "nothing may be served below its floor"
    );
    reads.release_applied_reads(LogIndex(3), &mut out);
    assert!(local(&out).is_empty() && out.sends.is_empty());
    reads.release_applied_reads(LogIndex(4), &mut out);
    assert_eq!(local(&out), vec![(2, LogIndex(4))]);
    assert!(out.sends.is_empty());
    assert!(
        !reads.is_local(s, 2),
        "a locally answered read is forgotten"
    );
    assert!(reads.is_local(s, 1) && reads.is_local(s, 4));

    out.clear();
    reads.release_applied_reads(LogIndex(5), &mut out);
    assert_eq!(local(&out), vec![(1, LogIndex(5)), (4, LogIndex(5))]);
    let floor5 = ClientOutcome::ReadOk {
        scope: LogScope::Global,
        commit_floor: LogIndex(5),
    };
    assert_eq!(
        out.sends,
        vec![(
            NodeId(7),
            RaftMessage::ClientReply {
                session: s,
                seq: 3,
                outcome: floor5
            }
        )]
    );
    out.clear();
    reads.release_applied_reads(LogIndex(9), &mut out);
    assert!(out.is_empty(), "each read is answered once");

    // A floor the state machine already covers is answered on the spot.
    reads.register_read(s, 5, me, LogIndex(5), LogIndex(5), &solo, &mut out);
    assert_eq!(local(&out), vec![(5, LogIndex(5))]);
}

#[test]
fn duplicate_write_outliving_its_sessions_eviction_expires_while_register_reapplies() {
    let mut timing = Timing::lan();
    timing.session_ttl = 4;
    let mut applied = Applied::new(LogScope::Global, &timing);
    let mut out = Out::new();
    let (idle, busy) = (SessionId::client(1), SessionId::client(2));

    assert_eq!(
        applied.apply_client_write(idle, 1, false, LogIndex(1), &mut out),
        ClientOutcome::Committed { index: LogIndex(1) }
    );
    applied.apply_client_write(idle, 2, false, LogIndex(2), &mut out);
    for k in 3..=10u64 {
        applied.apply_client_write(busy, k - 2, false, LogIndex(k), &mut out);
        applied.evict_idle_sessions(LogIndex(k), &mut out);
    }
    assert!(
        applied.sessions().get(idle).is_none(),
        "idle session evicted"
    );
    assert!(applied.is_expired_retry(idle, 2));

    // A second placement of (idle, 2) still in the log commits now: refused
    // terminally, identically on every replica — no fold, no observation.
    let digest = applied.digest();
    out.clear();
    assert_eq!(
        applied.apply_client_write(idle, 2, false, LogIndex(11), &mut out),
        ClientOutcome::SessionExpired
    );
    assert_eq!(applied.digest(), digest);
    assert!(out.is_empty());
    assert!(applied.sessions().get(idle).is_none());

    // A registration carries no value: re-applying one re-opens the session.
    assert_eq!(
        applied.apply_client_write(idle, 1, true, LogIndex(12), &mut out),
        ClientOutcome::Registered {
            session: idle,
            index: LogIndex(12)
        }
    );
    assert_ne!(applied.digest(), digest);
    assert!(applied.sessions().get(idle).is_some());
    assert_eq!(
        applied.apply_client_write(idle, 1, true, LogIndex(13), &mut out),
        ClientOutcome::Registered {
            session: idle,
            index: LogIndex(12)
        },
        "a duplicate registration reports the first application"
    );
}

#[test]
fn proposal_ids_stay_below_the_persisted_reservation_and_resume_at_the_floor() {
    let reserved = |out: &Out| -> Vec<u64> {
        out.persists
            .iter()
            .map(|p| match p {
                PersistCmd::ReserveProposalSeqs { scope, through } => {
                    assert_eq!(*scope, LogScope::Local);
                    *through
                }
                other => panic!("unexpected persist {other:?}"),
            })
            .collect()
    };
    let mut ids = ProposalIds::new(NodeId(3), LogScope::Local);
    let mut out = Out::new();
    for expect in 0..130u64 {
        let id = ids.fresh_id(&mut out);
        assert_eq!(id, EntryId::new(NodeId(3), expect));
        let ceiling = *reserved(&out).last().expect("reserved before minting");
        assert!(
            id.seq < ceiling,
            "id {id} at or above the reservation {ceiling}"
        );
        assert_eq!(ceiling, ids.reserved_seqs());
    }
    assert_eq!(reserved(&out), vec![64, 128, 192], "one write per block");

    // A crash loses the unpersisted counter, never the reservation.
    let mut ids = ProposalIds::resume(NodeId(3), LogScope::Local, 192);
    let mut out = Out::new();
    assert_eq!(ids.next_seq(), 192);
    assert_eq!(ids.fresh_id(&mut out), EntryId::new(NodeId(3), 192));
    assert_eq!(reserved(&out), vec![256]);
}

/// ARCHITECTURE.md "Invariants": never iterate a `HashMap` where order
/// reaches protocol state. The gateway's in-flight writes live in one, and
/// the post-install sweep used to answer in its iteration order — so with
/// several covered writes the completion order (and the runner's next RNG
/// draws) depended on the per-instance hasher seed.
#[test]
fn snapshot_install_answers_covered_gateway_writes_in_session_order() {
    let members = cfg(0..3);
    // Submission order differs from sorted order.
    let sessions = [41u64, 7, 99, 23].map(SessionId::client);
    let mut table = SessionTable::new();
    for (i, s) in sessions.iter().enumerate() {
        table.apply(*s, 1, LogIndex(1 + i as u64));
    }
    let snapshot = Snapshot {
        scope: LogScope::Global,
        last_index: LogIndex(6),
        last_term: Term(1),
        config: members.clone(),
        state: Snapshot::digest_state(0xfeed),
        sessions: table.into(),
    };
    for fresh in 0..32 {
        let mut gateway = RaftNode::new(
            NodeId(2),
            members.clone(),
            Timing::lan(),
            SimRng::seed_from_u64(fresh),
        );
        let mut out = Out::new();
        for s in sessions {
            gateway.on_client_request(
                ClientRequest::write(s, 1, Bytes::from_static(b"w")),
                &mut out,
            );
        }
        assert_eq!(gateway.pending_proposals(), 4);
        out.clear();
        gateway.on_message(
            NodeId(0),
            RaftMessage::InstallSnapshot {
                term: Term(1),
                leader: NodeId(0),
                snapshot: snapshot.clone(),
            },
            &mut out,
        );
        let answered: Vec<SessionId> = out
            .observations
            .iter()
            .filter_map(|o| match o {
                Observation::ClientResponse {
                    session,
                    seq: 1,
                    outcome: ClientOutcome::Duplicate { .. },
                } => Some(*session),
                _ => None,
            })
            .collect();
        let mut sorted = sessions.to_vec();
        sorted.sort();
        assert_eq!(answered, sorted, "node #{fresh}");
        assert_eq!(gateway.pending_proposals(), 0);
    }
}
