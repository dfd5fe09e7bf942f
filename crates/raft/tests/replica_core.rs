//! Direct tests of the shared replica core (`raft::replica`): no network,
//! no `Lockstep` — the structs are driven the way an engine drives them.
//! The second half drives [`Replica`]'s shared protocol steps with a message
//! enum and neither engine around it; each test asserts on the emitted
//! [`Actions`], so it fails if a shared body reorders effects. The
//! per-engine suites (`lease.rs`, `session_expiry.rs`, and their
//! `consensus-core` twins) remain the reference that both engines still
//! behave as before.

use bytes::Bytes;
use des::{SimRng, SimTime};
use raft::replica::{Applied, ProposalIds, ReadPath, Replica, Reply};
use raft::{RaftMessage, RaftNode, Role, Timing};
use wire::{
    Actions, ClientOutcome, ClientRequest, Configuration, ConsensusProtocol, EntryId, LogEntry,
    LogIndex, LogScope, NodeId, Observation, PersistCmd, SessionId, SessionTable, Snapshot,
    SparseLog, Term, TimerCmd, TimerKind,
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
fn linearizable_read_is_answered_at_its_admission_floor_and_forgotten() {
    let me = NodeId(0);
    let mut reads = ReadPath::new(me, LogScope::Global, &Timing::lan());
    let mut out = Out::new();
    let s = SessionId::client(1);
    let answers = |out: &Out| -> Vec<(u64, LogIndex)> {
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

    // Self-confirmed: a single-voter configuration needs no heartbeat round
    // (and the clockless node has no lease).
    reads.track_local(s, 1);
    let probe_now = reads.register_read(s, 1, me, LogIndex(4), &cfg([0]), &mut out);
    assert!(!probe_now, "a self-confirmed read needs no heartbeat round");
    assert!(out.observations.iter().any(|o| matches!(
        o,
        Observation::ReadIndexRead { seq: 1, floor, .. } if *floor == LogIndex(4)
    )));
    assert_eq!(answers(&out), vec![(1, LogIndex(4))]);
    assert!(!reads.is_local(s, 1), "an answered read is forgotten");

    // Lease: armed at 1000 ms (live from 1350 ms), one follower grant good
    // to 1700 ms makes a quorum of three at 1400 ms.
    out.clear();
    let trio = cfg([0, 1, 2]);
    reads.set_local_clock(SimTime::from_millis(1000));
    reads.arm_lease();
    reads.set_local_clock(SimTime::from_millis(1400));
    reads.record_grant(NodeId(1), SimTime::from_millis(1700), &mut out);
    reads.track_local(s, 2);
    let probe_now = reads.register_read(s, 2, me, LogIndex(7), &trio, &mut out);
    assert!(!probe_now, "a lease read needs no heartbeat round");
    assert!(out.observations.iter().any(|o| matches!(
        o,
        Observation::LeaseRead { seq: 2, floor, .. } if *floor == LogIndex(7)
    )));
    assert_eq!(answers(&out), vec![(2, LogIndex(7))]);
    assert!(out.sends.is_empty(), "a local read costs no message");
    assert!(!reads.is_local(s, 2), "an answered read is forgotten");
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

// ----------------------------------------------------------------------
// `Replica`'s shared steps, driven without either engine
// ----------------------------------------------------------------------

fn replica(id: u64, members: impl IntoIterator<Item = u64>, timing: Timing) -> Replica {
    Replica::new(
        NodeId(id),
        LogScope::Global,
        cfg(members),
        (TimerKind::Election, TimerKind::Heartbeat),
        timing,
        SimRng::seed_from_u64(id),
    )
}

/// Campaigns and wins with the `voters`' grants, as an engine would drive it.
fn elect(r: &mut Replica, voters: &[u64], out: &mut Out) {
    assert!(r.start_election(out));
    for voter in voters {
        let counted = r.on_vote_reply(NodeId(*voter), r.current_term, true);
        assert_eq!(counted, Reply::Counted);
    }
    assert!(r.won_election());
    r.become_leader(r.log.last_index().next(), out);
    r.start_heartbeats(r.log.last_index(), out);
}

fn snapshot_at(last_index: u64, last_term: u64, config: Configuration) -> Snapshot {
    Snapshot {
        scope: LogScope::Global,
        last_index: LogIndex(last_index),
        last_term: Term(last_term),
        config,
        state: Snapshot::digest_state(last_index),
        sessions: Default::default(),
    }
}

fn term_votes(out: &Out) -> Vec<(Term, Option<NodeId>)> {
    out.persists
        .iter()
        .map(|p| match p {
            PersistCmd::SetTermVote {
                scope: LogScope::Global,
                term,
                voted_for,
            } => (*term, *voted_for),
            other => panic!("unexpected persist {other:?}"),
        })
        .collect()
}

fn ignored(out: &Out) -> Vec<&'static str> {
    out.observations
        .iter()
        .filter_map(|o| match o {
            Observation::MessageIgnored { reason } => Some(*reason),
            _ => None,
        })
        .collect()
}

#[test]
fn higher_term_step_down_persists_the_term_and_fails_parked_reads_with_retry() {
    let mut r = replica(0, 0..3, Timing::lan());
    let mut out = Out::new();
    elect(&mut r, &[1], &mut out);
    // Two reads await their ReadIndex round: one submitted here, one
    // forwarded by gateway 2.
    let s = SessionId::client(4);
    r.reads.track_local(s, 1);
    assert!(
        r.register_read(s, 1, NodeId(0), &mut out),
        "no lease: probe"
    );
    assert!(r.register_read(s, 2, NodeId(2), &mut out));

    out.clear();
    assert!(r.become_follower(Term(7), Some(NodeId(2)), &mut out));
    assert_eq!(term_votes(&out), vec![(Term(7), None)]);
    assert_eq!(
        out.observations,
        vec![
            Observation::ClientResponse {
                session: s,
                seq: 1,
                outcome: ClientOutcome::Retry
            },
            Observation::BecameFollower { term: Term(7) },
        ]
    );
    let retry = RaftMessage::ClientReply {
        session: s,
        seq: 2,
        outcome: ClientOutcome::Retry,
    };
    assert_eq!(out.sends, vec![(NodeId(2), retry)]);
    // The heartbeat stops; re-arming the election timer is the engine's.
    assert_eq!(
        out.timers,
        vec![TimerCmd::Cancel {
            kind: TimerKind::Heartbeat
        }]
    );
    assert_eq!(
        (r.role, r.current_term, r.voted_for, r.leader_hint),
        (Role::Follower, Term(7), None, Some(NodeId(2)))
    );
    assert!(!r.reads.is_local(s, 1));

    // Same term again: nothing to persist, no heartbeat to cancel.
    out.clear();
    assert!(!r.become_follower(Term(7), None, &mut out));
    assert!(out.persists.is_empty() && out.timers.is_empty() && out.sends.is_empty());
    assert_eq!(r.leader_hint, Some(NodeId(2)), "no hint, none forgotten");
}

#[test]
fn vote_is_refused_during_a_lease_hold_and_for_a_non_member_without_adopting_the_term() {
    let timing = Timing::lan();
    let mut r = replica(0, 0..3, timing);
    let mut out = Out::new();
    // An append ack to leader 1 at t = 1 s carried a lease grant.
    let t0 = SimTime::from_millis(1_000);
    r.reads.set_local_clock(t0);
    assert_eq!(
        r.reads.emit_lease_grant(NodeId(1)),
        t0 + timing.lease_duration
    );

    assert_eq!(r.screen_vote_request(Term(9), NodeId(2), &mut out), None);
    assert_eq!(r.screen_vote_request(Term(9), NodeId(7), &mut out), None);
    assert_eq!(
        ignored(&out),
        vec![
            "vote request during lease hold",
            "vote request from non-member"
        ]
    );
    assert!(out.persists.is_empty() && out.sends.is_empty() && out.timers.is_empty());
    assert_eq!(
        r.current_term,
        Term::ZERO,
        "the candidate's term is not adopted"
    );
    // The leader the promise names may still ask; so may anyone once the
    // hold has run out on this node's clock.
    assert_eq!(
        r.screen_vote_request(Term(9), NodeId(1), &mut out),
        Some(true)
    );
    r.reads.set_local_clock(t0 + timing.lease_duration);
    assert_eq!(
        r.screen_vote_request(Term(9), NodeId(2), &mut out),
        Some(true)
    );

    // One vote per term, persisted before the reply, timer re-armed.
    out.clear();
    assert!(!r.grant_vote(NodeId(2), false, &mut out), "log behind ours");
    assert!(out.is_empty());
    assert!(r.grant_vote(NodeId(2), true, &mut out));
    assert_eq!(term_votes(&out), vec![(Term::ZERO, Some(NodeId(2)))]);
    assert!(matches!(
        out.timers[..],
        [TimerCmd::Set {
            kind: TimerKind::Election,
            ..
        }]
    ));
    out.clear();
    assert!(!r.grant_vote(NodeId(1), true, &mut out), "already voted");
    assert!(r.grant_vote(NodeId(2), true, &mut out), "a retry re-grants");
    // A request from an older term is answered (refused), not dropped.
    r.current_term = Term(3);
    assert_eq!(
        r.screen_vote_request(Term(2), NodeId(1), &mut out),
        Some(false)
    );
}

#[test]
fn tally_ignores_grants_from_sites_no_longer_in_the_configuration() {
    let mut r = replica(0, 0..5, Timing::lan());
    let mut out = Out::new();
    assert!(r.start_election(&mut out));
    assert_eq!(term_votes(&out), vec![(Term(1), Some(NodeId(0)))]);
    assert_eq!(r.on_vote_reply(NodeId(1), Term(1), false), Reply::Dropped);
    assert_eq!(r.on_vote_reply(NodeId(1), Term(0), true), Reply::Dropped);
    assert_eq!(r.on_vote_reply(NodeId(1), Term(2), true), Reply::NewerTerm);
    assert_eq!(r.on_vote_reply(NodeId(1), Term(1), true), Reply::Counted);
    assert_eq!(r.on_vote_reply(NodeId(1), Term(1), true), Reply::Counted);
    assert!(!r.won_election(), "a repeated grant counts once: 2 of 5");
    assert_eq!(r.on_vote_reply(NodeId(2), Term(1), true), Reply::Counted);
    assert!(r.won_election(), "3 of 5");
    // A configuration inserted mid-election drops 1 and 2: their grants no
    // longer count, 3's does.
    r.config = cfg([0, 3, 4]);
    assert!(!r.won_election(), "1 valid vote of 3");
    assert_eq!(r.on_vote_reply(NodeId(3), Term(1), true), Reply::Counted);
    assert!(r.won_election());
    // Not a candidate, no tally.
    r.become_leader(LogIndex(1), &mut out);
    assert_eq!(r.on_vote_reply(NodeId(4), Term(1), true), Reply::Dropped);
    assert!(!r.won_election());
}

#[test]
fn stale_install_snapshot_acks_actual_coverage_and_persists_nothing() {
    let members = cfg(0..3);
    let mut r = replica(2, 0..3, Timing::lan());
    r.current_term = Term(4);
    let mut out = Out::new();
    let leader = NodeId(0);
    assert!(r.install_snapshot(
        leader,
        Term(4),
        snapshot_at(5, 3, members.clone()),
        &mut out
    ));
    assert_eq!(r.commit_index, LogIndex(5));
    assert_eq!(out.persists.len(), 1);
    assert_eq!(
        out.observations,
        vec![Observation::SnapshotInstalled {
            scope: LogScope::Global,
            last_index: LogIndex(5)
        }]
    );
    assert!(out.sends.is_empty(), "the engine acks after its own sweep");

    let ack = |last_index| RaftMessage::InstallSnapshotReply {
        term: Term(4),
        last_index: LogIndex(last_index),
    };
    for (term, last_index, acked) in [(4, 5, 5), (4, 2, 5), (3, 9, 0)] {
        out.clear();
        let stale = snapshot_at(last_index, 3, members.clone());
        assert!(!r.install_snapshot(leader, Term(term), stale, &mut out));
        assert_eq!(out.sends, vec![(leader, ack(acked))]);
        assert!(out.persists.is_empty() && out.observations.is_empty());
        assert_eq!(r.commit_index, LogIndex(5));
        assert_eq!(
            r.applied.snapshot().map(|s| s.last_index),
            Some(LogIndex(5))
        );
    }
}

#[test]
fn install_drops_id_mappings_at_or_below_the_horizon_and_in_a_discarded_suffix() {
    let id = |i| EntryId::new(NodeId(0), i);
    let build = || {
        let mut r = replica(2, 0..3, Timing::lan());
        let mut out = Out::new();
        for i in 1..=6u64 {
            r.insert_entry(
                LogIndex(i),
                write_entry(i, SessionId::client(1), i),
                &mut out,
            );
        }
        assert_eq!(out.persists.len(), 6, "one write-ahead insert each");
        r.commit_index = LogIndex(3);
        r
    };
    let mapped = |r: &Replica| -> Vec<u64> {
        let mut v: Vec<u64> = (1..=6)
            .filter(|i| r.id_index.contains_key(&id(*i)))
            .collect();
        v.sort_unstable();
        v
    };
    // `write_entry` stamps Term(1): a snapshot whose boundary term matches
    // keeps the suffix above it, one that conflicts discards everything.
    let mut kept = build();
    assert_eq!(mapped(&kept), vec![1, 2, 3, 4, 5, 6]);
    let mut out = Out::new();
    assert!(kept.install_snapshot(NodeId(0), Term(0), snapshot_at(5, 1, cfg(0..3)), &mut out));
    assert_eq!(mapped(&kept), vec![6], "the horizon forgets 1 to 5");
    assert_eq!(kept.log.get(LogIndex(6)).map(|e| e.id), Some(id(6)));

    let mut forked = build();
    out.clear();
    assert!(forked.install_snapshot(NodeId(0), Term(0), snapshot_at(5, 2, cfg(0..3)), &mut out));
    assert_eq!(
        mapped(&forked),
        Vec::<u64>::new(),
        "the conflicting suffix goes too"
    );
    assert!(forked.log.get(LogIndex(6)).is_none());
    assert!(matches!(
        out.persists[..],
        [PersistCmd::InstallSnapshot { .. }]
    ));
    assert_eq!(forked.applied.index(), LogIndex(5));
}

#[test]
fn fan_out_shares_one_entry_list_per_next_index_and_snapshots_below_the_horizon() {
    let mut timing = Timing::lan();
    timing.snapshot_threshold = 2;
    let mut r = replica(0, 0..5, timing);
    let mut out = Out::new();
    for i in 1..=6u64 {
        r.insert_entry(
            LogIndex(i),
            write_entry(i, SessionId::client(1), i),
            &mut out,
        );
    }
    for k in 1..=4u64 {
        apply(&mut r.applied, &r.log, k, &mut out);
    }
    r.commit_index = LogIndex(4);
    r.maybe_compact(&mut out);
    assert_eq!(r.log.first_index(), LogIndex(5), "horizon at 4");
    elect(&mut r, &[1, 2], &mut out);
    // Voters 1 and 2 resume at 5, 3 is caught up, 4 and learner 9 fell
    // below the horizon.
    r.learners.insert(NodeId(9));
    for (peer, next) in [(1, 5), (2, 5), (3, 7), (4, 2), (9, 2)] {
        r.next_index.insert(NodeId(peer), LogIndex(next));
    }

    out.clear();
    r.start_heartbeats(LogIndex(6), &mut out);
    assert_eq!(
        out.timers,
        vec![
            TimerCmd::Cancel {
                kind: TimerKind::Election
            },
            TimerCmd::Set {
                kind: TimerKind::Heartbeat,
                after: timing.heartbeat
            },
        ]
    );
    // Ascending by resume point; within one, voters before learners.
    let to: Vec<u64> = out.sends.iter().map(|(n, _)| n.as_u64()).collect();
    assert_eq!(to, vec![4, 9, 1, 2, 3]);
    let snapshot = r.current_snapshot().expect("compacted");
    assert_eq!(snapshot.last_index, LogIndex(4));
    for (_, msg) in &out.sends[..2] {
        assert_eq!(
            *msg,
            RaftMessage::InstallSnapshot {
                term: Term(1),
                leader: NodeId(0),
                snapshot: snapshot.clone()
            }
        );
    }
    let batch = |msg: &RaftMessage| match msg {
        RaftMessage::AppendEntries {
            term: Term(1),
            leader: NodeId(0),
            prev_index,
            prev_term,
            entries,
            leader_commit: LogIndex(4),
            ..
        } => (*prev_index, *prev_term, entries.clone()),
        other => panic!("not an append: {other:?}"),
    };
    let (first, second, idle) = (
        batch(&out.sends[2].1),
        batch(&out.sends[3].1),
        batch(&out.sends[4].1),
    );
    assert_eq!((first.0, first.1), (LogIndex(4), Term(1)));
    let indices: Vec<LogIndex> = first.2.iter().map(|(i, _)| *i).collect();
    assert_eq!(indices, vec![LogIndex(5), LogIndex(6)]);
    assert_eq!(
        first.2.as_slice().as_ptr(),
        second.2.as_slice().as_ptr(),
        "one allocation for the run"
    );
    assert_eq!((idle.0, idle.1), (LogIndex(6), Term(1)));
    assert!(idle.2.is_empty(), "pure heartbeat");
}
