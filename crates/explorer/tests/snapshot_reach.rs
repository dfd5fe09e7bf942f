//! A setup's snapshot threshold takes every protocol below its compaction
//! horizon: explorations compact logs and deliver `InstallSnapshot`s.
//!
//! Under `Timing::lan()` (threshold 1,024) no exploration compacts
//! anything, so a threshold of 2 on every log is what exercises the
//! engines' snapshot installs, the gateway's post-install sweep, C-Raft's
//! global snapshot catch-up and the commit book's horizon.

use explorer::{explore_setup, strategy, Proto, Setup};

/// `(compactions, installs)` summed over explorations of the default shape
/// with a snapshot threshold of 2, every strategy per seed, stopping once
/// both show.
fn reach(proto: Proto, sites: u64, clusters: u64) -> (u64, u64) {
    let (mut compactions, mut installs) = (0, 0);
    for seed in 0..50 {
        let setup = Setup {
            sites,
            clusters,
            ops: 3,
            read_every: 3,
            snapshot: Some(2),
            ..Setup::small(proto, seed)
        };
        for name in ["random", "delay", "hammer"] {
            let mut strat = strategy::by_name(name, seed).expect("known strategy");
            let report = explore_setup(&setup, strat.as_mut(), 1_000);
            compactions += report.snapshots.0;
            installs += report.snapshots.1;
        }
        if compactions > 0 && installs > 0 {
            break;
        }
    }
    (compactions, installs)
}

#[test]
fn every_protocol_compacts_and_installs_a_snapshot() {
    for (proto, sites, clusters) in [
        (Proto::Raft, 3, 0),
        (Proto::Fast, 3, 0),
        (Proto::Gated, 3, 0),
        (Proto::Craft, 4, 2),
    ] {
        let (compactions, installs) = reach(proto, sites, clusters);
        assert!(
            compactions > 0 && installs > 0,
            "{}: {compactions} compactions, {installs} snapshot installs",
            proto.name()
        );
    }
}

/// Without the key, a trace header means what it meant before it existed.
#[test]
fn a_header_without_a_snapshot_key_keeps_the_default_thresholds() {
    let text = "explorer-trace v1\nproto=fast sites=3 clusters=0 seed=1 ops=1 read-every=0 lanes=1 register=0\n";
    let trace = explorer::Trace::parse(text).expect("parse");
    assert_eq!(trace.setup.snapshot, None);
    assert!(!trace.to_text().contains("snapshot="));
}
