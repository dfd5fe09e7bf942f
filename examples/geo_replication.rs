//! Geo-replication with C-Raft — the paper's headline use case (§V), driven
//! through the typed client API.
//!
//! Three clusters of three sites each, spread across regions with AWS-like
//! inter-region latency. Session clients write with exactly-once semantics
//! and are acknowledged at **local** commit (sub-100 ms); one in five
//! operations is a **linearizable read**, which in C-Raft is a *global*
//! read — answered at the global commit floor from the cluster leader's
//! **recursive lease** when it is live (zero wide-area messages; see
//! docs/CONSISTENCY.md), falling back to a ReadIndex round through the
//! global engine otherwise — and every run ends with a final linearizable
//! read per client ("read your writes back"). Batches of ten flow into the
//! totally ordered global log in the background.
//!
//! ```text
//! cargo run --example geo_replication
//! ```

use hierarchical_consensus::bench::{run_craft, CRaftScenario, NetworkKind, ReadMix, Scenario};
use hierarchical_consensus::protocols::{ProposalMode, Timing};
use hierarchical_consensus::sim::SimDuration;
use hierarchical_consensus::types::{Consistency, NodeId, MAX_BYTES_PER_APPEND};

fn main() {
    let scenario = Scenario {
        seed: 11,
        sites: 9,
        network: NetworkKind::Regions { regions: 3 },
        loss: 0.0,
        timing: Timing::lan(),
        // One closed-loop session client per cluster.
        proposers: vec![NodeId(1), NodeId(4), NodeId(7)],
        payload_bytes: 64,
        target_commits: Some(400),
        duration: SimDuration::from_secs(120),
        warmup: SimDuration::from_secs(10),
        faults: Vec::new(),
        leader_bias: None,
        reads: Some(ReadMix {
            ratio: 0.2,
            consistency: Consistency::Linearizable,
            final_read: true,
        }),
        unbatched_persists: false,
    };
    let craft = CRaftScenario {
        clusters: 3,
        batch_size: 10,
        max_batch_bytes: MAX_BYTES_PER_APPEND,
        global_snapshot_threshold: Timing::wan().snapshot_threshold,
        global_timing: Timing::wan(),
        global_proposal_mode: ProposalMode::LeaderForward,
    };

    let (report, metrics) = run_craft(&scenario, &craft);

    println!("c-raft: 3 clusters x 3 sites across regions, sessions + 20% global reads");
    println!("-------------------------------------------------------------------------");
    println!(
        "write latency (local ack) : mean {:.1} ms - the hierarchy's fast path",
        report.latency.mean_ms
    );
    println!(
        "read latency (global)     : mean {:.1} ms, p95 {:.1} ms",
        report.read_latency.mean_ms, report.read_latency.p95_ms
    );
    println!(
        "read path split           : {} lease-served (zero messages), {} paid the",
        report.lease_reads, report.readindex_reads
    );
    println!("                            cross-region ReadIndex round (docs/CONSISTENCY.md)");
    println!(
        "global log throughput     : {:.1} entries/s ({} total)",
        report.throughput_per_s, report.global_items
    );
    println!(
        "session ops completed     : {} ({} writes, {} reads)",
        report.completed,
        metrics.samples.len(),
        metrics.read_samples.len()
    );
    println!(
        "linearizability           : {} global reads verified (floor never below",
        report.lin_reads_checked
    );
    println!("                            a previously completed global operation)");
    println!(
        "exactly-once              : {} duplicate suppressions, {} client retries",
        report.duplicates_suppressed, report.client_retries
    );
    println!(
        "wide-area traffic         : {} KiB inter-region, {} KiB intra-region",
        report.net.inter_region_bytes / 1024,
        report.net.intra_region_bytes / 1024
    );
    println!(
        "safety                    : {}",
        if report.safety_ok { "OK" } else { "VIOLATED" }
    );
    println!();
    println!(
        "note: clients see ~{:.0}ms local write acks; global linearizable reads \
         cost ~{:.0}ms - routing to the leaseholder, with the wide-area \
         confirmation round amortized away by the recursive lease - the \
         consistency spectrum the hierarchy buys.",
        report.latency.mean_ms, report.read_latency.mean_ms
    );
}
