//! Quickstart: run a five-site Fast Raft group on the deterministic
//! simulator through the **typed client API** — session clients issue
//! exactly-once writes and linearizable reads, watch the fast track commit,
//! and finish with a "read your writes back" handshake.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hierarchical_consensus::bench::{run_fast_raft, ReadMix, Scenario};
use hierarchical_consensus::types::Consistency;

fn main() {
    // The paper's base setting (Fig. 3): five sites in one region,
    // sub-millisecond RTT, one closed-loop session client, no loss. On top
    // of the paper's all-write evaluation: one in four operations is a
    // linearizable read, and the run ends with a final linearizable read
    // that must reflect every completed write (checked online).
    let mut scenario = Scenario::fig3_base(/* seed */ 7, /* loss */ 0.0);
    scenario.target_commits = Some(25);
    scenario.reads = Some(ReadMix {
        ratio: 0.25,
        consistency: Consistency::Linearizable,
        final_read: true,
    });

    let (report, metrics) = run_fast_raft(&scenario);

    println!("fast raft, 5 sites, 0% loss, 25 session ops (25% linearizable reads)");
    println!("---------------------------------------------------------------------");
    println!("client ops completed : {}", report.completed);
    println!(
        "write latency        : mean {:.1} ms, p95 {:.1} ms",
        report.latency.mean_ms, report.latency.p95_ms
    );
    println!(
        "read latency         : mean {:.1} ms, p95 {:.1} ms (ReadIndex round)",
        report.read_latency.mean_ms, report.read_latency.p95_ms
    );
    println!(
        "fast-track ratio     : {:.0}% of leader commits",
        report.fast_track_ratio * 100.0
    );
    println!(
        "linearizability      : {} reads verified against completed writes",
        report.lin_reads_checked
    );
    println!(
        "exactly-once         : {} duplicate suppressions, {} client retries",
        report.duplicates_suppressed, report.client_retries
    );
    println!(
        "network              : {} messages offered, {} delivered",
        report.net.offered, report.net.delivered
    );
    println!(
        "safety               : {}",
        if report.safety_ok { "OK" } else { "VIOLATED" }
    );

    println!("\nfirst operations:");
    for sample in metrics.samples.iter().take(3) {
        println!(
            "  write by {} at t={:.3}s -> committed {:.1} ms later",
            sample.proposer,
            sample.proposed_at.as_secs_f64(),
            sample.latency().as_millis_f64()
        );
    }
    for sample in metrics.read_samples.iter().take(2) {
        println!(
            "  read  by {} at t={:.3}s -> answered  {:.1} ms later",
            sample.proposer,
            sample.proposed_at.as_secs_f64(),
            sample.latency().as_millis_f64()
        );
    }
}
