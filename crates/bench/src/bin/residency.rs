//! Deterministic long-run residency probe: peak per-site log residency
//! stays bounded by the snapshot threshold (compaction on) instead of
//! growing with run length (compaction off), at unchanged committed
//! throughput — including a rejoin-after-compaction for both Fast Raft and
//! C-Raft's global level. Exits non-zero if bounding or the rejoin path
//! regresses; `--json` feeds the throughput/bound series to the CI gate.

fn main() {
    let opts = bench::BenchOpts::from_args();
    let (secs, threshold): (u64, u64) = if opts.quick { (60, 64) } else { (240, 128) };
    let seed = opts.seed_list()[0];
    let result = harness::experiments::residency::run(seed, secs, threshold);
    print!("{}", result.render());
    for cell in &result.cells {
        // Hard bound: the retained log may exceed the threshold only by the
        // uncommitted in-flight window (C-Raft sites hold two logs, so allow
        // both scopes' thresholds plus slack).
        let bound = 2 * threshold + 96;
        assert!(
            cell.peak_on <= bound,
            "{}: peak residency {} exceeds bound {} (threshold {})",
            cell.protocol,
            cell.peak_on,
            bound,
            threshold
        );
        assert!(
            cell.peak_off > bound,
            "{}: compaction-off peak {} never exceeded the bound — run too \
             short to demonstrate bounding",
            cell.protocol,
            cell.peak_off
        );
        assert!(
            cell.compactions > 0 && cell.snapshot_installs > 0,
            "{}: compaction ({}) or snapshot rejoin ({}) never exercised",
            cell.protocol,
            cell.compactions,
            cell.snapshot_installs
        );
        // Unchanged throughput: compaction must not cost more than 20%.
        assert!(
            cell.tput_on >= 0.8 * cell.tput_off,
            "{}: throughput dropped with compaction on ({:.1} vs {:.1})",
            cell.protocol,
            cell.tput_on,
            cell.tput_off
        );
    }
    opts.write_json(&result.to_json());
}
