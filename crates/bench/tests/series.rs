//! The `--json` series of the paper-figure experiments, as the CI gate reads
//! them: each `to_json()` must parse with `bench::json`, carry its bench
//! name, exactly the series keys `ci/bench_baseline.json` names, and only
//! finite values. Parameters are the binaries' `--quick --seeds 1` ones.

use bench::json::{parse, Value};
use harness::experiments::{fig3, fig4, rounds};

fn assert_series(json: &str, bench: &str, keys: &[&str]) {
    let doc = parse(json).unwrap_or_else(|e| panic!("{bench}: {e}\n{json}"));
    assert_eq!(doc.get("bench").and_then(Value::as_str), Some(bench));
    let series = doc.get("series").and_then(Value::as_obj).expect("series object");
    let mut want = keys.to_vec();
    want.sort_unstable();
    assert_eq!(series.keys().map(String::as_str).collect::<Vec<_>>(), want);
    for (key, value) in series {
        assert!(
            value.as_num().is_some_and(f64::is_finite),
            "{bench}/{key} is not a finite number: {value:?}"
        );
    }
}

#[test]
fn fig3_series_has_three_rows_per_loss_and_the_speedup() {
    let json = fig3::run(&[1000], &[0.0, 5.0, 10.0], 30).to_json();
    assert_series(
        &json,
        "fig3",
        &[
            "raft/0", "fast/0", "ftr/0", "raft/5", "fast/5", "ftr/5", "raft/10", "fast/10",
            "ftr/10", "speedup_at_zero",
        ],
    );
}

#[test]
fn fig4_series_is_the_phase_summary() {
    let json = fig4::run(4242, 6, 14).to_json();
    assert_series(
        &json,
        "fig4",
        &["before_ms", "peak_after_ms", "recovered_ms", "members_suspected"],
    );
}

#[test]
fn rounds_series_is_the_two_hop_counts() {
    let json = rounds::run(42, 10).to_json();
    assert_series(&json, "rounds", &["raft_hops", "fast_hops"]);
}
