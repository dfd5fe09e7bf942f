//! The `--json` series of the experiments, as `ci/figures.sh` records them
//! in the `ci/figures/` ledger: each `to_json()` must parse with
//! `bench::json`, carry its bench name, exactly the series keys its ledger
//! file holds, and only finite values. Parameters are the binaries'
//! `--quick --seeds 1` ones.

use bench::json::{parse, Value};
use harness::experiments::{ext, fig3, fig4, rounds};

fn assert_series(json: &str, bench: &str, keys: &[&str]) {
    let doc = parse(json).unwrap_or_else(|e| panic!("{bench}: {e}\n{json}"));
    assert_eq!(doc.get("bench").and_then(Value::as_str), Some(bench));
    let series = doc
        .get("series")
        .and_then(Value::as_obj)
        .expect("series object");
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
            "raft/0",
            "fast/0",
            "ftr/0",
            "raft/5",
            "fast/5",
            "ftr/5",
            "raft/10",
            "fast/10",
            "ftr/10",
            "speedup_at_zero",
        ],
    );
}

#[test]
fn fig4_series_is_the_phase_summary() {
    let json = fig4::run(4242, 6, 14).to_json();
    assert_series(
        &json,
        "fig4",
        &[
            "before_ms",
            "peak_after_ms",
            "recovered_ms",
            "members_suspected",
        ],
    );
}

#[test]
fn rounds_series_is_the_two_hop_counts() {
    let json = rounds::run(42, 10).to_json();
    assert_series(&json, "rounds", &["raft_hops", "fast_hops"]);
}

#[test]
fn ext_mode_series_is_both_modes_per_cluster_count() {
    let json = ext::mode_ablation(7, &[2, 4, 10], 20).to_json();
    assert_series(
        &json,
        "ext_mode",
        &[
            "broadcast/2",
            "forward/2",
            "broadcast/4",
            "forward/4",
            "broadcast/10",
            "forward/10",
        ],
    );
}

#[test]
fn ext_contention_series_has_three_rows_per_proposer_count() {
    let json = ext::contention(7, 5, 10).to_json();
    let keys: Vec<String> = (1..=5)
        .flat_map(|k| ["lat", "ftr", "tput"].map(|m| format!("{m}/{k}")))
        .collect();
    assert_series(
        &json,
        "ext_contention",
        &keys.iter().map(String::as_str).collect::<Vec<_>>(),
    );
}
