//! Metric names, units, and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the unit
//! test `names_match_benchmark_json` keeps the two in step.

use std::fmt::Write as _;

/// One metric's name and unit, as printed.
pub type MetricDef = (&'static str, &'static str);

/// The end-to-end metrics, printed by `perf` for every workload. Every
/// one is defined — and never zero — on all four workloads; the
/// client-visible numbers only some workloads can produce
/// (`commit_p50_ms`, `read_p99_ms`, `failover_ms`, …) are printed by
/// `perf-trace`, see [`PER_LAYER`].
pub const END_TO_END: [MetricDef; 7] = [
    ("wall_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("allocs_per_op", "count"),
    ("alloc_bytes_per_op", "B"),
    ("peak_heap_mb", "MB"),
    ("sim_ops_per_s", "1/s"),
    ("commit_mean_ms", "ms"),
];

/// The per-layer metrics, printed by `perf-trace`. A metric a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 66] = [
    // Client-visible, but not producible on every workload.
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("commit_top_pct", "%"),
    ("commit_top_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("failover_ms", "ms"),
    ("failed_share", "share"),
    // engine: raft + consensus-core, measured in situ.
    ("engine.steps_per_op", "count"),
    ("engine.busy_share", "share"),
    ("engine.global_share", "share"),
    ("engine.step_ns.client_request", "ns"),
    ("engine.step_ns.propose_at", "ns"),
    ("engine.step_ns.vote", "ns"),
    ("engine.step_ns.append_entries", "ns"),
    ("engine.step_ns.append_entries_reply", "ns"),
    ("engine.step_ns.timer", "ns"),
    ("engine.step_ns.other", "ns"),
    ("core.fast_track_ratio", "share"),
    ("core.hole_repairs_per_kop", "count"),
    ("core.global_lag_items", "count"),
    ("raft.elections", "count"),
    ("raft.elections_no_winner", "count"),
    // wire
    ("wire.bytes_per_msg", "B"),
    ("wire.encoded_len_ns_per_msg", "ns"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.log_append_ns", "ns"),
    ("wire.log_get_ns", "ns"),
    ("wire.log_collect_ns_per_entry", "ns"),
    ("wire.lease_read_share", "share"),
    ("wire.dup_suppressed_per_kop", "count"),
    // simnet
    ("simnet.msgs_per_op", "count"),
    ("simnet.bytes_per_op", "B"),
    ("simnet.inter_region_bytes_per_op", "B"),
    ("simnet.drop_share", "share"),
    ("simnet.judge_ns", "ns"),
    // storage
    ("storage.fsyncs_per_op", "count"),
    ("storage.cmds_per_fsync", "count"),
    ("storage.apply_batch_ns", "ns"),
    // des
    ("des.queue_ns_per_event", "ns"),
    ("des.wheel_ns_per_timer", "ns"),
    ("des.wheel_timers_per_op", "count"),
    ("des.wheel_cancel_share", "share"),
    // harness
    ("harness.retry_share", "share"),
    ("harness.peak_log_residency", "count"),
    ("harness.noop_event_ns", "ns"),
    // shard
    ("shard.events_per_op", "count"),
    ("shard.frames_per_op", "count"),
    ("shard.msgs_per_frame", "count"),
    ("shard.parks", "count"),
    ("shard.unparks", "count"),
    ("shard.route_ns", "ns"),
    // The ledger: estimated share of the untraced wall time per layer.
    ("ledger.engine_share", "share"),
    ("ledger.des_share", "share"),
    ("ledger.simnet_share", "share"),
    ("ledger.storage_share", "share"),
    ("ledger.wire_share", "share"),
    ("ledger.residual_share", "share"),
    // The measurement itself.
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
    ("trace.ns_per_op_untraced", "ns"),
    ("bench.wall_iqr_share", "share"),
    ("bench.ref_kernel_ms", "ms"),
    ("bench.reps", "count"),
    ("bench.seeds", "count"),
];

/// A run's result, rendered as the single JSON line the driver reads.
#[derive(Debug)]
pub struct ResultLine {
    /// Whether every output check passed.
    pub correct: bool,
    /// Client operations attempted over all measured repetitions.
    pub attempted: u64,
    /// Operations refused terminally, plus any shortfall against a count
    /// target at the simulated deadline.
    pub failed: u64,
    /// `(name, value)` for every metric of the table printed against.
    pub metrics: Vec<(&'static str, f64)>,
}

impl ResultLine {
    /// Renders the line. Values print with every digit `f64` holds.
    ///
    /// # Panics
    ///
    /// Panics unless `metrics` names exactly the metrics of `table`, in
    /// order, with finite values — a missing or extra name is a bug in
    /// the benchmark, not a measurement.
    pub fn render(&self, table: &[MetricDef]) -> String {
        assert_eq!(
            self.metrics.iter().map(|m| m.0).collect::<Vec<_>>(),
            table.iter().map(|m| m.0).collect::<Vec<_>>(),
            "printed metrics differ from the declared table"
        );
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        )
        .expect("writing to a String");
        for (i, ((name, value), (_, unit))) in self.metrics.iter().zip(table).enumerate() {
            assert!(value.is_finite(), "{name} is not finite: {value}");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::json::{parse, Value};

    fn names(doc: &Value, key: &str) -> Vec<String> {
        let Some(Value::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no array {key}");
        };
        items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let ours = |t: &[MetricDef]| t.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&doc, "end_to_end"), ours(&END_TO_END), "end_to_end");
        assert_eq!(names(&doc, "per_layer"), ours(&PER_LAYER), "per_layer");
        assert_eq!(
            names(&doc, "workloads"),
            crate::workloads::WORKLOADS.map(String::from).to_vec(),
            "workloads"
        );
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Value::Arr(items)) = doc.get(key) else {
                unreachable!()
            };
            for (item, (name, unit)) in items.iter().zip(table) {
                assert_eq!(
                    item.get("unit").and_then(Value::as_str),
                    Some(*unit),
                    "unit of {name}"
                );
            }
        }
    }

    #[test]
    fn names_use_only_the_allowed_characters_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let line = ResultLine {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| (m.0, 1.5 + i as f64))
                .collect(),
        }
        .render(&END_TO_END);
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("the result line parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.as_obj().unwrap().len(), END_TO_END.len());
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_num), Some(2.5));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    #[should_panic(expected = "differ from the declared table")]
    fn a_missing_metric_is_refused() {
        ResultLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![("wall_ops_per_s", 1.0)],
        }
        .render(&END_TO_END);
    }
}
