//! One module per figure of the paper's evaluation, plus extension studies.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`rounds`] | Figs. 1–2: message rounds per commit (classic 4 one-way hops proposer→notify, fast 3) |
//! | [`fig3`] | Fig. 3: mean commit latency vs. message loss, classic vs Fast Raft |
//! | [`fig4`] | Fig. 4: latency time series across a silent leave of 2/5 sites |
//! | [`fig5`] | Fig. 5: global throughput vs. cluster count, classic Raft vs C-Raft |
//! | [`ext`]  | Extensions: global proposal mode, batch-size sweep, proposer contention |
//! | [`residency`] | Long-run log residency: snapshot compaction bounds per-site memory |
//! | [`read_mix`] | Client-API probe: 50/50 linearizable-read/write sessions, dedup + lin-check |
//! | [`lease_mix`] | Leader-lease probe: lease-on vs lease-off twins on a read-heavy lin workload |
//! | [`commit_path`] | Write-path probe: group commit vs unbatched fsyncs |
//!
//! Each experiment returns a structured result with a `render()` method that
//! prints the same rows/series the paper reports; the `bench` crate exposes
//! one binary per experiment.

pub mod commit_path;
pub mod ext;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod lease_mix;
pub mod read_mix;
pub mod residency;
pub mod rounds;

/// Formats a floating value for experiment tables.
pub(crate) fn fmt_ms(v: f64) -> String {
    format!("{v:8.2}")
}
