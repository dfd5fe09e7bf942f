//! `perf-trace` — the traced run: per-layer metrics and spans.
//!
//! For each of the run's five seeds, one untraced repetition (the facade,
//! exactly what `perf` times) and one traced repetition (every node wrapped
//! in [`traced::Traced`] on the real runner), which must agree on completed
//! operations, messages offered and simulated end time. Then the replays
//! of [`replay`], at the sizes the traced repetitions observed. Then, until
//! `--seconds` is used, alternating untraced/traced pairs that firm up
//! `trace.overhead_share`. Aggregates stay in memory; the first 50 000 raw
//! spans go to `perf/out/<workload>.spans.jsonl` at exit.
//!
//! **The ledger.** `ledger.<layer>_share` is that layer's estimated time
//! as a share of the *untraced* wall time: engine time is measured in situ;
//! the other layers are replayed cost × exact count. What the five do not
//! explain — runner dispatch, `Metrics`, `SafetyChecker`, client workload
//! generation, and anything nobody has looked for yet — is
//! `ledger.residual_share`, printed, never hidden. `SparseLog` and lease
//! costs are *inside* the engine span (the engines own their logs), so
//! `wire.log_*` explain `engine.step_ns.*` and are not added to
//! `ledger.wire_share` a second time.

mod deploy;
mod replay;
mod traced;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use harness::{run_craft, run_fast_raft, Metrics, RunReport, Scenario};
use perf::args::Args;
use perf::output::{ResultLine, PER_LAYER};
use perf::stats::{iqr_share, largest_gap, median, percentile_sorted, supported_percentile};
use perf::workloads::{
    generate, Inputs, CHURN_CRASH_AT, FAILOVER_SEARCH, SHARD_WINDOW_FROM, SHARD_WINDOW_UNTIL,
};
use shard::ShardConfig;
use simnet::{Network, Verdict};
use traced::{MsgClass, Shared, Sink, Span, StepKind, Traced, SPAN_CAP};
use wire::{Message, NodeId, PersistCmd, Wire};

/// The in-situ measurements of every traced first-pass repetition, merged.
struct Agg<M> {
    durations: [Vec<u32>; StepKind::COUNT],
    busy_ns: u64,
    global_ns: u64,
    steps: u64,
    sends: u64,
    persist_steps: u64,
    persist_cmds: u64,
    timers_set: u64,
    /// Spans of the first repetition, and that repetition's length.
    spans: Vec<Span>,
    rep_ns: u64,
    rep_seed: u64,
    msgs: Vec<(NodeId, NodeId, M)>,
    /// Persist batches of the first repetition (see `traced::PERSIST_CAP`).
    persists: Vec<(u64, NodeId, Vec<PersistCmd>)>,
}

impl<M: Clone> Agg<M> {
    fn new() -> Self {
        Agg {
            durations: Default::default(),
            busy_ns: 0,
            global_ns: 0,
            steps: 0,
            sends: 0,
            persist_steps: 0,
            persist_cmds: 0,
            timers_set: 0,
            spans: Vec::new(),
            rep_ns: 0,
            rep_seed: 0,
            msgs: Vec::new(),
            persists: Vec::new(),
        }
    }

    fn absorb(&mut self, seed: u64, sink: Shared<M>) {
        let rep_ns = sink.borrow().elapsed_ns();
        let s = std::rc::Rc::try_unwrap(sink)
            .unwrap_or_else(|_| panic!("the runner and its nodes are gone"))
            .into_inner();
        for (mine, theirs) in self.durations.iter_mut().zip(s.durations) {
            mine.extend(theirs);
        }
        self.busy_ns += s.busy_ns;
        self.global_ns += s.global_ns;
        self.steps += s.steps;
        self.sends += s.sends;
        self.persist_steps += s.persist_steps;
        self.persist_cmds += s.persist_cmds;
        self.timers_set += s.timers_set;
        if self.spans.is_empty() {
            self.spans = s.spans;
            self.rep_ns = rep_ns;
            self.rep_seed = seed;
            self.persists = s.persist_corpus;
        }
        self.msgs.extend(s.msg_corpus);
    }
}

/// Exact counters summed over the first-pass repetitions (whole runs
/// unless a field says otherwise), plus pooled latency samples.
#[derive(Default)]
struct Totals {
    /// Client operations completed in the window / attempted / failed.
    ops: u64,
    failed: u64,
    sim_window_s: f64,
    /// Untraced and traced wall seconds of the first pass.
    untraced_s: f64,
    traced_s: f64,
    offered: u64,
    delivered: u64,
    dropped: u64,
    bytes: u64,
    inter_region_bytes: u64,
    persist_batches: u64,
    persist_cmds: u64,
    fast_commits: u64,
    classic_commits: u64,
    hole_repairs: u64,
    elections: u64,
    leaderships: u64,
    client_retries: u64,
    duplicates: u64,
    lease_reads: u64,
    readindex_reads: u64,
    residency_peak: u64,
    global_lag_items: u64,
    write_us: Vec<u64>,
    read_us: Vec<u64>,
    /// `failover_ms` per seed (fault workloads only).
    failover_ms: Vec<f64>,
    /// Shard fabric only.
    shard: ShardTotals,
}

#[derive(Default)]
struct ShardTotals {
    events_total: u64,
    events_window: u64,
    frames_window: u64,
    group_msgs_window: u64,
    timers_set: u64,
    timers_cancelled: u64,
    parks: u64,
    unparks: u64,
    wheel_len: usize,
}

/// Replayed costs, ns per call.
#[derive(Default)]
struct Replayed {
    encoded_len: f64,
    encode: f64,
    decode: f64,
    judge: f64,
    apply_batch: f64,
    queue: f64,
    wheel: f64,
    route: f64,
    log_append: f64,
    log_get: f64,
    log_collect: f64,
    noop_event: f64,
}

/// Untraced/traced wall pairs and the canary, over the whole run.
#[derive(Default)]
struct Pairs {
    overhead: Vec<f64>,
    untraced_rates: Vec<f64>,
    ref_kernel_ms: Vec<f64>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

fn same_schedule(seed: u64, bare: &RunReport, traced: &RunReport) {
    let key = |r: &RunReport| {
        (
            r.completed,
            r.net.offered,
            r.sim_seconds.to_bits(),
            r.persist_batches,
            r.commits_checked,
        )
    };
    assert_eq!(
        key(bare),
        key(traced),
        "seed {seed}: the traced run left the untraced schedule"
    );
}

impl Totals {
    fn absorb_harness(&mut self, s: &Scenario, r: &RunReport, m: &Metrics) {
        assert!(r.safety_ok, "seed {}: safety violated", s.seed);
        self.ops += (m.samples.len() + m.read_samples.len()) as u64;
        self.failed += s
            .target_commits
            .map_or(0, |t| t.saturating_sub(r.completed))
            + m.sessions_expired;
        self.sim_window_s += r.sim_seconds - s.warmup.as_secs_f64();
        self.offered += r.net.offered;
        self.delivered += r.net.delivered;
        self.dropped += r.net.dropped_loss + r.net.dropped_partition + r.net.dropped_down;
        self.bytes += m.bytes_sent;
        self.inter_region_bytes += r.net.inter_region_bytes;
        self.persist_batches += r.persist_batches;
        self.persist_cmds += r.persist_cmds;
        self.fast_commits += r.fast_commits;
        self.classic_commits += r.classic_commits;
        self.hole_repairs += r.hole_repairs;
        self.elections += r.elections;
        self.leaderships += r.leaderships;
        self.client_retries += r.client_retries;
        self.duplicates += r.duplicates_suppressed;
        self.lease_reads += r.lease_reads;
        self.readindex_reads += r.readindex_reads;
        self.residency_peak = self.residency_peak.max(r.peak_log_residency);
        self.write_us
            .extend(m.samples.iter().map(|x| x.latency().as_micros()));
        self.read_us
            .extend(m.read_samples.iter().map(|x| x.latency().as_micros()));
        if !s.faults.is_empty() {
            let mut done: Vec<u64> = m
                .samples
                .iter()
                .chain(&m.read_samples)
                .map(|x| x.committed_at.as_micros())
                .collect();
            done.sort_unstable();
            let from = CHURN_CRASH_AT.as_micros();
            let gap = largest_gap(&done, from, from + FAILOVER_SEARCH.as_micros());
            self.failover_ms.push(gap as f64 / 1e3);
        }
    }
}

/// The replays both runners share, on what the first pass sampled.
/// `parked_events` is the part of the pending-queue depth that is not
/// messages in flight; `log` is `(residency, payload bytes, budget)`.
fn replay_common<M: Message + Wire>(
    agg: &Agg<M>,
    net: impl Fn() -> Network,
    parked_events: f64,
    offered_per_sim_s: f64,
    log: (u64, usize, wire::AppendBudget),
    group_commit: bool,
) -> Replayed {
    let msgs: Vec<M> = agg.msgs.iter().map(|(_, _, m)| m.clone()).collect();
    let triples: Vec<_> = agg
        .msgs
        .iter()
        .map(|(from, to, m)| (*from, *to, m.wire_size()))
        .collect();
    let depth = parked_events + offered_per_sim_s * mean_delay_s(net(), &triples);
    let (encode, decode) = replay::codec_ns(&msgs);
    let (log_append, log_get, log_collect) = replay::sparse_log_ns(log.0, log.1, log.2);
    Replayed {
        encoded_len: replay::encoded_len_ns(&msgs),
        encode,
        decode,
        judge: replay::judge_ns(net(), &triples),
        apply_batch: replay::apply_batch_ns(&agg.persists, group_commit),
        queue: replay::queue_ns(depth as usize),
        log_append,
        log_get,
        log_collect,
        noop_event: replay::noop_event_ns(),
        ..Replayed::default()
    }
}

/// Mean one-way delay the network hands out for the sampled triples.
fn mean_delay_s(mut net: Network, triples: &[(NodeId, NodeId, usize)]) -> f64 {
    let mut rng = des::SimRng::seed_from_u64(0xDE1A);
    let (mut sum, mut n) = (0.0, 0u64);
    for &(from, to, bytes) in triples {
        if let Verdict::Deliver { after } = net.judge(from, to, bytes, &mut rng) {
            sum += after.as_secs_f64();
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

/// Uses what is left of the time on untraced/traced pairs, alternating
/// which side runs first and cycling the `inputs` seeds. `bare(i)` returns
/// `(wall seconds, window operations)`, `traced(i)` wall seconds.
fn alternate(
    pairs: &mut Pairs,
    inputs: usize,
    deadline: Instant,
    bare: impl Fn(usize) -> (f64, f64),
    traced: impl Fn(usize) -> f64,
) {
    let mut turn = 0;
    while Instant::now() < deadline {
        let i = turn % inputs;
        pairs.ref_kernel_ms.push(replay::ref_kernel_ms());
        let ((tu, ops), tt) = if turn % 2 == 0 {
            let u = bare(i);
            (u, traced(i))
        } else {
            let t = traced(i);
            (bare(i), t)
        };
        pairs.overhead.push(tt / tu - 1.0);
        pairs.untraced_rates.push(ops / tu);
        turn += 1;
    }
}

/// The whole traced run of a `harness` workload.
fn harness_flow<M>(
    scenarios: &[Scenario],
    craft: bool,
    bare: impl Fn(&Scenario) -> (RunReport, Metrics),
    traced: impl Fn(&Scenario, Shared<M>) -> (RunReport, Metrics),
    deadline: Instant,
) -> (Totals, Agg<M>, Replayed, Pairs)
where
    M: Message + Wire + MsgClass,
{
    let (mut totals, mut agg, mut pairs) = (Totals::default(), Agg::new(), Pairs::default());
    let window_ops = |m: &Metrics| (m.samples.len() + m.read_samples.len()) as f64;
    for s in scenarios {
        pairs.ref_kernel_ms.push(replay::ref_kernel_ms());
        let (tu, (ru, mu)) = timed(|| bare(s));
        let sink = Sink::shared();
        let (tt, (rt, mt)) = timed(|| traced(s, sink.clone()));
        same_schedule(s.seed, &ru, &rt);
        totals.absorb_harness(s, &rt, &mt);
        if craft {
            totals.global_lag_items += rt.completed.saturating_sub(rt.global_items);
        }
        totals.untraced_s += tu;
        totals.traced_s += tt;
        pairs.overhead.push(tt / tu - 1.0);
        pairs.untraced_rates.push(window_ops(&mu) / tu);
        agg.absorb(s.seed, sink);
    }

    let s0 = &scenarios[0];
    let sim_s = totals.sim_window_s;
    let replayed = replay_common(
        &agg,
        || deploy::network(s0),
        // Armed timers, plus the 2 s client-timeout event every op parks.
        s0.sites as f64 * 3.0 + totals.ops as f64 / sim_s * 2.0,
        totals.offered as f64 / sim_s,
        (
            totals.residency_peak,
            s0.payload_bytes,
            s0.timing.append_budget(),
        ),
        true,
    );

    alternate(
        &mut pairs,
        scenarios.len(),
        deadline,
        |i| {
            let (t, (_, m)) = timed(|| bare(&scenarios[i]));
            (t, window_ops(&m))
        },
        |i| timed(|| traced(&scenarios[i], Sink::shared())).0,
    );
    (totals, agg, replayed, pairs)
}

/// The whole traced run of the shard workload.
fn shard_flow(
    cfgs: &[ShardConfig],
    timing: raft::Timing,
    deadline: Instant,
) -> (Totals, Agg<raft::RaftMessage>, Replayed, Pairs) {
    let (mut totals, mut agg, mut pairs) = (Totals::default(), Agg::new(), Pairs::default());
    // Untraced: the same calls `perf` makes, engines unwrapped.
    let bare = |cfg: &ShardConfig| deploy::shard(cfg, timing, |_, n| n);
    let traced = |cfg: &ShardConfig, sink: Shared<raft::RaftMessage>| {
        deploy::shard(cfg, timing, move |g, n| {
            Traced::new(n, g.as_u32() as u64, sink.clone())
        })
    };
    let fingerprint =
        |m: &shard::ShardMetrics| [m.completed_total, m.frames_window, m.events_total];
    let window_s = SHARD_WINDOW_UNTIL
        .saturating_since(SHARD_WINDOW_FROM)
        .as_secs_f64();
    for cfg in cfgs {
        pairs.ref_kernel_ms.push(replay::ref_kernel_ms());
        let untraced = bare(cfg);
        let sink = Sink::shared();
        let run = traced(cfg, sink.clone());
        let m = &run.metrics;
        assert_eq!(
            fingerprint(&untraced.metrics),
            fingerprint(m),
            "seed {}: the traced run left the untraced schedule",
            cfg.seed
        );
        totals.ops += m.completed_window;
        totals.sim_window_s += window_s;
        totals.untraced_s += untraced.wall_s;
        totals.traced_s += run.wall_s;
        totals.elections += m.elections;
        totals.leaderships += m.leader_changes;
        totals.client_retries += m.retries;
        let sh = &mut totals.shard;
        sh.events_total += m.events_total;
        sh.events_window += m.events_window;
        sh.frames_window += m.frames_window;
        sh.group_msgs_window += m.group_msgs_window;
        sh.timers_set += m.timers_set;
        sh.timers_cancelled += m.timers_cancelled;
        sh.parks += m.parks;
        sh.unparks += m.unparks;
        sh.wheel_len = sh.wheel_len.max(run.wheel_len);
        pairs.overhead.push(run.wall_s / untraced.wall_s - 1.0);
        pairs
            .untraced_rates
            .push(m.completed_window as f64 / untraced.wall_s);
        agg.absorb(cfg.seed, sink);
    }

    let cfg0 = &cfgs[0];
    let sh = &totals.shard;
    // Per-group logs stay short: a group sees 1/groups of the writes and
    // compacts at the snapshot threshold.
    let residency = (totals.ops / cfgs.len() as u64 / cfg0.groups as u64)
        .min(timing.snapshot_threshold.max(64));
    let timers_fired = agg.durations[StepKind::Timer as usize].len();
    let mut replayed = replay_common(
        &agg,
        || Network::reliable_lan((0..cfg0.procs).map(NodeId)),
        // The 2 s resubmission guard every op parks.
        totals.ops as f64 / totals.sim_window_s * 2.0,
        sh.frames_window as f64 / totals.sim_window_s,
        (
            residency,
            cfg0.workload.payload_bytes,
            timing.append_budget(),
        ),
        false,
    );
    replayed.wheel = replay::wheel_ns(
        sh.wheel_len,
        sh.timers_set as f64 / timers_fired.max(1) as f64,
    );
    replayed.route = replay::route_ns(cfg0.groups, cfg0.workload.keys);
    totals.residency_peak = residency;

    alternate(
        &mut pairs,
        cfgs.len(),
        deadline,
        |i| {
            let r = bare(&cfgs[i]);
            (r.wall_s, r.metrics.completed_window as f64)
        },
        |i| traced(&cfgs[i], Sink::shared()).wall_s,
    );
    (totals, agg, replayed, pairs)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median_ns(durations: &mut [u32]) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    let mid = durations.len() / 2;
    *durations.select_nth_unstable(mid).1 as f64
}

/// Every per-layer metric, by name.
fn layer_metrics<M: Message>(
    is_shard: bool,
    seeds: usize,
    t: &mut Totals,
    agg: &mut Agg<M>,
    r: &Replayed,
    pairs: &Pairs,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let ops = t.ops as f64;
    let kops = ops / 1e3;
    let untraced_ns = t.untraced_s * 1e9;
    let sh = &t.shard;

    // Client-visible numbers not every workload can produce.
    t.write_us.sort_unstable();
    t.read_us.sort_unstable();
    let ms = |us: u64| us as f64 / 1e3;
    out.insert("commit_p50_ms", ms(percentile_sorted(&t.write_us, 0.5)));
    out.insert("commit_p99_ms", ms(percentile_sorted(&t.write_us, 0.99)));
    let top = supported_percentile(t.write_us.len()).unwrap_or(0.0);
    out.insert("commit_top_pct", top * 100.0);
    out.insert("commit_top_ms", ms(percentile_sorted(&t.write_us, top)));
    out.insert("read_p50_ms", ms(percentile_sorted(&t.read_us, 0.5)));
    out.insert("read_p99_ms", ms(percentile_sorted(&t.read_us, 0.99)));
    let failover = if t.failover_ms.is_empty() {
        0.0
    } else {
        median(&t.failover_ms)
    };
    out.insert("failover_ms", failover);
    out.insert(
        "failed_share",
        ratio(t.failed as f64, ops + t.failed as f64),
    );

    // engine, in situ.
    out.insert("engine.steps_per_op", ratio(agg.steps as f64, ops));
    out.insert(
        "engine.busy_share",
        ratio(agg.busy_ns as f64, t.traced_s * 1e9),
    );
    out.insert(
        "engine.global_share",
        ratio(agg.global_ns as f64, agg.busy_ns as f64),
    );
    for kind in StepKind::ALL {
        out.insert(kind.metric(), median_ns(&mut agg.durations[kind as usize]));
    }
    let commits = (t.fast_commits + t.classic_commits) as f64;
    out.insert(
        "core.fast_track_ratio",
        ratio(t.fast_commits as f64, commits),
    );
    out.insert(
        "core.hole_repairs_per_kop",
        ratio(t.hole_repairs as f64, kops),
    );
    out.insert(
        "core.global_lag_items",
        t.global_lag_items as f64 / seeds as f64,
    );
    out.insert("raft.elections", t.elections as f64 / seeds as f64);
    out.insert(
        "raft.elections_no_winner",
        t.elections.saturating_sub(t.leaderships) as f64 / seeds as f64,
    );

    // wire and simnet. The shard runner exposes no NetStats: there a
    // "message" offered to the network is a frame, and bytes come from the
    // sampled group messages (envelope framing not included).
    let mean_sample_bytes = ratio(
        agg.msgs
            .iter()
            .map(|(_, _, m)| m.wire_size())
            .sum::<usize>() as f64,
        agg.msgs.len() as f64,
    );
    let (msgs, bytes) = if is_shard {
        (
            sh.frames_window as f64,
            sh.group_msgs_window as f64 * mean_sample_bytes,
        )
    } else {
        (t.offered as f64, t.bytes as f64)
    };
    out.insert(
        "wire.bytes_per_msg",
        if is_shard {
            mean_sample_bytes
        } else {
            ratio(bytes, msgs)
        },
    );
    out.insert("wire.encoded_len_ns_per_msg", r.encoded_len);
    out.insert("wire.encode_ns_per_msg", r.encode);
    out.insert("wire.decode_ns_per_msg", r.decode);
    out.insert("wire.log_append_ns", r.log_append);
    out.insert("wire.log_get_ns", r.log_get);
    out.insert("wire.log_collect_ns_per_entry", r.log_collect);
    out.insert(
        "wire.lease_read_share",
        ratio(
            t.lease_reads as f64,
            (t.lease_reads + t.readindex_reads) as f64,
        ),
    );
    out.insert(
        "wire.dup_suppressed_per_kop",
        ratio(t.duplicates as f64, kops),
    );
    out.insert("simnet.msgs_per_op", ratio(msgs, ops));
    out.insert("simnet.bytes_per_op", ratio(bytes, ops));
    out.insert(
        "simnet.inter_region_bytes_per_op",
        ratio(t.inter_region_bytes as f64, ops),
    );
    out.insert(
        "simnet.drop_share",
        ratio(t.dropped as f64, t.offered as f64),
    );
    out.insert("simnet.judge_ns", r.judge);

    // storage: fsync boundaries are persisting steps (group commit).
    let (fsyncs, cmds) = if is_shard {
        (agg.persist_steps, agg.persist_cmds)
    } else {
        (t.persist_batches, t.persist_cmds)
    };
    // The shard counters cover the whole run; scale to the window by the
    // engines' own message counts.
    let window_share = if is_shard {
        ratio(sh.group_msgs_window as f64, agg.sends as f64)
    } else {
        1.0
    };
    out.insert(
        "storage.fsyncs_per_op",
        ratio(fsyncs as f64 * window_share, ops),
    );
    out.insert("storage.cmds_per_fsync", ratio(cmds as f64, fsyncs as f64));
    out.insert("storage.apply_batch_ns", r.apply_batch);

    // des
    out.insert("des.queue_ns_per_event", r.queue);
    out.insert("des.wheel_ns_per_timer", r.wheel);
    out.insert(
        "des.wheel_timers_per_op",
        ratio(sh.timers_set as f64 * window_share, ops),
    );
    out.insert(
        "des.wheel_cancel_share",
        ratio(sh.timers_cancelled as f64, sh.timers_set as f64),
    );

    // harness
    out.insert("harness.retry_share", ratio(t.client_retries as f64, ops));
    out.insert("harness.peak_log_residency", t.residency_peak as f64);
    out.insert("harness.noop_event_ns", r.noop_event);

    // shard
    out.insert("shard.events_per_op", ratio(sh.events_window as f64, ops));
    out.insert("shard.frames_per_op", ratio(sh.frames_window as f64, ops));
    out.insert(
        "shard.msgs_per_frame",
        ratio(sh.group_msgs_window as f64, sh.frames_window as f64),
    );
    out.insert("shard.parks", sh.parks as f64 / seeds as f64);
    out.insert("shard.unparks", sh.unparks as f64 / seeds as f64);
    out.insert("shard.route_ns", r.route);

    // The ledger, over whole first-pass runs.
    let (des_ns, simnet_ns, wire_ns, storage_ns);
    if is_shard {
        let frames_total = sh.frames_window as f64 / window_share.max(f64::MIN_POSITIVE);
        des_ns = sh.events_total as f64 * r.queue + sh.timers_set as f64 * r.wheel;
        simnet_ns = frames_total * r.judge;
        wire_ns = agg.sends as f64 * r.encoded_len;
        storage_ns = agg.persist_steps as f64 * r.apply_batch;
    } else {
        // One scheduled event per delivered message, per armed timer, and
        // per client submission (its timeout).
        let events = t.delivered + agg.timers_set + t.ops + t.client_retries;
        des_ns = events as f64 * r.queue;
        simnet_ns = t.offered as f64 * r.judge;
        wire_ns = t.offered as f64 * r.encoded_len;
        storage_ns = t.persist_batches as f64 * r.apply_batch;
    }
    let shares = [
        ("ledger.engine_share", agg.busy_ns as f64),
        ("ledger.des_share", des_ns),
        ("ledger.simnet_share", simnet_ns),
        ("ledger.storage_share", storage_ns),
        ("ledger.wire_share", wire_ns),
    ];
    let mut explained = 0.0;
    for (name, ns) in shares {
        let share = ratio(ns, untraced_ns);
        explained += share;
        out.insert(name, share);
    }
    out.insert("ledger.residual_share", 1.0 - explained);

    // The measurement itself.
    out.insert("trace.overhead_share", median(&pairs.overhead));
    out.insert("trace.spans", agg.steps as f64);
    out.insert("trace.ns_per_op_untraced", ratio(untraced_ns, ops));
    out.insert("bench.wall_iqr_share", iqr_share(&pairs.untraced_rates));
    out.insert("bench.ref_kernel_ms", median(&pairs.ref_kernel_ms));
    out.insert("bench.reps", pairs.overhead.len() as f64);
    out.insert("bench.seeds", seeds as f64);
    out
}

/// Writes the repetition span and the raw engine spans as JSON lines.
fn write_spans<M>(workload: &str, agg: &Agg<M>) -> std::io::Result<std::path::PathBuf> {
    // From the repository root (how the driver and `run.sh` invoke us) the
    // package directory is `perf/`; from inside the package it is `.`.
    let dir = if std::path::Path::new("perf/Cargo.toml").is_file() {
        "perf/out"
    } else {
        "out"
    };
    std::fs::create_dir_all(dir)?;
    let path = std::path::Path::new(dir).join(format!("{workload}.spans.jsonl"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let rep = format!("rep:{}", agg.rep_seed);
    writeln!(
        f,
        "{{\"id\": \"{rep}\", \"name\": \"rep\", \"workload\": \"{workload}\", \"start_ns\": 0, \"end_ns\": {}, \"parent\": null}}",
        agg.rep_ns
    )?;
    for s in agg.spans.iter().take(SPAN_CAP) {
        write!(
            f,
            "{{\"name\": \"{}\", \"node\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": \"{rep}\"",
            s.kind.span_name(),
            s.node,
            s.start_ns,
            s.end_ns
        )?;
        if let Some((session, seq)) = s.op {
            write!(f, ", \"op\": [{session}, {seq}]")?;
        }
        writeln!(f, "}}")?;
    }
    f.flush()?;
    Ok(path)
}

fn report<M: Message>(
    args: &Args,
    is_shard: bool,
    (mut totals, mut agg, replayed, pairs): (Totals, Agg<M>, Replayed, Pairs),
) {
    let seeds = args.seeds().len();
    let metrics = layer_metrics(is_shard, seeds, &mut totals, &mut agg, &replayed, &pairs);
    let values: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|(name, _)| {
            let v = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} was never computed"));
            (*name, *v)
        })
        .collect();
    assert_eq!(
        metrics.len(),
        PER_LAYER.len(),
        "computed an undeclared metric"
    );

    eprintln!(
        "perf-trace: {} seeds {}..={} — {} untraced/traced pairs",
        args.workload,
        args.seed,
        args.seed + seeds as u64 - 1,
        pairs.overhead.len()
    );
    for ((name, value), (_, unit)) in values.iter().zip(&PER_LAYER) {
        eprintln!("  {name:<36} {value:>16.4} {unit}");
    }
    match write_spans(&args.workload, &agg) {
        Ok(path) => eprintln!(
            "  {} spans of seed {} -> {}",
            agg.spans.len(),
            agg.rep_seed,
            path.display()
        ),
        Err(e) => {
            eprintln!("perf-trace: cannot write spans: {e}");
            std::process::exit(1);
        }
    }

    let line = ResultLine {
        correct: true,
        attempted: totals.ops + totals.failed,
        failed: totals.failed,
        metrics: values,
    };
    println!("{}", line.render(&PER_LAYER));
}

fn main() {
    let args = Args::from_env();
    let deadline = Instant::now() + std::time::Duration::from_secs(args.seconds);
    match generate(&args.workload, &args.seeds()).expect("workload name was validated") {
        Inputs::FastRaft(scenarios) => {
            let flow = harness_flow(
                &scenarios,
                false,
                run_fast_raft,
                |s, sink| deploy::fast_raft(s, move |n| Traced::new(n, 0, sink.clone())),
                deadline,
            );
            report(&args, false, flow);
        }
        Inputs::CRaft(scenarios, c) => {
            let flow = harness_flow(
                &scenarios,
                true,
                |s| run_craft(s, &c),
                |s, sink| deploy::craft(s, &c, move |n| Traced::new(n, 0, sink.clone())),
                deadline,
            );
            report(&args, false, flow);
        }
        Inputs::Shard(cfgs, timing) => report(&args, true, shard_flow(&cfgs, timing, deadline)),
    }
}
