//! Replay: the layers the runners own concretely.
//!
//! `Simulation`, `Network`, `SimDisk`/`StableState`, `TimerWheel`,
//! `ShardRouter`, the codec and `SparseLog` sit inside `Runner` /
//! `ShardRunner` (or inside the engines) as concrete fields, so the probe
//! cannot bracket them. They are timed here instead: each function calls
//! the layer's public entry points on the corpus the traced run sampled,
//! at the sizes that run observed, for a fixed slice of wall time, and
//! returns nanoseconds per call. `main.rs` multiplies by the exact counts.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use des::{SimDuration, SimRng, SimTime, Simulation, TimerWheel};
use harness::{Runner, RunnerConfig, SafetyChecker, Workload};
use shard::ShardRouter;
use simnet::Network;
use storage::{PersistBatch, SimDisk, StableState};
use wire::{
    Actions, AppendBudget, ClientRequest, ConsensusProtocol, EntryId, LogEntry, LogIndex, LogScope,
    Message, NodeId, PersistCmd, SessionId, SparseLog, Term, TimerKind, Wire,
};

/// Wall time each replay measures for.
const SLICE: Duration = Duration::from_millis(150);

/// Runs `batch` (which performs and returns some number of calls) until
/// [`SLICE`] has passed; nanoseconds per call.
fn ns_per_call(mut batch: impl FnMut() -> u64) -> f64 {
    batch(); // warm caches and lazy paths outside the measurement
    let (mut calls, started) = (0u64, Instant::now());
    while started.elapsed() < SLICE {
        calls += batch();
    }
    started.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// `Message::wire_size` — charged by the runner on every send.
pub fn encoded_len_ns<M: Message>(corpus: &[M]) -> f64 {
    if corpus.is_empty() {
        return 0.0;
    }
    ns_per_call(|| {
        for m in corpus {
            black_box(black_box(m).wire_size());
        }
        corpus.len() as u64
    })
}

/// `Wire::to_bytes` and `Wire::from_bytes`, ns per message each. The DES
/// delivers values, so neither is on today's path; they are the baseline
/// a future real-socket runner starts from.
pub fn codec_ns<M: Wire>(corpus: &[M]) -> (f64, f64) {
    if corpus.is_empty() {
        return (0.0, 0.0);
    }
    let encode = ns_per_call(|| {
        for m in corpus {
            black_box(black_box(m).to_bytes());
        }
        corpus.len() as u64
    });
    let encoded: Vec<Bytes> = corpus.iter().map(Wire::to_bytes).collect();
    let decode = ns_per_call(|| {
        for b in &encoded {
            black_box(M::from_bytes(black_box(b)).expect("own encoding decodes"));
        }
        encoded.len() as u64
    });
    (encode, decode)
}

/// `SparseLog` at `residency` retained entries of `payload` bytes:
/// `(append, get, collect-per-entry)` in ns.
pub fn sparse_log_ns(residency: u64, payload: usize, budget: AppendBudget) -> (f64, f64, f64) {
    let data = Bytes::from(vec![0xA5u8; payload]);
    let entry = |i: u64| {
        LogEntry::write(
            Term(1),
            EntryId::new(NodeId(1), i),
            SessionId::client(1),
            i,
            data.clone(),
        )
    };
    let residency = residency.max(64);
    let mut base = SparseLog::new();
    for i in 1..=residency {
        base.append(entry(i));
    }

    const GROW: u64 = 1024;
    let fresh: Vec<LogEntry> = (1..=GROW).map(|i| entry(residency + i)).collect();
    // Each batch appends to a clone of the resident log, so every append
    // lands at the observed residency; the clone is outside the timing.
    let (mut append_ns, mut appended) = (0u128, 0u64);
    let started = Instant::now();
    while started.elapsed() < SLICE {
        let mut log = base.clone();
        let batch = fresh.clone();
        let t = Instant::now();
        for e in batch {
            black_box(log.append(e));
        }
        append_ns += t.elapsed().as_nanos();
        appended += GROW;
        black_box(&log);
    }

    let mut rng = SimRng::seed_from_u64(0x106);
    let first = base.first_index().as_u64();
    let last = base.last_index().as_u64();
    let get = ns_per_call(|| {
        for _ in 0..1024 {
            let i = rng.gen_range(first..=last);
            black_box(base.get(LogIndex(i)));
        }
        1024
    });

    // A leader's catch-up walk: from a random recent index to the end,
    // cut by the workload's append budget.
    let reach = (budget.max_entries as u64 * 2).min(last - first);
    let collect = ns_per_call(|| {
        let mut entries = 0;
        for _ in 0..64 {
            let from = last - rng.gen_range(0..=reach);
            let list = base.collect_range_budgeted(LogIndex(from), LogIndex(last), budget);
            entries += list.len() as u64;
            black_box(list);
        }
        entries.max(1)
    });
    (append_ns as f64 / appended.max(1) as f64, get, collect)
}

/// `Network::judge` on the workload's own network, over the sampled
/// `(from, to, bytes)` triples.
pub fn judge_ns(mut net: Network, triples: &[(NodeId, NodeId, usize)]) -> f64 {
    if triples.is_empty() {
        return 0.0;
    }
    let mut rng = SimRng::seed_from_u64(0x1D6E);
    ns_per_call(|| {
        for &(from, to, bytes) in triples {
            black_box(net.judge(from, to, bytes, &mut rng));
        }
        triples.len() as u64
    })
}

/// The storage step of a persisting protocol step, ns per batch:
/// `SimDisk::apply_batch` (group commit, what `harness::Runner` calls) or
/// a keyed `StableState::apply_all` (what `ShardRunner` calls). Each pass
/// replays the corpus — the first batches of a repetition, whole and in
/// order — onto fresh disks, so every insert and snapshot lands where it
/// did in the run.
pub fn apply_batch_ns(corpus: &[(u64, NodeId, Vec<PersistCmd>)], grouped: bool) -> f64 {
    if corpus.is_empty() {
        return 0.0;
    }
    let batches: Vec<_> = corpus
        .iter()
        .map(|(lane, node, cmds)| (*lane, *node, PersistBatch::from_cmds(cmds.clone())))
        .collect();
    let (mut ns, mut applied) = (0u128, 0u64);
    let started = Instant::now();
    while started.elapsed() < SLICE {
        let mut disk = SimDisk::new();
        let mut keyed: BTreeMap<(u64, u64), StableState> = BTreeMap::new();
        if !grouped {
            for (lane, node, _) in &batches {
                keyed.entry((*lane, node.as_u64())).or_default();
            }
        }
        let t = Instant::now();
        for (lane, node, b) in &batches {
            if grouped {
                disk.apply_batch(*node, black_box(b));
            } else {
                keyed
                    .get_mut(&(*lane, node.as_u64()))
                    .expect("provisioned above")
                    .apply_all(black_box(b).iter());
            }
        }
        ns += t.elapsed().as_nanos();
        applied += batches.len() as u64;
        black_box((&disk, &keyed));
    }
    ns as f64 / applied as f64
}

/// One `Simulation::schedule_after` + one `next_event_before`, with
/// `depth` events pending — the classic hold model.
pub fn queue_ns(depth: usize) -> f64 {
    let mut sim: Simulation<u64> = Simulation::new(1);
    sim.set_step_limit(u64::MAX);
    let mut rng = SimRng::seed_from_u64(0xDE5);
    let mut delay = move || SimDuration::from_micros(rng.gen_range(100..100_000u64));
    for i in 0..depth.max(1) as u64 {
        sim.schedule_after(delay(), i);
    }
    ns_per_call(|| {
        for _ in 0..1024 {
            let firing = sim
                .next_event_before(SimTime::MAX)
                .expect("queue holds events");
            sim.schedule_after(delay(), black_box(firing.event));
        }
        1024
    })
}

/// The shard runner's wheel pattern with `armed` live keys, ns per timer
/// armed. Each turn advances to the next deadline and re-arms what fired
/// one heartbeat on (a leader's heartbeat); then, so that `sets_per_fire`
/// timers are armed per timer fired as in the run, re-arms other keys
/// further out without cancelling them first (followers pushing their
/// election timers back on every AppendEntries).
pub fn wheel_ns(armed: usize, sets_per_fire: f64) -> f64 {
    let armed = armed.max(16) as u64;
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut rng = SimRng::seed_from_u64(0x3EE1);
    let beat = SimDuration::from_millis(100);
    for k in 0..armed {
        wheel.schedule(k, SimTime::from_micros(rng.gen_range(1..100_000u64)));
    }
    let (mut due, mut owed) = (Vec::new(), 0.0);
    ns_per_call(|| {
        let mut timers = 0;
        while timers < 1024 {
            let next = wheel.next_deadline().expect("keys stay armed");
            due.clear();
            wheel.advance(next, &mut due);
            for &(_, key) in &due {
                wheel.schedule(key, next + beat);
                timers += 1;
                owed += sets_per_fire - 1.0;
            }
            while owed >= 1.0 {
                let push = SimDuration::from_micros(rng.gen_range(500_000..1_000_000u64));
                wheel.schedule(rng.gen_range(0..armed), next + push);
                timers += 1;
                owed -= 1.0;
            }
        }
        timers
    })
}

/// `ShardRouter::assign` over the workload's key space.
pub fn route_ns(groups: u32, keys: u64) -> f64 {
    let router = ShardRouter::uniform(groups);
    ns_per_call(|| {
        for id in 0..keys.min(4096) {
            black_box(router.assign(black_box(&id.to_be_bytes())));
        }
        keys.min(4096)
    })
}

/// A protocol that does nothing but keep the runner busy: every
/// millisecond it re-arms its timer and sends one empty message to each
/// peer. It counts its own handler calls.
struct Noop {
    id: NodeId,
    peers: Vec<NodeId>,
    calls: Rc<Cell<u64>>,
}

#[derive(Clone, Debug)]
struct Ping;

impl Message for Ping {
    fn wire_size(&self) -> usize {
        16
    }
}

impl ConsensusProtocol for Noop {
    type Message = Ping;
    fn id(&self) -> NodeId {
        self.id
    }
    fn on_message(&mut self, _from: NodeId, _msg: Ping, _out: &mut Actions<Ping>) {
        self.calls.set(self.calls.get() + 1);
    }
    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<Ping>) {
        self.calls.set(self.calls.get() + 1);
        out.set_timer(kind, SimDuration::from_millis(1));
        for &p in &self.peers {
            out.send(p, Ping);
        }
    }
    fn on_client_request(&mut self, _req: ClientRequest, _out: &mut Actions<Ping>) {}
    fn bootstrap(&mut self, out: &mut Actions<Ping>) {
        out.set_timer(TimerKind::Heartbeat, SimDuration::from_millis(1));
    }
}

/// The floor cost of one event through the real `harness::Runner` — queue,
/// `Network::judge`, dispatch, action processing — with the engine doing
/// nothing: wall ns per handler call.
pub fn noop_event_ns() -> f64 {
    const SITES: u64 = 5;
    let calls = Rc::new(Cell::new(0));
    let nodes = (0..SITES).map(|i| Noop {
        id: NodeId(i),
        peers: (0..SITES).filter(|&p| p != i).map(NodeId).collect(),
        calls: calls.clone(),
    });
    let cfg = RunnerConfig {
        seed: 1,
        ack_scope: LogScope::Global,
        measure_from: SimTime::ZERO,
        clock_skew: SimDuration::ZERO,
        disk_fsync_latency: SimDuration::ZERO,
        unbatched_persists: false,
        persist_stalls: None,
    };
    let mut runner = Runner::new(
        nodes,
        Network::reliable_lan((0..SITES).map(NodeId)),
        Workload::writes_only(Vec::new(), 0, None, SimTime::ZERO),
        Vec::new(),
        cfg,
        SafetyChecker::new(),
    );
    let started = Instant::now();
    runner.run_until(SimTime::from_secs(4));
    let ns = started.elapsed().as_nanos() as f64;
    ns / calls.get().max(1) as f64
}

/// A fixed kernel of the operations the simulator leans on — boxed
/// allocations, an ordered map, a hashed map — timed between repetitions.
/// A machine-noise canary: if it moves between two runs, the host changed,
/// not the code. It is printed, never used to normalise anything.
pub fn ref_kernel_ms() -> f64 {
    let started = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || perf::workloads::splitmix64(&mut state);
    let mut boxes: Vec<Box<[u8; 64]>> = Vec::new();
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    let mut hashed: HashMap<u64, u64> = HashMap::new();
    for i in 0..20_000u64 {
        boxes.push(Box::new([i as u8; 64]));
        let k = next() % 4096;
        *ordered.entry(k).or_insert(0) += i;
        hashed.insert(k, i);
        if i % 3 == 0 {
            ordered.remove(&(next() % 4096));
            hashed.remove(&(next() % 4096));
            boxes.swap_remove((next() % boxes.len() as u64) as usize);
        }
    }
    black_box((&boxes, &ordered, &hashed));
    started.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_return_positive_finite_costs() {
        let (a, g, c) = sparse_log_ns(1030, 64, AppendBudget::new(128, 64 * 1024));
        for v in [
            a,
            g,
            c,
            queue_ns(40),
            wheel_ns(800, 4.0),
            route_ns(256, 4096),
        ] {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
        assert!(ref_kernel_ms() > 0.0 && noop_event_ns() > 0.0);
        assert_eq!(apply_batch_ns(&[], true), 0.0);
    }
}
