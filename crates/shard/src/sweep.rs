//! The `shard_sweep` acceptance probe.
//!
//! Two claims from the sharding tentpole, measured in one deterministic
//! sweep over the multi-group runner:
//!
//! 1. **Idle groups cost zero.** A fabric hosting 1 active + 4096 idle
//!    groups commits within a few percent of the same fabric hosting the
//!    active group alone — a parked group holds no entry in the timer
//!    heap (`des::TimerWheel`), so nothing ever polls it, and
//!    hibernation stops their heartbeats entirely. A hibernation-off
//!    contrast cell shows the event volume parking removes.
//! 2. **Aggregate throughput scales with group count.** Under a Zipfian
//!    key mix and a deliberately tight per-append entry budget, committed
//!    ops/sec rises monotonically from 1 → 16 → 256 groups: each group's
//!    replication pipeline is budget-bound per heartbeat, so independent
//!    groups multiply capacity.
//!
//! The JSON series are all "higher is better" so the CI gate's
//! lower-bound direction points the right way; ratios near 1.0 (idle
//! efficiency) are stored as ratios, not overheads.

use des::{SimDuration, SimTime};
use raft::Timing;
use wire::GroupId;

use crate::runner::{raft_factory, ShardConfig, ShardRunner, WorkloadSpec};

/// One measured cell of the sweep.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Cell label ("g16", "idle4096", ...).
    pub label: String,
    /// Groups hosted (initial).
    pub groups: u32,
    /// Committed client ops per measured second.
    pub tput: f64,
    /// Mean client-observed commit latency (ms).
    pub mean_ms: f64,
    /// Simulation events dispatched inside the window.
    pub events: u64,
    /// Fabric frames delivered inside the window.
    pub frames: u64,
    /// Group messages those frames carried.
    pub group_msgs: u64,
    /// Groups parked over the run.
    pub parks: u64,
    /// Groups parked at the end of the run.
    pub parked_at_end: usize,
    /// Live wheel entries at the end of the run.
    pub wheel_len: usize,
}

/// The full sweep: scaling cells plus the idle-cost triplet.
#[derive(Clone, Debug)]
pub struct ShardSweepResult {
    /// 1 / 16 / 256 groups under the shared Zipfian workload.
    pub scaling: Vec<SweepCell>,
    /// The active group alone (baseline for the idle ratio).
    pub alone: SweepCell,
    /// 1 active + 4096 idle groups, hibernation on.
    pub idle: SweepCell,
    /// 1 active + 4096 idle groups, hibernation off (contrast).
    pub no_hibernate: SweepCell,
}

/// Timing for the sweep: LAN numbers with a deliberately tight per-append
/// entry budget, so a single group's replication pipeline saturates well
/// below the offered load and group count is the scaling axis.
fn sweep_timing() -> Timing {
    let mut t = Timing::lan();
    t.max_entries_per_append = 32;
    t
}

struct CellSpec {
    label: &'static str,
    groups: u32,
    clients: usize,
    idle_after: SimDuration,
    target_group: Option<GroupId>,
}

fn run_cell(seed: u64, quick: bool, spec: &CellSpec) -> SweepCell {
    let (measure_from, horizon) = if quick {
        (SimTime::from_secs(8), SimTime::from_secs(14))
    } else {
        (SimTime::from_secs(10), SimTime::from_secs(40))
    };
    let workload = WorkloadSpec {
        clients: spec.clients,
        keys: if spec.target_group.is_some() { 256 } else { 4096 },
        zipf_theta: 0.99,
        payload_bytes: 64,
        start_at: SimTime::from_secs(5),
        op_timeout: SimDuration::from_secs(2),
        retry_backoff: SimDuration::from_millis(25),
        target_group: spec.target_group,
    };
    let cfg = ShardConfig {
        procs: 3,
        groups: spec.groups,
        seed,
        idle_after: spec.idle_after,
        workload,
    };
    let started = std::time::Instant::now();
    let mut runner = ShardRunner::new(cfg, Vec::new(), raft_factory(sweep_timing()));
    runner.set_measure_window(measure_from, horizon);
    runner.run_until(horizon);
    eprintln!(
        "shard_sweep: cell {:<10} {:>7.1}s wall, {} events",
        spec.label,
        started.elapsed().as_secs_f64(),
        runner.metrics().events_total,
    );
    assert!(
        runner.violations().is_empty(),
        "cell {}: commit agreement violated: {:?}",
        spec.label,
        runner.violations()
    );
    let m = runner.metrics();
    let secs = horizon.saturating_since(measure_from).as_secs_f64();
    SweepCell {
        label: spec.label.to_string(),
        groups: spec.groups,
        tput: m.completed_window as f64 / secs,
        mean_ms: if m.completed_window == 0 {
            0.0
        } else {
            m.latency_window_us as f64 / m.completed_window as f64 / 1e3
        },
        events: m.events_window,
        frames: m.frames_window,
        group_msgs: m.group_msgs_window,
        parks: m.parks,
        parked_at_end: runner.parked_groups(),
        wheel_len: runner.wheel_len(),
    }
}

/// Runs the whole sweep for one seed.
///
/// # Panics
///
/// Panics when any cell violates commit agreement, when throughput fails
/// to rise monotonically across the scaling cells, or when the idle cell
/// falls outside 10% of the alone cell.
pub fn run(seed: u64, quick: bool) -> ShardSweepResult {
    let clients = if quick { 96 } else { 256 };
    let hib = SimDuration::from_secs(1);
    let scaling: Vec<SweepCell> = [1u32, 16, 256]
        .iter()
        .map(|&groups| {
            run_cell(
                seed,
                quick,
                &CellSpec {
                    label: match groups {
                        1 => "g1",
                        16 => "g16",
                        _ => "g256",
                    },
                    groups,
                    clients,
                    idle_after: hib,
                    target_group: None,
                },
            )
        })
        .collect();

    let idle_clients = 48;
    let alone = run_cell(
        seed,
        quick,
        &CellSpec {
            label: "alone",
            groups: 1,
            clients: idle_clients,
            idle_after: hib,
            target_group: Some(GroupId(0)),
        },
    );
    let idle = run_cell(
        seed,
        quick,
        &CellSpec {
            label: "idle4096",
            groups: 4097,
            clients: idle_clients,
            idle_after: hib,
            target_group: Some(GroupId(0)),
        },
    );
    let no_hibernate = run_cell(
        seed,
        quick,
        &CellSpec {
            label: "nohib4096",
            groups: 4097,
            clients: idle_clients,
            idle_after: SimDuration::ZERO,
            target_group: Some(GroupId(0)),
        },
    );

    let result = ShardSweepResult {
        scaling,
        alone,
        idle,
        no_hibernate,
    };
    result.check();
    result
}

impl ShardSweepResult {
    /// Acceptance assertions (also enforced by the bench binary).
    pub fn check(&self) {
        for w in self.scaling.windows(2) {
            assert!(
                w[1].tput > w[0].tput,
                "throughput not monotone: {} = {:.1} ops/s !> {} = {:.1} ops/s",
                w[1].label,
                w[1].tput,
                w[0].label,
                w[0].tput
            );
        }
        assert!(
            self.idle.tput >= 0.9 * self.alone.tput,
            "4096 idle groups cost more than 10%: idle {:.1} vs alone {:.1} ops/s",
            self.idle.tput,
            self.alone.tput
        );
        assert!(
            self.idle.parks >= 4096,
            "hibernation failed to park the idle fleet: {} parks",
            self.idle.parks
        );
        assert_eq!(
            self.no_hibernate.parks, 0,
            "hibernation-off cell parked groups"
        );
        assert!(
            self.no_hibernate.events > self.idle.events,
            "parking saved no events: {} !> {}",
            self.no_hibernate.events,
            self.idle.events
        );
    }

    /// Idle-cost ratio: parked fleet throughput over alone throughput
    /// (≈ 1.0 when idle groups are free).
    pub fn idle_tput_ratio(&self) -> f64 {
        self.idle.tput / self.alone.tput.max(1e-9)
    }

    /// Event efficiency: alone-cell events over idle-cell events inside
    /// the window (≈ 1.0 when parked groups dispatch nothing).
    pub fn idle_event_efficiency(&self) -> f64 {
        self.alone.events as f64 / self.idle.events.max(1) as f64
    }

    /// Events the hibernation gate removes: hibernation-off events over
    /// hibernation-on events for the same fleet (≫ 1).
    pub fn hibernate_event_saving(&self) -> f64 {
        self.no_hibernate.events as f64 / self.idle.events.max(1) as f64
    }

    /// Frame coalescing in the widest scaling cell (≥ 1.0).
    pub fn coalesce_widest(&self) -> f64 {
        let c = self.scaling.last().expect("scaling cells present");
        c.group_msgs as f64 / c.frames.max(1) as f64
    }

    /// The gated series, shaped for `bench_compare`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"bench\": \"shard_sweep\",\n  \"series\": {\n");
        for c in &self.scaling {
            s.push_str(&format!("    \"tput_{}\": {:.2},\n", c.label, c.tput));
        }
        s.push_str(&format!(
            "    \"idle_tput_ratio\": {:.4},\n",
            self.idle_tput_ratio()
        ));
        s.push_str(&format!(
            "    \"idle_event_efficiency\": {:.4},\n",
            self.idle_event_efficiency()
        ));
        s.push_str(&format!(
            "    \"hibernate_event_saving\": {:.2},\n",
            self.hibernate_event_saving()
        ));
        s.push_str(&format!(
            "    \"coalesce_g256\": {:.4}\n",
            self.coalesce_widest()
        ));
        s.push_str("  }\n}\n");
        s
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "shard_sweep: multi-group fabric (3 procs, Zipf 0.99, 32-entry append budget)\n\
             cell        groups    ops/s   mean ms     events    frames  msgs/frame  parked\n",
        );
        let all = self
            .scaling
            .iter()
            .chain([&self.alone, &self.idle, &self.no_hibernate]);
        for c in all {
            s.push_str(&format!(
                "{:<11} {:>6} {:>8.1} {:>9.2} {:>10} {:>9} {:>11.3} {:>7}\n",
                c.label,
                c.groups,
                c.tput,
                c.mean_ms,
                c.events,
                c.frames,
                c.group_msgs as f64 / c.frames.max(1) as f64,
                c.parked_at_end,
            ));
        }
        s.push_str(&format!(
            "idle ratio {:.3}  event efficiency {:.3}  hibernate saving {:.1}x\n",
            self.idle_tput_ratio(),
            self.idle_event_efficiency(),
            self.hibernate_event_saving()
        ));
        s
    }
}
