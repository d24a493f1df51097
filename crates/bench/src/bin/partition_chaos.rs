//! Partition-chaos experiment: availability vs outage duration, with
//! lease fencing on and off.
//!
//! Takes one of four workers out for a swept duration — either a
//! **clean partition** (data links *and* the control channel
//! blackholed; the worker sees nothing) or a **gray partition** (the
//! worker wedges, defers everything it receives, and replays the
//! backlog when it wakes — a VM freeze or a one-way fabric fault) —
//! and measures what the outage costs under two membership protocols
//! on the same seed:
//!
//! - **legacy** — heartbeat-only liveness: the controller re-places the
//!   silent worker's lambdas after K missed beats. Fast, but nothing
//!   stops the partitioned worker from executing whatever it still
//!   holds — work the rest of the cluster re-ran (zombie executions).
//! - **fenced** — bounded leases with epoch fencing: re-placement waits
//!   until the lease has provably expired, every placement carries a
//!   fencing token, the worker self-fences when its lease lapses, and
//!   the gateway discards sub-floor replies. Slightly slower to
//!   re-place, but zombie executions are structurally impossible (the
//!   run keeps the panicking invariant checker attached to prove it).
//!
//! Emits `results/partition_chaos.json`: one cell per
//! (duration, fencing) pair with availability, fence/rejoin timings,
//! and the zombie-execution count.
//!
//! Run with: `cargo run --release -p lnic-bench --bin partition_chaos`
//! (`--smoke` runs a two-point sweep for CI and writes no file).

use std::fmt::Write as _;
use std::sync::Arc;

use lnic::failover::{FailoverConfig, FailoverController, FailoverEventKind};
use lnic::prelude::*;
use lnic_bench::write_results;
use lnic_sim::prelude::*;
use lnic_sim::trace::{TraceEvent, TraceRecord, TraceSink};
use lnic_workloads::three_web_servers;

const WORKERS: usize = 4;
const THREADS: usize = 8;
const THINK: SimDuration = SimDuration::from_micros(500);
const CUT_AT: SimDuration = SimDuration::from_secs(2);
const SETTLE: SimDuration = SimDuration::from_secs(3);
const HB: SimDuration = SimDuration::from_millis(50);

/// Records every `ExecStart` so zombie executions — the partitioned
/// worker re-running work another worker already executed — can be
/// counted after the fact.
#[derive(Default)]
struct ExecLog {
    starts: Vec<(SimTime, usize, u64)>,
}

impl TraceSink for ExecLog {
    fn on_record(&mut self, rec: &TraceRecord) {
        if let TraceEvent::ExecStart { request_id, .. } = rec.event {
            self.starts.push((rec.at, rec.src.index(), request_id));
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OutageKind {
    /// Link-level blackhole: the worker is unreachable and idle.
    Partition,
    /// Wedged worker: frames arrive, nothing runs until it wakes.
    Gray,
}

impl OutageKind {
    fn name(self) -> &'static str {
        match self {
            OutageKind::Partition => "partition",
            OutageKind::Gray => "gray",
        }
    }
}

struct Cell {
    kind: OutageKind,
    duration_ms: u64,
    fenced: bool,
    issued: u64,
    ok: u64,
    failed: u64,
    /// ok / issued over the whole run.
    availability: f64,
    /// Partition start → controller gives up on the worker (ms).
    time_to_replace_ms: f64,
    /// Partition heal → worker re-admitted (ms).
    time_to_rejoin_ms: f64,
    /// Executions on the cut worker of requests another worker had
    /// already executed: the split-brain cost.
    zombie_execs: u64,
    /// Late replies the gateway discarded below the fence floor.
    stale_replies: u64,
    /// RC_FENCED rejections the gateway absorbed.
    fenced_replies: u64,
    epoch: u64,
}

fn run_cell(seed: u64, kind: OutageKind, duration: SimDuration, fenced: bool) -> Cell {
    let mut config = TestbedConfig::new(BackendKind::Nic)
        .seed(seed)
        .workers(WORKERS);
    config.gateway.rpc_timeout = SimDuration::from_millis(50);
    config.gateway.rpc_attempts = 5;
    config.gateway = config.gateway.resilient();

    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(ExecLog::default()));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let fo = FailoverConfig {
        heartbeat_interval: HB,
        missed_beats: 3,
        ..FailoverConfig::default()
    };
    let fo = if fenced {
        fo.fenced().with_snapshots(SimDuration::from_millis(500))
    } else {
        fo
    };
    bed.enable_failover(fo);

    let cut_at = SimTime::ZERO + CUT_AT;
    let plan = match kind {
        OutageKind::Partition => FaultPlan::new().partition(&[0], cut_at, duration),
        OutageKind::Gray => FaultPlan::new().backend_stall(0, cut_at, duration),
    };
    bed.inject_faults(&plan);

    let jobs: Vec<JobSpec> = program
        .lambdas
        .iter()
        .map(|l| JobSpec {
            workload_id: l.id.0,
            payload: PayloadSpec::Page(0),
        })
        .collect();
    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        jobs,
        THREADS,
        THINK,
        None,
    ));
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    bed.sim.run_until(cut_at + duration + SETTLE);
    bed.finish_tracing();

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    let issued = d.issued();
    let ok = d.completed().iter().filter(|c| !c.failed).count() as u64;
    let failed = d.completed().iter().filter(|c| c.failed).count() as u64;

    let ctl = bed
        .sim
        .get::<FailoverController>(bed.failover.unwrap())
        .unwrap();
    let death_at = ctl
        .events()
        .iter()
        .find(|e| matches!(e.kind, FailoverEventKind::WorkerDead { worker: 0 }))
        .map(|e| e.at);
    let recovery_at = ctl
        .events()
        .iter()
        .find(|e| matches!(e.kind, FailoverEventKind::WorkerRecovered { worker: 0 }))
        .map(|e| e.at);
    let heal_at = cut_at + duration;
    let ms =
        |from: SimTime, to: SimTime| to.saturating_duration_since(from).as_nanos() as f64 / 1e6;

    let worker0 = bed.workers[0].component.index();
    let log = bed.sim.trace_sink::<ExecLog>().unwrap();
    let zombie_execs = log
        .starts
        .iter()
        .filter(|&&(at, src, rid)| {
            src == worker0
                && at > cut_at
                && log.starts.iter().any(|&(other_at, other_src, r)| {
                    r == rid && other_src != worker0 && other_at < at
                })
        })
        .count() as u64;

    let gw = bed.sim.get::<Gateway>(bed.gateway).unwrap();
    Cell {
        kind,
        duration_ms: duration.as_nanos() / 1_000_000,
        fenced,
        issued,
        ok,
        failed,
        availability: if issued == 0 {
            0.0
        } else {
            ok as f64 / issued as f64
        },
        time_to_replace_ms: death_at.map_or(f64::NAN, |t| ms(cut_at, t)),
        time_to_rejoin_ms: recovery_at.map_or(f64::NAN, |t| ms(heal_at, t)),
        zombie_execs,
        stale_replies: gw.counters().stale_replies,
        fenced_replies: gw.counters().fenced_replies,
        epoch: ctl.worker_epoch(0),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let durations_ms: &[u64] = if smoke {
        &[200, 800]
    } else {
        &[100, 200, 400, 800, 1600]
    };

    println!(
        "partition chaos: {WORKERS} workers, cut w0 @{}s, hb {}ms x3{}",
        CUT_AT.as_nanos() / 1_000_000_000,
        HB.as_nanos() / 1_000_000,
        if smoke { " (smoke)" } else { "" }
    );
    println!("  kind       dur(ms)  mode    avail     fail  replace(ms)  rejoin(ms)  zombies");

    let mut cells = Vec::new();
    for kind in [OutageKind::Partition, OutageKind::Gray] {
        for &dur_ms in durations_ms {
            let duration = SimDuration::from_millis(dur_ms);
            for fenced in [false, true] {
                let cell = run_cell(42, kind, duration, fenced);
                println!(
                    "  {:<9}  {:>7}  {:<6}  {:.5}  {:>5}  {:>11.1}  {:>10.1}  {:>7}",
                    cell.kind.name(),
                    cell.duration_ms,
                    if fenced { "fenced" } else { "legacy" },
                    cell.availability,
                    cell.failed,
                    cell.time_to_replace_ms,
                    cell.time_to_rejoin_ms,
                    cell.zombie_execs
                );
                cells.push(cell);
            }
        }
    }

    // Fencing must not leak zombies at any duration; the sweep is the
    // experiment's point, so fail loudly rather than record nonsense.
    for c in cells.iter().filter(|c| c.fenced) {
        assert_eq!(
            c.zombie_execs,
            0,
            "fenced cell ({} {}ms) leaked zombie executions",
            c.kind.name(),
            c.duration_ms
        );
    }
    // And the legacy protocol must actually demonstrate the problem on
    // the gray cells, or the A/B says nothing.
    assert!(
        cells
            .iter()
            .any(|c| !c.fenced && c.kind == OutageKind::Gray && c.zombie_execs > 0),
        "no legacy gray cell produced zombie executions"
    );

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"partition_chaos\",\n");
    let _ = writeln!(
        json,
        "  \"workers\": {WORKERS}, \"threads\": {THREADS}, \"seed\": 42, \"smoke\": {smoke},"
    );
    let _ = writeln!(
        json,
        "  \"cut_at_ms\": {}, \"heartbeat_ms\": {}, \"missed_beats\": 3,",
        CUT_AT.as_nanos() / 1_000_000,
        HB.as_nanos() / 1_000_000
    );
    json.push_str("  \"cells\": [\n");
    // A cell where the outage was absorbed without an eviction (short
    // gray failure under fencing) has no replace/rejoin time: null.
    let opt_ms = |v: f64| {
        if v.is_nan() {
            "null".to_owned()
        } else {
            format!("{v:.3}")
        }
    };
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"kind\": \"{}\", \"duration_ms\": {}, \"fenced\": {}, \"issued\": {}, \"ok\": {}, \
             \"failed\": {}, \"availability\": {:.6}, \"time_to_replace_ms\": {}, \
             \"time_to_rejoin_ms\": {}, \"zombie_execs\": {}, \"stale_replies\": {}, \
             \"fenced_replies\": {}, \"epoch\": {}}}{comma}",
            c.kind.name(),
            c.duration_ms,
            c.fenced,
            c.issued,
            c.ok,
            c.failed,
            c.availability,
            opt_ms(c.time_to_replace_ms),
            opt_ms(c.time_to_rejoin_ms),
            c.zombie_execs,
            c.stale_replies,
            c.fenced_replies,
            c.epoch
        );
    }
    json.push_str("  ]\n}\n");

    write_results("partition_chaos.json", &json, smoke);
}
