//! Disaster-recovery drill: per-cell RTO for correlated failures, with
//! a re-adoption vs. resubmit-timer ablation.
//!
//! The robustness claim under test: after a correlated failure
//! (restart storm, rack loss, controller+shard co-crash) the tier loses
//! zero acked completions, delivers zero duplicates, and the recovery
//! time for requests orphaned on the failed shard(s) is bounded by the
//! lease horizon — not the router's resubmit watchdog. The baseline arm
//! disables incarnation-triggered re-adoption (`TierConfig.readopt =
//! false`), so a stormed shard's orphans must wait out the 1 s resubmit
//! timer instead of being re-homed the moment the shard's ack reveals a
//! new incarnation.
//!
//! RTO here is measured per orphan: the set of client requests pending
//! on a shard at the instant it crashes, each scored as `delivered_at -
//! crash_at`, with `delivered_at` read off the orphan's
//! `GwClientComplete` trace event; a cell reports the max (worst orphan)
//! and mean.
//!
//! Cells (× {readopt, baseline} arms):
//!
//! * `restart_storm` — staggered crash/restart of all three shards,
//!   each back inside its lease window.
//! * `rack_loss` — a shard and the worker behind it fail together; the
//!   deployment controller re-images the recovered NIC (its instruction
//!   store is volatile) and the failover controller re-places the dead
//!   worker's lambdas meanwhile.
//! * `ctrl_co_crash` — the tier controller and a shard crash together;
//!   the controller restores from its snapshot and the restored
//!   controller deposes the still-dark shard.
//!
//! Emits `results/BENCH_disaster.json`. `--smoke` shrinks the request
//! budget for CI and writes no file; `--trace=DIR` writes per-run JSONL
//! traces.
//!
//! Run with: `cargo run --release -p lnic-bench --bin disaster_recovery`

use std::fmt::Write as _;
use std::sync::Arc;

use lnic::failover::FailoverConfig;
use lnic::gwtier::{ShardMap, ShardRouter, TierConfig, TierController};
use lnic::prelude::*;
use lnic_bench::{attach_trace, commit_id, finish_trace, write_results};
use lnic_sim::hash::FastMap;
use lnic_sim::prelude::*;
use lnic_workloads::three_web_servers;

const WORKERS: usize = 3;
const THREADS: usize = 8;
/// Zero think: every thread keeps one request in flight at all times,
/// so the instant a shard crashes there are live requests pending on
/// it — the orphans the RTO is scored over.
const THINK: SimDuration = SimDuration::ZERO;
const EXTRA_SHARDS: usize = 2; // three shards total
/// Both arms run with the watchdog slowed to 1 s so the re-adoption
/// path (bounded by the 150 ms lease horizon) is clearly separable
/// from resubmit-timer recovery.
const RESUBMIT: SimDuration = SimDuration::from_secs(1);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Cell {
    RestartStorm,
    RackLoss,
    CtrlCoCrash,
}

impl Cell {
    fn name(self) -> &'static str {
        match self {
            Cell::RestartStorm => "restart_storm",
            Cell::RackLoss => "rack_loss",
            Cell::CtrlCoCrash => "ctrl_co_crash",
        }
    }
}

/// Records when each watched client uid is delivered, from the router's
/// `GwClientComplete` events — the per-orphan recovery-time probe.
#[derive(Default)]
struct DeliverySink {
    /// Watched uid → delivery instant (`None` until delivered).
    watched: FastMap<u64, Option<SimTime>>,
}

impl TraceSink for DeliverySink {
    fn on_record(&mut self, rec: &TraceRecord) {
        if let TraceEvent::GwClientComplete { uid, .. } = rec.event {
            if let Some(slot) = self.watched.get_mut(&uid) {
                slot.get_or_insert(rec.at);
            }
        }
    }
}

/// The shard the fault is aimed at: whichever one owns client 0 under
/// the initial map — guaranteed to carry closed-loop traffic.
fn fault_target(cfg: &TierConfig) -> usize {
    let members: Vec<u32> = (0..=EXTRA_SHARDS as u32).collect();
    ShardMap::new(1, &members, cfg.vnodes).route(0) as usize
}

struct CellResult {
    cell: &'static str,
    readopt: bool,
    issued: u64,
    completed: u64,
    failed: u64,
    duplicates: u64,
    orphans: usize,
    lost_orphans: usize,
    rto_max: SimDuration,
    rto_mean: SimDuration,
    readopts: u64,
    deposed: u64,
    rejoined: u64,
    restores: u64,
    snapshots: u64,
}

fn run_cell(seed: u64, cell: Cell, readopt: bool, budget: u64) -> CellResult {
    let mut config = TestbedConfig::new(BackendKind::Nic)
        .seed(seed)
        .workers(WORKERS);
    config.gateway.rpc_timeout = SimDuration::from_millis(50);
    config.gateway.rpc_attempts = 5;
    config.gateway = config.gateway.resilient();
    let gw_params = config.gateway.clone();
    let link = config.link;
    let mut bed = build_testbed(config);
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let tier_cfg = TierConfig {
        resubmit_timeout: RESUBMIT,
        readopt,
        ..TierConfig::default()
    };
    let target = fault_target(&tier_cfg) as u32;
    let (router, controller) = bed.enable_gateway_tier(EXTRA_SHARDS, gw_params, link, tier_cfg);
    // Rack loss takes a worker down with its shard: the dead worker's
    // lambdas must be re-placed on the survivors.
    bed.enable_failover(FailoverConfig {
        heartbeat_interval: SimDuration::from_millis(25),
        missed_beats: 3,
        ..FailoverConfig::default()
    });
    let label = format!(
        "disaster-{}-{}",
        cell.name(),
        if readopt { "readopt" } else { "baseline" }
    );
    attach_trace(&mut bed, &label);
    bed.sim.add_trace_sink(Box::<DeliverySink>::default());

    let jobs: Vec<JobSpec> = program
        .lambdas
        .iter()
        .map(|l| JobSpec {
            workload_id: l.id.0,
            payload: PayloadSpec::Page(0),
        })
        .collect();
    let driver = bed.sim.add(ClosedLoopDriver::new(
        router,
        jobs,
        THREADS,
        THINK,
        Some(budget),
    ));
    bed.sim
        .post(driver, SimDuration::from_millis(50), StartDriver);

    // (crash instant, shards crashing at it)
    let at = SimTime::ZERO + SimDuration::from_millis(200);
    let stagger = SimDuration::from_millis(80);
    let crashes: Vec<(SimTime, Vec<u32>)> = match cell {
        Cell::RestartStorm => {
            bed.inject_faults(&FaultPlan::new().restart_storm(
                0,
                EXTRA_SHARDS + 1,
                at,
                stagger,
                SimDuration::from_millis(60),
            ));
            (0..=EXTRA_SHARDS as u32)
                .map(|k| (at + stagger * u64::from(k), vec![k]))
                .collect()
        }
        Cell::RackLoss => {
            bed.inject_faults(&FaultPlan::new().rack_loss(
                target as usize,
                &[1],
                at,
                SimDuration::from_millis(120),
            ));
            vec![(at, vec![target])]
        }
        Cell::CtrlCoCrash => {
            bed.inject_faults(
                &FaultPlan::new()
                    .tier_controller_crash(at)
                    .gateway_crash(target as usize, at)
                    .tier_controller_restart(SimTime::ZERO + SimDuration::from_millis(300))
                    .gateway_restart(
                        target as usize,
                        SimTime::ZERO + SimDuration::from_millis(800),
                    ),
            );
            vec![(at, vec![target])]
        }
    };

    // Pause just before each crash and snapshot the requests pending on
    // the shards about to die: those are the orphans the RTO is scored
    // over. Each is still pending, so its delivery lies ahead of the
    // sink.
    let mut orphans: Vec<(u64, SimTime)> = Vec::new();
    for (crash_at, shards) in &crashes {
        bed.sim.run_until(*crash_at - SimDuration::from_micros(1));
        let r = bed.sim.get::<ShardRouter>(router).unwrap();
        let stranded: Vec<u64> = shards.iter().flat_map(|&g| r.pending_owned_by(g)).collect();
        let sink = bed.sim.trace_sink_mut::<DeliverySink>().unwrap();
        for uid in stranded {
            sink.watched.insert(uid, None);
            orphans.push((uid, *crash_at));
        }
    }
    if cell == Cell::RackLoss {
        // The rack's NIC lost its volatile instruction store: pause
        // just after the restart and re-image it, as the deployment
        // controller would on rack recovery.
        bed.sim
            .run_until(SimTime::ZERO + SimDuration::from_millis(330));
        bed.redeploy_worker(1, &program);
    }
    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(6));
    bed.finish_tracing();
    finish_trace(&mut bed, &label);

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    assert!(d.is_done(), "{label}: all budgeted requests must terminate");
    let failed = d.completed().iter().filter(|c| c.failed).count() as u64;

    let delivered = &bed.sim.trace_sink::<DeliverySink>().unwrap().watched;
    let mut rto_max = SimDuration::ZERO;
    let mut rto_sum = SimDuration::ZERO;
    let mut lost_orphans = 0usize;
    for &(uid, crash_at) in &orphans {
        match delivered[&uid] {
            Some(t) => {
                let rto = t.saturating_duration_since(crash_at);
                rto_max = rto_max.max(rto);
                rto_sum += rto;
            }
            None => lost_orphans += 1,
        }
    }
    let served = orphans.len() - lost_orphans;
    let rto_mean = if served == 0 {
        SimDuration::ZERO
    } else {
        rto_sum / served as u64
    };
    let rc = bed.sim.get::<ShardRouter>(router).unwrap().counters();
    let tc = bed
        .sim
        .get::<TierController>(controller)
        .unwrap()
        .counters();
    let res = CellResult {
        cell: cell.name(),
        readopt,
        issued: d.issued(),
        completed: d.completed().len() as u64,
        failed,
        duplicates: rc.duplicates,
        orphans: orphans.len(),
        lost_orphans,
        rto_max,
        rto_mean,
        readopts: tc.readopts,
        deposed: tc.deposed,
        rejoined: tc.rejoined,
        restores: tc.restores,
        snapshots: tc.snapshots,
    };
    // The non-negotiable contract in every cell and both arms.
    assert_eq!(
        res.completed,
        budget * THREADS as u64,
        "{label}: lost completions"
    );
    assert_eq!(res.failed, 0, "{label}: no client request may fail");
    assert_eq!(res.duplicates, 0, "{label}: no duplicate deliveries");
    assert_eq!(res.lost_orphans, 0, "{label}: every orphan must be served");
    assert!(res.orphans > 0, "{label}: the fault must orphan something");
    res
}

fn ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

fn cell_json(r: &CellResult) -> String {
    format!(
        "    {{\"cell\": \"{}\", \"arm\": \"{}\", \"issued\": {}, \"completed\": {}, \
         \"failed\": {}, \"duplicates\": {},\n     \"orphans\": {}, \"lost_orphans\": {}, \
         \"rto_max_ms\": {:.3}, \"rto_mean_ms\": {:.3},\n     \"readopts\": {}, \
         \"deposed\": {}, \"rejoined\": {}, \"restores\": {}, \"snapshots\": {}}}",
        r.cell,
        if r.readopt { "readopt" } else { "baseline" },
        r.issued,
        r.completed,
        r.failed,
        r.duplicates,
        r.orphans,
        r.lost_orphans,
        ms(r.rto_max),
        ms(r.rto_mean),
        r.readopts,
        r.deposed,
        r.rejoined,
        r.restores,
        r.snapshots,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = 42 + seed_offset();
    let budget: u64 = if smoke { 3_000 } else { 6_000 };
    let lease = TierConfig::default().lease;
    println!(
        "disaster recovery: {WORKERS} workers, {} shards, seed {seed}, budget {budget}/thread{}",
        EXTRA_SHARDS + 1,
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "lease horizon {} ms, resubmit watchdog {} ms (both arms)",
        ms(lease) as u64,
        ms(RESUBMIT) as u64
    );

    let cells = [Cell::RestartStorm, Cell::RackLoss, Cell::CtrlCoCrash];
    let mut results: Vec<CellResult> = Vec::new();
    for &cell in &cells {
        for &readopt in &[true, false] {
            results.push(run_cell(seed, cell, readopt, budget));
        }
    }

    println!("cell            arm       orphans  rto_max_ms  rto_mean_ms  deposed  readopts");
    for r in &results {
        println!(
            "{:<15} {:<9} {:>7}  {:>10.2} {:>12.2} {:>8} {:>9}",
            r.cell,
            if r.readopt { "readopt" } else { "baseline" },
            r.orphans,
            ms(r.rto_max),
            ms(r.rto_mean),
            r.deposed,
            r.readopts,
        );
    }

    // RTO contract: with re-adoption on, the worst orphan of every cell
    // recovers within a small multiple of the lease horizon; the storm
    // baseline (no deposition, no re-adoption — only the watchdog) is
    // pinned to the 1 s resubmit timer and must be strictly worse.
    let storm_readopt = &results[0];
    let storm_baseline = &results[1];
    for r in results.iter().filter(|r| r.readopt) {
        // Deposition cannot begin before the controller is back: the
        // co-crash cell's bound includes its 100 ms controller outage.
        let bound = if r.cell == Cell::CtrlCoCrash.name() {
            lease * 2 + SimDuration::from_millis(100)
        } else {
            lease * 2
        };
        assert!(
            r.rto_max <= bound,
            "{}: readopt rto_max {:.2} ms above its lease-horizon bound {:.0} ms",
            r.cell,
            ms(r.rto_max),
            ms(bound)
        );
    }
    assert!(
        storm_baseline.rto_max >= RESUBMIT,
        "storm baseline must be bounded by the resubmit timer (got {:.2} ms)",
        ms(storm_baseline.rto_max)
    );
    assert!(
        storm_readopt.rto_max * 2 < storm_baseline.rto_max,
        "re-adoption must beat the resubmit-timer baseline ({:.2} ms vs {:.2} ms)",
        ms(storm_readopt.rto_max),
        ms(storm_baseline.rto_max)
    );
    println!(
        "storm rto_max: readopt {:.2} ms vs baseline {:.2} ms (lease horizon {} ms)",
        ms(storm_readopt.rto_max),
        ms(storm_baseline.rto_max),
        ms(lease) as u64
    );

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"disaster_recovery\",\n");
    let _ = writeln!(
        json,
        "  \"seed\": {seed}, \"commit\": \"{}\", \"smoke\": {smoke},",
        commit_id()
    );
    let _ = writeln!(
        json,
        "  \"workers\": {WORKERS}, \"threads\": {THREADS}, \"tier_shards\": {}, \"budget_per_thread\": {budget},",
        EXTRA_SHARDS + 1
    );
    let _ = writeln!(
        json,
        "  \"lease_ms\": {:.1}, \"resubmit_ms\": {:.1},",
        ms(lease),
        ms(RESUBMIT)
    );
    json.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(json, "{}{comma}", cell_json(r));
    }
    json.push_str("  ]\n}\n");

    write_results("BENCH_disaster.json", &json, smoke);
}
