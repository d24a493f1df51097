//! Disaster drills for the gateway tier: controller snapshot/restore,
//! correlated failures (restart storms, rack loss, controller+shard
//! co-crash), and tier-wide graceful degradation under a global
//! admission budget.
//!
//! Every run keeps the testbed's default `InvariantChecker` attached,
//! so rules 14 and 15 (exactly-once client delivery, shard-map epoch
//! monotonicity, snapshot/restore conservation) audit the full trace
//! and panic on the first violation. On top of that the suite asserts
//! the recovery contract directly: no acked completion is lost, no
//! client sees a duplicate, a restored controller reconciles live
//! shard epochs instead of re-deposing, and a corrupted snapshot
//! degrades to a cold rebuild instead of a panic.
//!
//! The trace stream is pinned (`goldens/disaster_hashes.txt`, re-pin
//! intentional changes with `UPDATE_GOLDENS=1`). The nightly soak job
//! stretches every horizon via `LNIC_SOAK_FACTOR`.

use std::sync::Arc;

use lnic::failover::FailoverConfig;
use lnic::gateway::Gateway;
use lnic::gwtier::{DrainShard, ShardMap, ShardRouter, TierConfig, TierController};
use lnic::prelude::*;
use lnic_integration::{golden_checks_enabled, goldens, page_jobs, resilient_nic_config};
use lnic_sim::fault::FaultPlan;
use lnic_sim::prelude::*;
use lnic_workloads::three_web_servers;

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: u64 = 1400;
/// Closed-loop think time: sized so the drivers' traffic spans the
/// whole disaster window (first crash at 200 ms … last restart 800 ms).
const THINK: SimDuration = SimDuration::from_millis(1);
const EXTRA_SHARDS: usize = 2; // shard ids 0 (primary), 1, 2

/// Nightly soak multiplier: stretches request budgets and run horizons
/// by `LNIC_SOAK_FACTOR` (default 1 = the regular CI profile).
fn soak_factor() -> u64 {
    std::env::var("LNIC_SOAK_FACTOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Staggered crash/restart of two shards inside one window: each
    /// restarts before its lease lapses, so recovery must come from
    /// incarnation-triggered re-adoption, not deposition.
    RestartStorm,
    /// A shard and the worker behind it crash at the same instant and
    /// restart together `down` later.
    RackLoss,
    /// The tier controller and a shard crash together; the controller
    /// restores from its snapshot while the shard stays dark past the
    /// lease horizon and must be deposed post-restore.
    CtrlCoCrash,
    /// A clean controller crash/restart under healthy traffic: the
    /// warm restore must reconcile and change nothing client-visible.
    CtrlRestore,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::RestartStorm => "disaster-restart-storm-seed42",
            Scenario::RackLoss => "disaster-rack-loss-seed42",
            Scenario::CtrlCoCrash => "disaster-ctrl-co-crash-seed42",
            Scenario::CtrlRestore => "disaster-ctrl-restore-seed42",
        }
    }
}

/// The shard the fault is aimed at: whichever one owns client 0 under
/// the initial map — guaranteed to carry closed-loop traffic.
fn fault_target() -> usize {
    let members: Vec<u32> = (0..=EXTRA_SHARDS as u32).collect();
    ShardMap::new(1, &members, TierConfig::default().vnodes).route(0) as usize
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RunResult {
    hash: u64,
    completed: u64,
    driver_failed: u64,
    routed: u64,
    delivered: u64,
    rerouted: u64,
    duplicates: u64,
    readopted: u64,
    deposed: u64,
    rejoined: u64,
    snapshots: u64,
    restores: u64,
    cold_restores: u64,
    readopts: u64,
    final_epoch: u64,
}

fn tier_run(seed: u64, scenario: Scenario) -> RunResult {
    let factor = soak_factor();
    let config = resilient_nic_config(seed, 3);
    let gw_params = config.gateway.clone();
    let link = config.link;
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(HashSink::new()));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let (router, controller) =
        bed.enable_gateway_tier(EXTRA_SHARDS, gw_params, link, TierConfig::default());
    // Placement failover: a rack loss takes a *worker* down with its
    // shard, and the dead worker's lambdas must be re-placed on the
    // survivors or requests to them would retry forever.
    bed.enable_failover(FailoverConfig {
        heartbeat_interval: SimDuration::from_millis(25),
        missed_beats: 3,
        ..FailoverConfig::default()
    });

    let driver = bed.sim.add(ClosedLoopDriver::new(
        router,
        page_jobs(&program),
        THREADS,
        THINK,
        Some(REQUESTS_PER_THREAD * factor),
    ));
    bed.sim
        .post(driver, SimDuration::from_millis(50), StartDriver);

    let target = fault_target();
    let at = SimTime::ZERO + SimDuration::from_millis(200);
    match scenario {
        Scenario::RestartStorm => {
            // A rolling restart of the whole tier. Stagger (80 ms) >
            // down (60 ms): each shard is back before the next one
            // falls, and well before its own lease lapses.
            bed.inject_faults(&FaultPlan::new().restart_storm(
                0,
                EXTRA_SHARDS + 1,
                at,
                SimDuration::from_millis(80),
                SimDuration::from_millis(60),
            ));
        }
        Scenario::RackLoss => {
            bed.inject_faults(&FaultPlan::new().rack_loss(
                target,
                &[1],
                at,
                SimDuration::from_millis(120),
            ));
        }
        Scenario::CtrlCoCrash => {
            bed.inject_faults(
                &FaultPlan::new()
                    .tier_controller_crash(at)
                    .gateway_crash(target, at)
                    .tier_controller_restart(SimTime::ZERO + SimDuration::from_millis(300))
                    .gateway_restart(target, SimTime::ZERO + SimDuration::from_millis(800)),
            );
        }
        Scenario::CtrlRestore => {
            bed.inject_faults(
                &FaultPlan::new()
                    .tier_controller_crash(SimTime::ZERO + SimDuration::from_millis(300))
                    .tier_controller_restart(SimTime::ZERO + SimDuration::from_millis(400)),
            );
        }
    }

    if scenario == Scenario::RackLoss {
        // The rack's NIC lost its volatile instruction store in the
        // power event, so the restarted worker would black-hole every
        // request. Pause just after the restart and have the
        // deployment controller re-image it, as the real control
        // plane would on rack recovery.
        bed.sim
            .run_until(SimTime::ZERO + SimDuration::from_millis(330));
        bed.redeploy_worker(1, &program);
    }
    bed.sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(4 * factor));
    bed.finish_tracing();

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    assert!(d.is_done(), "all budgeted requests must terminate");
    let completed = d.completed().len() as u64;
    let driver_failed = d.completed().iter().filter(|c| c.failed).count() as u64;

    let r = bed.sim.get::<ShardRouter>(router).unwrap();
    assert_eq!(
        r.pending_len(),
        0,
        "no client request may be left pending at the end of the run"
    );
    let rc = r.counters();
    let tcc = bed.sim.get::<TierController>(controller).unwrap();
    let tc = tcc.counters();
    let final_epoch = tcc.map_epoch();
    let hash_sink = bed.sim.trace_sink::<HashSink>().expect("hash sink");
    assert!(hash_sink.count() > 0, "trace stream must not be empty");
    RunResult {
        hash: hash_sink.hash(),
        completed,
        driver_failed,
        routed: rc.routed,
        delivered: rc.delivered,
        rerouted: rc.rerouted,
        duplicates: rc.duplicates,
        readopted: rc.readopted,
        deposed: tc.deposed,
        rejoined: tc.rejoined,
        snapshots: tc.snapshots,
        restores: tc.restores,
        cold_restores: tc.cold_restores,
        readopts: tc.readopts,
        final_epoch,
    }
}

#[test]
fn restart_storm_recovers_by_readoption_not_deposition() {
    let r = tier_run(42, Scenario::RestartStorm);
    let budget = THREADS as u64 * REQUESTS_PER_THREAD * soak_factor();
    assert_eq!(r.completed, budget);
    assert_eq!(r.driver_failed, 0, "a restart storm must not fail a client");
    assert_eq!(r.duplicates, 0, "no client may see a duplicate completion");
    // Each stormed shard came back inside its lease window: recovery is
    // incarnation-triggered re-adoption, not deposition.
    assert!(
        r.readopts >= (EXTRA_SHARDS + 1) as u64,
        "every stormed shard must be re-adopted (got {})",
        r.readopts
    );
    assert!(
        r.readopted >= 1,
        "re-adoption must re-home orphaned in-flight requests"
    );
    assert_eq!(
        r.deposed, 0,
        "a storm inside the lease window must not depose anyone"
    );
    assert_eq!(r.final_epoch, 1, "the map must not move");
}

#[test]
fn rack_loss_recovers_the_shard_and_its_worker() {
    let r = tier_run(42, Scenario::RackLoss);
    let budget = THREADS as u64 * REQUESTS_PER_THREAD * soak_factor();
    assert_eq!(r.completed, budget);
    assert_eq!(r.driver_failed, 0, "rack loss must not fail a client");
    assert_eq!(r.duplicates, 0, "no client may see a duplicate completion");
    // The shard is dark past its lease horizon (the fence at lease
    // expiry deterministically beats the first post-restart ack), so
    // recovery is deposition + rejoin; the worker's lambdas are
    // re-placed by the failover controller in parallel.
    assert!(r.deposed >= 1, "the lost shard must be deposed");
    assert!(r.rejoined >= 1, "the restarted shard must rejoin");
}

#[test]
fn controller_and_shard_co_crash_recovers_past_the_restore() {
    let r = tier_run(42, Scenario::CtrlCoCrash);
    let budget = THREADS as u64 * REQUESTS_PER_THREAD * soak_factor();
    assert_eq!(r.completed, budget);
    assert_eq!(r.driver_failed, 0, "a co-crash must not fail a client");
    assert_eq!(r.duplicates, 0, "no client may see a duplicate completion");
    assert_eq!(r.restores, 1, "the controller must restore exactly once");
    assert_eq!(r.cold_restores, 0, "the snapshot was intact: warm restore");
    assert!(r.snapshots >= 1, "cadence must have taken snapshots");
    // The co-crashed shard stayed dark past the lease horizon: the
    // *restored* controller must depose it, then re-admit it.
    assert!(
        r.deposed >= 1,
        "the dark shard must be deposed post-restore"
    );
    assert!(r.rejoined >= 1, "the restarted shard must rejoin");
    assert!(r.rerouted > 0, "orphaned requests must be re-routed");
    assert!(r.final_epoch >= 3, "depose + rejoin bump the epoch twice");
}

#[test]
fn controller_restore_is_client_invisible() {
    let r = tier_run(42, Scenario::CtrlRestore);
    let budget = THREADS as u64 * REQUESTS_PER_THREAD * soak_factor();
    assert_eq!(r.completed, budget);
    assert_eq!(r.driver_failed, 0);
    assert_eq!(r.duplicates, 0);
    assert_eq!(r.restores, 1, "the controller must restore exactly once");
    assert_eq!(r.cold_restores, 0, "the snapshot was intact: warm restore");
    assert!(r.snapshots >= 2, "cadence snapshots before and after");
    assert_eq!(r.deposed, 0, "a clean restore must not depose anyone");
    assert_eq!(r.final_epoch, 1, "the map must not move across a restore");
}

/// A corrupted stable snapshot must degrade to a cold rebuild (keep the
/// in-memory map, re-bound leases, reconcile live epochs) — never panic
/// and never regress the tier.
#[test]
fn corrupted_snapshot_falls_back_to_cold_rebuild() {
    let config = resilient_nic_config(42, 3);
    let gw_params = config.gateway.clone();
    let link = config.link;
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(HashSink::new()));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let (router, controller) =
        bed.enable_gateway_tier(EXTRA_SHARDS, gw_params, link, TierConfig::default());
    let driver = bed.sim.add(ClosedLoopDriver::new(
        router,
        page_jobs(&program),
        THREADS,
        THINK,
        Some(REQUESTS_PER_THREAD),
    ));
    bed.sim
        .post(driver, SimDuration::from_millis(50), StartDriver);
    bed.inject_faults(
        &FaultPlan::new()
            .tier_controller_crash(SimTime::ZERO + SimDuration::from_millis(600))
            .tier_controller_restart(SimTime::ZERO + SimDuration::from_millis(700)),
    );

    // Let the cadence take real snapshots, then rot the stable copy
    // before the crash lands.
    bed.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(500));
    {
        let tcc = bed.sim.get_mut::<TierController>(controller).unwrap();
        assert!(
            tcc.stable_bytes().is_some(),
            "cadence must have written a snapshot by 500 ms"
        );
        tcc.clobber_stable(vec![0xde; 48]);
    }
    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(4));
    bed.finish_tracing();

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    assert!(d.is_done(), "all budgeted requests must terminate");
    assert_eq!(
        d.completed().iter().filter(|c| c.failed).count(),
        0,
        "a cold rebuild must not fail a client"
    );
    let tc = bed
        .sim
        .get::<TierController>(controller)
        .unwrap()
        .counters();
    assert_eq!(tc.restores, 1, "the restart must still count as a restore");
    assert_eq!(
        tc.cold_restores, 1,
        "a corrupted snapshot must be detected and rebuilt cold"
    );
    let rc = bed.sim.get::<ShardRouter>(router).unwrap().counters();
    assert_eq!(rc.duplicates, 0);
}

/// Drain guards: a concurrent double-drain of the same shard and a
/// drain of the last live shard are refused, not wedged.
#[test]
fn drain_guards_refuse_double_and_last_shard_drains() {
    // Double-drain: the second command lands while the first drain's
    // shard is already fenced/out of the map.
    let config = resilient_nic_config(42, 3);
    let gw_params = config.gateway.clone();
    let link = config.link;
    let mut bed = build_testbed(config);
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let (router, controller) =
        bed.enable_gateway_tier(EXTRA_SHARDS, gw_params, link, TierConfig::default());
    let driver = bed.sim.add(ClosedLoopDriver::new(
        router,
        page_jobs(&program),
        THREADS,
        SimDuration::ZERO,
        Some(400),
    ));
    bed.sim
        .post(driver, SimDuration::from_millis(50), StartDriver);
    // Both commands land at the same instant (delivered in post
    // order): the second sees the shard already out of the map — a
    // rejoin can land within a heartbeat, so a *later* drain would be
    // a legitimate fresh drain, not a double.
    let target = fault_target() as u32;
    for _ in 0..2 {
        bed.sim.post(
            controller,
            SimDuration::from_millis(200),
            DrainShard {
                gateway: target,
                rejoin_after: true,
            },
        );
    }
    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(4));
    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    assert!(d.is_done(), "all budgeted requests must terminate");
    let tc = bed
        .sim
        .get::<TierController>(controller)
        .unwrap()
        .counters();
    assert_eq!(tc.drains, 1, "only the first drain may execute");
    assert_eq!(tc.drains_refused, 1, "the double-drain must be refused");

    // Last shard standing: a single-member tier refuses to drain at
    // all — nothing could adopt its work.
    let config = resilient_nic_config(42, 3);
    let gw_params = config.gateway.clone();
    let link = config.link;
    let mut bed = build_testbed(config);
    bed.preload(&program);
    let (_router, controller) = bed.enable_gateway_tier(0, gw_params, link, TierConfig::default());
    bed.sim.post(
        controller,
        SimDuration::from_millis(200),
        DrainShard {
            gateway: 0,
            rejoin_after: true,
        },
    );
    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let tc = bed
        .sim
        .get::<TierController>(controller)
        .unwrap()
        .counters();
    assert_eq!(tc.drains, 0, "the last live shard must never drain");
    assert_eq!(tc.drains_refused, 1, "the refusal must be counted");
}

/// Tier admission under partition: a partitioned shard keeps its last
/// local slice (and is fenced anyway), survivors are rebalanced, and
/// total admission never exceeds the global budget envelope.
#[test]
fn partitioned_tier_stays_under_the_global_admission_budget() {
    const GLOBAL_RATE: f64 = 500.0;
    const GLOBAL_BURST: f64 = 24.0;
    let config = resilient_nic_config(42, 3);
    let gw_params = config.gateway.clone();
    let link = config.link;
    let mut bed = build_testbed(config);
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let cfg = TierConfig {
        global_rate_per_sec: GLOBAL_RATE,
        global_burst: GLOBAL_BURST,
        ..TierConfig::default()
    };
    let (router, controller) = bed.enable_gateway_tier(EXTRA_SHARDS, gw_params, link, cfg);
    let driver = bed.sim.add(ClosedLoopDriver::new(
        router,
        page_jobs(&program),
        THREADS,
        SimDuration::ZERO,
        Some(REQUESTS_PER_THREAD),
    ));
    bed.sim
        .post(driver, SimDuration::from_millis(50), StartDriver);
    bed.inject_faults(&FaultPlan::new().gateway_partition(
        fault_target(),
        SimTime::ZERO + SimDuration::from_millis(200),
        SimDuration::from_millis(600),
    ));
    const HORIZON_S: u64 = 4;
    bed.sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(HORIZON_S));

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    assert!(d.is_done(), "every request must terminate (shed counts)");
    let tc = bed
        .sim
        .get::<TierController>(controller)
        .unwrap()
        .counters();
    assert!(
        tc.budget_rebalances >= 3,
        "install + depose + rejoin must each rebalance the budget"
    );
    let workloads = program.lambdas.len() as f64;
    let (mut admitted, mut rejected) = (0u64, 0u64);
    for &gw in &bed.gateways {
        let g = bed.sim.get::<Gateway>(gw).unwrap();
        let (a, r) = g
            .admission_stats()
            .expect("the global budget must install admission on every shard");
        admitted += a;
        rejected += r;
        let rate = g.admission_rate().unwrap();
        assert!(
            rate <= GLOBAL_RATE,
            "no single slice may exceed the whole budget (got {rate})"
        );
    }
    assert!(rejected > 0, "zero-think closed loops must hit the budget");
    // Token-bucket envelope: rate x horizon, plus one fresh burst per
    // workload per rebalance (set_rate resets the buckets).
    let bound = GLOBAL_RATE * HORIZON_S as f64
        + (tc.budget_rebalances + 1) as f64 * GLOBAL_BURST * workloads;
    assert!(
        (admitted as f64) <= bound,
        "tier admitted {admitted}, above the global envelope {bound}"
    );
    // Survivors' slices sum to at most the global budget at the end
    // (the healed shard has been rebalanced back in).
    let final_sum: f64 = bed
        .gateways
        .iter()
        .map(|&gw| {
            bed.sim
                .get::<Gateway>(gw)
                .unwrap()
                .admission_rate()
                .unwrap()
        })
        .sum();
    assert!(
        final_sum <= GLOBAL_RATE + 1e-6,
        "slices must sum back to the global budget (got {final_sum})"
    );
}

#[test]
fn disaster_traces_are_deterministic_across_runs() {
    let a = tier_run(42, Scenario::CtrlCoCrash).hash;
    let b = tier_run(42, Scenario::CtrlCoCrash).hash;
    assert_eq!(a, b, "same seed, same scenario, different trace");
}

fn golden_cases() -> Vec<(&'static str, Scenario)> {
    vec![
        (Scenario::RestartStorm.name(), Scenario::RestartStorm),
        (Scenario::RackLoss.name(), Scenario::RackLoss),
        (Scenario::CtrlCoCrash.name(), Scenario::CtrlCoCrash),
        (Scenario::CtrlRestore.name(), Scenario::CtrlRestore),
    ]
}

const GOLDENS_FILE: &str = "disaster_hashes.txt";

/// The disaster scenarios' trace hashes must match the pinned goldens.
/// After an *intentional* change, regenerate with:
///
/// ```text
/// UPDATE_GOLDENS=1 cargo test -p lnic-integration --test disaster_recovery
/// ```
#[test]
fn disaster_trace_hashes_match_pinned_goldens() {
    if !golden_checks_enabled() || soak_factor() != 1 {
        eprintln!("skipping pinned golden check (seed offset or soak)");
        return;
    }
    if goldens::update_requested() {
        let cases: Vec<(String, u64)> = golden_cases()
            .into_iter()
            .map(|(name, scenario)| (name.to_owned(), tier_run(42, scenario).hash))
            .collect();
        goldens::write(
            GOLDENS_FILE,
            "Pinned FNV-1a trace hashes. Regenerate with UPDATE_GOLDENS=1\n\
             cargo test -p lnic-integration --test disaster_recovery",
            &cases,
        );
        return;
    }
    let goldens = goldens::read(GOLDENS_FILE);
    for (name, scenario) in golden_cases() {
        let expect = *goldens
            .get(name)
            .unwrap_or_else(|| panic!("golden `{name}` missing from disaster_hashes.txt"));
        let got = tier_run(42, scenario).hash;
        assert_eq!(
            got, expect,
            "golden `{name}` drifted: got {got:#018x}, pinned {expect:#018x} \
             (if intentional, re-pin with UPDATE_GOLDENS=1)"
        );
    }
}
