//! End-to-end tests for the sharded gateway tier: consistent-hash
//! routing over three gateway shards, lease-fenced membership, and
//! crash/partition/drain-survivable handoff.
//!
//! Every run keeps the testbed's default `InvariantChecker` attached,
//! so rule 14 (exactly-once client-visible completion, shard-map epoch
//! monotonicity, no acceptance by deposed shards) audits the full
//! stream and panics on the first violation — merely completing a run
//! here is a correctness claim. On top of that the suite asserts the
//! delivery contract directly: every routed client request terminates
//! in exactly one completion, across shard crashes, partitions, and
//! planned drains, with the duplicate executions those faults provoke
//! visibly suppressed at the router.
//!
//! The trace stream is pinned (`goldens/gateway_tier_hashes.txt`,
//! re-pin intentional changes with `UPDATE_GOLDENS=1`).

use std::sync::Arc;

use lnic::gateway::Gateway;
use lnic::gwtier::{DrainShard, PlanetDriver, ShardMap, ShardRouter, TierConfig, TierController};
use lnic::prelude::*;
use lnic_integration::{
    assert_gateways_retired, golden_checks_enabled, goldens, page_jobs, resilient_nic_config,
    spawn_closed_loop,
};
use lnic_raft::RaftConfig;
use lnic_sim::fault::FaultPlan;
use lnic_sim::prelude::*;
use lnic_workloads::kv::{KvMix, REPKV_WORKLOAD_ID};
use lnic_workloads::planet::{FlashCrowd, PlanetModel};
use lnic_workloads::three_web_servers;

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: u64 = 1400;
/// Closed-loop think time: sized so the drivers' traffic spans the
/// whole fault window (crash at 200 ms … rejoin after 1.2 s).
const THINK: SimDuration = SimDuration::from_millis(1);
const EXTRA_SHARDS: usize = 2; // shard ids 0 (primary), 1, 2

#[derive(Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Traffic only: the tier must be invisible (zero bounces, zero
    /// reroutes, zero duplicates).
    Healthy,
    /// The shard owning client 0 crashes mid-run and restarts later:
    /// its orphaned requests must be re-homed and every client request
    /// still complete exactly once.
    ShardCrash,
    /// The shard owning client 0 is cut off (data links and control
    /// channels) mid-run, then heals: it must self-fence, get deposed,
    /// and rejoin at a bumped epoch.
    ShardPartition,
    /// The shard owning client 0 is administratively drained: its
    /// in-flight requests are handed to the ring successor and it
    /// rejoins after.
    ShardDrain,
    /// Planetary open-loop traffic (diurnal regions, a regional flash
    /// crowd, heavy-tailed clients) with a shard crash mid-crowd.
    FlashCrowd,
    /// The `ShardDrain` fault, then a crash of the successor shard that
    /// adopted the drained requests.
    CrashAndDrain,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Healthy => "tier-healthy-seed42",
            Scenario::ShardCrash => "tier-shard-crash-seed42",
            Scenario::ShardPartition => "tier-shard-partition-seed42",
            Scenario::ShardDrain => "tier-shard-drain-seed42",
            Scenario::FlashCrowd => "tier-flash-crowd-seed42",
            Scenario::CrashAndDrain => "tier-crash-and-drain-seed42",
        }
    }
}

/// The shard the fault is aimed at: whichever one owns client 0 under
/// the initial map — guaranteed to carry closed-loop traffic, so the
/// fault always hits in-flight state. Pure function of the ring.
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
    bounced: u64,
    duplicates: u64,
    deposed: u64,
    rejoined: u64,
    handed_off: u64,
    adopted: u64,
    final_epoch: u64,
}

fn tier_run(seed: u64, scenario: Scenario) -> RunResult {
    let config = resilient_nic_config(seed, 3);
    let gw_params = config.gateway.clone();
    let link = config.link;
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(HashSink::new()));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let (router, controller) =
        bed.enable_gateway_tier(EXTRA_SHARDS, gw_params, link, TierConfig::default());

    let driver = if scenario == Scenario::FlashCrowd {
        // 1M-client planetary model at 1500 rps aggregate, a 4x flash
        // crowd on region 1 starting at 0.5 s, compressed 2 s day.
        let model = PlanetModel::planetary(1_000_000, 1500.0).with_flash_crowd(FlashCrowd {
            at_s: 0.5,
            duration_s: 0.3,
            multiplier: 4.0,
            region: Some(1),
        });
        let d = bed.sim.add(PlanetDriver::new(
            router,
            model,
            page_jobs(&program),
            SimDuration::from_millis(1500),
        ));
        bed.sim.post(d, SimDuration::from_millis(50), StartDriver);
        d
    } else {
        // Zero think for the drain cells: every client then always has
        // a request in flight, so the drain provably catches live state
        // to hand off. The other cells think for [`THINK`] so traffic
        // spans the whole crash/restart window.
        let think = if matches!(scenario, Scenario::ShardDrain | Scenario::CrashAndDrain) {
            SimDuration::ZERO
        } else {
            THINK
        };
        let d = bed.sim.add(ClosedLoopDriver::new(
            router,
            page_jobs(&program),
            THREADS,
            think,
            Some(REQUESTS_PER_THREAD),
        ));
        bed.sim.post(d, SimDuration::from_millis(50), StartDriver);
        d
    };

    let target = fault_target();
    let at = SimTime::ZERO + SimDuration::from_millis(200);
    match scenario {
        Scenario::Healthy => {}
        Scenario::ShardCrash => {
            bed.inject_faults(
                &FaultPlan::new()
                    .gateway_crash(target, at)
                    .gateway_restart(target, SimTime::ZERO + SimDuration::from_millis(1200)),
            );
        }
        Scenario::ShardPartition => {
            bed.inject_faults(&FaultPlan::new().gateway_partition(
                target,
                at,
                SimDuration::from_millis(600),
            ));
        }
        Scenario::ShardDrain | Scenario::CrashAndDrain => {
            bed.sim.post(
                controller,
                SimDuration::from_millis(200),
                DrainShard {
                    gateway: target as u32,
                    rejoin_after: true,
                },
            );
            if scenario == Scenario::CrashAndDrain {
                // Crash the successor that adopted the drained work.
                let members: Vec<u32> = (0..=EXTRA_SHARDS as u32).collect();
                let heir = ShardMap::new(1, &members, TierConfig::default().vnodes)
                    .successor(target as u32)
                    .expect("a successor") as usize;
                bed.inject_faults(
                    &FaultPlan::new()
                        .gateway_crash(heir, at + SimDuration::from_millis(5))
                        .gateway_restart(heir, SimTime::ZERO + SimDuration::from_millis(1200)),
                );
            }
        }
        Scenario::FlashCrowd => {
            // Crash the target shard in the middle of the flash crowd,
            // restore it before the crowd ends.
            bed.inject_faults(
                &FaultPlan::new()
                    .gateway_crash(target, SimTime::ZERO + SimDuration::from_millis(600))
                    .gateway_restart(target, SimTime::ZERO + SimDuration::from_millis(1100)),
            );
        }
    }

    // The tier controller's heartbeat ticks forever: run to a horizon.
    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(4));
    bed.finish_tracing();

    let (completed, driver_failed) = if scenario == Scenario::FlashCrowd {
        let d = bed.sim.get::<PlanetDriver>(driver).unwrap();
        assert_eq!(
            d.completed().len() as u64,
            d.issued(),
            "every issued planet request must terminate"
        );
        (
            d.completed().len() as u64,
            d.completed().iter().filter(|c| c.failed).count() as u64,
        )
    } else {
        let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
        assert!(d.is_done(), "all budgeted requests must terminate");
        (
            d.completed().len() as u64,
            d.completed().iter().filter(|c| c.failed).count() as u64,
        )
    };

    let r = bed.sim.get::<ShardRouter>(router).unwrap();
    assert_eq!(
        r.pending_len(),
        0,
        "no client request may be left pending at the end of the run"
    );
    assert_gateways_retired(&bed);
    let rc = r.counters();
    let tc = bed
        .sim
        .get::<TierController>(controller)
        .unwrap()
        .counters();
    let final_epoch = bed
        .sim
        .get::<TierController>(controller)
        .unwrap()
        .map_epoch();
    let (mut handed_off, mut adopted) = (0, 0);
    for &gw in &bed.gateways {
        let c = bed.sim.get::<Gateway>(gw).unwrap().counters();
        handed_off += c.handed_off;
        adopted += c.adopted;
    }
    let hash_sink = bed.sim.trace_sink::<HashSink>().expect("hash sink");
    assert!(hash_sink.count() > 0, "trace stream must not be empty");
    RunResult {
        hash: hash_sink.hash(),
        completed,
        driver_failed,
        routed: rc.routed,
        delivered: rc.delivered,
        rerouted: rc.rerouted,
        bounced: rc.bounced,
        duplicates: rc.duplicates,
        deposed: tc.deposed,
        rejoined: tc.rejoined,
        handed_off,
        adopted,
        final_epoch,
    }
}

#[test]
fn healthy_tier_is_invisible() {
    let r = tier_run(42, Scenario::Healthy);
    assert_eq!(r.completed, THREADS as u64 * REQUESTS_PER_THREAD);
    assert_eq!(r.driver_failed, 0, "healthy tier must not fail a request");
    assert_eq!(r.routed, r.delivered, "every routed request delivered ok");
    assert_eq!(r.bounced, 0, "no shard may bounce while all leases hold");
    assert_eq!(r.duplicates, 0, "no duplicates without faults");
    assert_eq!(r.deposed, 0, "no shard may be deposed without faults");
    assert_eq!(r.final_epoch, 1, "the map must not move without faults");
}

#[test]
fn shard_crash_loses_no_client_request() {
    let r = tier_run(42, Scenario::ShardCrash);
    // Exactly-once under crash: all budgeted requests complete, none
    // fail, and the crashed shard's clients were visibly re-homed.
    assert_eq!(r.completed, THREADS as u64 * REQUESTS_PER_THREAD);
    assert_eq!(r.driver_failed, 0, "a shard crash must not fail a client");
    assert!(r.rerouted > 0, "orphaned requests must be re-routed");
    assert!(r.deposed >= 1, "the crashed shard must be deposed");
    assert!(r.rejoined >= 1, "the restarted shard must rejoin");
    assert!(
        r.final_epoch >= 3,
        "depose + rejoin must bump the map epoch at least twice"
    );
}

#[test]
fn shard_partition_self_fences_and_rejoins() {
    let r = tier_run(42, Scenario::ShardPartition);
    assert_eq!(r.completed, THREADS as u64 * REQUESTS_PER_THREAD);
    assert_eq!(r.driver_failed, 0, "a partition must not fail a client");
    assert!(r.deposed >= 1, "the partitioned shard must be deposed");
    assert!(r.rejoined >= 1, "the healed shard must rejoin");
    // The partitioned shard stayed alive: once its lease lapsed it must
    // bounce anything that still reaches it rather than serve fenced.
    assert!(r.rerouted > 0, "partitioned clients must be re-routed");
}

#[test]
fn shard_drain_hands_off_in_flight_requests() {
    let r = tier_run(42, Scenario::ShardDrain);
    assert_eq!(r.completed, THREADS as u64 * REQUESTS_PER_THREAD);
    assert_eq!(r.driver_failed, 0, "a planned drain must not fail a client");
    assert!(
        r.handed_off >= 1,
        "the drained shard held live requests; they must be handed off"
    );
    assert_eq!(
        r.handed_off, r.adopted,
        "every handoff must be adopted by the successor"
    );
    assert!(r.deposed >= 1, "the drained shard leaves the map");
    assert!(r.rejoined >= 1, "rejoin_after re-admits the drained shard");
}

#[test]
fn flash_crowd_with_shard_crash_completes_everything() {
    let r = tier_run(42, Scenario::FlashCrowd);
    assert!(
        r.routed > 500,
        "the planetary model must generate real load (got {})",
        r.routed
    );
    assert_eq!(
        r.routed,
        r.delivered + r.driver_failed,
        "every routed planet request must be delivered exactly once"
    );
    assert_eq!(r.driver_failed, 0, "the tier must absorb the crash");
    assert!(r.deposed >= 1, "the crashed shard must be deposed");
}

/// Hedging + duplicate suppression survive a reorder/duplicate storm
/// at the tier: every gateway shard hedges against a second replica,
/// the fabric duplicates every frame at the gateway links and reorders
/// worker uplinks, and still every client request is delivered exactly
/// once — the losing hedge arms and network duplicates are absorbed by
/// the per-shard trackers, never reaching a client.
#[test]
fn hedged_tier_suppresses_reorder_and_duplicate_storms() {
    let mut config = resilient_nic_config(42, 3);
    // Aggressive fixed-delay hedging: the delay floor sits below the
    // typical request latency and the sample threshold is unreachable,
    // so the adaptive p95 never takes over and nearly every request
    // races two replicas — maximal pressure on duplicate suppression.
    config.gateway.hedge = Some(HedgeParams {
        min_delay: SimDuration::from_micros(25),
        min_samples: usize::MAX,
    });
    let gw_params = config.gateway.clone();
    let link = config.link;
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(HashSink::new()));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    // A second replica per lambda: hedging needs somewhere to hedge to.
    for (i, lambda) in program.lambdas.iter().enumerate() {
        bed.place_replica(lambda.id.0, (i + 1) % 3);
    }
    let (router, _controller) =
        bed.enable_gateway_tier(EXTRA_SHARDS, gw_params, link, TierConfig::default());
    let driver = bed.sim.add(ClosedLoopDriver::new(
        router,
        page_jobs(&program),
        THREADS,
        SimDuration::from_micros(200),
        Some(2500),
    ));
    bed.sim
        .post(driver, SimDuration::from_millis(50), StartDriver);

    // Duplicate every frame at every gateway shard's links, reorder
    // every worker uplink.
    let at = SimTime::ZERO + SimDuration::from_millis(100);
    let window = SimDuration::from_millis(800);
    let mut plan = FaultPlan::new();
    for g in 0..=EXTRA_SHARDS {
        let (uplink, port) = bed.gateway_ports(g);
        plan = plan
            .duplicate(uplink, at, window, 1.0)
            .duplicate(port, at, window, 1.0);
    }
    for w in 0..3 {
        let uplink = bed.worker_ports(w).0;
        plan = plan.reorder(uplink, at, window, SimDuration::from_micros(80));
    }
    bed.inject_faults(&plan);

    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(4));
    bed.finish_tracing();

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    assert!(d.is_done(), "all budgeted requests must terminate");
    assert_eq!(
        d.completed().iter().filter(|c| c.failed).count(),
        0,
        "duplicates and reorders must not fail a single request"
    );
    let (mut dups, mut hedges) = (0u64, 0u64);
    for &gw in &bed.gateways {
        let g = bed.sim.get::<Gateway>(gw).unwrap();
        dups += g.duplicate_replies();
        hedges += g.counters().hedges_fired;
    }
    assert!(hedges > 0, "hedges must fire under the inflated tail");
    assert!(
        dups > 0,
        "duplicated frames / losing hedge arms must be suppressed at the shards"
    );
    let rc = bed.sim.get::<ShardRouter>(router).unwrap().counters();
    assert_eq!(
        rc.duplicates, 0,
        "shard-level suppression means the router never sees a second completion"
    );
    assert_eq!(rc.routed, rc.delivered, "exactly-once delivery holds");
}

#[test]
fn every_gateway_retires_every_request_once_a_drive_drains() {
    // One gateway serving three web lambdas.
    let mut bed = build_testbed(resilient_nic_config(42, 3));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let driver = spawn_closed_loop(
        &mut bed,
        page_jobs(&program),
        THREADS,
        THINK,
        Some(100),
        SimDuration::from_millis(1),
    );
    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    assert!(bed.sim.get::<ClosedLoopDriver>(driver).unwrap().is_done());
    assert_gateways_retired(&bed);

    // A replicated KV service: leader routing, redirects and the
    // per-request KV op.
    let mut bed = build_testbed(resilient_nic_config(42, 3));
    bed.enable_replicated_kv(RaftConfig {
        election_timeout_min: SimDuration::from_millis(20),
        election_timeout_max: SimDuration::from_millis(40),
        heartbeat_interval: SimDuration::from_millis(5),
        read_lease: Some(SimDuration::from_millis(15)),
    });
    let jobs = vec![JobSpec {
        workload_id: REPKV_WORKLOAD_ID,
        payload: PayloadSpec::RepKv(KvMix::new(8, 500, 990)),
    }];
    let driver = spawn_closed_loop(
        &mut bed,
        jobs,
        3,
        SimDuration::from_micros(200),
        Some(100),
        SimDuration::from_millis(100),
    );
    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    assert!(bed.sim.get::<ClosedLoopDriver>(driver).unwrap().is_done());
    assert_gateways_retired(&bed);

    // The tier, with a drain and then a crash of the adopting shard in
    // one run: `tier_run` asserts the retirement of every shard.
    let r = tier_run(42, Scenario::CrashAndDrain);
    assert_eq!(r.driver_failed, 0);
    assert!(r.handed_off > 0, "the drain hands off live requests");
    assert!(
        r.rerouted > 0,
        "the crash orphans requests the router re-routes"
    );
    assert_eq!(r.routed, r.delivered, "exactly-once delivery holds");
}

#[test]
fn tier_trace_is_deterministic_across_runs() {
    let a = tier_run(42, Scenario::ShardCrash).hash;
    let b = tier_run(42, Scenario::ShardCrash).hash;
    assert_eq!(a, b, "same seed, same scenario, different trace");
    let c = tier_run(42, Scenario::FlashCrowd).hash;
    let d = tier_run(42, Scenario::FlashCrowd).hash;
    assert_eq!(c, d, "planet-driver runs must be deterministic too");
}

#[test]
fn tier_different_seeds_diverge() {
    let a = tier_run(42, Scenario::ShardCrash).hash;
    let b = tier_run(7, Scenario::ShardCrash).hash;
    assert_ne!(a, b, "seed change must perturb the trace");
}

fn golden_cases() -> Vec<(&'static str, Scenario)> {
    vec![
        (Scenario::Healthy.name(), Scenario::Healthy),
        (Scenario::ShardCrash.name(), Scenario::ShardCrash),
        (Scenario::ShardPartition.name(), Scenario::ShardPartition),
        (Scenario::ShardDrain.name(), Scenario::ShardDrain),
        (Scenario::FlashCrowd.name(), Scenario::FlashCrowd),
    ]
}

const GOLDENS_FILE: &str = "gateway_tier_hashes.txt";

/// The tier scenarios' trace hashes must match the pinned goldens.
/// After an *intentional* change, regenerate with:
///
/// ```text
/// UPDATE_GOLDENS=1 cargo test -p lnic-integration --test gateway_tier
/// ```
#[test]
fn tier_trace_hashes_match_pinned_goldens() {
    if !golden_checks_enabled() {
        eprintln!("skipping pinned golden check under LNIC_SEED_OFFSET");
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
             cargo test -p lnic-integration --test gateway_tier",
            &cases,
        );
        return;
    }
    let goldens = goldens::read(GOLDENS_FILE);
    for (name, scenario) in golden_cases() {
        let expect = *goldens
            .get(name)
            .unwrap_or_else(|| panic!("golden `{name}` missing from gateway_tier_hashes.txt"));
        let got = tier_run(42, scenario).hash;
        assert_eq!(
            got, expect,
            "golden `{name}` drifted: got {got:#018x}, pinned {expect:#018x} \
             (if intentional, re-pin with UPDATE_GOLDENS=1)"
        );
    }
}
