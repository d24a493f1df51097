//! Gateway-tier handoff experiment: goodput through gateway-shard
//! crash, partition, and a planetary flash crowd.
//!
//! The robustness claim under test: with the sharded gateway tier, one
//! gateway shard can crash or be partitioned away and the tier keeps
//! serving — zero acked client requests lost, zero duplicate
//! deliveries, and tier goodput during the outage at ≥ 0.9× its healthy
//! baseline. The comparison arm is the same router machinery over a
//! single gateway (no shard to fail over to): its goodput collapses to
//! zero for the duration of the outage.
//!
//! Cells:
//!
//! * `single_crash` — one gateway, crashed mid-run: outage goodput → 0.
//! * `tier_crash` — three shards, one crashed: the tier detects the
//!   silent shard via the lease loop, deposes it, re-routes the orphans,
//!   and rides through.
//! * `tier_partition` — three shards, one cut off (data + control) then
//!   healed: self-fence, depose, rejoin at a bumped epoch.
//! * `flash_crowd` — planetary open-loop traffic (diurnal regions,
//!   heavy-tailed clients, a ×4 regional flash crowd) with a shard
//!   crash in the middle of the crowd.
//!
//! Emits `results/BENCH_gateway.json` (seed, commit, per-cell goodput
//! windows and counters). `--smoke` shrinks every run for CI and
//! writes no file; `--trace=DIR` writes per-run JSONL traces for
//! artifact upload.
//!
//! Run with: `cargo run --release -p lnic-bench --bin gateway_tier`

use std::fmt::Write as _;
use std::sync::Arc;

use lnic::driver::CompletedRequest;
use lnic::gateway::Gateway;
use lnic::gwtier::{PlanetDriver, ShardRouter, TierConfig, TierController};
use lnic::prelude::*;
use lnic_bench::{attach_trace, commit_id, finish_trace, write_results};
use lnic_sim::prelude::*;
use lnic_workloads::planet::{FlashCrowd, PlanetModel};
use lnic_workloads::three_web_servers;

const WORKERS: usize = 3;
const THREADS: usize = 12;
const THINK: SimDuration = SimDuration::from_micros(300);
/// Shards beyond the primary in the tier arms (3 shards total).
const EXTRA_SHARDS: usize = 2;
/// Detection slack after the fault fires before the outage window
/// opens: heartbeat (50 ms) × miss threshold (3) plus depose/re-route
/// propagation.
const DETECT: SimDuration = SimDuration::from_millis(250);

/// Timing of one closed-loop cell.
#[derive(Clone, Copy)]
struct Timing {
    fault_at: SimDuration,
    heal_at: SimDuration,
    run: SimDuration,
}

impl Timing {
    fn new(smoke: bool) -> Self {
        if smoke {
            Timing {
                fault_at: SimDuration::from_millis(500),
                heal_at: SimDuration::from_millis(1_200),
                run: SimDuration::from_millis(2_500),
            }
        } else {
            Timing {
                fault_at: SimDuration::from_secs(1),
                heal_at: SimDuration::from_millis(2_500),
                run: SimDuration::from_secs(4),
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    Crash,
    Partition,
}

struct ArmResult {
    label: &'static str,
    shards: usize,
    issued: u64,
    ok: u64,
    failed: u64,
    healthy_rps: f64,
    outage_rps: f64,
    recovery_rps: f64,
    routed: u64,
    delivered: u64,
    rerouted: u64,
    bounced: u64,
    duplicates: u64,
    deposed: u64,
    rejoined: u64,
}

fn resilient_config(seed: u64) -> TestbedConfig {
    let mut config = TestbedConfig::new(BackendKind::Nic)
        .seed(seed)
        .workers(WORKERS);
    config.gateway.rpc_timeout = SimDuration::from_millis(50);
    config.gateway.rpc_attempts = 5;
    config.gateway = config.gateway.resilient();
    config
}

fn goodput(completed: &[CompletedRequest], from: SimTime, to: SimTime) -> f64 {
    let window = to.saturating_duration_since(from);
    if window.is_zero() {
        return 0.0;
    }
    let ok = completed
        .iter()
        .filter(|c| !c.failed && c.at >= from && c.at < to)
        .count();
    ok as f64 / window.as_secs_f64()
}

fn run_arm(seed: u64, label: &'static str, extra: usize, fault: FaultKind, t: Timing) -> ArmResult {
    let config = resilient_config(seed);
    let gw_params = config.gateway.clone();
    let link = config.link;
    let mut bed = build_testbed(config);
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let (router, controller) =
        bed.enable_gateway_tier(extra, gw_params, link, TierConfig::default());
    attach_trace(&mut bed, label);

    // Fault the primary in the single arm (there is nothing else) and a
    // non-primary shard in the tier arms.
    let target = extra.min(1);
    let fault_at = SimTime::ZERO + t.fault_at;
    let plan = match fault {
        FaultKind::Crash => FaultPlan::new()
            .gateway_crash(target, fault_at)
            .gateway_restart(target, SimTime::ZERO + t.heal_at),
        FaultKind::Partition => {
            FaultPlan::new().gateway_partition(target, fault_at, t.heal_at - t.fault_at)
        }
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
    let driver = bed
        .sim
        .add(ClosedLoopDriver::new(router, jobs, THREADS, THINK, None));
    bed.sim
        .post(driver, SimDuration::from_millis(50), StartDriver);
    bed.sim.run_until(SimTime::ZERO + t.run);
    bed.finish_tracing();
    finish_trace(&mut bed, label);

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    let ok = d.completed().iter().filter(|c| !c.failed).count() as u64;
    let healthy_rps = goodput(
        d.completed(),
        SimTime::ZERO + SimDuration::from_millis(300),
        fault_at,
    );
    let outage_rps = goodput(d.completed(), fault_at + DETECT, SimTime::ZERO + t.heal_at);
    let recovery_rps = goodput(
        d.completed(),
        SimTime::ZERO + t.heal_at + DETECT,
        SimTime::ZERO + t.run,
    );
    let rc = bed.sim.get::<ShardRouter>(router).unwrap().counters();
    let tc = bed
        .sim
        .get::<TierController>(controller)
        .unwrap()
        .counters();
    ArmResult {
        label,
        shards: extra + 1,
        issued: d.issued(),
        ok,
        failed: d.completed().len() as u64 - ok,
        healthy_rps,
        outage_rps,
        recovery_rps,
        routed: rc.routed,
        delivered: rc.delivered,
        rerouted: rc.rerouted,
        bounced: rc.bounced,
        duplicates: rc.duplicates,
        deposed: tc.deposed,
        rejoined: tc.rejoined,
    }
}

struct CrowdResult {
    issued: u64,
    completed: u64,
    failed: u64,
    p50_ns: u64,
    p99_ns: u64,
    crowd_rps: f64,
    handed_off: u64,
    adopted: u64,
    hedges_fired: u64,
}

fn run_flash_crowd(seed: u64, smoke: bool) -> CrowdResult {
    let config = resilient_config(seed);
    let gw_params = config.gateway.clone();
    let link = config.link;
    let mut bed = build_testbed(config);
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let (router, _controller) =
        bed.enable_gateway_tier(EXTRA_SHARDS, gw_params, link, TierConfig::default());
    attach_trace(&mut bed, "gateway-tier-flash-crowd");

    let horizon = if smoke {
        SimDuration::from_millis(1_200)
    } else {
        SimDuration::from_secs(3)
    };
    let horizon_s = horizon.as_nanos() as f64 / 1e9;
    let base_rps = if smoke { 1_000.0 } else { 2_000.0 };
    let crowd_start = 0.4 * horizon_s;
    let crowd_len = 0.2 * horizon_s;
    let model = PlanetModel::planetary(1_000_000, base_rps).with_flash_crowd(FlashCrowd {
        at_s: crowd_start,
        duration_s: crowd_len,
        multiplier: 4.0,
        region: Some(1),
    });
    // Crash a shard in the middle of the crowd, restart after it passes.
    let crash_at =
        SimTime::ZERO + SimDuration::from_nanos(((crowd_start + 0.25 * crowd_len) * 1e9) as u64);
    let restart_at =
        SimTime::ZERO + SimDuration::from_nanos(((crowd_start + 2.0 * crowd_len) * 1e9) as u64);
    bed.inject_faults(
        &FaultPlan::new()
            .gateway_crash(1, crash_at)
            .gateway_restart(1, restart_at),
    );

    let jobs: Vec<JobSpec> = program
        .lambdas
        .iter()
        .map(|l| JobSpec {
            workload_id: l.id.0,
            payload: PayloadSpec::Page(0),
        })
        .collect();
    let driver = bed.sim.add(PlanetDriver::new(router, model, jobs, horizon));
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    // Leave generous drain time after the horizon so every orphan of
    // the crash is re-homed and completed.
    bed.sim
        .run_until(SimTime::ZERO + horizon + SimDuration::from_secs(2));
    bed.finish_tracing();
    finish_trace(&mut bed, "gateway-tier-flash-crowd");

    let d = bed.sim.get::<PlanetDriver>(driver).unwrap();
    let failed = d.completed().iter().filter(|c| c.failed).count() as u64;
    let lat = d.latency_series(100).summary();
    let crowd_rps = d.goodput_in(
        SimTime::ZERO + SimDuration::from_nanos((crowd_start * 1e9) as u64),
        SimTime::ZERO + SimDuration::from_nanos(((crowd_start + crowd_len) * 1e9) as u64),
    );
    let (mut handed_off, mut adopted, mut hedges_fired) = (0u64, 0u64, 0u64);
    for &gw in &bed.gateways {
        let c = bed.sim.get::<Gateway>(gw).unwrap().counters();
        handed_off += c.handed_off;
        adopted += c.adopted;
        hedges_fired += c.hedges_fired;
    }
    CrowdResult {
        issued: d.issued(),
        completed: d.completed().len() as u64,
        failed,
        p50_ns: lat.p50_ns,
        p99_ns: lat.p99_ns,
        crowd_rps,
        handed_off,
        adopted,
        hedges_fired,
    }
}

fn arm_json(r: &ArmResult) -> String {
    format!(
        "    {{\"arm\": \"{}\", \"shards\": {}, \"issued\": {}, \"ok\": {}, \"failed\": {},\n     \
         \"healthy_rps\": {:.1}, \"outage_rps\": {:.1}, \"recovery_rps\": {:.1},\n     \
         \"routed\": {}, \"delivered\": {}, \"rerouted\": {}, \"bounced\": {}, \
         \"duplicates\": {}, \"deposed\": {}, \"rejoined\": {}}}",
        r.label,
        r.shards,
        r.issued,
        r.ok,
        r.failed,
        r.healthy_rps,
        r.outage_rps,
        r.recovery_rps,
        r.routed,
        r.delivered,
        r.rerouted,
        r.bounced,
        r.duplicates,
        r.deposed,
        r.rejoined,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = 42 + seed_offset();
    let t = Timing::new(smoke);
    println!(
        "gateway tier handoff: {WORKERS} workers, {} shards in tier arms, seed {seed}{}",
        EXTRA_SHARDS + 1,
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "fault at {} ms, heal at {} ms, run {} ms, outage window opens +{} ms",
        t.fault_at.as_nanos() / 1_000_000,
        t.heal_at.as_nanos() / 1_000_000,
        t.run.as_nanos() / 1_000_000,
        DETECT.as_nanos() / 1_000_000
    );

    let single = run_arm(seed, "single_crash", 0, FaultKind::Crash, t);
    let tier = run_arm(seed, "tier_crash", EXTRA_SHARDS, FaultKind::Crash, t);
    let partition = run_arm(
        seed,
        "tier_partition",
        EXTRA_SHARDS,
        FaultKind::Partition,
        t,
    );

    println!("arm             shards  healthy_rps  outage_rps  recovery_rps  failed  dups");
    for r in [&single, &tier, &partition] {
        println!(
            "{:<15} {:>6}  {:>11.1} {:>11.1} {:>13.1} {:>7} {:>5}",
            r.label, r.shards, r.healthy_rps, r.outage_rps, r.recovery_rps, r.failed, r.duplicates
        );
    }

    // The robustness contract, enforced so a CI smoke run catches
    // regressions: the tier loses nothing and delivers nothing twice,
    // while the single-gateway arm goes dark for the outage.
    for r in [&single, &tier, &partition] {
        assert_eq!(r.failed, 0, "{}: no client request may fail", r.label);
        assert_eq!(r.duplicates, 0, "{}: no duplicate deliveries", r.label);
    }
    let tier_ratio = tier.outage_rps / tier.healthy_rps;
    let partition_ratio = partition.outage_rps / partition.healthy_rps;
    let single_ratio = single.outage_rps / single.healthy_rps;
    println!(
        "outage/healthy goodput: single {single_ratio:.3}, tier crash {tier_ratio:.3}, tier partition {partition_ratio:.3}"
    );
    assert!(
        single_ratio < 0.1,
        "single-gateway outage goodput should collapse (got {single_ratio:.3})"
    );
    assert!(
        tier_ratio >= 0.9,
        "tier crash outage goodput must stay >= 0.9x healthy (got {tier_ratio:.3})"
    );
    assert!(
        partition_ratio >= 0.9,
        "tier partition outage goodput must stay >= 0.9x healthy (got {partition_ratio:.3})"
    );

    let crowd = run_flash_crowd(seed, smoke);
    assert_eq!(
        crowd.issued, crowd.completed,
        "flash crowd: every issued request must terminate"
    );
    assert_eq!(crowd.failed, 0, "flash crowd: zero failures");
    println!(
        "flash crowd: issued={} completed={} failed={} crowd_rps={:.1} p50={:.3}ms p99={:.3}ms handed_off={} adopted={}",
        crowd.issued,
        crowd.completed,
        crowd.failed,
        crowd.crowd_rps,
        crowd.p50_ns as f64 / 1e6,
        crowd.p99_ns as f64 / 1e6,
        crowd.handed_off,
        crowd.adopted
    );

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"gateway_tier\",\n");
    let _ = writeln!(
        json,
        "  \"seed\": {seed}, \"commit\": \"{}\", \"smoke\": {smoke},",
        commit_id()
    );
    let _ = writeln!(
        json,
        "  \"workers\": {WORKERS}, \"threads\": {THREADS}, \"tier_shards\": {},",
        EXTRA_SHARDS + 1
    );
    let _ = writeln!(
        json,
        "  \"fault_at_ms\": {}, \"heal_at_ms\": {}, \"detect_ms\": {},",
        t.fault_at.as_nanos() / 1_000_000,
        t.heal_at.as_nanos() / 1_000_000,
        DETECT.as_nanos() / 1_000_000
    );
    let _ = writeln!(
        json,
        "  \"goodput_ratios\": {{\"single_crash\": {single_ratio:.4}, \"tier_crash\": {tier_ratio:.4}, \"tier_partition\": {partition_ratio:.4}}},"
    );
    json.push_str("  \"arms\": [\n");
    let arms = [&single, &tier, &partition];
    for (i, r) in arms.iter().enumerate() {
        let comma = if i + 1 == arms.len() { "" } else { "," };
        let _ = writeln!(json, "{}{comma}", arm_json(r));
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"flash_crowd\": {{\"issued\": {}, \"completed\": {}, \"failed\": {}, \
         \"crowd_rps\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, \"handed_off\": {}, \
         \"adopted\": {}, \"hedges_fired\": {}}}",
        crowd.issued,
        crowd.completed,
        crowd.failed,
        crowd.crowd_rps,
        crowd.p50_ns,
        crowd.p99_ns,
        crowd.handed_off,
        crowd.adopted,
        crowd.hedges_fired
    );
    json.push_str("}\n");

    write_results("BENCH_gateway.json", &json, smoke);
}
