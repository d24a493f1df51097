//! Placement ablation: static all-NIC-first, static all-host, and the
//! profile-guided placer on a mixed multi-tenant workload.
//!
//! The scenario the placer exists for: a fleet whose SmartNIC
//! instruction stores are already crowded with cold tenant lambdas when
//! the hot mixed workload (web + KV + image, §6.2) arrives. The three
//! arms share one seed and one traffic mix:
//!
//! - **all_nic** — static first-fit in declaration order, NIC-first:
//!   the cold tenants grab the instruction store and every hot lambda
//!   is punted across PCIe to the host (the paper's Listing 3 path).
//!   This is what "put everything on the NIC until it's full" degrades
//!   to under multi-tenancy.
//! - **all_host** — bare-metal workers, no SmartNIC serving at all.
//! - **hybrid** — the same crowded NICs as `all_nic`, plus the
//!   `lnic-placer` control plane: it profiles the first traffic
//!   windows, demotes the idle tenants, and live-migrates the hot
//!   lambdas onto the NIC through a drain + firmware-swap epoch.
//!
//! Reported: p50/p99 over completions in the measurement window (after
//! the placer has converged), plus per-arm throughput and the placer's
//! migration count. Expected: `hybrid` beats both static arms on p99 —
//! checked with a hard assert in full mode.
//!
//! Emits `results/placement_ablation.json`.
//!
//! Run with: `cargo run --release -p lnic-bench --bin placement_ablation`
//! (add `--smoke` for the shortened CI variant, which writes no file).

use std::fmt::Write as _;
use std::sync::Arc;

use lnic::prelude::*;
use lnic_bench::{
    attach_trace, finish_trace, fmt_ms, populate_kv, write_results, KV_KEYS, THINK_TIME,
};
use lnic_mlambda::program::{Program, WorkloadId};
use lnic_placer::{attach_placer, install_static_split, static_costs, Placer, PlacerConfig};
use lnic_sim::prelude::*;
use lnic_workloads::image::image_transformer_lambda;
use lnic_workloads::kv::{kv_get_client_lambda, kv_set_client_lambda};
use lnic_workloads::web::{web_server_lambda, WebContent};
use lnic_workloads::{IMAGE_ID, KV_GET_ID, KV_SET_ID, WEB_ID};

const SEED: u64 = 42;
const WORKERS: usize = 2;
const HOST_THREADS: usize = 8;
/// Cold tenant lambdas occupying the instruction store, ids 100+.
const TENANT_BASE: u32 = 100;
/// Image payloads must stay single-packet: the host punt path serves
/// one-MTU requests (16×16 RGBA = 1 KiB ≤ 1400 B).
const IMAGE_DIM: usize = 16;

/// The multi-tenant fleet program: cold tenants declared FIRST so
/// static first-fit hands them the NIC, hot lambdas after. Returns the
/// program and the number of tenants.
fn fleet_program() -> (Program, usize) {
    let route = |id: u32| vec![0x0a00_0002 + id as u64, 8000 + id as u64, 1];
    // Enough tenants that their summed footprint crowds out the whole
    // hot set (sized against static costs below; 6 web servers ≈ the
    // four hot lambdas).
    let tenants = 6usize;
    let mut p = Program::new();
    for i in 0..tenants as u32 {
        let id = TENANT_BASE + i;
        // One small page: six of these fit the NIC's level-0 memory
        // alongside each other, so the *instruction store* is what the
        // tenants exhaust.
        let content = WebContent::generate(1, 256);
        p.add_lambda(web_server_lambda(WorkloadId(id), &content), route(id));
    }
    p.add_lambda(kv_get_client_lambda(KV_GET_ID), route(KV_GET_ID.0));
    p.add_lambda(kv_set_client_lambda(KV_SET_ID), route(KV_SET_ID.0));
    p.add_lambda(
        web_server_lambda(WEB_ID, &WebContent::generate(8, 512)),
        route(WEB_ID.0),
    );
    p.add_lambda(
        image_transformer_lambda(IMAGE_ID, IMAGE_DIM * IMAGE_DIM),
        route(IMAGE_ID.0),
    );
    (p, tenants)
}

/// The mixed traffic: web- and KV-heavy with an image stream. The
/// tenants stay cold — host-side observations are queue-inflated, so a
/// trickle-loaded tenant would look perpetually worth promoting and
/// fight the image lambda for the last instruction-store slot.
fn jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for _ in 0..6 {
        jobs.push(JobSpec {
            workload_id: WEB_ID.0,
            payload: PayloadSpec::RandomPage { count: 8 },
        });
        jobs.push(JobSpec {
            workload_id: KV_GET_ID.0,
            payload: PayloadSpec::KvGet { id_range: KV_KEYS },
        });
    }
    jobs.push(JobSpec {
        workload_id: KV_SET_ID.0,
        payload: PayloadSpec::KvSet {
            id_range: KV_KEYS,
            value_len: 64,
        },
    });
    jobs.push(JobSpec {
        workload_id: IMAGE_ID.0,
        payload: PayloadSpec::Image {
            width: IMAGE_DIM,
            height: IMAGE_DIM,
        },
    });
    jobs
}

/// A placer config with a NIC instruction store shrunk so the tenants
/// alone fill it: first-fit leaves no room for any hot lambda, while
/// the whole hot set still fits once the tenants are demoted.
fn ablation_placer_config(bed_nic: &lnic_nic::NicParams, program: &Program) -> PlacerConfig {
    let mut cfg = PlacerConfig::from_nic(bed_nic);
    let costs = static_costs(&Arc::new(program.clone()), &cfg.compile);
    let tenant_sum: u64 = costs
        .iter()
        .filter(|c| c.workload_id >= TENANT_BASE)
        .map(|c| c.instr_words)
        .sum();
    let hot: Vec<u64> = costs
        .iter()
        .filter(|c| c.workload_id < TENANT_BASE)
        .map(|c| c.instr_words)
        .collect();
    let hot_sum: u64 = hot.iter().sum();
    let hot_min = *hot.iter().min().unwrap();
    cfg.capacity.instr_words = tenant_sum + hot_min / 2;
    // Host-side observations are queue-inflated under the overloaded
    // punt path (tens of ms, not service time), so the projected NIC
    // service time would trip the default 200 µs NPU ceiling and pin
    // every hot lambda to the host. These are known NIC-class lambdas;
    // lift the ceiling to cover the congested projection.
    cfg.pack.nic_service_ceiling_ns = 25_000_000.0;
    assert!(
        hot_sum <= cfg.capacity.instr_words,
        "hot set ({hot_sum} words) must fit the shrunken NIC \
         ({} words) once tenants are demoted",
        cfg.capacity.instr_words
    );
    cfg
}

struct ArmResult {
    name: &'static str,
    p50_ns: u64,
    p99_ns: u64,
    completed: u64,
    failed: u64,
    migrations: u64,
}

fn measure(
    name: &'static str,
    bed: &mut Testbed,
    driver: ComponentId,
    placer: Option<ComponentId>,
    run: SimDuration,
    measure_from: SimDuration,
) -> ArmResult {
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    bed.sim.run_until(SimTime::ZERO + run);
    finish_trace(bed, name);
    let migrations = placer
        .map(|p| bed.sim.get::<Placer>(p).unwrap().migrations())
        .unwrap_or(0);
    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    let cut = SimTime::ZERO + measure_from;
    let mut lat = Series::new(name);
    let mut failed = 0u64;
    for c in d.completed().iter().filter(|c| c.at >= cut) {
        if c.failed {
            failed += 1;
        } else {
            lat.record(c.latency);
        }
    }
    let s = lat.summary();
    ArmResult {
        name,
        p50_ns: s.p50_ns,
        p99_ns: s.p99_ns,
        completed: s.count as u64,
        failed,
        migrations,
    }
}

fn hybrid_config() -> TestbedConfig {
    let mut config = TestbedConfig::new(BackendKind::Nic)
        .seed(SEED)
        .workers(WORKERS)
        .worker_threads(HOST_THREADS)
        .hybrid();
    // A fast reconfigurable NIC: migration epochs must settle within
    // the run, and the gateway retries cover the swap window.
    config.nic.firmware_swap_time = SimDuration::from_millis(50);
    config.gateway.rpc_timeout = SimDuration::from_millis(50);
    config.gateway.rpc_attempts = 5;
    config.gateway = config.gateway.resilient();
    config
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (run, measure_from, concurrency) = if smoke {
        (
            SimDuration::from_millis(1500),
            SimDuration::from_millis(900),
            4,
        )
    } else {
        (SimDuration::from_secs(4), SimDuration::from_millis(1500), 8)
    };
    let (program, tenants) = fleet_program();
    let program = Arc::new(program);

    // Arm 1: static NIC-first (first-fit fills the NIC with tenants).
    let all_nic = {
        let config = hybrid_config();
        let cfg = ablation_placer_config(&config.nic, &program);
        let mut bed = build_testbed(config);
        populate_kv(&mut bed, KV_KEYS);
        attach_trace(&mut bed, "ablation-all-nic");
        let (_, plan) = install_static_split(&mut bed, &program, &cfg);
        assert!(
            plan.nic.iter().all(|&w| w >= TENANT_BASE),
            "premise: first-fit must hand the NIC to tenants, got {:?}",
            plan.nic
        );
        let driver = bed.sim.add(ClosedLoopDriver::new(
            bed.gateway,
            jobs(),
            concurrency,
            THINK_TIME,
            None,
        ));
        measure("all_nic", &mut bed, driver, None, run, measure_from)
    };

    // Arm 2: everything on bare-metal hosts.
    let all_host = {
        let mut bed = build_testbed(
            TestbedConfig::new(BackendKind::BareMetal)
                .seed(SEED)
                .workers(WORKERS)
                .worker_threads(HOST_THREADS),
        );
        populate_kv(&mut bed, KV_KEYS);
        attach_trace(&mut bed, "ablation-all-host");
        bed.preload(&program);
        let driver = bed.sim.add(ClosedLoopDriver::new(
            bed.gateway,
            jobs(),
            concurrency,
            THINK_TIME,
            None,
        ));
        measure("all_host", &mut bed, driver, None, run, measure_from)
    };

    // Arm 3: same crowded NIC as arm 1 plus the placer control plane.
    let hybrid = {
        let config = hybrid_config();
        let cfg = ablation_placer_config(&config.nic, &program);
        let mut bed = build_testbed(config);
        populate_kv(&mut bed, KV_KEYS);
        attach_trace(&mut bed, "ablation-hybrid");
        let placer = attach_placer(&mut bed, &program, cfg);
        let driver = bed.sim.add(ClosedLoopDriver::new(
            bed.gateway,
            jobs(),
            concurrency,
            THINK_TIME,
            None,
        ));
        measure("hybrid", &mut bed, driver, Some(placer), run, measure_from)
    };

    println!(
        "placement ablation: {WORKERS} workers, {tenants} cold tenants + 4 hot lambdas, seed {SEED}{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>8} {:>11}",
        "arm", "p50(ms)", "p99(ms)", "completed", "failed", "migrations"
    );
    for arm in [&all_nic, &all_host, &hybrid] {
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>8} {:>11}",
            arm.name,
            fmt_ms(arm.p50_ns as f64),
            fmt_ms(arm.p99_ns as f64),
            arm.completed,
            arm.failed,
            arm.migrations
        );
    }

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"placement_ablation\",\n");
    let _ = writeln!(
        json,
        "  \"seed\": {SEED}, \"workers\": {WORKERS}, \"tenants\": {tenants}, \
         \"smoke\": {smoke}, \"run_ms\": {}, \"measure_from_ms\": {},",
        run.as_nanos() / 1_000_000,
        measure_from.as_nanos() / 1_000_000
    );
    json.push_str("  \"arms\": [\n");
    let arms = [&all_nic, &all_host, &hybrid];
    for (i, arm) in arms.iter().enumerate() {
        let comma = if i + 1 == arms.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \
             \"completed\": {}, \"failed\": {}, \"migrations\": {}}}{comma}",
            arm.name,
            arm.p50_ns as f64 / 1e6,
            arm.p99_ns as f64 / 1e6,
            arm.completed,
            arm.failed,
            arm.migrations
        );
    }
    json.push_str("  ]\n}\n");
    write_results("placement_ablation.json", &json, smoke);

    assert!(hybrid.migrations > 0, "the placer must have migrated");
    assert!(
        hybrid.p99_ns < all_nic.p99_ns && hybrid.p99_ns < all_host.p99_ns,
        "profile-guided placement must beat both static arms on p99: \
         hybrid={} all_nic={} all_host={}",
        hybrid.p99_ns,
        all_nic.p99_ns,
        all_host.p99_ns
    );
    println!(
        "hybrid p99 {} < min(all_nic {}, all_host {}) ✓",
        fmt_ms(hybrid.p99_ns as f64),
        fmt_ms(all_nic.p99_ns as f64),
        fmt_ms(all_host.p99_ns as f64)
    );
}
