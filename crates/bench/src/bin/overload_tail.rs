//! Overload experiment: tail latency and goodput as offered load sweeps
//! past saturation, with and without the tail-tolerance stack.
//!
//! The gateway's 15 µs proxy cost caps sustainable throughput at about
//! 66.6k requests/s; an open-loop driver offers 0.25×–2× of that. The
//! *protected* arm runs the [`GatewayParams::tail_tolerant`] preset —
//! admission control sized below saturation, a deadline on every
//! request (workers drop expired work at dequeue), and p95-adaptive
//! hedging across two replicas. The *unprotected* arm is the plain
//! gateway. Past saturation the unprotected queue grows without bound
//! and every request's latency grows with it; the protected gateway
//! sheds the excess with a typed `Overloaded` reply and keeps the p99
//! of what it admits close to the unsaturated baseline.
//!
//! Emits `results/overload_tail.json` with the sweep table.
//!
//! Run with: `cargo run --release -p lnic-bench --bin overload_tail`
//! (add `--smoke` for the shortened CI variant, which writes no file).

use std::fmt::Write as _;
use std::sync::Arc;

use lnic::prelude::*;
use lnic_bench::{attach_trace, finish_trace, fmt_ms, write_results};
use lnic_sim::prelude::*;
use lnic_workloads::{web_program, SuiteConfig, WEB_ID};

const WORKERS: usize = 4;
/// The gateway spends 15 µs proxying each request and 2 µs on its
/// response: ~58.8k rps saturates it.
const SATURATION_RPS: f64 = 1e9 / 17_000.0;
const LOAD_POINTS: [f64; 5] = [0.25, 0.5, 1.0, 1.5, 2.0];
/// Admission rate of the protected arm, as a fraction of saturation —
/// low enough that the admitted queue stays short (ρ ≈ 0.7).
const ADMIT_FRAC: f64 = 0.7;
const DEADLINE: SimDuration = SimDuration::from_millis(5);

struct PointResult {
    load: f64,
    offered_rps: f64,
    issued: u64,
    ok: u64,
    failed: u64,
    shed: u64,
    expired: u64,
    hedges_fired: u64,
    hedges_won: u64,
    p50_ns: u64,
    p99_ns: u64,
    goodput_rps: f64,
}

fn run_point(seed: u64, load: f64, protected: bool, run: SimDuration) -> PointResult {
    let offered_rps = load * SATURATION_RPS;
    let mut config = TestbedConfig::new(BackendKind::Nic)
        .seed(seed)
        .workers(WORKERS);
    if protected {
        config.gateway = config
            .gateway
            .tail_tolerant(ADMIT_FRAC * SATURATION_RPS, 4096, DEADLINE);
    }

    let mut bed = build_testbed(config);
    let program = Arc::new(web_program(&SuiteConfig::default()));
    bed.preload(&program);
    // A second replica so the protected arm can hedge.
    bed.place_replica(WEB_ID.0, 1);
    let label = format!(
        "overload-{}-{load}x",
        if protected { "protected" } else { "open" }
    );
    attach_trace(&mut bed, &label);

    let budget = (offered_rps * run.as_nanos() as f64 / 1e9) as u64;
    let driver = bed.sim.add(OpenLoopDriver::new(
        bed.gateway,
        vec![JobSpec {
            workload_id: WEB_ID.0,
            payload: PayloadSpec::Page(0),
        }],
        offered_rps,
        budget,
    ));
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    // Run to quiescence: the unprotected arm needs to drain its backlog
    // so every admitted request's (terrible) latency is on the record.
    bed.sim.run();
    finish_trace(&mut bed, &label);

    let d = bed.sim.get::<OpenLoopDriver>(driver).unwrap();
    // Skip the first fifth: the token bucket starts full, and draining
    // its initial burst through the proxy taints early sojourns.
    let warmup = (budget / 5) as usize;
    // Sojourn (submit → done), not wire-to-wire: queueing behind the
    // overloaded proxy is exactly what this experiment measures.
    let lat = d.sojourn_series(warmup);
    let gw = bed.sim.get::<Gateway>(bed.gateway).unwrap();
    let c = gw.counters();
    let ok = d.completed().iter().filter(|r| !r.failed).count() as u64;
    PointResult {
        load,
        offered_rps,
        issued: d.issued(),
        ok,
        failed: d.completed().len() as u64 - ok,
        shed: c.shed,
        expired: c.expired,
        hedges_fired: c.hedges_fired,
        hedges_won: c.hedges_won,
        p50_ns: lat.quantile_ns(0.50).unwrap_or(0),
        p99_ns: lat.quantile_ns(0.99).unwrap_or(0),
        goodput_rps: d.throughput_rps(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let run = if smoke {
        SimDuration::from_millis(250)
    } else {
        SimDuration::from_secs(1)
    };
    // `build_testbed` adds `LNIC_SEED_OFFSET` itself; record the
    // effective seed in the JSON without double-applying it.
    let seed = 42;
    let effective_seed = seed + seed_offset();

    println!(
        "overload_tail: saturation {:.0} rps, admit {:.0} rps, deadline {} ms{}",
        SATURATION_RPS,
        ADMIT_FRAC * SATURATION_RPS,
        DEADLINE.as_nanos() / 1_000_000,
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:>5} {:>11} | {:>10} {:>10} {:>8} {:>9} | {:>10} {:>10} {:>8} {:>9}",
        "load",
        "offered",
        "prot p50",
        "prot p99",
        "shed%",
        "goodput",
        "open p50",
        "open p99",
        "fail%",
        "goodput"
    );

    let mut rows = Vec::new();
    for load in LOAD_POINTS {
        let prot = run_point(seed, load, true, run);
        let open = run_point(seed, load, false, run);
        let shed_pct = 100.0 * prot.shed as f64 / prot.issued.max(1) as f64;
        let fail_pct = 100.0 * open.failed as f64 / open.issued.max(1) as f64;
        println!(
            "{:>4}x {:>9.0}/s | {:>10} {:>10} {:>7.1}% {:>7.0}/s | {:>10} {:>10} {:>7.1}% {:>7.0}/s",
            load,
            prot.offered_rps,
            fmt_ms(prot.p50_ns as f64),
            fmt_ms(prot.p99_ns as f64),
            shed_pct,
            prot.goodput_rps,
            fmt_ms(open.p50_ns as f64),
            fmt_ms(open.p99_ns as f64),
            fail_pct,
            open.goodput_rps
        );
        rows.push((prot, open));
    }

    // The claim under test: at 2× saturation the protected p99 of
    // admitted requests stays within 5× of the unsaturated baseline,
    // while the unprotected p99 has left orbit.
    let baseline_p99 = rows[0].0.p99_ns.max(1);
    let (prot_2x, open_2x) = rows.last().expect("sweep is non-empty");
    assert!(
        prot_2x.p99_ns <= 5 * baseline_p99,
        "protected p99 at 2x ({}) exceeds 5x baseline ({})",
        prot_2x.p99_ns,
        baseline_p99
    );
    assert!(
        open_2x.p99_ns >= 20 * baseline_p99,
        "unprotected arm should degrade past saturation: p99 {} vs baseline {}",
        open_2x.p99_ns,
        baseline_p99
    );
    assert!(prot_2x.shed > 0, "protected arm must shed at 2x saturation");
    println!(
        "ok: protected p99 {} <= 5x baseline {}; unprotected p99 {}",
        fmt_ms(prot_2x.p99_ns as f64),
        fmt_ms(baseline_p99 as f64),
        fmt_ms(open_2x.p99_ns as f64)
    );

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"overload_tail\",\n");
    let _ = writeln!(
        json,
        "  \"workers\": {WORKERS}, \"seed\": {effective_seed}, \"smoke\": {smoke}, \"run_ms\": {},",
        run.as_nanos() / 1_000_000
    );
    let _ = writeln!(
        json,
        "  \"saturation_rps\": {SATURATION_RPS:.0}, \"admit_rps\": {:.0}, \"deadline_ms\": {},",
        ADMIT_FRAC * SATURATION_RPS,
        DEADLINE.as_nanos() / 1_000_000
    );
    json.push_str("  \"sweep\": [\n");
    for (i, (prot, open)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let arm = |r: &PointResult| {
            format!(
                "{{\"issued\": {}, \"ok\": {}, \"failed\": {}, \"shed\": {}, \"expired\": {}, \
                 \"hedges_fired\": {}, \"hedges_won\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"goodput_rps\": {:.0}}}",
                r.issued,
                r.ok,
                r.failed,
                r.shed,
                r.expired,
                r.hedges_fired,
                r.hedges_won,
                r.p50_ns,
                r.p99_ns,
                r.goodput_rps
            )
        };
        let _ = writeln!(
            json,
            "    {{\"load\": {}, \"offered_rps\": {:.0},\n     \"protected\": {},\n     \"unprotected\": {}}}{comma}",
            prot.load,
            prot.offered_rps,
            arm(prot),
            arm(open)
        );
    }
    json.push_str("  ]\n}\n");
    write_results("overload_tail.json", &json, smoke);
}
