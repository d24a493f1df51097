//! Engine throughput: events/sec of the event loop on the
//! `kv_replication` healthy cell.
//!
//! The cell is the replicated-KV healthy configuration — 3 λ-NIC
//! workers hosting a raft group, a closed-loop Zipf KV mix through the
//! gateway — the heaviest steady-state workload in the suite. Each
//! repetition builds a fresh testbed on the same seed and drives it to
//! completion; events/sec is `events_processed / wall` over the drive
//! phase only (testbed construction excluded), and the reported rate is
//! the median over repetitions. Every repetition must process the
//! identical event count, or the run measured two different workloads.
//! The invariant checker is detached so the number measures the engine
//! and the components, not the checker.
//!
//! Emits `results/BENCH_engine.json`, tracked PR-over-PR. Run with:
//! `cargo run --release -p lnic-bench --bin engine_throughput`
//! (`--smoke` shrinks the load, runs one repetition for CI and writes
//! no file).

use std::fmt::Write as _;
use std::time::Instant;

use lnic::prelude::*;
use lnic_bench::{commit_id, write_results};
use lnic_raft::RaftConfig;
use lnic_sim::prelude::*;
use lnic_workloads::kv::{KvMix, REPKV_WORKLOAD_ID};

/// Raft timers matching the `kv_replication` bench cell.
fn raft_cfg() -> RaftConfig {
    RaftConfig {
        election_timeout_min: SimDuration::from_millis(20),
        election_timeout_max: SimDuration::from_millis(40),
        heartbeat_interval: SimDuration::from_millis(5),
        read_lease: Some(SimDuration::from_millis(15)),
    }
}

struct Load {
    client_threads: usize,
    requests_per_thread: u64,
    think: SimDuration,
}

struct Rep {
    events: u64,
    wall_s: f64,
    end_ms: f64,
}

/// Builds the healthy replicated-KV cell and drives it to completion,
/// timing only the drive phase.
fn run_rep(seed: u64, load: &Load) -> Rep {
    let mut config = TestbedConfig::new(BackendKind::Nic)
        .seed(seed)
        .workers(3)
        .without_invariant_checks();
    config.gateway.rpc_timeout = SimDuration::from_millis(50);
    config.gateway.rpc_attempts = 5;
    config.gateway = config.gateway.resilient();
    let mut bed = build_testbed(config);
    bed.enable_replicated_kv(raft_cfg());
    let jobs = vec![JobSpec {
        workload_id: REPKV_WORKLOAD_ID,
        payload: PayloadSpec::RepKv(KvMix::new(8, 800, 990)),
    }];
    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        jobs,
        load.client_threads,
        load.think,
        Some(load.requests_per_thread),
    ));
    bed.sim
        .post(driver, SimDuration::from_millis(100), StartDriver);

    let start = Instant::now();
    // Raft timers tick forever; advance in 1 s horizons until the
    // driver drains its budget.
    let mut horizon = SimDuration::from_secs(1);
    while !bed.sim.get::<ClosedLoopDriver>(driver).unwrap().is_done() {
        bed.sim.run_until(SimTime::ZERO + horizon);
        horizon += SimDuration::from_secs(1);
        assert!(
            horizon <= SimDuration::from_secs(120),
            "drive phase exceeded 120 simulated seconds"
        );
    }
    Rep {
        events: bed.sim.events_processed(),
        wall_s: start.elapsed().as_secs_f64(),
        end_ms: bed.sim.now().as_millis_f64(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = 42 + seed_offset();
    let (load, reps) = if smoke {
        let load = Load {
            client_threads: 4,
            requests_per_thread: 100,
            think: SimDuration::from_micros(100),
        };
        (load, 1)
    } else {
        let load = Load {
            client_threads: 16,
            requests_per_thread: 1_500,
            think: SimDuration::from_micros(100),
        };
        (load, 5)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "engine throughput: kv_replication healthy cell, {} client threads x {} requests, \
         seed {seed}, {reps} repetition(s){}",
        load.client_threads,
        load.requests_per_thread,
        if smoke { " (smoke)" } else { "" }
    );
    println!("  rep   events      wall(s)   events/sec");
    let runs: Vec<Rep> = (0..reps)
        .map(|i| {
            let rep = run_rep(seed, &load);
            println!(
                "  {:>3}  {:>9}  {:>8.3}  {:>11.0}",
                i + 1,
                rep.events,
                rep.wall_s,
                rep.events as f64 / rep.wall_s
            );
            rep
        })
        .collect();
    for rep in &runs[1..] {
        assert_eq!(
            rep.events, runs[0].events,
            "repetitions diverged: the same seed must process the same events"
        );
    }
    let mut walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    walls.sort_by(f64::total_cmp);
    let wall_median = walls[walls.len() / 2];
    let events = runs[0].events;
    let events_per_sec = events as f64 / wall_median;
    println!("  median: {wall_median:.3} s, {events_per_sec:.0} events/sec");

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"engine_throughput\",\n");
    let _ = writeln!(
        json,
        "  \"seed\": {seed}, \"commit\": \"{}\", \"smoke\": {smoke},",
        commit_id()
    );
    let _ = writeln!(
        json,
        "  \"cell\": \"kv_replication-healthy\", \"client_threads\": {}, \"requests_per_thread\": {},",
        load.client_threads, load.requests_per_thread
    );
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(
        json,
        "  \"events\": {events}, \"sim_end_ms\": {:.3},",
        runs[0].end_ms
    );
    let reps_wall: Vec<String> = runs.iter().map(|r| format!("{:.4}", r.wall_s)).collect();
    let _ = writeln!(json, "  \"reps_wall_s\": [{}],", reps_wall.join(", "));
    let _ = writeln!(
        json,
        "  \"wall_s_median\": {wall_median:.4}, \"events_per_sec\": {events_per_sec:.0}"
    );
    json.push_str("}\n");

    write_results("BENCH_engine.json", &json, smoke);
}
