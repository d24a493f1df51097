//! Thread-independence of the event loop.
//!
//! A simulation owns all of its state: the event heap, the seeded
//! `SmallRng`, the component table and the trace sinks. Nothing may
//! leak in from the OS thread it runs on (thread-locals, process-wide
//! counters, hash seeds), and nothing may leak between simulations
//! that run side by side in one process. This suite pins that: for a
//! sweep of seeds, the FNV-1a trace hash of a light web-serving cell
//! is the same on the test's own thread and on every one of several
//! OS threads running the same seed concurrently, and a second round
//! of those threads reproduces it again.
//!
//! Same-thread replay and seed sensitivity (a neighbouring seed lands
//! elsewhere) are covered by `trace_golden.rs`.

use std::sync::Arc;
use std::thread;

use lnic::prelude::*;
use lnic_integration::{page_jobs, spawn_closed_loop};
use lnic_sim::prelude::*;
use lnic_workloads::three_web_servers;

/// Seeds the sweep covers, the same set `trace_golden.rs` replays.
const SWEEP_SEEDS: [u64; 4] = [1, 7, 42, 20260808];
/// How many OS threads run the same seed side by side.
const THREAD_COUNTS: [usize; 2] = [2, 4];

/// A light web-serving cell: 2 λ-NIC workers, three web lambdas,
/// closed-loop driver, no chaos. Returns the trace hash.
fn web3_plain_hash(seed: u64) -> u64 {
    let config = TestbedConfig::new(BackendKind::Nic).seed(seed).workers(2);
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(HashSink::new()));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let driver = spawn_closed_loop(
        &mut bed,
        page_jobs(&program),
        4,
        SimDuration::from_micros(200),
        Some(60),
        SimDuration::ZERO,
    );
    bed.sim.run();
    assert!(
        bed.sim.get::<ClosedLoopDriver>(driver).unwrap().is_done(),
        "all budgeted requests must terminate"
    );
    bed.finish_tracing();
    let sink = bed.sim.trace_sink::<HashSink>().expect("hash sink");
    assert!(sink.count() > 0, "trace stream must not be empty");
    sink.hash()
}

/// Runs `seed` on `threads` OS threads at once and returns each hash.
fn hashes_on_threads(seed: u64, threads: usize) -> Vec<u64> {
    let handles: Vec<_> = (0..threads)
        .map(|_| thread::spawn(move || web3_plain_hash(seed)))
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("simulation thread panicked"))
        .collect()
}

/// Seed sweep: for every seed, the hash is identical on the test's
/// thread and on each of several concurrently running OS threads, and
/// a repeated round of threads reproduces it.
#[test]
fn seed_sweep_is_deterministic_across_threads_and_repeats() {
    for seed in SWEEP_SEEDS {
        let reference = web3_plain_hash(seed);
        for threads in THREAD_COUNTS {
            for round in 0..2 {
                for (i, hash) in hashes_on_threads(seed, threads).into_iter().enumerate() {
                    assert_eq!(
                        hash, reference,
                        "seed {seed}: thread {i} of {threads} (round {round}) diverged \
                         from the reference run"
                    );
                }
            }
        }
    }
}
