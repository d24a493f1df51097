//! Golden-trace regression suite: the structured event stream of a
//! fixed-seed run is part of the simulator's contract.
//!
//! Every run here hashes its full trace with the FNV-1a [`HashSink`]
//! (integer fields only — no floats, no pointers — so the hash is
//! identical across debug/release builds and across machines). The
//! suite pins three properties:
//!
//! 1. **Replay determinism**: the same seed produces a byte-identical
//!    event stream across repeated runs, with and without an injected
//!    [`FaultPlan`].
//! 2. **Golden stability**: the hash matches the value pinned under
//!    `tests/goldens/trace_hashes.txt`, so *any* change to event
//!    ordering, scheduling, or the cost model shows up in review. Run
//!    with `UPDATE_GOLDENS=1` to re-pin after an intentional change.
//! 3. **Sensitivity**: a perturbed scheduler (round-robin dispatch
//!    instead of the hardware's uniform-random) or a different seed
//!    must change the hash — the golden test cannot pass vacuously.
//!
//! The testbed's default [`InvariantChecker`] stays attached for every
//! run, so each golden replay is also a full online-invariant pass.

use std::sync::Arc;

use lnic::failover::FailoverConfig;
use lnic::prelude::*;
use lnic_integration::{golden_checks_enabled, goldens, page_jobs, spawn_closed_loop};
use lnic_nic::{DispatchPolicy, Nic};
use lnic_sim::prelude::*;
use lnic_workloads::three_web_servers;

const THREADS: usize = 4;
const REQUESTS_PER_THREAD: u64 = 100;

/// What besides plain traffic a golden run exercises.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Traffic only.
    Plain,
    /// A worker NIC crashes and restarts mid-run.
    NicChaos,
    /// Lease-fenced failover with snapshots: a partition cuts worker 0
    /// off, the control plane crashes and restores from its snapshot,
    /// the partition heals, and the worker rejoins at a bumped epoch.
    CtrlChaos,
}

/// Runs the standard golden workload and returns the trace hash.
///
/// Three distinct web-server lambdas on two λ-NIC workers under a
/// closed-loop driver: enough traffic to exercise dispatch, WFQ,
/// memory charges, and the response path, while staying fast in debug
/// builds.
fn traced_run(seed: u64, policy: DispatchPolicy, scenario: Scenario) -> u64 {
    let mut config = TestbedConfig::new(BackendKind::Nic).seed(seed).workers(2);
    if scenario != Scenario::Plain {
        config.gateway.rpc_timeout = SimDuration::from_millis(50);
        config.gateway.rpc_attempts = 5;
        config.gateway = config.gateway.resilient();
        config.nic.firmware_swap_time = SimDuration::from_millis(100);
    }
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(HashSink::new()));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    for w in &bed.workers {
        let component = w.component;
        bed.sim
            .get_mut::<Nic>(component)
            .unwrap()
            .set_dispatch_policy(policy);
    }
    match scenario {
        Scenario::Plain => {}
        Scenario::NicChaos => {
            bed.inject_faults(&nic_chaos_plan());
        }
        Scenario::CtrlChaos => {
            bed.enable_failover(
                FailoverConfig {
                    heartbeat_interval: SimDuration::from_millis(10),
                    missed_beats: 3,
                    ..FailoverConfig::default()
                }
                .fenced()
                .with_snapshots(SimDuration::from_millis(40)),
            );
            bed.inject_faults(&ctrl_chaos_plan());
        }
    }
    let jobs = page_jobs(&program);
    let per_thread = if scenario == Scenario::CtrlChaos {
        // Enough traffic to straddle the partition, the controller
        // outage, and the rejoin.
        REQUESTS_PER_THREAD * 6
    } else {
        REQUESTS_PER_THREAD
    };
    let driver = spawn_closed_loop(
        &mut bed,
        jobs,
        THREADS,
        SimDuration::from_micros(200),
        Some(per_thread),
        SimDuration::ZERO,
    );
    if scenario == Scenario::CtrlChaos {
        // The heartbeat ticks forever; run to a horizon instead of
        // draining the queue.
        bed.sim
            .run_until(SimTime::ZERO + SimDuration::from_secs(10));
    } else {
        bed.sim.run();
    }
    assert!(
        bed.sim.get::<ClosedLoopDriver>(driver).unwrap().is_done(),
        "all budgeted requests must terminate"
    );

    // End-of-run accounting: the invariant checker's conservation pass
    // runs in `on_finish`, and a non-empty stream proves the
    // instrumentation is live (a silently detached tracer would make
    // every determinism test pass vacuously).
    bed.finish_tracing();
    let hash = bed.sim.trace_sink::<HashSink>().expect("hash sink");
    assert!(hash.count() > 0, "trace stream must not be empty");
    hash.hash()
}

fn nic_chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .nic_crash(0, SimTime::ZERO + SimDuration::from_millis(20))
        .nic_restart(0, SimTime::ZERO + SimDuration::from_millis(60))
}

/// Partition worker 0, crash the control plane mid-partition, restore
/// it from the last snapshot, and let the partition heal: the full
/// fence → snapshot-restore → rejoin cycle in one deterministic run.
fn ctrl_chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .partition(
            &[0],
            SimTime::ZERO + SimDuration::from_millis(20),
            SimDuration::from_millis(250),
        )
        .controller_crash(SimTime::ZERO + SimDuration::from_millis(90))
        .controller_restart(SimTime::ZERO + SimDuration::from_millis(130))
}

/// The pinned golden runs: name → (seed, policy, scenario).
fn golden_cases() -> Vec<(&'static str, u64, DispatchPolicy, Scenario)> {
    vec![
        (
            "web3-uniform-seed42",
            42,
            DispatchPolicy::UniformRandom,
            Scenario::Plain,
        ),
        (
            "web3-uniform-seed7",
            7,
            DispatchPolicy::UniformRandom,
            Scenario::Plain,
        ),
        (
            "web3-roundrobin-seed42",
            42,
            DispatchPolicy::RoundRobin,
            Scenario::Plain,
        ),
        (
            "web3-chaos-seed42",
            42,
            DispatchPolicy::UniformRandom,
            Scenario::NicChaos,
        ),
        (
            "web3-ctrl-chaos-seed42",
            42,
            DispatchPolicy::UniformRandom,
            Scenario::CtrlChaos,
        ),
    ]
}

fn run_case(seed: u64, policy: DispatchPolicy, scenario: Scenario) -> u64 {
    traced_run(seed, policy, scenario)
}

const GOLDENS_FILE: &str = "trace_hashes.txt";

/// Seeds the replay and divergence checks sweep: small, mid-range and a
/// date-like value, so a determinism leak that only shows on some RNG
/// streams still surfaces.
const SWEEP_SEEDS: [u64; 4] = [1, 7, 42, 20260808];

#[test]
fn same_seed_yields_identical_trace_hash_across_runs() {
    for seed in SWEEP_SEEDS {
        let hashes: Vec<u64> = (0..3)
            .map(|_| traced_run(seed, DispatchPolicy::UniformRandom, Scenario::Plain))
            .collect();
        assert_eq!(hashes[0], hashes[1], "seed {seed}: run 1 vs run 2 diverged");
        assert_eq!(hashes[0], hashes[2], "seed {seed}: run 1 vs run 3 diverged");
    }
}

#[test]
fn chaos_fault_plan_is_trace_deterministic() {
    let a = traced_run(42, DispatchPolicy::UniformRandom, Scenario::NicChaos);
    let b = traced_run(42, DispatchPolicy::UniformRandom, Scenario::NicChaos);
    let c = traced_run(42, DispatchPolicy::UniformRandom, Scenario::NicChaos);
    assert_eq!(a, b);
    assert_eq!(a, c);
    // The crash must actually leave a mark on the stream.
    assert_ne!(
        a,
        traced_run(42, DispatchPolicy::UniformRandom, Scenario::Plain),
        "fault plan left no trace"
    );
}

#[test]
fn controller_chaos_is_trace_deterministic() {
    let a = traced_run(42, DispatchPolicy::UniformRandom, Scenario::CtrlChaos);
    let b = traced_run(42, DispatchPolicy::UniformRandom, Scenario::CtrlChaos);
    assert_eq!(a, b, "partition + controller crash-restart diverged");
    assert_ne!(
        a,
        traced_run(42, DispatchPolicy::UniformRandom, Scenario::Plain),
        "controller chaos left no trace"
    );
}

#[test]
fn scheduler_perturbation_changes_the_hash() {
    let uniform = traced_run(42, DispatchPolicy::UniformRandom, Scenario::Plain);
    let rr = traced_run(42, DispatchPolicy::RoundRobin, Scenario::Plain);
    assert_ne!(uniform, rr, "dispatch-policy change must perturb the trace");
}

#[test]
fn different_seeds_diverge() {
    let hashes: Vec<u64> = SWEEP_SEEDS
        .iter()
        .map(|&seed| traced_run(seed, DispatchPolicy::UniformRandom, Scenario::Plain))
        .collect();
    for (i, (&seed, &hash)) in SWEEP_SEEDS.iter().zip(&hashes).enumerate() {
        for (&other, &other_hash) in SWEEP_SEEDS.iter().zip(&hashes).skip(i + 1) {
            assert_ne!(
                hash, other_hash,
                "seeds {seed} and {other} gave the same trace"
            );
        }
        // A neighbouring seed must land elsewhere too, or the sweep
        // proves nothing.
        let neighbour = seed.wrapping_add(1);
        assert_ne!(
            hash,
            traced_run(neighbour, DispatchPolicy::UniformRandom, Scenario::Plain),
            "seed {seed}: neighbouring seed {neighbour} gave the same trace"
        );
    }
}

/// The hash of each golden case must match the value pinned in
/// `tests/goldens/trace_hashes.txt`. After an *intentional* change to
/// scheduling, instrumentation, or the cost model, regenerate with:
///
/// ```text
/// UPDATE_GOLDENS=1 cargo test -p lnic-integration --test trace_golden
/// ```
#[test]
fn trace_hashes_match_pinned_goldens() {
    // The pinned values are tied to the configured seeds; a CI seed
    // sweep (LNIC_SEED_OFFSET != 0) legitimately lands elsewhere. The
    // determinism and sensitivity tests above still run under every
    // offset.
    if !golden_checks_enabled() {
        eprintln!("skipping pinned golden check under LNIC_SEED_OFFSET");
        return;
    }
    if goldens::update_requested() {
        let cases: Vec<(String, u64)> = golden_cases()
            .into_iter()
            .map(|(name, seed, policy, scenario)| {
                (name.to_owned(), run_case(seed, policy, scenario))
            })
            .collect();
        goldens::write(
            GOLDENS_FILE,
            "Pinned FNV-1a trace hashes. Regenerate with UPDATE_GOLDENS=1\n\
             cargo test -p lnic-integration --test trace_golden",
            &cases,
        );
        return;
    }
    let goldens = goldens::read(GOLDENS_FILE);
    for (name, seed, policy, scenario) in golden_cases() {
        let expect = *goldens
            .get(name)
            .unwrap_or_else(|| panic!("golden `{name}` missing from trace_hashes.txt"));
        let got = run_case(seed, policy, scenario);
        assert_eq!(
            got, expect,
            "golden `{name}` drifted: got {got:#018x}, pinned {expect:#018x} \
             (if intentional, re-pin with UPDATE_GOLDENS=1)"
        );
    }
}
