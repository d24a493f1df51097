//! End-to-end tests for the replicated NIC-side KV service: a 3-replica
//! raft group spanning NIC workers, serving reads at the leader NIC and
//! replicating writes NIC-to-NIC over the data-plane links.
//!
//! Every run keeps the testbed's default [`InvariantChecker`] attached,
//! so the online Wing–Gong linearizability checker (rule 10) audits the
//! full `KvInvoke`/`KvResponse` history and panics on the first
//! non-linearizable read — merely completing a run here is a
//! correctness claim. On top of that the suite asserts the durability
//! contract directly: every acknowledged write must be present in the
//! surviving leader's replicated store, across leader crashes and
//! minority partitions.
//!
//! The trace stream is also pinned: `goldens/kv_replication_hashes.txt`
//! holds the FNV-1a hash of each scenario's full event stream
//! (re-pin intentional changes with `UPDATE_GOLDENS=1`).

use std::collections::HashMap;

use lnic::failover::FailoverConfig;
use lnic::prelude::*;
use lnic::repkv::RepKvReplica;
use lnic_integration::{
    assert_gateways_retired, golden_checks_enabled, goldens, resilient_nic_config,
};
use lnic_raft::{RaftConfig, Role};
use lnic_sim::prelude::*;
use lnic_sim::trace::{TraceRecord, TraceSink};
use lnic_workloads::kv::{KvMix, REPKV_WORKLOAD_ID};

const THREADS: usize = 3;
const REQUESTS_PER_THREAD: u64 = 50;

/// Raft timers sized for the testbed: the 15 ms read lease provably
/// lapses before the 20 ms election floor, so a deposed leader can
/// never serve a stale read (one global clock, no skew term).
fn raft_cfg() -> RaftConfig {
    RaftConfig {
        election_timeout_min: SimDuration::from_millis(20),
        election_timeout_max: SimDuration::from_millis(40),
        heartbeat_interval: SimDuration::from_millis(5),
        read_lease: Some(SimDuration::from_millis(15)),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Traffic only.
    Healthy,
    /// The current raft leader's worker crashes mid-run and restarts.
    LeaderCrash,
    /// The current leader is cut off the switch (a minority partition);
    /// the majority elects a successor and keeps serving.
    MinorityPartition,
}

/// Collects the per-run KV history from the trace stream: acknowledged
/// write values (each doubles as its PutOnce uid) and successful reads.
#[derive(Default)]
struct KvAudit {
    invokes: HashMap<u64, (bool, u64)>,
    acked_writes: Vec<u64>,
    ok_reads: u64,
    failed_ops: u64,
}

impl TraceSink for KvAudit {
    fn on_record(&mut self, rec: &TraceRecord) {
        match rec.event {
            TraceEvent::KvInvoke {
                request_id,
                write,
                value,
                ..
            } => {
                self.invokes.insert(request_id, (write, value));
            }
            TraceEvent::KvResponse { request_id, ok, .. } => {
                let Some(&(write, value)) = self.invokes.get(&request_id) else {
                    return;
                };
                match (ok, write) {
                    (true, true) => self.acked_writes.push(value),
                    (true, false) => self.ok_reads += 1,
                    (false, _) => self.failed_ops += 1,
                }
            }
            _ => {}
        }
    }
}

struct RunResult {
    hash: u64,
    ok_reads: u64,
    acked_writes: u64,
    failed_ops: u64,
    driver_failed: u64,
}

/// Index of the worker whose replica currently leads the raft group.
fn leader_index(bed: &Testbed) -> Option<usize> {
    bed.repkv_replicas.iter().enumerate().find_map(|(i, &id)| {
        let rep = bed.sim.get::<RepKvReplica>(id)?;
        let raft = rep.raft()?;
        (raft.role() == Role::Leader && !raft.is_crashed()).then_some(i)
    })
}

fn repkv_run(seed: u64, scenario: Scenario) -> RunResult {
    let config = resilient_nic_config(seed, 3);
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(HashSink::new()));
    bed.sim.add_trace_sink(Box::new(KvAudit::default()));
    bed.enable_replicated_kv(raft_cfg());
    if scenario != Scenario::Healthy {
        bed.enable_failover(
            FailoverConfig {
                heartbeat_interval: SimDuration::from_millis(10),
                missed_beats: 3,
                ..FailoverConfig::default()
            }
            .fenced(),
        );
    }

    let jobs = vec![JobSpec {
        workload_id: REPKV_WORKLOAD_ID,
        // 8 keys keep per-key concurrency high (the interesting regime
        // for the checker); 80% reads, Zipf 0.99 popularity.
        payload: PayloadSpec::RepKv(KvMix::new(8, 800, 990)),
    }];
    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        jobs,
        THREADS,
        SimDuration::from_micros(200),
        Some(REQUESTS_PER_THREAD),
    ));
    // Start after the first election has settled so the healthy run
    // serves redirect-free from the leader.
    bed.sim
        .post(driver, SimDuration::from_millis(100), StartDriver);

    // Let the group elect, then aim the fault at whoever leads.
    bed.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(150));
    let leader = leader_index(&bed).expect("a leader is elected before the fault window");
    let at = bed.sim.now();
    match scenario {
        Scenario::Healthy => {}
        Scenario::LeaderCrash => {
            bed.inject_faults(
                &FaultPlan::new()
                    .nic_crash(leader, at + SimDuration::from_millis(10))
                    .nic_restart(leader, at + SimDuration::from_millis(160)),
            );
        }
        Scenario::MinorityPartition => {
            bed.inject_faults(&FaultPlan::new().partition(
                &[leader],
                at + SimDuration::from_millis(10),
                SimDuration::from_millis(250),
            ));
        }
    }
    // Raft timers (and failover heartbeats) tick forever: run to a
    // horizon instead of draining the event queue.
    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    assert!(
        bed.sim.get::<ClosedLoopDriver>(driver).unwrap().is_done(),
        "all budgeted requests must terminate"
    );
    assert_gateways_retired(&bed);
    bed.finish_tracing();

    // Durability: every acknowledged write is in the surviving leader's
    // replicated store (committed through a majority, so it survives
    // the loss of any single replica).
    let audit_writes;
    {
        let audit = bed.sim.trace_sink::<KvAudit>().expect("kv audit sink");
        audit_writes = audit.acked_writes.clone();
    }
    let leader = leader_index(&bed).expect("a leader survives the run");
    let raft = bed
        .sim
        .get::<RepKvReplica>(bed.repkv_replicas[leader])
        .unwrap()
        .raft()
        .unwrap();
    for &uid in &audit_writes {
        assert!(
            raft.kv().has_uid(uid),
            "acknowledged write {uid:#x} missing from the leader's store"
        );
    }

    let audit = bed.sim.trace_sink::<KvAudit>().expect("kv audit sink");
    let hash_sink = bed.sim.trace_sink::<HashSink>().expect("hash sink");
    assert!(hash_sink.count() > 0, "trace stream must not be empty");
    let driver_failed = bed
        .sim
        .get::<ClosedLoopDriver>(driver)
        .unwrap()
        .completed()
        .iter()
        .filter(|c| c.failed)
        .count() as u64;
    RunResult {
        hash: hash_sink.hash(),
        ok_reads: audit.ok_reads,
        acked_writes: audit.acked_writes.len() as u64,
        failed_ops: audit.failed_ops,
        driver_failed,
    }
}

#[test]
fn healthy_group_serves_reads_and_writes_at_the_leader() {
    let r = repkv_run(42, Scenario::Healthy);
    assert!(r.ok_reads > 0, "reads must be served");
    assert!(r.acked_writes > 0, "writes must be acknowledged");
    assert_eq!(
        r.driver_failed, 0,
        "a healthy group must not fail any request"
    );
    assert_eq!(r.failed_ops, 0, "a healthy group must not fail any op");
}

#[test]
fn leader_crash_loses_no_acknowledged_write() {
    let r = repkv_run(42, Scenario::LeaderCrash);
    // The durability audit inside repkv_run is the core assertion;
    // beyond it, the group must have kept making progress.
    assert!(r.ok_reads > 0, "reads must continue after the crash");
    assert!(r.acked_writes > 0, "writes must continue after the crash");
}

#[test]
fn minority_partition_keeps_the_majority_serving() {
    let r = repkv_run(42, Scenario::MinorityPartition);
    assert!(r.ok_reads > 0, "majority side must keep serving reads");
    assert!(
        r.acked_writes > 0,
        "majority side must keep acknowledging writes"
    );
}

#[test]
fn repkv_trace_is_deterministic_across_runs() {
    let a = repkv_run(42, Scenario::LeaderCrash).hash;
    let b = repkv_run(42, Scenario::LeaderCrash).hash;
    let c = repkv_run(42, Scenario::LeaderCrash).hash;
    assert_eq!(a, b, "run 1 vs run 2 diverged");
    assert_eq!(a, c, "run 1 vs run 3 diverged");
}

#[test]
fn repkv_different_seeds_diverge() {
    let a = repkv_run(42, Scenario::Healthy).hash;
    let b = repkv_run(7, Scenario::Healthy).hash;
    assert_ne!(a, b, "seed change must perturb the trace");
}

/// A follower's NIC is down while the group commits hundreds of writes,
/// so the other follower folds them into its snapshot. The leader's NIC
/// then dies as the lagging one comes back: the survivor wins the
/// election, and the only way the returning replica can catch up is an
/// `InstallSnapshot` that crosses the data network fragmented by
/// `net::frag`. It must end with the leader's store, dedup set included,
/// under the online linearizability checker.
#[test]
fn lagging_replica_catches_up_through_install_snapshot() {
    let mut bed = build_testbed(resilient_nic_config(42, 3));
    bed.sim.add_trace_sink(Box::new(KvAudit::default()));
    bed.enable_replicated_kv(raft_cfg());
    bed.enable_failover(
        FailoverConfig {
            heartbeat_interval: SimDuration::from_millis(10),
            missed_beats: 3,
            ..FailoverConfig::default()
        }
        .fenced(),
    );
    let jobs = vec![JobSpec {
        workload_id: REPKV_WORKLOAD_ID,
        // Half writes, so the group commits well past the compaction
        // point while the follower is down.
        payload: PayloadSpec::RepKv(KvMix::new(8, 500, 990)),
    }];
    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        jobs,
        THREADS,
        SimDuration::from_micros(200),
        Some(600),
    ));
    bed.sim
        .post(driver, SimDuration::from_millis(100), StartDriver);
    bed.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(150));
    let leader = leader_index(&bed).expect("a leader is elected before the faults");
    let (lagging, survivor) = ((leader + 1) % 3, (leader + 2) % 3);
    let at = bed.sim.now();
    let handover = at + SimDuration::from_millis(80);
    bed.inject_faults(
        &FaultPlan::new()
            .nic_crash(lagging, at + SimDuration::from_millis(5))
            .nic_crash(leader, handover)
            .nic_restart(lagging, handover)
            .nic_restart(leader, handover + SimDuration::from_millis(400)),
    );
    let raft = |bed: &Testbed, i: usize| {
        let rep = bed.sim.get::<RepKvReplica>(bed.repkv_replicas[i]).unwrap();
        let raft = rep.raft().unwrap();
        (raft.snapshot_index(), raft.log().len() as u64)
    };
    bed.sim.run_until(handover - SimDuration::from_micros(1));
    let (lag_snap, lag_log) = raft(&bed, lagging);
    let behind = lag_snap + lag_log;
    let (survivor_snap, _) = raft(&bed, survivor);
    assert!(
        survivor_snap > behind,
        "the survivor compacted past the lagging replica's last index \
         {behind} (snapshot at {survivor_snap})"
    );

    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    assert!(
        bed.sim.get::<ClosedLoopDriver>(driver).unwrap().is_done(),
        "all budgeted requests must terminate"
    );
    let now_leader = leader_index(&bed).expect("a leader survives the run");
    let replica = |i: usize| {
        bed.sim
            .get::<RepKvReplica>(bed.repkv_replicas[i])
            .unwrap()
            .raft()
            .unwrap()
    };
    let (lag, lead) = (replica(lagging), replica(now_leader));
    assert!(lag.snapshot_index() > behind, "caught up by snapshot");
    assert_eq!(lag.last_applied(), lead.last_applied());
    assert_eq!(lag.applied_digest(), lead.applied_digest());
    assert_eq!(
        lag.kv(),
        lead.kv(),
        "store and dedup set match the leader's"
    );
    let audit = bed.sim.trace_sink::<KvAudit>().expect("kv audit sink");
    for &uid in &audit.acked_writes {
        assert!(lag.kv().has_uid(uid), "acknowledged write {uid:#x} missing");
    }
}

fn golden_cases() -> Vec<(&'static str, u64, Scenario)> {
    vec![
        ("repkv-healthy-seed42", 42, Scenario::Healthy),
        ("repkv-leader-crash-seed42", 42, Scenario::LeaderCrash),
        (
            "repkv-minority-partition-seed42",
            42,
            Scenario::MinorityPartition,
        ),
    ]
}

const GOLDENS_FILE: &str = "kv_replication_hashes.txt";

/// The replicated-KV scenarios' trace hashes must match the pinned
/// goldens. After an *intentional* change, regenerate with:
///
/// ```text
/// UPDATE_GOLDENS=1 cargo test -p lnic-integration --test kv_replication
/// ```
#[test]
fn repkv_trace_hashes_match_pinned_goldens() {
    if !golden_checks_enabled() {
        eprintln!("skipping pinned golden check under LNIC_SEED_OFFSET");
        return;
    }
    if goldens::update_requested() {
        let cases: Vec<(String, u64)> = golden_cases()
            .into_iter()
            .map(|(name, seed, scenario)| (name.to_owned(), repkv_run(seed, scenario).hash))
            .collect();
        goldens::write(
            GOLDENS_FILE,
            "Pinned FNV-1a trace hashes. Regenerate with UPDATE_GOLDENS=1\n\
             cargo test -p lnic-integration --test kv_replication",
            &cases,
        );
        return;
    }
    let goldens = goldens::read(GOLDENS_FILE);
    for (name, seed, scenario) in golden_cases() {
        let expect = *goldens
            .get(name)
            .unwrap_or_else(|| panic!("golden `{name}` missing from kv_replication_hashes.txt"));
        let got = repkv_run(seed, scenario).hash;
        assert_eq!(
            got, expect,
            "golden `{name}` drifted: got {got:#018x}, pinned {expect:#018x} \
             (if intentional, re-pin with UPDATE_GOLDENS=1)"
        );
    }
}
