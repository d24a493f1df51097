//! Replicated NIC-side KV under fire: linearizability and durability
//! across leader crashes, partitions, asymmetric cuts, and wire chaos.
//!
//! A 3-replica raft group spans the NIC workers (leases fenced through
//! the PR-5 membership epochs), serving reads at the leader NIC without
//! a host hop and replicating writes NIC-to-NIC over the data-plane
//! links. Every cell drives a read-heavy Zipf mix through the gateway
//! while one fault plan runs, with the online Wing–Gong linearizability
//! checker (sim invariant rule 10) attached — the run panics on the
//! first non-linearizable read, so a completed sweep *is* the
//! zero-violations claim. On top of that each cell audits durability
//! directly: every acknowledged write must be present in the surviving
//! leader's replicated store.
//!
//! The healthy cell also gates the latency claim: leader-NIC read p99
//! must stay within 2x the stateless NIC-lambda p99 pinned by
//! `placement_ablation` (the hybrid arm) — replication must not cost
//! the datapath its reason to exist.
//!
//! Emits `results/kv_replication.json` (one cell per fault plan, with
//! seed and commit metadata). `--history=PATH` streams the per-key
//! KV history (`kv_invoke`/`kv_response` events) as JSONL while the
//! run executes, so a linearizability panic leaves the violating
//! history on disk for CI to upload.
//!
//! Run with: `cargo run --release -p lnic-bench --bin kv_replication`
//! (`--smoke` runs the healthy + leader-crash cells for CI and writes
//! no file).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{LineWriter, Write as _};

use lnic::failover::FailoverConfig;
use lnic::prelude::*;
use lnic::repkv::RepKvReplica;
use lnic_bench::{commit_id, write_results};
use lnic_raft::{RaftConfig, Role};
use lnic_sim::check::InvariantChecker;
use lnic_sim::prelude::*;
use lnic_sim::trace::{json_line, TraceRecord, TraceSink};
use lnic_workloads::kv::{KvMix, REPKV_WORKLOAD_ID};

const THREADS: usize = 4;
const THINK: SimDuration = SimDuration::from_micros(200);
/// Driver start: past the first election, so the healthy cell measures
/// steady-state leader reads.
const WARMUP: SimDuration = SimDuration::from_millis(100);
/// Faults aim at whoever leads at this instant.
const FAULT_AT: SimDuration = SimDuration::from_millis(160);
const SETTLE: SimDuration = SimDuration::from_secs(1);
/// Fallback stateless NIC-lambda p99 (ms) when
/// `results/placement_ablation.json` is absent: the pinned hybrid arm.
const FALLBACK_BASELINE_P99_MS: f64 = 0.0262;

/// Raft timers for the group: the 15 ms read lease provably lapses
/// before the 20 ms election floor (one global clock), so a deposed
/// leader can never serve a stale read.
fn raft_cfg() -> RaftConfig {
    RaftConfig {
        election_timeout_min: SimDuration::from_millis(20),
        election_timeout_max: SimDuration::from_millis(40),
        heartbeat_interval: SimDuration::from_millis(5),
        read_lease: Some(SimDuration::from_millis(15)),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// No faults: the latency baseline.
    Healthy,
    /// Crash the leader's worker, restart it 300 ms later.
    LeaderCrash,
    /// Cut a follower off the switch: the leader keeps serving.
    PartitionFollower,
    /// Cut the leader off: the majority elects a successor.
    PartitionLeader,
    /// Cut the leader plus one follower: no quorum until the heal.
    PartitionMajority,
    /// One-way cut: the leader's uplink goes dark (it hears everything,
    /// nobody hears it) — the classic asymmetric gray failure.
    AsymCut,
    /// Reorder + duplicate + corrupt windows on every worker link:
    /// replication frames take the same beating as request traffic.
    WireChaos,
}

impl Plan {
    const ALL: [Plan; 7] = [
        Plan::Healthy,
        Plan::LeaderCrash,
        Plan::PartitionFollower,
        Plan::PartitionLeader,
        Plan::PartitionMajority,
        Plan::AsymCut,
        Plan::WireChaos,
    ];
    const SMOKE: [Plan; 2] = [Plan::Healthy, Plan::LeaderCrash];

    fn name(self) -> &'static str {
        match self {
            Plan::Healthy => "healthy",
            Plan::LeaderCrash => "leader_crash",
            Plan::PartitionFollower => "partition_follower",
            Plan::PartitionLeader => "partition_leader",
            Plan::PartitionMajority => "partition_majority",
            Plan::AsymCut => "asym_cut",
            Plan::WireChaos => "wire_chaos",
        }
    }

    /// How long after the fault window the cell keeps running.
    fn horizon(self) -> SimDuration {
        let outage = match self {
            Plan::Healthy => SimDuration::ZERO,
            Plan::LeaderCrash => SimDuration::from_millis(300),
            Plan::PartitionFollower | Plan::PartitionLeader => SimDuration::from_millis(400),
            Plan::PartitionMajority => SimDuration::from_millis(400),
            Plan::AsymCut => SimDuration::from_millis(300),
            Plan::WireChaos => SimDuration::from_millis(700),
        };
        FAULT_AT + outage + SETTLE
    }
}

/// Per-run KV history audit: pairs `kv_invoke`/`kv_response` events,
/// collects acknowledged write values (each doubles as its PutOnce
/// uid), successful-read latencies, and leadership handovers.
#[derive(Default)]
struct KvAudit {
    /// request id → (write, value).
    invokes: HashMap<u64, (bool, u64)>,
    acked_writes: Vec<u64>,
    ok_reads: u64,
    failed_ops: u64,
    read_latency: Option<Series>,
    leader_marks: u64,
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
            TraceEvent::RequestCompleted {
                request_id,
                latency_ns,
                failed: false,
                ..
            } => {
                if let Some(&(false, _)) = self.invokes.get(&request_id) {
                    self.read_latency
                        .get_or_insert_with(|| Series::new("repkv_reads"))
                        .record_ns(latency_ns);
                }
            }
            TraceEvent::Mark {
                label: "repkv_leader",
                ..
            } => {
                self.leader_marks += 1;
            }
            _ => {}
        }
    }
}

/// Streams the KV history to disk as JSONL, one line per
/// `kv_invoke`/`kv_response`/leadership event, line-buffered so a
/// linearizability panic mid-run still leaves the violating prefix on
/// disk for CI to upload.
struct KvHistorySink {
    out: LineWriter<File>,
}

impl TraceSink for KvHistorySink {
    fn on_record(&mut self, rec: &TraceRecord) {
        let keep = matches!(
            rec.event,
            TraceEvent::KvInvoke { .. }
                | TraceEvent::KvResponse { .. }
                | TraceEvent::Mark {
                    label: "repkv_leader",
                    ..
                }
        );
        if keep {
            let _ = writeln!(self.out, "{}", json_line(rec));
        }
    }

    fn on_finish(&mut self, _now: SimTime) {
        let _ = self.out.flush();
    }
}

struct Cell {
    name: &'static str,
    issued: u64,
    ok: u64,
    failed: u64,
    availability: f64,
    ok_reads: u64,
    acked_writes: u64,
    failed_ops: u64,
    lost_acked_writes: u64,
    leader_elections: u64,
    redirected_replies: u64,
    codec_rejects: u64,
    read_p50_ms: f64,
    read_p99_ms: f64,
    kv_forced_gc: u64,
    violations: u64,
}

fn leader_index(bed: &Testbed) -> Option<usize> {
    bed.repkv_replicas.iter().enumerate().find_map(|(i, &id)| {
        let rep = bed.sim.get::<RepKvReplica>(id)?;
        let raft = rep.raft()?;
        (raft.role() == Role::Leader && !raft.is_crashed()).then_some(i)
    })
}

fn run_cell(seed: u64, plan: Plan, history: Option<&str>) -> Cell {
    let mut config = TestbedConfig::new(BackendKind::Nic).seed(seed).workers(3);
    config.gateway.rpc_timeout = SimDuration::from_millis(50);
    config.gateway.rpc_attempts = 5;
    config.gateway = config.gateway.resilient();
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(KvAudit::default()));
    if let Some(path) = history {
        let file =
            File::create(format!("{path}.{}.jsonl", plan.name())).expect("create history file");
        bed.sim.add_trace_sink(Box::new(KvHistorySink {
            out: LineWriter::new(file),
        }));
    }
    bed.enable_replicated_kv(raft_cfg());
    // Fenced membership: lease epochs double as raft leadership fences
    // (an epoch rise steps the co-located replica down).
    bed.enable_failover(
        FailoverConfig {
            heartbeat_interval: SimDuration::from_millis(10),
            missed_beats: 3,
            ..FailoverConfig::default()
        }
        .fenced(),
    );

    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        vec![JobSpec {
            workload_id: REPKV_WORKLOAD_ID,
            // 64 keys, 90% reads, Zipf 0.99 popularity: the interactive
            // read-heavy regime the paper targets.
            payload: PayloadSpec::RepKv(KvMix::new(64, 900, 990)),
        }],
        THREADS,
        THINK,
        None,
    ));
    bed.sim.post(driver, WARMUP, StartDriver);

    // Let the first election settle, then aim the fault at the leader.
    bed.sim.run_until(SimTime::ZERO + FAULT_AT);
    let leader = leader_index(&bed).expect("a leader exists before the fault window");
    let at = bed.sim.now();
    let follower = (leader + 1) % 3;
    let fault_plan = match plan {
        Plan::Healthy => FaultPlan::new(),
        Plan::LeaderCrash => FaultPlan::new()
            .nic_crash(leader, at)
            .nic_restart(leader, at + SimDuration::from_millis(300)),
        Plan::PartitionFollower => {
            FaultPlan::new().partition(&[follower], at, SimDuration::from_millis(400))
        }
        Plan::PartitionLeader => {
            FaultPlan::new().partition(&[leader], at, SimDuration::from_millis(400))
        }
        Plan::PartitionMajority => {
            FaultPlan::new().partition(&[leader, follower], at, SimDuration::from_millis(400))
        }
        Plan::AsymCut => {
            FaultPlan::new().asym_link(1 + leader, 0, at, SimDuration::from_millis(300))
        }
        Plan::WireChaos => {
            let mut p = FaultPlan::new();
            let window = SimDuration::from_millis(700);
            for w in 0..3 {
                for link in [4 + 2 * w, 5 + 2 * w] {
                    p = p
                        .reorder(link, at, window, SimDuration::from_micros(200))
                        .duplicate(link, at, window, 0.2)
                        .corrupt(link, at, window, 0.05);
                }
            }
            p
        }
    };
    bed.inject_faults(&fault_plan);
    bed.sim.run_until(SimTime::ZERO + plan.horizon());
    bed.finish_tracing();

    // Durability audit: every acknowledged write must be in the
    // surviving leader's replicated store (committed through a
    // majority, so no single fault can un-write it).
    let acked = bed
        .sim
        .trace_sink::<KvAudit>()
        .expect("kv audit sink")
        .acked_writes
        .clone();
    let final_leader = leader_index(&bed).expect("a leader survives the run");
    let kv = bed
        .sim
        .get::<RepKvReplica>(bed.repkv_replicas[final_leader])
        .unwrap()
        .raft()
        .unwrap()
        .kv();
    let lost_acked_writes = acked.iter().filter(|&&uid| !kv.has_uid(uid)).count() as u64;

    let codec_rejects: u64 = bed
        .repkv_replicas
        .iter()
        .map(|&id| {
            bed.sim
                .get::<RepKvReplica>(id)
                .unwrap()
                .counters()
                .codec_rejects
        })
        .sum();
    let checker = bed
        .sim
        .trace_sink::<InvariantChecker>()
        .expect("invariant checker attached");
    let (kv_forced_gc, violations) = (checker.kv_forced_gc(), checker.violations().len() as u64);
    let audit = bed.sim.trace_sink::<KvAudit>().expect("kv audit sink");
    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    let issued = d.issued();
    let ok = d.completed().iter().filter(|c| !c.failed).count() as u64;
    let failed = d.completed().iter().filter(|c| c.failed).count() as u64;
    let reads = audit.read_latency.as_ref();
    let q = |s: Option<&Series>, p: f64| {
        s.and_then(|s| s.quantile_ns(p))
            .map_or(f64::NAN, |ns| ns as f64 / 1e6)
    };
    Cell {
        name: plan.name(),
        issued,
        ok,
        failed,
        availability: if issued == 0 {
            0.0
        } else {
            ok as f64 / issued as f64
        },
        ok_reads: audit.ok_reads,
        acked_writes: audit.acked_writes.len() as u64,
        failed_ops: audit.failed_ops,
        lost_acked_writes,
        leader_elections: audit.leader_marks,
        redirected_replies: bed
            .sim
            .get::<Gateway>(bed.gateway)
            .unwrap()
            .counters()
            .redirected_replies,
        codec_rejects,
        read_p50_ms: q(reads, 0.5),
        read_p99_ms: q(reads, 0.99),
        kv_forced_gc,
        violations,
    }
}

/// The stateless NIC-lambda p99 (ms) this sweep's healthy read p99 is
/// gated against: the hybrid arm of `results/placement_ablation.json`
/// when present, else the pinned fallback.
fn baseline_p99_ms() -> f64 {
    let Ok(text) = std::fs::read_to_string("results/placement_ablation.json") else {
        return FALLBACK_BASELINE_P99_MS;
    };
    text.lines()
        .find(|l| l.contains("\"hybrid\""))
        .and_then(|l| {
            let (_, rest) = l.split_once("\"p99_ms\":")?;
            rest.split([',', '}']).next()?.trim().parse().ok()
        })
        .unwrap_or(FALLBACK_BASELINE_P99_MS)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let history = std::env::args().find_map(|a| a.strip_prefix("--history=").map(str::to_owned));
    let plans: &[Plan] = if smoke { &Plan::SMOKE } else { &Plan::ALL };
    let seed = 42 + seed_offset();

    println!(
        "kv replication: 3 replicas, {THREADS} client threads, seed {seed}{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!("  cell                 avail    reads  writes  lost  elect  redir  rd_p99(ms)");

    let mut cells = Vec::new();
    for &plan in plans {
        let cell = run_cell(seed, plan, history.as_deref());
        println!(
            "  {:<19}  {:.5}  {:>6}  {:>6}  {:>4}  {:>5}  {:>5}  {:>10.4}",
            cell.name,
            cell.availability,
            cell.ok_reads,
            cell.acked_writes,
            cell.lost_acked_writes,
            cell.leader_elections,
            cell.redirected_replies,
            cell.read_p99_ms
        );
        cells.push(cell);
    }

    // The sweep's claims, asserted rather than merely printed. The
    // linearizability claim needs no assert: rule 10 panics in-stream,
    // so reaching this line with zero recorded violations is the proof.
    for c in &cells {
        assert_eq!(
            c.violations, 0,
            "cell {} recorded invariant violations",
            c.name
        );
        assert_eq!(
            c.lost_acked_writes, 0,
            "cell {} lost acknowledged writes",
            c.name
        );
        assert!(
            c.ok_reads > 0 && c.acked_writes > 0,
            "cell {} made no progress",
            c.name
        );
    }
    let baseline = baseline_p99_ms();
    let healthy = cells.iter().find(|c| c.name == "healthy").unwrap();
    assert!(
        healthy.read_p99_ms <= 2.0 * baseline,
        "leader-NIC read p99 {:.4} ms exceeds 2x the stateless NIC-lambda p99 {:.4} ms",
        healthy.read_p99_ms,
        baseline
    );

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"kv_replication\",\n");
    let _ = writeln!(
        json,
        "  \"seed\": {seed}, \"commit\": \"{}\", \"smoke\": {smoke}, \"threads\": {THREADS},",
        commit_id()
    );
    let _ = writeln!(
        json,
        "  \"baseline_p99_ms\": {baseline}, \"read_p99_budget_ms\": {},",
        2.0 * baseline
    );
    json.push_str("  \"cells\": [\n");
    let num = |v: f64| {
        if v.is_nan() {
            "null".to_owned()
        } else {
            format!("{v:.4}")
        }
    };
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"plan\": \"{}\", \"issued\": {}, \"ok\": {}, \"failed\": {}, \
             \"availability\": {:.6}, \"ok_reads\": {}, \"acked_writes\": {}, \
             \"failed_ops\": {}, \"lost_acked_writes\": {}, \"leader_elections\": {}, \
             \"redirected_replies\": {}, \"codec_rejects\": {}, \"read_p50_ms\": {}, \
             \"read_p99_ms\": {}, \"kv_forced_gc\": {}, \"violations\": {}}}{comma}",
            c.name,
            c.issued,
            c.ok,
            c.failed,
            c.availability,
            c.ok_reads,
            c.acked_writes,
            c.failed_ops,
            c.lost_acked_writes,
            c.leader_elections,
            c.redirected_replies,
            c.codec_rejects,
            num(c.read_p50_ms),
            num(c.read_p99_ms),
            c.kv_forced_gc,
            c.violations
        );
    }
    json.push_str("  ]\n}\n");

    write_results("kv_replication.json", &json, smoke);
}
