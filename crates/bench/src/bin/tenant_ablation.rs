//! Multi-tenant NIC virtualization ablation: isolated-static
//! provisioning vs the shared-virtualized datapath.
//!
//! Both arms drive the same Zipf-popular fleet of 100 tenant lambdas at
//! the same four-worker NIC testbed:
//!
//! - **isolated-static**: the legacy single-tenant world. Each lambda
//!   statically burns its instruction-store words, so the packer admits
//!   tenants in popularity order until the store is full and the long
//!   tail simply cannot be deployed — its requests fail unplaced. No
//!   paging, no faults, no isolation machinery.
//! - **shared-virtualized**: the PR-8 virtualization stack. Every
//!   tenant deploys; the per-worker LRU firmware cache keeps the hot
//!   set resident and faults cold pages in (charged on the faulting
//!   request), the hierarchical WFQ schedules tenants by weight, and
//!   the gateway stamps every header with its owning tenant. The
//!   invariant checker's cross-tenant rules run in-stream, so a
//!   completed arm *is* the zero-isolation-violations claim.
//!
//! The claim: virtualization turns the store from a hard admission
//! limit into a performance gradient — the shared arm serves the whole
//! catalog (higher goodput and NPU utilization) at the price of a
//! bounded fault rate, without any tenant reading another's state.
//!
//! Emits `results/tenant_ablation.json` (per-arm goodput, busy
//! fraction, fault rate, per-tenant p99). `--smoke` shrinks the drive
//! for CI and writes no file; `--trace=PATH` streams tenant-relevant
//! trace events as JSONL (one file per arm) so an isolation-violation
//! panic leaves the offending history on disk for CI to upload.
//!
//! Run with: `cargo run --release -p lnic-bench --bin tenant_ablation`

use std::fmt::Write as _;
use std::fs::File;
use std::io::{LineWriter, Write as _};
use std::sync::Arc;

use lnic::prelude::*;
use lnic_bench::{commit_id, write_results};
use lnic_mlambda::compile::CompileOptions;
use lnic_nic::Nic;
use lnic_placer::{pack, LambdaProfile, NicCapacity, PackOptions};
use lnic_placer::{static_costs, subset_program};
use lnic_sim::check::InvariantChecker;
use lnic_sim::prelude::*;
use lnic_sim::trace::{json_line, TraceRecord, TraceSink};
use lnic_tenant::{TenancyConfig, TenantDirectory, TenantSpec};
use lnic_workloads::{tenant_fleet_program, tenant_workload_id, zipf_multiplicities};

/// Fleet size: one lambda per tenant.
const TENANTS: u32 = 100;
/// Padding instructions per tenant lambda: makes the full catalog
/// (~60k words) overflow the 16k-word physical store, so static
/// provisioning must turn tenants away while paging serves them all.
const PAD_WORDS: usize = 600;
/// Zipf popularity exponent across tenants.
const ZIPF_S: f64 = 1.0;
/// Job-spec slots the Zipf apportionment is rounded into.
const SLOTS: usize = 500;
/// Closed-loop client threads.
const THREADS: usize = 8;
const THINK: SimDuration = SimDuration::from_micros(10);
/// Resident instruction-store words under virtualization: half the
/// store pages lambdas, the rest stays with the pager and basic NIC
/// duties.
const CACHE_WORDS: u64 = 8192;
/// Top tenants reported as the "hot" aggregate.
const HOT_TENANTS: usize = 10;

/// Sums NPU execution cycles off the trace stream (the utilization
/// numerator) and counts executions.
#[derive(Default)]
struct ExecSink {
    total_cycles: u64,
    execs: u64,
}

impl TraceSink for ExecSink {
    fn on_record(&mut self, rec: &TraceRecord) {
        if let TraceEvent::ExecFinish { total_cycles, .. } = rec.event {
            self.total_cycles += total_cycles;
            self.execs += 1;
        }
    }
}

/// Streams tenant-relevant events to disk as JSONL, line-buffered so an
/// isolation-violation panic mid-run still leaves the violating prefix
/// on disk for CI to upload.
struct TenantTraceSink {
    out: LineWriter<File>,
}

impl TraceSink for TenantTraceSink {
    fn on_record(&mut self, rec: &TraceRecord) {
        let keep = matches!(
            rec.event,
            TraceEvent::TenantAssign { .. }
                | TraceEvent::FirmwareFault { .. }
                | TraceEvent::FirmwareEvict { .. }
                | TraceEvent::ExecStart { .. }
                | TraceEvent::MemCharge { .. }
                | TraceEvent::AdmissionReject { .. }
        );
        if keep {
            let _ = writeln!(self.out, "{}", json_line(rec));
        }
    }

    fn on_finish(&mut self, _now: SimTime) {
        let _ = self.out.flush();
    }
}

struct Arm {
    name: &'static str,
    deployed_tenants: usize,
    issued: u64,
    ok: u64,
    failed: u64,
    goodput: f64,
    npu_busy_fraction: f64,
    firmware_faults: u64,
    firmware_evictions: u64,
    fault_rate: f64,
    quota_deferrals: u64,
    hot_p99_ms: Option<f64>,
    cold_p99_ms: Option<f64>,
    per_tenant_p99_ms: Vec<Option<f64>>,
    violations: u64,
}

/// Nearest-rank quantile in milliseconds.
fn quantile_ms(lat_ns: &mut [u64], q: f64) -> Option<f64> {
    if lat_ns.is_empty() {
        return None;
    }
    lat_ns.sort_unstable();
    let rank = ((q * lat_ns.len() as f64).ceil() as usize).clamp(1, lat_ns.len());
    Some(lat_ns[rank - 1] as f64 / 1e6)
}

/// The Zipf drive schedule: each tenant's job spec duplicated by its
/// popularity multiplicity, spread evenly through the round-robin list
/// (fractional positioning, golden-ratio phase per tenant). The phase
/// matters: tenants sharing a multiplicity would otherwise collide at
/// identical positions and sort into one giant consecutive block of
/// distinct cold lambdas — an LRU-flushing scan no real Zipf arrival
/// process exhibits.
fn zipf_schedule() -> Vec<JobSpec> {
    let mult = zipf_multiplicities(TENANTS as usize, ZIPF_S, SLOTS);
    let mut placed: Vec<(f64, u32)> = Vec::with_capacity(SLOTS);
    for (i, &m) in mult.iter().enumerate() {
        let phase = (i as f64 * 0.618_033_988_75).fract();
        for k in 0..m {
            placed.push(((k as f64 + phase) / m as f64, i as u32));
        }
    }
    placed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    placed
        .into_iter()
        .map(|(_, i)| JobSpec {
            workload_id: tenant_workload_id(i).0,
            payload: PayloadSpec::Empty,
        })
        .collect()
}

/// Tenant `i` (0-based fleet index) is tenant id `i + 1`: id 0 stays
/// the untenanted default.
fn directory() -> TenantDirectory {
    let mut dir = TenantDirectory::new();
    for i in 0..TENANTS {
        dir.register(i + 1, TenantSpec::weighted(1.0));
        dir.assign(tenant_workload_id(i).0, i + 1);
    }
    dir
}

fn run_arm(seed: u64, virtualized: bool, per_thread: u64, trace: Option<&str>) -> Arm {
    let name = if virtualized {
        "shared_virtualized"
    } else {
        "isolated_static"
    };
    let full = Arc::new(tenant_fleet_program(TENANTS, PAD_WORDS));
    let config = TestbedConfig::new(BackendKind::Nic).seed(seed);
    let nic_params = config.nic.clone();
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(ExecSink::default()));
    if let Some(path) = trace {
        let file = File::create(format!("{path}.{name}.jsonl")).expect("create trace file");
        bed.sim.add_trace_sink(Box::new(TenantTraceSink {
            out: LineWriter::new(file),
        }));
    }

    let deployed_tenants = if virtualized {
        // The firmware cache virtualizes the store: compile the whole
        // catalog against an effectively unbounded image (pages live in
        // EMEM and fault into the physical store on demand).
        let opts = CompileOptions {
            instruction_store_words: 1 << 20,
            ..CompileOptions::optimized()
        };
        bed.preload_with(&full, &opts);
        bed.enable_tenancy(
            Arc::new(directory()),
            TenancyConfig {
                cache_words: CACHE_WORDS,
                ..TenancyConfig::default()
            },
        );
        TENANTS as usize
    } else {
        // Static provisioning: pack tenants into the physical store in
        // popularity (declaration) order; the tail is never deployed.
        let opts = CompileOptions::optimized();
        let costs = static_costs(&full, &opts);
        let profiles: Vec<LambdaProfile> = costs
            .iter()
            .map(|&cost| LambdaProfile {
                workload_id: cost.workload_id,
                cost,
                rate_rps: 0.0,
                nic_service_ns: 0.0,
                host_service_ns: 0.0,
            })
            .collect();
        let cap = NicCapacity::from_params(&nic_params, &opts);
        let plan = pack(
            &profiles,
            &cap,
            &PackOptions {
                profile_guided: false,
                has_host: false,
                ..PackOptions::default()
            },
        );
        let indices: Vec<usize> = plan
            .nic
            .iter()
            .map(|&wid| (wid - tenant_workload_id(0).0) as usize)
            .collect();
        assert!(
            !indices.is_empty() && indices.len() < TENANTS as usize,
            "static packing should admit some but not all tenants (got {})",
            indices.len()
        );
        bed.preload(&Arc::new(subset_program(&full, &indices)));
        indices.len()
    };

    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        zipf_schedule(),
        THREADS,
        THINK,
        Some(per_thread),
    ));
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    bed.sim.run();
    bed.finish_tracing();

    let exec = bed.sim.trace_sink::<ExecSink>().expect("exec sink");
    let (total_cycles, _execs) = (exec.total_cycles, exec.execs);
    let violations = bed
        .sim
        .trace_sink::<InvariantChecker>()
        .expect("invariant checker attached")
        .violations()
        .len() as u64;
    let (mut firmware_faults, mut firmware_evictions, mut quota_deferrals) = (0u64, 0u64, 0u64);
    for worker in &bed.workers {
        let c = bed.sim.get::<Nic>(worker.component).unwrap().counters();
        firmware_faults += c.firmware_faults;
        firmware_evictions += c.firmware_evictions;
        quota_deferrals += c.quota_deferrals;
    }

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    let issued = d.issued();
    let mut per_tenant_lat: Vec<Vec<u64>> = vec![Vec::new(); TENANTS as usize];
    let (mut ok, mut failed, mut makespan_ns) = (0u64, 0u64, 0u64);
    for c in d.completed() {
        makespan_ns = makespan_ns.max(c.at.as_nanos());
        if c.failed {
            failed += 1;
            continue;
        }
        ok += 1;
        let tenant = (c.workload_id - tenant_workload_id(0).0) as usize;
        per_tenant_lat[tenant].push(c.latency.as_nanos());
    }
    let mut hot: Vec<u64> = Vec::new();
    let mut cold: Vec<u64> = Vec::new();
    for (i, lats) in per_tenant_lat.iter().enumerate() {
        if i < HOT_TENANTS {
            hot.extend(lats);
        } else {
            cold.extend(lats);
        }
    }
    let per_tenant_p99_ms = per_tenant_lat
        .iter_mut()
        .map(|l| quantile_ms(l, 0.99))
        .collect();

    // Utilization: NPU-busy thread-time over wall time, as a fraction
    // of the whole cluster's thread pool.
    let busy_ns = nic_params.cycles_to_time(total_cycles).as_nanos();
    let pool = (nic_params.threads() * bed.workers.len()) as f64;
    let npu_busy_fraction = if makespan_ns == 0 {
        0.0
    } else {
        busy_ns as f64 / (makespan_ns as f64 * pool)
    };

    Arm {
        name,
        deployed_tenants,
        issued,
        ok,
        failed,
        goodput: if issued == 0 {
            0.0
        } else {
            ok as f64 / issued as f64
        },
        npu_busy_fraction,
        firmware_faults,
        firmware_evictions,
        fault_rate: if ok == 0 {
            0.0
        } else {
            firmware_faults as f64 / ok as f64
        },
        quota_deferrals,
        hot_p99_ms: quantile_ms(&mut hot, 0.99),
        cold_p99_ms: quantile_ms(&mut cold, 0.99),
        per_tenant_p99_ms,
        violations,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trace = std::env::args().find_map(|a| a.strip_prefix("--trace=").map(str::to_owned));
    let per_thread: u64 = if smoke { 150 } else { 1500 };
    let seed = 42 + seed_offset();

    println!(
        "tenant ablation: {TENANTS} tenants, zipf s={ZIPF_S}, {THREADS} client threads, \
         seed {seed}{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!("  arm                 tenants  goodput  busy_frac  faults  fault_rate  hot_p99(ms)  cold_p99(ms)");

    let arms = [
        run_arm(seed, false, per_thread, trace.as_deref()),
        run_arm(seed, true, per_thread, trace.as_deref()),
    ];
    let fmt_ms = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{v:.4}"));
    for a in &arms {
        println!(
            "  {:<19}  {:>6}  {:.5}  {:.7}  {:>6}  {:>10.4}  {:>11}  {:>12}",
            a.name,
            a.deployed_tenants,
            a.goodput,
            a.npu_busy_fraction,
            a.firmware_faults,
            a.fault_rate,
            fmt_ms(a.hot_p99_ms),
            fmt_ms(a.cold_p99_ms),
        );
    }

    // The ablation's claims, asserted rather than merely printed.
    let [stat, virt] = &arms;
    assert_eq!(virt.violations, 0, "virtualized arm violated an invariant");
    assert_eq!(stat.violations, 0, "static arm violated an invariant");
    assert_eq!(
        virt.deployed_tenants, TENANTS as usize,
        "virtualization must deploy the whole catalog"
    );
    assert!(
        virt.goodput > stat.goodput,
        "shared-virtualized goodput {:.4} must beat isolated-static {:.4}",
        virt.goodput,
        stat.goodput
    );
    assert!(
        virt.npu_busy_fraction > stat.npu_busy_fraction,
        "shared-virtualized utilization {:.6} must beat isolated-static {:.6}",
        virt.npu_busy_fraction,
        stat.npu_busy_fraction
    );
    assert!(
        virt.firmware_faults > 0,
        "the virtualized arm should page under a {TENANTS}-tenant catalog"
    );
    assert_eq!(
        stat.firmware_faults, 0,
        "static provisioning never faults firmware"
    );

    let num = |v: Option<f64>| v.map_or("null".to_owned(), |v| format!("{v:.4}"));
    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"tenant_ablation\",\n");
    let _ = writeln!(
        json,
        "  \"seed\": {seed}, \"commit\": \"{}\", \"smoke\": {smoke}, \"tenants\": {TENANTS},",
        commit_id()
    );
    let _ = writeln!(
        json,
        "  \"zipf_s\": {ZIPF_S}, \"pad_words\": {PAD_WORDS}, \"cache_words\": {CACHE_WORDS},"
    );
    json.push_str("  \"arms\": [\n");
    for (i, a) in arms.iter().enumerate() {
        let comma = if i + 1 == arms.len() { "" } else { "," };
        let per_tenant: Vec<String> = a.per_tenant_p99_ms.iter().map(|&v| num(v)).collect();
        let _ = writeln!(
            json,
            "    {{\"arm\": \"{}\", \"deployed_tenants\": {}, \"issued\": {}, \"ok\": {}, \
             \"failed\": {}, \"goodput\": {:.6}, \"npu_busy_fraction\": {:.8}, \
             \"firmware_faults\": {}, \"firmware_evictions\": {}, \"fault_rate\": {:.6}, \
             \"quota_deferrals\": {}, \"violations\": {}, \"hot_p99_ms\": {}, \
             \"cold_p99_ms\": {},\n     \"per_tenant_p99_ms\": [{}]}}{comma}",
            a.name,
            a.deployed_tenants,
            a.issued,
            a.ok,
            a.failed,
            a.goodput,
            a.npu_busy_fraction,
            a.firmware_faults,
            a.firmware_evictions,
            a.fault_rate,
            a.quota_deferrals,
            a.violations,
            num(a.hot_p99_ms),
            num(a.cold_p99_ms),
            per_tenant.join(", ")
        );
    }
    json.push_str("  ]\n}\n");

    write_results("tenant_ablation.json", &json, smoke);
}
