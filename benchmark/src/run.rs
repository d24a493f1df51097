//! One benchmark run: timed set-ups, repetitions of one drive of a
//! workload with the checker on, the correctness gate, and the metrics —
//! end to end, or per layer from a second, traced drive of the same
//! seed.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

use lnic::deploy::BackendKind;
use lnic::gateway::Gateway;
use lnic::gwtier::{ShardRouter, TierController};
use lnic::prelude::FailoverController;
use lnic::repkv::RepKvReplica;
use lnic_host::HostBackend;
use lnic_net::packet::RC_OK;
use lnic_nic::Nic;
use lnic_sim::metrics::Summary;
use lnic_sim::prelude::*;

use crate::driver::{LoadDriver, Pacing};
use crate::json::Json;
use crate::layers::{interp_pass, ChunkTimed, InterpPass, SpanSink};
use crate::stats::{median, peak_rss_mib};
use crate::workload::{Bed, DriveTiming, Load, SetupPhases, Workload, CHAOS_CYCLE};

/// End-to-end metrics of a `--trace 0` run, on every workload:
/// `(name, unit, higher_is_better)`. Units naming `sim` are simulated
/// time; the others are host measurements.
pub const END_TO_END: [(&str, &str, bool); 7] = [
    ("sojourn_p50_us", "sim_us", false),
    ("sojourn_p99_us", "sim_us", false),
    ("sojourn_p999_us", "sim_us", false),
    ("goodput_rps", "req/sim_s", true),
    ("run_s", "s", false),
    ("setup_s", "s", false),
    ("peak_rss_mib", "MiB", false),
];

/// End-to-end metrics that exist on some workloads only, printed on the
/// context line: `(name, unit, higher_is_better, bound)`. The result
/// line carries the same metrics on every workload, so these cannot go
/// there or in `BENCHMARK.json`; `compare` gates them with this bound.
pub const WORKLOAD_SPECIFIC: [(&str, &str, bool, f64); 2] = [
    ("slo_rate_rps", "req/sim_s", true, 0.01),
    ("rto_ms_max", "sim_ms", false, 0.01),
];

/// Per-layer metrics of a `--trace 1` run: `(name, unit,
/// higher_is_better)`. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, bool); 52] = [
    ("gateway.queue_us_p50", "sim_us", false),
    ("gateway.queue_us_p99", "sim_us", false),
    ("gateway.retransmit_ratio", "ratio", false),
    ("gateway.shed_ratio", "ratio", false),
    ("gateway.redirect_ratio", "ratio", false),
    ("path.wire_us_p50", "sim_us", false),
    ("path.wire_us_p99", "sim_us", false),
    ("net.frames_per_req", "count", false),
    ("net.bytes_per_req", "bytes", false),
    ("net.drops", "count", false),
    ("nic.exec_us_p50", "sim_us", false),
    ("nic.exec_us_p99", "sim_us", false),
    ("nic.overhead_cycles_per_req", "cycles", false),
    ("nic.instr_cycles_per_req", "cycles", false),
    ("nic.mem_cycles_per_req", "cycles", false),
    ("nic.mem_cycles_per_req.lmem", "cycles", false),
    ("nic.mem_cycles_per_req.ctm", "cycles", false),
    ("nic.mem_cycles_per_req.imem", "cycles", false),
    ("nic.mem_cycles_per_req.emem", "cycles", false),
    ("nic.queued_frac", "ratio", false),
    ("nic.rdma_fragments_per_req", "count", false),
    ("host.exec_us_p50", "sim_us", false),
    ("host.exec_us_p99", "sim_us", false),
    ("host.context_switches_per_req", "count", false),
    ("host.queued_frac", "ratio", false),
    ("kv.read_us_p50", "sim_us", false),
    ("kv.read_us_p99", "sim_us", false),
    ("kv.write_us_p50", "sim_us", false),
    ("kv.write_us_p99", "sim_us", false),
    ("repkv.redirects", "count", false),
    ("repkv.fences", "count", false),
    ("failover.deaths", "count", false),
    ("failover.replacements", "count", false),
    ("failover.recoveries", "count", true),
    ("tier.deposed", "count", false),
    ("tier.rejoined", "count", true),
    ("router.rerouted", "count", false),
    ("router.readopted", "count", false),
    ("router.duplicates", "count", false),
    ("lease.grants", "count", false),
    ("engine.events_per_req", "count", false),
    ("engine.ns_per_event", "ns", false),
    ("check.ns_per_record", "ns", false),
    ("check.share", "ratio", false),
    ("trace.records_per_req", "count", false),
    ("trace.hash_ns_per_record", "ns", false),
    ("trace.overhead_frac", "ratio", false),
    ("interp.us_per_call", "us", false),
    ("interp.instrs_per_call", "count", false),
    ("setup.compile_ms", "ms", false),
    ("setup.build_ms", "ms", false),
    ("setup.populate_ms", "ms", false),
];

/// Metrics measured in host time; every other metric is a function of
/// the seed and the run length alone and must repeat exactly.
pub const HOST_TIMED: [&str; 12] = [
    "run_s",
    "setup_s",
    "peak_rss_mib",
    "engine.ns_per_event",
    "check.ns_per_record",
    "check.share",
    "trace.hash_ns_per_record",
    "trace.overhead_frac",
    "interp.us_per_call",
    "setup.compile_ms",
    "setup.build_ms",
    "setup.populate_ms",
];

/// Whether `name` is measured in host time.
pub fn is_host_timed(name: &str) -> bool {
    HOST_TIMED.contains(&name)
}

/// Identical repetitions of the drive in an end-to-end run. Simulated
/// metrics come from the first, which the others must repeat exactly;
/// `run_s` takes each simulated step at its fastest repetition.
pub const DRIVES: usize = 4;
/// Fresh set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Requests per probe of the SLO-rate search.
const SLO_PROBE_REQUESTS: u64 = 20_000;
/// Probes of the SLO-rate search.
const SLO_PROBES: usize = 8;
/// Bracket of the SLO-rate search, req/s.
const SLO_BRACKET: (f64, f64) = (1_000.0, 100_000.0);
/// The p99 sojourn an SLO probe must meet.
const SLO_P99: SimDuration = SimDuration::from_millis(1);
/// Interpreter calls in the traced run's interpreter pass.
const INTERP_CALLS: u64 = 1_000;
/// Goodput window of the recovery-time measurement.
const RTO_WINDOW: SimDuration = SimDuration::from_millis(50);
/// Longest recovery measured (the next fault of a cycle is 3 s later).
const RTO_HORIZON: SimDuration = SimDuration::from_secs(2);

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The seed every input is drawn from.
    pub seed: u64,
    /// Host seconds the run's drives are sized for, together.
    pub seconds: u64,
    /// Per-layer run (`--trace 1`) instead of the end-to-end one.
    pub layers: bool,
    /// Tiny scale for tests.
    pub smoke: bool,
    /// Commit id recorded in the context line.
    pub commit: String,
}

/// A named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Report {
    /// Correctness-gate failures; empty when the run is correct.
    pub problems: Vec<String>,
    /// Requests the drive issued (once per repetition).
    pub attempted: u64,
    /// Requests that failed or never completed.
    pub failed: u64,
    /// The metrics of the final line.
    pub metrics: Vec<Metric>,
    /// Workload-specific metrics for the context line.
    pub extra: Vec<Metric>,
    /// Run context: seed, commit, host, sample counts.
    pub context: Vec<(String, Json)>,
}

impl Report {
    /// The value of metric `name` on either line.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The context line.
    pub fn context_line(&self) -> String {
        let extra = self
            .extra
            .iter()
            .map(|m| (m.name.to_owned(), metric_json(m)))
            .collect();
        Json::Obj(vec![
            ("context".to_owned(), Json::Obj(self.context.clone())),
            ("extra".to_owned(), Json::Obj(extra)),
        ])
        .to_string()
    }

    /// The result line, the last line the benchmark prints.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.to_owned(), metric_json(m)))
            .collect();
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.problems.is_empty())),
            ("attempted".to_owned(), Json::Num(self.attempted as f64)),
            ("failed".to_owned(), Json::Num(self.failed as f64)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}

fn metric_json(m: &Metric) -> Json {
    Json::Obj(vec![
        ("value".to_owned(), Json::Num(m.value)),
        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
    ])
}

/// Why the benchmark will not start in this environment.
///
/// The seed and engine a run records must be the ones that ran, so the
/// library's environment overrides are refused rather than obeyed.
pub fn environment_problem() -> Option<String> {
    if std::env::var_os("LNIC_ENGINE").is_some() {
        return Some("LNIC_ENGINE is set; the benchmark runs the default engine only".to_owned());
    }
    if lnic::seed_offset() != 0 {
        return Some(
            "LNIC_SEED_OFFSET is nonzero; the benchmark's seed would not be the one that ran"
                .to_owned(),
        );
    }
    None
}

/// The per-request view of a finished drive.
#[derive(Default)]
struct Outcomes {
    issued: u64,
    ok: u64,
    failed: u64,
    never_done: u64,
    bad_return_code: u64,
    /// Successful sojourns, ns, in send order.
    sojourn: Vec<u64>,
    /// Successful gateway queueing (sojourn minus wire latency), ns.
    queue: Vec<u64>,
    /// Simulated seconds from the driver's start to the last success.
    window_s: f64,
    verified: u64,
    mismatches: u64,
    codec_rejects: u64,
}

impl Outcomes {
    fn of(bed: &Bed) -> Self {
        let driver = bed.driver();
        let mut o = Outcomes {
            issued: driver.issued(),
            sojourn: Vec::with_capacity(driver.outcomes().len()),
            queue: Vec::with_capacity(driver.outcomes().len()),
            ..Outcomes::default()
        };
        let mut last = SimTime::ZERO;
        for r in driver.outcomes() {
            let Some(done) = r.done else {
                o.never_done += 1;
                continue;
            };
            if r.failed {
                o.failed += 1;
                continue;
            }
            o.ok += 1;
            last = last.max(done);
            if r.return_code != Some(RC_OK) {
                o.bad_return_code += 1;
            }
            let sojourn = done.saturating_duration_since(r.sent);
            o.sojourn.push(sojourn.as_nanos());
            o.queue.push(sojourn.saturating_sub(r.latency).as_nanos());
        }
        let start = driver.started().unwrap_or(SimTime::ZERO);
        o.window_s = last.saturating_duration_since(start).as_secs_f64();
        (o.verified, o.mismatches) = driver.verification();
        let sim = &bed.tb.sim;
        o.codec_rejects = bed
            .tb
            .repkv_replicas
            .iter()
            .map(|&id| {
                sim.get::<RepKvReplica>(id)
                    .expect("replica")
                    .counters()
                    .codec_rejects
            })
            .sum();
        o
    }

    /// Failed, shed, or never answered.
    fn lost(&self) -> u64 {
        self.failed + self.never_done
    }

    /// Successful completions per simulated second of the drive window.
    fn goodput_rps(&self) -> f64 {
        if self.window_s > 0.0 {
            self.ok as f64 / self.window_s
        } else {
            0.0
        }
    }

    /// The correctness gate of the drive's requests. The checker panics
    /// on the first violation, in-stream or in its end-of-run
    /// conservation accounting, so a drive that returned had none.
    fn gate(&self, problems: &mut Vec<String>) {
        if self.never_done > 0 {
            problems.push(format!(
                "{} of {} requests never completed",
                self.never_done, self.issued
            ));
        }
        // Every workload is sized so that no request fails: a failure is
        // a regression with no tolerance, like a wrong answer.
        if self.failed > 0 {
            problems.push(format!(
                "{} of {} requests failed or were shed",
                self.failed, self.issued
            ));
        }
        if self.bad_return_code > 0 {
            problems.push(format!(
                "{} successful requests returned a code other than RC_OK",
                self.bad_return_code
            ));
        }
        if self.mismatches > 0 {
            problems.push(format!(
                "{} of {} sampled responses differ from the reference",
                self.mismatches, self.verified
            ));
        }
        // Exactly-once client completion is checked by the driver (which
        // panics on a second completion) and by the checker's rule 14;
        // the router's `duplicates` counter counts the late copies it
        // suppressed, which re-executions under chaos legitimately
        // produce.
        if self.codec_rejects > 0 {
            problems.push(format!(
                "replicas rejected {} frames as corrupt",
                self.codec_rejects
            ));
        }
    }
}

/// Runs one workload once and returns its report.
pub fn run(opts: &Options) -> Report {
    if opts.layers {
        layers_run(opts)
    } else {
        end_to_end(opts)
    }
}

/// The load of each drive of a run.
fn drive_load(opts: &Options) -> Load {
    let drive_s = opts.seconds.max(1) as f64 / DRIVES as f64;
    opts.workload.load(drive_s, opts.smoke)
}

fn checker_records(bed: &Bed) -> u64 {
    bed.tb
        .sim
        .trace_sink::<InvariantChecker>()
        .expect("testbeds attach the invariant checker by default")
        .records()
}

/// Times [`SETUPS`] fresh set-ups of the run's cluster, each dropped
/// at once. They run before any drive, in a process that has done
/// nothing else yet, as a user's process builds its cluster.
fn timed_setups(opts: &Options, load: &Load) -> Vec<SetupPhases> {
    (0..SETUPS)
        .map(|_| opts.workload.setup(opts.seed, load, true).1)
        .collect()
}

fn end_to_end(opts: &Options) -> Report {
    let workload = opts.workload;
    let load = drive_load(opts);
    let phases = timed_setups(opts, &load);
    let mut problems = Vec::new();
    let (mut bed, _) = workload.setup(opts.seed, &load, true);
    let mut timings = vec![bed.drive()];
    let o = Outcomes::of(&bed);
    let records = checker_records(&bed);
    let rto = rto_ms_max(&bed);
    drop(bed);
    for k in 1..DRIVES {
        let (mut bed, _) = workload.setup(opts.seed, &load, true);
        let timing = bed.drive();
        if timing.events != timings[0].events || Outcomes::of(&bed).sojourn != o.sojourn {
            problems.push(format!(
                "repetition {k} of the drive diverged from the first"
            ));
        }
        timings.push(timing);
    }

    o.gate(&mut problems);
    let setup_s = median(&phases.iter().map(SetupPhases::total_s).collect::<Vec<_>>());
    let mut extra = Vec::new();
    if workload.is_open_web() {
        extra.push(("slo_rate_rps", slo_rate(workload, opts.seed, opts.smoke)));
    }
    if let Some(rto) = rto {
        extra.push(("rto_ms_max", rto));
    }
    let extra = extra
        .into_iter()
        .map(|(name, value)| Metric {
            name,
            value,
            unit: WORKLOAD_SPECIFIC
                .iter()
                .find(|e| e.0 == name)
                .expect("listed")
                .1,
        })
        .collect();
    let peak = peak_rss_mib().unwrap_or_else(|e| {
        problems.push(format!("peak RSS unavailable: {e}"));
        f64::NAN
    });
    let s = Summary::of(&o.sojourn);
    let values = [
        us(s.p50_ns),
        us(s.p99_ns),
        us(s.p999_ns),
        o.goodput_rps(),
        DriveTiming::fastest_steps_s(&timings),
        setup_s,
        peak,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, value, unit })
        .collect();
    let mut context = context(opts, &load, &o, timings[0].events, records);
    context.push((
        "drive_wall_s".to_owned(),
        Json::Arr(timings.iter().map(|t| Json::Num(t.wall_s)).collect()),
    ));
    Report {
        problems,
        attempted: o.issued,
        failed: o.lost(),
        metrics,
        extra,
        context,
    }
}

fn context(
    opts: &Options,
    load: &Load,
    o: &Outcomes,
    events: u64,
    checker_records: u64,
) -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let num = |v: u64| Json::Num(v as f64);
    let text = |s: &str| Json::Str(s.to_owned());
    let pacing = match load.pacing {
        Pacing::Open { rate_rps } => format!("open {rate_rps} req/s"),
        Pacing::Closed { clients, think } => {
            format!(
                "closed {clients} clients, think {} us",
                think.as_nanos() / 1_000
            )
        }
    };
    let drives = if opts.layers { 1 } else { DRIVES };
    vec![
        ("workload".to_owned(), text(opts.workload.name())),
        (
            "mode".to_owned(),
            text(if opts.layers { "layers" } else { "end_to_end" }),
        ),
        ("seed".to_owned(), num(opts.seed)),
        ("seconds".to_owned(), num(opts.seconds)),
        ("smoke".to_owned(), Json::Bool(opts.smoke)),
        ("commit".to_owned(), text(&opts.commit)),
        ("nproc".to_owned(), num(nproc as u64)),
        ("engine".to_owned(), text("serial")),
        ("pacing".to_owned(), text(&pacing)),
        ("drives".to_owned(), num(drives as u64)),
        ("requests".to_owned(), num(load.requests)),
        ("fault_cycles".to_owned(), num(load.cycles)),
        ("successes".to_owned(), num(o.ok)),
        ("failed".to_owned(), num(o.failed)),
        ("never_completed".to_owned(), num(o.never_done)),
        ("sojourn_samples".to_owned(), num(o.sojourn.len() as u64)),
        ("verified_responses".to_owned(), num(o.verified)),
        ("events".to_owned(), num(events)),
        ("checker_records".to_owned(), num(checker_records)),
    ]
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Highest Poisson rate, by log-bisection of short probes, at which the
/// workload's p99 sojourn meets [`SLO_P99`] with no failures and no
/// growing backlog (last-decile median sojourn at most twice the
/// first-decile median).
fn slo_rate(workload: Workload, seed: u64, smoke: bool) -> f64 {
    let requests = if smoke { 500 } else { SLO_PROBE_REQUESTS };
    let (mut lo, mut hi) = SLO_BRACKET;
    for _ in 0..SLO_PROBES {
        let rate = (lo * hi).sqrt();
        let load = Load {
            pacing: Pacing::Open { rate_rps: rate },
            requests,
            cycles: 0,
        };
        let (mut bed, _) = workload.setup(seed, &load, true);
        bed.drive();
        if meets_slo(bed.driver()) {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    lo
}

fn meets_slo(driver: &LoadDriver) -> bool {
    let outcomes = driver.outcomes();
    if outcomes.iter().any(|r| r.failed || r.done.is_none()) {
        return false;
    }
    let sojourns: Vec<u64> = outcomes
        .iter()
        .map(|r| {
            r.done
                .expect("checked")
                .saturating_duration_since(r.sent)
                .as_nanos()
        })
        .collect();
    let decile = (sojourns.len() / 10).max(1);
    let first = Summary::of(&sojourns[..decile]).p50_ns;
    let last = Summary::of(&sojourns[sojourns.len() - decile..]).p50_ns;
    Summary::of(&sojourns).p99_ns <= SLO_P99.as_nanos() && last <= 2 * first
}

/// Recovery time of each fault episode of `tier_chaos` — a NIC crash,
/// a gateway-shard crash, and a partition per cycle — as the time from
/// injection until the first 50 ms window, after goodput first fell
/// below 90% of the requests offered in its window, in which it is back
/// at or above 90%. The maximum over episodes, in ms; `None` without a
/// gateway tier.
fn rto_ms_max(bed: &Bed) -> Option<f64> {
    bed.tb.tier_router?;
    let driver = bed.driver();
    let mut sent: Vec<u64> = driver
        .outcomes()
        .iter()
        .map(|r| r.sent.as_nanos())
        .collect();
    let mut good: Vec<u64> = driver
        .outcomes()
        .iter()
        .filter(|r| !r.failed)
        .filter_map(|r| r.done.map(SimTime::as_nanos))
        .collect();
    sent.sort_unstable();
    good.sort_unstable();
    let count = |v: &[u64], from: u64, to: u64| {
        (v.partition_point(|&t| t < to) - v.partition_point(|&t| t < from)) as f64
    };
    let end = sent.last().copied().unwrap_or(0);
    let w = RTO_WINDOW.as_nanos();
    let mut worst = 0u64;
    let cycles = end / CHAOS_CYCLE.as_nanos() + 1;
    for c in 0..cycles {
        for offset_ms in [1_000, 4_000, 7_000] {
            let injected = c * CHAOS_CYCLE.as_nanos() + offset_ms * 1_000_000;
            if injected + RTO_HORIZON.as_nanos() > end {
                continue;
            }
            let healthy = |i: u64| {
                let from = injected + i * w;
                count(&good, from, from + w) >= 0.9 * count(&sent, from, from + w)
            };
            let windows = RTO_HORIZON.as_nanos() / w;
            let Some(dip) = (0..windows).find(|&i| !healthy(i)) else {
                continue;
            };
            let back = (dip + 1..windows).find(|&i| healthy(i)).unwrap_or(windows);
            worst = worst.max(back * w);
        }
    }
    Some(worst as f64 / 1e6)
}

/// Median set-up phase times, ms.
#[derive(Clone, Copy, Debug)]
struct LayerSetup {
    build_ms: f64,
    compile_ms: f64,
    populate_ms: f64,
}

impl LayerSetup {
    fn of(phases: &[SetupPhases]) -> Self {
        let med =
            |f: fn(&SetupPhases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>()) * 1e3;
        LayerSetup {
            build_ms: med(|p| p.build_s),
            compile_ms: med(|p| p.compile_s),
            populate_ms: med(|p| p.populate_s),
        }
    }
}

/// Component indices of the NIC and host executors of a testbed.
fn executors(bed: &Bed) -> (HashSet<usize>, HashSet<usize>) {
    let tb = &bed.tb;
    let workers = tb.workers.iter().map(|w| w.component.index());
    let hosts_behind = tb.worker_hosts.iter().flatten().map(|h| h.index());
    if tb.backend == BackendKind::Nic {
        (workers.collect(), hosts_behind.collect())
    } else {
        (HashSet::new(), workers.chain(hosts_behind).collect())
    }
}

/// Where a spans file goes: under the cargo target directory.
fn spans_path(workload: Workload) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target
        .join("lnic-benchmark")
        .join(format!("spans-{}.jsonl", workload.name()))
}

/// A per-layer run: one drive as an end-to-end run makes it (the
/// checker on, no bench sinks), then the same drive with bench-owned
/// sinks, then the interpreter pass.
fn layers_run(opts: &Options) -> Report {
    let workload = opts.workload;
    let load = drive_load(opts);
    let seed = opts.seed;
    let setup = LayerSetup::of(&timed_setups(opts, &load));
    let (mut untraced, _) = workload.setup(seed, &load, true);
    let untraced_t = untraced.drive();
    let untraced_o = Outcomes::of(&untraced);

    let (mut bed, _) = workload.setup(seed, &load, false);
    let (nics, hosts) = executors(&bed);
    let sim = &mut bed.tb.sim;
    sim.add_trace_sink(Box::new(ChunkTimed::new(InvariantChecker::new())));
    sim.add_trace_sink(Box::new(ChunkTimed::new(HashSink::new())));
    sim.add_trace_sink(Box::new(SpanSink::new(nics, hosts)));
    let traced_t = bed.drive();

    let o = Outcomes::of(&bed);
    let mut problems = Vec::new();
    o.gate(&mut problems);
    let sim = &bed.tb.sim;
    let events = sim.events_processed();
    if events != untraced.tb.sim.events_processed() || o.sojourn != untraced_o.sojourn {
        problems.push("the traced drive diverged from the untraced one".to_owned());
    }
    let checker = sim
        .trace_sink::<ChunkTimed<InvariantChecker>>()
        .expect("checker attached");
    let hash = sim
        .trace_sink::<ChunkTimed<HashSink>>()
        .expect("hash attached");
    let spans = sim.trace_sink::<SpanSink>().expect("spans attached");
    let mut context = context(opts, &load, &o, events, checker.records());
    let path = spans_path(workload);
    if let Err(e) = spans.write_kept(&path) {
        problems.push(format!("cannot write {}: {e}", path.display()));
    }
    context.push((
        "spans_file".to_owned(),
        Json::Str(path.display().to_string()),
    ));
    context.push(("spans_kept".to_owned(), Json::Num(spans.kept() as f64)));
    context.push((
        "trace_hash".to_owned(),
        Json::Str(format!("{:#018x}", hash.inner().hash())),
    ));
    context.push(("traced_run_s".to_owned(), Json::Num(traced_t.wall_s)));
    context.push(("untraced_run_s".to_owned(), Json::Num(untraced_t.wall_s)));

    let calls = if opts.smoke { 8 } else { INTERP_CALLS };
    let interp = interp_pass(workload, &bed.program, seed, calls).unwrap_or_default();
    if interp.mismatches > 0 {
        problems.push(format!(
            "{} of {} interpreter calls differ from the native reference",
            interp.mismatches, interp.calls
        ));
    }

    let values = layer_values(&bed, &o, (&untraced_t, &traced_t), interp, setup);
    Report {
        problems,
        attempted: o.issued,
        failed: o.lost(),
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric {
                name,
                value: values[name],
                unit,
            })
            .collect(),
        extra: Vec::new(),
        context,
    }
}

/// Every per-layer metric of the traced drive of `bed`, by name.
fn layer_values(
    bed: &Bed,
    o: &Outcomes,
    (untraced_t, traced_t): (&DriveTiming, &DriveTiming),
    interp: InterpPass,
    setup: LayerSetup,
) -> HashMap<&'static str, f64> {
    let tb = &bed.tb;
    let sim = &tb.sim;
    let checker = sim
        .trace_sink::<ChunkTimed<InvariantChecker>>()
        .expect("checker attached");
    let hash = sim
        .trace_sink::<ChunkTimed<HashSink>>()
        .expect("hash attached");
    let spans = sim.trace_sink::<SpanSink>().expect("spans attached");
    // Component counters, summed per kind.
    let mut gw = lnic::gateway::GatewayCounters::default();
    for &g in &tb.gateways {
        let c = sim.get::<Gateway>(g).expect("gateway").counters();
        gw.submitted += c.submitted;
        gw.retransmitted += c.retransmitted;
        gw.shed += c.shed;
        gw.redirected_replies += c.redirected_replies;
    }
    let (mut nic_requests, mut nic_queued, mut rdma) = (0, 0, 0);
    let (mut host_requests, mut host_queued, mut switches) = (0, 0, 0);
    for w in &tb.workers {
        if let Some(n) = sim.get::<Nic>(w.component) {
            let c = n.counters();
            nic_requests += c.requests;
            nic_queued += c.queued;
            rdma += c.rdma_fragments;
        }
    }
    let host_ids = tb
        .workers
        .iter()
        .map(|w| w.component)
        .chain(tb.worker_hosts.iter().flatten().copied());
    for id in host_ids {
        if let Some(h) = sim.get::<HostBackend>(id) {
            let c = h.counters();
            host_requests += c.requests;
            host_queued += c.queued;
            switches += c.context_switches;
        }
    }
    let (mut redirects, mut fences) = (0, 0);
    for &r in &tb.repkv_replicas {
        let c = sim.get::<RepKvReplica>(r).expect("replica").counters();
        redirects += c.redirects;
        fences += c.fences;
    }
    let fo = tb
        .failover
        .map(|f| {
            sim.get::<FailoverController>(f)
                .expect("failover")
                .counters()
        })
        .unwrap_or_default();
    let tier = tb
        .tier_controller
        .map(|c| sim.get::<TierController>(c).expect("tier").counters())
        .unwrap_or_default();
    let router = tb
        .tier_router
        .map(|r| sim.get::<ShardRouter>(r).expect("router").counters())
        .unwrap_or_default();

    let queue = Summary::of(&o.queue);
    let wire = Summary::of(&spans.wire);
    let nic_exec = Summary::of(&spans.nic_exec);
    let host_exec = Summary::of(&spans.host_exec);
    let kv_read = Summary::of(&spans.kv_read);
    let kv_write = Summary::of(&spans.kv_write);
    let issued = o.issued;
    let nic_execs = spans.nic_execs;
    let mem_total: u64 = spans.mem_cycles.iter().sum();
    let per_exec = |v: u64| ratio(v, nic_execs);
    let records = checker.records();
    let events = sim.events_processed();

    let mut values = HashMap::from([
        ("gateway.queue_us_p50", us(queue.p50_ns)),
        ("gateway.queue_us_p99", us(queue.p99_ns)),
        (
            "gateway.retransmit_ratio",
            ratio(gw.retransmitted, gw.submitted),
        ),
        ("gateway.shed_ratio", ratio(gw.shed, issued)),
        (
            "gateway.redirect_ratio",
            ratio(gw.redirected_replies, gw.submitted),
        ),
        ("path.wire_us_p50", us(wire.p50_ns)),
        ("path.wire_us_p99", us(wire.p99_ns)),
        ("net.frames_per_req", ratio(spans.frames, issued)),
        ("net.bytes_per_req", ratio(spans.bytes, issued)),
        ("net.drops", spans.drops as f64),
        ("nic.exec_us_p50", us(nic_exec.p50_ns)),
        ("nic.exec_us_p99", us(nic_exec.p99_ns)),
        (
            "nic.overhead_cycles_per_req",
            per_exec(spans.overhead_cycles),
        ),
        ("nic.instr_cycles_per_req", per_exec(spans.instr_cycles)),
        ("nic.mem_cycles_per_req", per_exec(mem_total)),
        ("nic.queued_frac", ratio(nic_queued, nic_requests)),
        ("nic.rdma_fragments_per_req", ratio(rdma, nic_requests)),
        ("host.exec_us_p50", us(host_exec.p50_ns)),
        ("host.exec_us_p99", us(host_exec.p99_ns)),
        (
            "host.context_switches_per_req",
            ratio(switches, host_requests),
        ),
        ("host.queued_frac", ratio(host_queued, host_requests)),
        ("kv.read_us_p50", us(kv_read.p50_ns)),
        ("kv.read_us_p99", us(kv_read.p99_ns)),
        ("kv.write_us_p50", us(kv_write.p50_ns)),
        ("kv.write_us_p99", us(kv_write.p99_ns)),
        ("repkv.redirects", redirects as f64),
        ("repkv.fences", fences as f64),
        ("failover.deaths", fo.deaths as f64),
        ("failover.replacements", fo.replacements as f64),
        ("failover.recoveries", fo.recoveries as f64),
        ("tier.deposed", tier.deposed as f64),
        ("tier.rejoined", tier.rejoined as f64),
        ("router.rerouted", router.rerouted as f64),
        ("router.readopted", router.readopted as f64),
        ("router.duplicates", router.duplicates as f64),
        ("lease.grants", spans.lease_grants as f64),
        ("engine.events_per_req", ratio(events, issued)),
        ("engine.ns_per_event", untraced_t.ns_per_event()),
        (
            "check.ns_per_record",
            checker.busy().as_secs_f64() * 1e9 / records.max(1) as f64,
        ),
        (
            "check.share",
            checker.busy().as_secs_f64() / traced_t.wall_s,
        ),
        ("trace.records_per_req", ratio(records, issued)),
        (
            "trace.hash_ns_per_record",
            hash.busy().as_secs_f64() * 1e9 / hash.records().max(1) as f64,
        ),
        (
            "trace.overhead_frac",
            traced_t.wall_s / untraced_t.wall_s - 1.0,
        ),
        ("interp.us_per_call", interp.us_per_call),
        ("interp.instrs_per_call", interp.instrs_per_call),
        ("setup.compile_ms", setup.compile_ms),
        ("setup.build_ms", setup.build_ms),
        ("setup.populate_ms", setup.populate_ms),
    ]);
    // In `MEM_LEVELS` order.
    let per_level = [
        "nic.mem_cycles_per_req.lmem",
        "nic.mem_cycles_per_req.ctm",
        "nic.mem_cycles_per_req.imem",
        "nic.mem_cycles_per_req.emem",
    ];
    for (name, cycles) in per_level.into_iter().zip(spans.mem_cycles) {
        values.insert(name, per_exec(cycles));
    }
    values
}
