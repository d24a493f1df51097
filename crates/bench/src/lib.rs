//! # lnic-bench: experiment harnesses for every table and figure
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§6), printing the measured series next to the
//! paper's reported values. This library holds the shared experiment
//! plumbing: testbed setup per workload, latency/throughput runs, and
//! report formatting.
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig6_latency_ecdf` | Figure 6 (isolation latency ECDFs) |
//! | `fig7_throughput` | Figure 7 (1-thread / 56-thread throughput) |
//! | `fig8_context_switch` | Figure 8 + Table 2 (three-lambda contention) |
//! | `fig9_optimizer` | Figure 9 (optimizer effectiveness) |
//! | `table1_nic_classes` | Table 1 (SmartNIC class survey) |
//! | `table3_resources` | Table 3 (resource utilization) |
//! | `table4_startup` | Table 4 (workload size & startup time) |
//! | `ablations` | design-choice studies beyond the paper |
//! | `sweep_concurrency` | closed-loop saturation knees (extension) |
//! | `sweep_load` | open-loop tail latency vs offered load (extension) |

#![warn(missing_docs)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use lnic::prelude::*;
use lnic_kv::KvServer;
use lnic_sim::prelude::*;
use lnic_workloads::image::RgbaImage;
use lnic_workloads::{benchmark_program, SuiteConfig, IMAGE_ID, KV_GET_ID, WEB_ID};

/// The three benchmark workloads of §6.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Web server (§6.2a).
    Web,
    /// Key-value client (§6.2b); GETs against a populated store.
    KvClient,
    /// Image transformer (§6.2c).
    Image,
}

impl Workload {
    /// All three, in the paper's order.
    pub const ALL: [Workload; 3] = [Workload::Web, Workload::KvClient, Workload::Image];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Web => "Web Server",
            Workload::KvClient => "Key-Value Client",
            Workload::Image => "Image Transformer",
        }
    }

    /// The workload id driven by the experiment.
    pub fn workload_id(self) -> u32 {
        match self {
            Workload::Web => WEB_ID.0,
            Workload::KvClient => KV_GET_ID.0,
            Workload::Image => IMAGE_ID.0,
        }
    }

    /// The request generator for this workload.
    pub fn payload_spec(self) -> PayloadSpec {
        match self {
            Workload::Web => PayloadSpec::RandomPage { count: 64 },
            Workload::KvClient => PayloadSpec::KvGet { id_range: KV_KEYS },
            Workload::Image => {
                PayloadSpec::Fixed(Bytes::from(RgbaImage::synthetic(IMAGE_DIM, IMAGE_DIM).data))
            }
        }
    }
}

/// Keys pre-populated in the memcached store for the KV workload.
pub const KV_KEYS: u32 = 1_000;
/// Image dimension used by the image-transformer workload.
pub const IMAGE_DIM: usize = 128;
/// Client think time of the closed-loop driver (request preparation on
/// the load-generating host).
pub const THINK_TIME: SimDuration = SimDuration::from_micros(80);

/// Parsed form of the shared `--trace` command-line flag.
///
/// Every bench binary accepts:
///
/// * `--trace` — attach a [`HashSink`] to each simulation and print the
///   stable 64-bit trace hash when the run finishes;
/// * `--trace=DIR` — additionally stream every structured event to
///   `DIR/<n>-<label>.jsonl` through a [`JsonlSink`].
#[derive(Debug, Default)]
pub struct TraceOpts {
    /// `--trace` was present on the command line.
    pub enabled: bool,
    /// Directory for JSONL trace files (`--trace=DIR` form).
    pub dir: Option<PathBuf>,
}

/// The process-wide `--trace` options, parsed from `std::env::args` on
/// first use.
pub fn trace_opts() -> &'static TraceOpts {
    static OPTS: OnceLock<TraceOpts> = OnceLock::new();
    OPTS.get_or_init(|| {
        let mut opts = TraceOpts::default();
        for arg in std::env::args().skip(1) {
            if arg == "--trace" {
                opts.enabled = true;
            } else if let Some(dir) = arg.strip_prefix("--trace=") {
                opts.enabled = true;
                opts.dir = Some(PathBuf::from(dir));
            }
        }
        opts
    })
}

/// Monotone run counter so JSONL files from multi-run binaries don't
/// collide.
static TRACE_RUNS: AtomicU64 = AtomicU64::new(0);

/// Attaches the `--trace` sinks to a testbed. Must be called before the
/// simulation first runs (sinks attached later would miss events). A
/// no-op — and zero per-event cost — when the flag is absent.
pub fn attach_trace(bed: &mut Testbed, label: &str) {
    let opts = trace_opts();
    if !opts.enabled {
        return;
    }
    bed.sim.add_trace_sink(Box::new(HashSink::new()));
    if let Some(dir) = &opts.dir {
        std::fs::create_dir_all(dir).expect("create trace dir");
        let n = TRACE_RUNS.fetch_add(1, Ordering::Relaxed);
        let slug: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("{n:03}-{slug}.jsonl"));
        bed.sim.add_trace_sink(Box::new(
            JsonlSink::create(&path).expect("create trace file"),
        ));
    }
}

/// Finishes tracing on `bed` and prints the run's stable 64-bit trace
/// hash. A no-op without `--trace`.
pub fn finish_trace(bed: &mut Testbed, label: &str) {
    if !trace_opts().enabled {
        return;
    }
    bed.finish_tracing();
    if let Some(h) = bed.sim.trace_sink::<HashSink>() {
        println!(
            "trace {label}: events={} hash={:#018x}",
            h.count(),
            h.hash()
        );
    }
}

/// Builds a testbed with the benchmark suite deployed and the KV store
/// populated.
pub fn standard_testbed(backend: BackendKind, seed: u64, worker_threads: usize) -> Testbed {
    let cfg = SuiteConfig::default();
    let mut bed = build_testbed(
        TestbedConfig::new(backend)
            .seed(seed)
            .worker_threads(worker_threads),
    );
    bed.preload(&Arc::new(benchmark_program(&cfg)));
    populate_kv(&mut bed, KV_KEYS);
    bed
}

/// Pre-populates `user:0..n` in the memcached store.
pub fn populate_kv(bed: &mut Testbed, n: u32) {
    let kv = bed
        .sim
        .get_mut::<KvServer>(bed.kv_server)
        .expect("kv server exists");
    for id in 0..n {
        kv.insert(
            format!("user:{id}"),
            0,
            Bytes::from(format!("profile-record-{id:08}")),
        );
    }
}

/// The outcome of one experiment run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Wire-to-wire latencies (post-warmup, successful requests).
    pub latency: Series,
    /// Successful-request throughput over the active window.
    pub throughput_rps: f64,
    /// Requests that failed.
    pub failed: u64,
}

/// Runs `workload` on `backend` with a closed-loop driver.
///
/// `concurrency` logical client threads each issue
/// `requests_per_thread` requests; the first `warmup` completions are
/// excluded from the latency series.
pub fn run_workload(
    backend: BackendKind,
    workload: Workload,
    concurrency: usize,
    requests_per_thread: u64,
    warmup: usize,
    seed: u64,
) -> RunResult {
    let mut bed = standard_testbed(backend, seed, 56.max(concurrency));
    let label = format!(
        "{}-{}-c{concurrency}-seed{seed}",
        backend.name(),
        workload.name()
    );
    attach_trace(&mut bed, &label);
    let gateway = bed.gateway;
    let driver = bed.sim.add(ClosedLoopDriver::new(
        gateway,
        vec![JobSpec {
            workload_id: workload.workload_id(),
            payload: workload.payload_spec(),
        }],
        concurrency,
        THINK_TIME,
        Some(requests_per_thread),
    ));
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    bed.sim.run();
    finish_trace(&mut bed, &label);
    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    RunResult {
        latency: d.latency_series(warmup),
        throughput_rps: d.throughput_rps(),
        failed: d.completed().iter().filter(|c| c.failed).count() as u64,
    }
}

/// Formats a nanosecond quantity the way the paper's figures do
/// (milliseconds with three significant digits).
pub fn fmt_ms(ns: f64) -> String {
    format!("{:.4}", ns / 1e6)
}

/// The commit a result was produced at, recorded in `results/` JSON:
/// `LNIC_COMMIT`, else `GITHUB_SHA`, else `git rev-parse HEAD`, else
/// `"unknown"`.
pub fn commit_id() -> String {
    std::env::var("LNIC_COMMIT")
        .ok()
        .or_else(|| std::env::var("GITHUB_SHA").ok())
        .or_else(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Writes a bench's JSON artifact to `results/<file>`. A `--smoke` run
/// writes nothing: its numbers are CI-scale and must never replace a
/// committed artifact.
pub fn write_results(file: &str, json: &str, smoke: bool) {
    let path = format!("results/{file}");
    if smoke {
        println!("smoke run: {path} not written");
        return;
    }
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&path, json).expect("write results json");
    println!("wrote {path}");
}

/// Prints an ECDF as `value_ms fraction` rows, downsampled to at most
/// `points` rows (gnuplot/matplotlib-ready).
pub fn print_ecdf(label: &str, series: &Series, points: usize) {
    let ecdf = series.ecdf();
    let all = ecdf.points();
    println!("# ECDF {label} ({} samples)", series.len());
    println!("# latency_ms cumulative_fraction");
    let step = all.len().div_ceil(points.max(1)).max(1);
    for (i, (v, f)) in all.iter().enumerate() {
        if i % step == 0 || i + 1 == all.len() {
            println!("{} {f:.4}", fmt_ms(*v as f64));
        }
    }
}

/// A `paper vs measured` comparison row.
pub struct Comparison {
    /// Row label.
    pub label: String,
    /// The paper's reported value (display form).
    pub paper: String,
    /// The measured value (display form).
    pub measured: String,
}

/// Prints a paper-vs-measured table.
pub fn print_comparison(title: &str, rows: &[Comparison]) {
    println!("\n== {title} ==");
    println!("{:<42} {:>18} {:>18}", "", "paper", "this reproduction");
    for r in rows {
        println!("{:<42} {:>18} {:>18}", r.label, r.paper, r.measured);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_testbed_serves_all_workloads() {
        for workload in Workload::ALL {
            let r = run_workload(BackendKind::Nic, workload, 1, 3, 0, 7);
            assert_eq!(r.failed, 0, "{workload:?}");
            assert_eq!(r.latency.len(), 3, "{workload:?}");
            assert!(r.throughput_rps > 0.0, "{workload:?}");
        }
    }

    #[test]
    fn kv_population_prevents_misses() {
        let r = run_workload(BackendKind::Nic, Workload::KvClient, 2, 10, 0, 3);
        assert_eq!(r.failed, 0, "all GETs hit pre-populated keys");
    }

    #[test]
    fn fmt_and_ecdf_helpers() {
        assert_eq!(fmt_ms(1_500_000.0), "1.5000");
        let mut s = Series::new("x");
        for i in 1..=10u64 {
            s.record_ns(i * 1000);
        }
        // Smoke: printing must not panic.
        print_ecdf("test", &s, 5);
    }
}
