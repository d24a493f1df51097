//! Smoke-scale checks of the benchmark: every workload passes its
//! correctness gate, simulated results repeat exactly for a seed and
//! move with it, the metric lists match `BENCHMARK.json`, and the
//! binary refuses environments that would change what it measures.

use std::process::Command;

use lnic_benchmark::json::Json;
use lnic_benchmark::run::{is_host_timed, END_TO_END, PER_LAYER};
use lnic_benchmark::{run, Options, Report, Workload};

fn smoke(workload: Workload, seed: u64, layers: bool) -> Report {
    let report = run(&Options {
        workload,
        seed,
        seconds: 1,
        layers,
        smoke: true,
        commit: "test".to_owned(),
    });
    assert!(
        report.problems.is_empty(),
        "{} seed {seed}: {:?}",
        workload.name(),
        report.problems
    );
    assert!(report.attempted > 0);
    report
}

/// Every metric measured in simulated time, from both output lines.
fn simulated(report: &Report) -> Vec<(&'static str, f64)> {
    report
        .metrics
        .iter()
        .chain(&report.extra)
        .filter(|m| !is_host_timed(m.name))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn end_to_end_runs_pass_the_gate_repeat_per_seed_and_move_with_it() {
    for workload in Workload::ALL {
        let a = smoke(workload, 7, false);
        let b = smoke(workload, 7, false);
        let c = smoke(workload, 8, false);
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0), "{}", workload.name());
        assert!(
            a.metrics
                .iter()
                .all(|m| m.value > 0.0 && m.value.is_finite()),
            "{}: {:?}",
            workload.name(),
            a.metrics
        );
        assert_eq!(simulated(&a), simulated(&b), "{}", workload.name());
        assert_ne!(simulated(&a), simulated(&c), "{}", workload.name());
        assert_eq!(a.failed, 0, "{}", workload.name());
    }
}

#[test]
fn layer_runs_report_every_metric_and_repeat_per_seed() {
    for workload in Workload::ALL {
        let a = smoke(workload, 7, true);
        let b = smoke(workload, 7, true);
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.0), "{}", workload.name());
        assert_eq!(simulated(&a), simulated(&b), "{}", workload.name());
        let value = |name| a.metric(name).expect("listed");
        assert!(value("engine.events_per_req") > 0.0);
        assert!(value("trace.records_per_req") > 0.0);
        let exercised = match workload {
            Workload::WebBaremetalOpen => "host.exec_us_p50",
            Workload::KvRepRw => "kv.write_us_p50",
            Workload::TierChaos => "failover.deaths",
            Workload::WebNicOpen | Workload::ImageNicClosed => "nic.exec_us_p50",
        };
        assert!(value(exercised) > 0.0, "{}: {exercised}", workload.name());
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let listed = |section: &str| -> Vec<(String, String, bool)> {
        bench
            .get(section)
            .unwrap()
            .elements()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"), field("better") == "higher")
            })
            .collect()
    };
    let expect = |table: &[(&str, &str, bool)]| -> Vec<(String, String, bool)> {
        table
            .iter()
            .map(|&(n, u, higher)| (n.to_owned(), u.to_owned(), higher))
            .collect()
    };
    assert_eq!(listed("end_to_end"), expect(&END_TO_END));
    assert_eq!(listed("per_layer"), expect(&PER_LAYER));
    // Every end-to-end metric has a bound; set-up time's is the largest.
    let bounds: Vec<(String, f64)> = bench
        .get("end_to_end")
        .unwrap()
        .elements()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).unwrap().to_owned();
            (name, m.get("bound").and_then(Json::as_f64).unwrap())
        })
        .collect();
    let setup = bounds.iter().find(|b| b.0 == "setup_s").unwrap().1;
    for (name, bound) in &bounds {
        assert!((0.0..=setup).contains(bound), "{name}: {bound}");
    }
    let workloads: Vec<String> = bench
        .get("workloads")
        .unwrap()
        .elements()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn refuses_engine_and_seed_offset_overrides() {
    let exe = env!("CARGO_BIN_EXE_lnic-benchmark");
    for (var, value) in [
        ("LNIC_ENGINE", "serial"),
        ("LNIC_ENGINE", "sharded:2"),
        ("LNIC_SEED_OFFSET", "1"),
    ] {
        let out = Command::new(exe)
            .args(["--workload", "web_nic_open", "--seed", "1", "--smoke"])
            .env_remove("LNIC_ENGINE")
            .env_remove("LNIC_SEED_OFFSET")
            .env(var, value)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        assert!(out.stdout.is_empty(), "{var}={value} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(var), "{var}={value}: {stderr}");
    }
    let out = Command::new(exe)
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
