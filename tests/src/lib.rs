//! Shared helpers for the integration suite: testbed-construction
//! boilerplate and golden-hash file IO.
//!
//! The helpers guard pinned goldens when a CI seed sweep moves every
//! seed, deduplicate the resilient-gateway config and driver spawn
//! blocks, and give the golden suites one place to read and pin golden
//! hashes.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use lnic::gateway::Gateway;
use lnic::prelude::*;
use lnic_sim::prelude::*;

/// Whether checks against *pinned* golden hashes are meaningful in this
/// environment. They are not when a CI seed sweep moved every seed
/// (`LNIC_SEED_OFFSET != 0`).
pub fn golden_checks_enabled() -> bool {
    seed_offset() == 0
}

/// The resilient NIC testbed used by every chaos/failover scenario:
/// `workers` λ-NIC workers, a 50 ms RPC timeout with 5 attempts, and
/// the gateway's resilient profile (hedging + retry budget). Callers
/// tweak fields afterwards (e.g. `config.nic.firmware_swap_time`).
pub fn resilient_nic_config(seed: u64, workers: usize) -> TestbedConfig {
    let mut config = TestbedConfig::new(BackendKind::Nic)
        .seed(seed)
        .workers(workers);
    config.gateway.rpc_timeout = SimDuration::from_millis(50);
    config.gateway.rpc_attempts = 5;
    config.gateway = config.gateway.resilient();
    config
}

/// One `Page(0)` job per lambda of `program` — the standard closed-loop
/// job mix for web-server scenarios.
pub fn page_jobs(program: &Arc<lnic_mlambda::program::Program>) -> Vec<JobSpec> {
    program
        .lambdas
        .iter()
        .map(|l| JobSpec {
            workload_id: l.id.0,
            payload: PayloadSpec::Page(0),
        })
        .collect()
}

/// Adds a [`ClosedLoopDriver`] to the testbed and schedules its
/// [`StartDriver`] at `start_after`. Returns the driver's component id
/// for completion checks.
pub fn spawn_closed_loop(
    bed: &mut Testbed,
    jobs: Vec<JobSpec>,
    threads: usize,
    think: SimDuration,
    per_thread: Option<u64>,
    start_after: SimDuration,
) -> ComponentId {
    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        jobs,
        threads,
        think,
        per_thread,
    ));
    bed.sim.post(driver, start_after, StartDriver);
    driver
}

/// Asserts that every gateway of `bed` has retired every request it
/// admitted: once a drive drains, no gateway may hold an in-flight
/// record or a tenant quota slot.
pub fn assert_gateways_retired(bed: &Testbed) {
    for (shard, &gw) in bed.gateways.iter().enumerate() {
        let g = bed.sim.get::<Gateway>(gw).expect("a gateway");
        assert_eq!(
            (g.in_flight(), g.tenant_slots_held()),
            (0, 0),
            "gateway {shard} holds (records, tenant slots) after the drive drained"
        );
    }
}

/// Golden-hash file IO shared by `trace_golden`, `kv_replication`,
/// `gateway_tier` and `disaster_recovery`. Files live under `tests/goldens/` as
/// `name 0x<fnv1a>` lines; `UPDATE_GOLDENS=1` re-pins.
pub mod goldens {
    use super::*;

    /// Absolute path of `tests/goldens/<file>`.
    pub fn path(file: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("goldens")
            .join(file)
    }

    /// Whether the caller asked to re-pin (`UPDATE_GOLDENS=1`).
    pub fn update_requested() -> bool {
        std::env::var_os("UPDATE_GOLDENS").is_some()
    }

    /// Reads `name 0x<hash>` lines, skipping blanks and `#` comments.
    ///
    /// # Panics
    ///
    /// Panics when the file is missing or a line does not parse — a
    /// missing golden is a test failure, not a skip.
    pub fn read(file: &str) -> HashMap<String, u64> {
        let p = path(file);
        let text = std::fs::read_to_string(&p).unwrap_or_else(|e| {
            panic!(
                "{} exists (run with UPDATE_GOLDENS=1 to create): {e}",
                p.display()
            )
        });
        text.lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (name, hash) = l.split_once(' ').expect("`name 0x<hash>` per line");
                let hash = u64::from_str_radix(hash.trim().trim_start_matches("0x"), 16)
                    .expect("hash parses as hex");
                (name.to_owned(), hash)
            })
            .collect()
    }

    /// Writes `cases` under a `# comment` header, creating the goldens
    /// directory if needed.
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be written.
    pub fn write(file: &str, header: &str, cases: &[(String, u64)]) {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str("# ");
            out.push_str(line);
            out.push('\n');
        }
        for (name, hash) in cases {
            out.push_str(&format!("{name} {hash:#018x}\n"));
        }
        let p = path(file);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(&p, out).unwrap();
    }
}
