//! The five benchmark workloads: cluster set-up, traffic, faults, and
//! the drive loop.
//!
//! Request counts scale with the length of a drive in host seconds; each
//! count was sized on a 2-core host so a drive sized for `S` seconds
//! takes about `S` seconds of wall time. Simulated results depend only
//! on the seed and the count, never on the host.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use lnic::driver::{JobSpec, PayloadSpec, StartDriver};
use lnic::failover::FailoverConfig;
use lnic::gwtier::TierConfig;
use lnic::prelude::{build_testbed, BackendKind, Testbed, TestbedConfig};
use lnic_kv::KvServer;
use lnic_mlambda::program::Program;
use lnic_raft::RaftConfig;
use lnic_sim::prelude::*;
use lnic_workloads::image::{self, RgbaImage};
use lnic_workloads::kv::{KvMix, REPKV_WORKLOAD_ID};
use lnic_workloads::web::WebContent;
use lnic_workloads::{
    benchmark_program, default_web_content, three_web_servers, SuiteConfig, IMAGE_ID, WEB_ID,
};

use crate::driver::{LoadDriver, Pacing, Verifier};

/// One named set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Web Server on SmartNIC workers, open-loop Poisson near the
    /// gateway's proxy cap.
    WebNicOpen,
    /// The same traffic on bare-metal host workers, below their knee.
    WebBaremetalOpen,
    /// Image Transformer on SmartNIC workers, closed loop.
    ImageNicClosed,
    /// Raft-replicated NIC-side KV, half reads and half writes.
    KvRepRw,
    /// Three web lambdas behind the sharded gateway tier while NICs,
    /// gateway shards and links fail on a fixed schedule.
    TierChaos,
}

/// Keys pre-populated in the memcached store of the standard testbed.
const KV_KEYS: u32 = 1_000;
/// Image side length of the image workload.
const IMAGE_DIM: usize = 128;
/// Length of one fault cycle of `tier_chaos`.
pub const CHAOS_CYCLE: SimDuration = SimDuration::from_secs(10);
/// Offered rate of `tier_chaos`.
const CHAOS_RATE_RPS: f64 = 5_000.0;
/// Simulated time in which no request is sent or answered after which a
/// drive gives up on the requests still outstanding.
const DRAIN: SimDuration = SimDuration::from_secs(30);

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 5] = [
        Workload::WebNicOpen,
        Workload::WebBaremetalOpen,
        Workload::ImageNicClosed,
        Workload::KvRepRw,
        Workload::TierChaos,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WebNicOpen => "web_nic_open",
            Workload::WebBaremetalOpen => "web_baremetal_open",
            Workload::ImageNicClosed => "image_nic_closed",
            Workload::KvRepRw => "kv_rep_rw",
            Workload::TierChaos => "tier_chaos",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop web workloads: the ones with an SLO-rate search.
    pub fn is_open_web(self) -> bool {
        matches!(self, Workload::WebNicOpen | Workload::WebBaremetalOpen)
    }

    /// The request pacing of a timed run.
    pub fn pacing(self, smoke: bool) -> Pacing {
        match self {
            Workload::WebNicOpen => Pacing::Open { rate_rps: 40_000.0 },
            Workload::WebBaremetalOpen => Pacing::Open { rate_rps: 3_000.0 },
            Workload::ImageNicClosed => Pacing::Closed {
                clients: 8,
                think: SimDuration::from_micros(80),
            },
            Workload::KvRepRw => Pacing::Closed {
                clients: 4,
                think: SimDuration::from_micros(100),
            },
            Workload::TierChaos => Pacing::Open {
                rate_rps: if smoke { 500.0 } else { CHAOS_RATE_RPS },
            },
        }
    }

    /// The load of one drive sized for `drive_s` host seconds.
    pub fn load(self, drive_s: f64, smoke: bool) -> Load {
        let pacing = self.pacing(smoke);
        if self == Workload::TierChaos {
            // 2.4 ten-second fault cycles per host second: ten cycles,
            // 30 fault episodes, in a 4 s drive.
            let cycles = if smoke {
                1
            } else {
                (drive_s * 2.4).ceil().max(1.0) as u64
            };
            let Pacing::Open { rate_rps } = pacing else {
                unreachable!("tier_chaos is open loop")
            };
            let span_s = CHAOS_CYCLE.as_secs_f64() * cycles as f64;
            return Load {
                pacing,
                requests: (rate_rps * span_s) as u64,
                cycles,
            };
        }
        let requests = if smoke {
            match self {
                Workload::ImageNicClosed => 16,
                _ => 1_000,
            }
        } else {
            let per_second = match self {
                Workload::WebNicOpen => 150_000.0,
                Workload::WebBaremetalOpen => 150_000.0,
                Workload::ImageNicClosed => 510.0,
                Workload::KvRepRw => 95_000.0,
                Workload::TierChaos => unreachable!("sized by fault cycles"),
            };
            (per_second * drive_s).ceil().max(1.0) as u64
        };
        Load {
            pacing,
            requests,
            cycles: 0,
        }
    }

    /// When the driver starts: the replicated KV waits out its first
    /// election so the run measures steady-state leadership.
    fn start_at(self) -> SimDuration {
        match self {
            Workload::KvRepRw => SimDuration::from_millis(100),
            _ => SimDuration::ZERO,
        }
    }

    /// The testbed configuration, before set-up.
    fn config(self, seed: u64) -> TestbedConfig {
        let backend = match self {
            Workload::WebBaremetalOpen => BackendKind::BareMetal,
            _ => BackendKind::Nic,
        };
        let mut cfg = TestbedConfig::new(backend).seed(seed);
        match self {
            Workload::KvRepRw => {
                cfg = cfg.workers(3);
                resilient_gateway(&mut cfg);
            }
            Workload::TierChaos => {
                // A restarted NIC re-images in 500 ms; with the 9 s
                // default, failover re-homes lambdas onto a worker whose
                // swap is still running and they fail for the rest of
                // the run.
                cfg.nic.firmware_swap_time = SimDuration::from_millis(500);
                resilient_gateway(&mut cfg);
            }
            _ => {}
        }
        cfg
    }

    /// The request generator of the single-lambda workloads (`tier_chaos`
    /// rotates over three lambdas, each sent page 0).
    pub fn payload_spec(self) -> PayloadSpec {
        match self {
            Workload::WebNicOpen | Workload::WebBaremetalOpen => {
                PayloadSpec::RandomPage { count: 64 }
            }
            Workload::ImageNicClosed => {
                PayloadSpec::Fixed(Bytes::from(RgbaImage::synthetic(IMAGE_DIM, IMAGE_DIM).data))
            }
            Workload::KvRepRw => PayloadSpec::RepKv(KvMix::new(64, 500, 990)),
            Workload::TierChaos => PayloadSpec::Page(0),
        }
    }

    /// The jobs the driver rotates over.
    fn jobs(self, program: &Program) -> Vec<JobSpec> {
        let workload_id = match self {
            Workload::WebNicOpen | Workload::WebBaremetalOpen => WEB_ID.0,
            Workload::ImageNicClosed => IMAGE_ID.0,
            Workload::KvRepRw => REPKV_WORKLOAD_ID,
            Workload::TierChaos => {
                return program
                    .lambdas
                    .iter()
                    .map(|l| JobSpec {
                        workload_id: l.id.0,
                        payload: self.payload_spec(),
                    })
                    .collect()
            }
        };
        vec![JobSpec {
            workload_id,
            payload: self.payload_spec(),
        }]
    }

    /// Reference responses for sampled requests, where the workload's
    /// lambdas have a native reference implementation.
    fn verifier(self) -> Option<Verifier> {
        match self {
            Workload::WebNicOpen | Workload::WebBaremetalOpen => {
                let content = default_web_content(&SuiteConfig::default());
                Some(Box::new(move |_, payload, response| {
                    content.reference_response(payload) == response
                }))
            }
            Workload::ImageNicClosed => Some(Box::new(|_, payload, response| {
                image::reference_response(payload) == response
            })),
            Workload::TierChaos => {
                let pages = chaos_web_content();
                Some(Box::new(move |workload_id, payload, response| {
                    let content = &pages[(workload_id - CHAOS_FIRST_ID) as usize];
                    content.reference_response(payload) == response
                }))
            }
            Workload::KvRepRw => None,
        }
    }

    /// The fault schedule of a run: every cycle crashes NIC 1 at +1 s and
    /// restarts it at +2 s, crashes gateway shard 1 at +4 s and restarts
    /// it at +5 s, and partitions worker 2 for 800 ms at +7 s.
    fn fault_plan(self, cycles: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for c in 0..cycles {
            let base = SimTime::ZERO + CHAOS_CYCLE * c;
            let at = |ms: u64| base + SimDuration::from_millis(ms);
            plan = plan
                .nic_crash(1, at(1_000))
                .nic_restart(1, at(2_000))
                .gateway_crash(1, at(4_000))
                .gateway_restart(1, at(5_000))
                .partition(&[2], at(7_000), SimDuration::from_millis(800));
        }
        plan
    }

    /// Builds the cluster of a run and installs its driver and faults.
    /// `checker: false` leaves the online invariant checker off, for runs
    /// that attach their own sinks.
    pub fn setup(self, seed: u64, load: &Load, checker: bool) -> (Bed, SetupPhases) {
        let mut phases = SetupPhases::default();
        let t = Instant::now();
        let mut cfg = self.config(seed);
        if !checker {
            cfg = cfg.without_invariant_checks();
        }
        let mut tb = build_testbed(cfg.clone());
        phases.build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let program = Arc::new(match self {
            Workload::TierChaos => three_web_servers(),
            Workload::KvRepRw => Program::new(),
            _ => benchmark_program(&SuiteConfig::default()),
        });
        if self != Workload::KvRepRw {
            tb.preload(&program);
        }
        phases.compile_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        if matches!(
            self,
            Workload::WebNicOpen | Workload::WebBaremetalOpen | Workload::ImageNicClosed
        ) {
            populate_kv(&mut tb, KV_KEYS);
        }
        phases.populate_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut target = tb.gateway;
        match self {
            Workload::KvRepRw => {
                tb.enable_replicated_kv(kv_raft());
            }
            Workload::TierChaos => {
                // Fenced leases and snapshots: the worker-membership
                // contract (checker rules 7–9) the gateway tier's
                // controller implements a second time (rules 14–15).
                tb.enable_failover(
                    FailoverConfig {
                        heartbeat_interval: SimDuration::from_millis(50),
                        missed_beats: 3,
                        ..FailoverConfig::default()
                    }
                    .fenced()
                    .with_snapshots(SimDuration::from_millis(100)),
                );
                let (router, _) =
                    tb.enable_gateway_tier(2, cfg.gateway.clone(), cfg.link, TierConfig::default());
                target = router;
                tb.inject_faults(&self.fault_plan(load.cycles));
            }
            _ => {}
        }
        let mut driver = LoadDriver::new(target, self.jobs(&program), load.pacing, load.requests);
        if let Some(verifier) = self.verifier() {
            driver = driver.with_verifier(verifier);
        }
        let driver = tb.sim.add(driver);
        tb.sim.post(driver, self.start_at(), StartDriver);
        phases.enable_s = t.elapsed().as_secs_f64();
        (
            Bed {
                tb,
                driver,
                program,
            },
            phases,
        )
    }
}

/// How much traffic one run offers, and how.
#[derive(Clone, Copy, Debug)]
pub struct Load {
    /// Open- or closed-loop pacing.
    pub pacing: Pacing,
    /// Requests issued.
    pub requests: u64,
    /// Fault cycles (`tier_chaos` only).
    pub cycles: u64,
}

/// Wall time of each set-up phase of one cluster build.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupPhases {
    /// `build_testbed`.
    pub build_s: f64,
    /// Program construction, compilation and preload.
    pub compile_s: f64,
    /// KV store population.
    pub populate_s: f64,
    /// Replication, failover, gateway tier, faults, and the driver.
    pub enable_s: f64,
}

impl SetupPhases {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.compile_s + self.populate_s + self.enable_s
    }
}

/// A cluster ready to run.
pub struct Bed {
    /// The testbed.
    pub tb: Testbed,
    /// The load driver component.
    pub driver: ComponentId,
    /// The source program deployed to the workers.
    pub program: Arc<Program>,
}

impl Bed {
    /// The driver after (or during) the run.
    pub fn driver(&self) -> &LoadDriver {
        self.tb
            .sim
            .get::<LoadDriver>(self.driver)
            .expect("driver installed at set-up")
    }

    /// Runs until every request is answered, or until `DRAIN` of
    /// simulated time passes in which no request is sent or answered,
    /// then signals end of run to the trace sinks (the invariant
    /// checker's conservation accounting runs there). The whole drive
    /// is timed, and so is each [`STEP`] of simulated time it advances;
    /// the end-of-run accounting counts as the last step.
    pub fn drive(&mut self) -> DriveTiming {
        let events = self.tb.sim.events_processed();
        let mut steps = Vec::new();
        let mut horizon = SimTime::ZERO;
        let (mut progress, mut progress_at) = (0, SimTime::ZERO);
        while !self.driver().is_done() && horizon < progress_at + DRAIN {
            horizon += STEP;
            let t = Instant::now();
            self.tb.sim.run_until(horizon);
            steps.push(t.elapsed().as_secs_f64());
            let driver = self.driver();
            if driver.issued() + driver.answered() != progress {
                (progress, progress_at) = (driver.issued() + driver.answered(), horizon);
            }
        }
        let t = Instant::now();
        self.tb.finish_tracing();
        steps.push(t.elapsed().as_secs_f64());
        DriveTiming {
            wall_s: steps.iter().sum(),
            events: self.tb.sim.events_processed() - events,
            steps,
        }
    }
}

/// Simulated time one `run_until` call of a drive advances.
pub const STEP: SimDuration = SimDuration::from_millis(10);

/// Host time of one drive.
#[derive(Clone, Debug, Default)]
pub struct DriveTiming {
    /// Wall time.
    pub wall_s: f64,
    /// Events processed.
    pub events: u64,
    /// Wall time of each step, s.
    pub steps: Vec<f64>,
}

impl DriveTiming {
    /// Wall time per event, ns.
    pub fn ns_per_event(&self) -> f64 {
        self.wall_s * 1e9 / self.events.max(1) as f64
    }

    /// The wall time of identical repetitions of one drive, taking each
    /// step at its fastest repetition. Every step's work counts; a burst
    /// of host noise counts only if it slows that step in every
    /// repetition.
    pub fn fastest_steps_s(repetitions: &[DriveTiming]) -> f64 {
        let steps = repetitions.iter().map(|r| r.steps.len()).min().unwrap_or(0);
        (0..steps)
            .map(|i| {
                repetitions
                    .iter()
                    .map(|r| r.steps[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }
}

/// First workload id of [`three_web_servers`].
const CHAOS_FIRST_ID: u32 = 10;

/// The content each of [`three_web_servers`]' lambdas serves.
fn chaos_web_content() -> Vec<WebContent> {
    (0..3)
        .map(|i| WebContent::generate(2 + i, 512 + 256 * i))
        .collect()
}

/// The gateway settings of the fault-tolerance benches: 50 ms
/// retransmission timeout, 5 attempts, jittered backoff and a deadline.
fn resilient_gateway(cfg: &mut TestbedConfig) {
    cfg.gateway.rpc_timeout = SimDuration::from_millis(50);
    cfg.gateway.rpc_attempts = 5;
    cfg.gateway = cfg.gateway.clone().resilient();
}

/// Raft timers of the replicated KV: the 15 ms read lease lapses before
/// the 20 ms election floor, so a deposed leader never serves a read.
fn kv_raft() -> RaftConfig {
    RaftConfig {
        election_timeout_min: SimDuration::from_millis(20),
        election_timeout_max: SimDuration::from_millis(40),
        heartbeat_interval: SimDuration::from_millis(5),
        read_lease: Some(SimDuration::from_millis(15)),
    }
}

/// Pre-populates `user:0..n` in the memcached store.
fn populate_kv(tb: &mut Testbed, n: u32) {
    let kv = tb
        .sim
        .get_mut::<KvServer>(tb.kv_server)
        .expect("testbed has a kv server");
    for id in 0..n {
        kv.insert(
            format!("user:{id}"),
            0,
            Bytes::from(format!("profile-record-{id:08}")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_steps_take_each_step_at_its_fastest_repetition() {
        let drive = |steps: &[f64]| DriveTiming {
            wall_s: steps.iter().sum(),
            events: 1,
            steps: steps.to_vec(),
        };
        let reps = [drive(&[1.0, 3.0, 2.0]), drive(&[2.0, 1.0, 2.0])];
        assert_eq!(DriveTiming::fastest_steps_s(&reps), 4.0);
        assert_eq!(DriveTiming::fastest_steps_s(&reps[..1]), 6.0);
        assert_eq!(DriveTiming::fastest_steps_s(&[]), 0.0);
    }
}
