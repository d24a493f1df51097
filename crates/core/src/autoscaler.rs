//! The autoscaler (§6.1.1: OpenFaaS includes "an autoscaler to scale
//! lambdas as demands change").
//!
//! Periodically samples the gateway's per-workload latency window and
//! scales a workload out — adding a replica placement on the next worker
//! — whenever its p99 over the window exceeds the target, or back in —
//! removing the most recently added replica — after several consecutive
//! low-load windows. Workers all hold every deployed program (the
//! manager rolls out to the whole fleet), so scaling is purely a routing
//! change at the gateway.
//!
//! Scale-in is deliberately hysteretic: it requires
//! [`AutoscalerConfig::scale_in_windows`] consecutive windows below
//! [`AutoscalerConfig::scale_in_p99`], never goes below
//! [`AutoscalerConfig::min_replicas`], and every action (either
//! direction) starts a per-workload [`AutoscalerConfig::cooldown`]
//! during which the workload is left alone — so the scaler cannot
//! oscillate against its own routing changes.
//!
//! When a placement planner is attached with
//! [`Autoscaler::with_proposals`], the autoscaler stops acting on the
//! gateway directly and instead sends each decision as a
//! [`PlacementProposal`], letting the placer fold scale decisions into
//! its global placement plan.

use lnic_sim::hash::FastMap;
use lnic_sim::prelude::*;

use crate::cluster::Worker;
use crate::gateway::{AddPlacement, QueryStats, RemovePlacement, StatsReport};

/// Autoscaler policy.
#[derive(Clone, Copy, Debug)]
pub struct AutoscalerConfig {
    /// Sampling interval.
    pub interval: SimDuration,
    /// Scale out when a workload's windowed p99 exceeds this.
    pub target_p99: SimDuration,
    /// Maximum replicas per workload.
    pub max_replicas: usize,
    /// Minimum completed requests in a window before acting (avoids
    /// scaling on noise).
    pub min_samples: usize,
    /// Scale in when a workload's windowed p99 stays below this for
    /// [`Self::scale_in_windows`] consecutive windows.
    pub scale_in_p99: SimDuration,
    /// Never scale a workload below this many replicas.
    pub min_replicas: usize,
    /// Consecutive low-load windows required before scaling in
    /// (hysteresis).
    pub scale_in_windows: u32,
    /// Per-workload quiet period after any scale action; no further
    /// action (in either direction) is taken for the workload until it
    /// elapses.
    pub cooldown: SimDuration,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            interval: SimDuration::from_millis(50),
            target_p99: SimDuration::from_millis(2),
            max_replicas: 4,
            min_samples: 10,
            scale_in_p99: SimDuration::from_micros(500),
            min_replicas: 1,
            scale_in_windows: 3,
            cooldown: SimDuration::from_millis(100),
        }
    }
}

/// Control message: start the sampling loop.
#[derive(Debug)]
pub struct StartAutoscaler;

#[derive(Debug)]
struct Tick;

/// Which way a scale decision went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleDirection {
    /// Added a replica.
    Out,
    /// Removed a replica.
    In,
}

/// One scale decision, for inspection in tests/experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaleEvent {
    /// When the decision was made.
    pub at: SimTime,
    /// The workload scaled.
    pub workload_id: u32,
    /// Replica count after the decision.
    pub replicas: usize,
    /// Out or in.
    pub direction: ScaleDirection,
}

/// A scale decision forwarded to a placement planner instead of being
/// applied directly at the gateway (see [`Autoscaler::with_proposals`]).
#[derive(Clone, Copy, Debug)]
pub struct PlacementProposal {
    /// The workload the scaler wants to change.
    pub workload_id: u32,
    /// Out or in.
    pub direction: ScaleDirection,
    /// The windowed p99 that triggered the proposal.
    pub p99_ns: u64,
    /// Replica count at decision time.
    pub replicas: usize,
}

/// The autoscaler component.
///
/// Note: once started, the autoscaler ticks forever; drive simulations
/// containing one with [`lnic_sim::Simulation::run_for`] /
/// [`lnic_sim::Simulation::run_until`] rather than `run()`.
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    gateway: ComponentId,
    workers: Vec<Worker>,
    events: Vec<ScaleEvent>,
    /// When a planner is attached, decisions are proposed to it rather
    /// than applied at the gateway.
    proposals_to: Option<ComponentId>,
    /// Last scale action per workload (cooldown clock).
    last_action: FastMap<u32, SimTime>,
    /// Consecutive low-load windows per workload (hysteresis counter).
    low_windows: FastMap<u32, u32>,
}

impl Autoscaler {
    /// Creates an autoscaler managing placements across `workers`.
    pub fn new(cfg: AutoscalerConfig, gateway: ComponentId, workers: Vec<Worker>) -> Self {
        Autoscaler {
            cfg,
            gateway,
            workers,
            events: Vec::new(),
            proposals_to: None,
            last_action: FastMap::default(),
            low_windows: FastMap::default(),
        }
    }

    /// Routes scale decisions to a placement planner as
    /// [`PlacementProposal`]s instead of acting on the gateway directly.
    pub fn with_proposals(mut self, planner: ComponentId) -> Self {
        self.proposals_to = Some(planner);
        self
    }

    /// Scale decisions taken so far.
    pub fn events(&self) -> &[ScaleEvent] {
        &self.events
    }

    fn in_cooldown(&self, workload_id: u32, now: SimTime) -> bool {
        self.last_action
            .get(&workload_id)
            .is_some_and(|&at| now < at + self.cfg.cooldown)
    }

    fn decide(
        &mut self,
        ctx: &mut Ctx<'_>,
        workload_id: u32,
        replicas: usize,
        direction: ScaleDirection,
        p99_ns: u64,
    ) {
        let replicas_after = match direction {
            ScaleDirection::Out => replicas + 1,
            ScaleDirection::In => replicas - 1,
        };
        if let Some(planner) = self.proposals_to {
            ctx.send(
                planner,
                SimDuration::ZERO,
                PlacementProposal {
                    workload_id,
                    direction,
                    p99_ns,
                    replicas,
                },
            );
        } else {
            match direction {
                ScaleDirection::Out => {
                    // Place the next replica on the next worker in order
                    // (worker[replicas] — the fleet already holds the code).
                    let endpoint = self.workers[replicas % self.workers.len()].endpoint();
                    ctx.send(
                        self.gateway,
                        SimDuration::ZERO,
                        AddPlacement {
                            workload_id,
                            endpoint,
                        },
                    );
                }
                ScaleDirection::In => {
                    // Retire the most recently added replica. If routing
                    // drifted (e.g. failover moved endpoints around) and
                    // that worker no longer serves the workload, the
                    // removal is a no-op and the next low window retries.
                    let victim = self.workers[(replicas - 1) % self.workers.len()].mac;
                    ctx.send(
                        self.gateway,
                        SimDuration::ZERO,
                        RemovePlacement {
                            workload_id,
                            mac: victim,
                        },
                    );
                }
            }
        }
        self.last_action.insert(workload_id, ctx.now());
        self.low_windows.insert(workload_id, 0);
        self.events.push(ScaleEvent {
            at: ctx.now(),
            workload_id,
            replicas: replicas_after,
            direction,
        });
    }

    fn on_report(&mut self, ctx: &mut Ctx<'_>, report: StatsReport) {
        for (workload_id, summary, replicas) in report.workloads {
            if summary.count < self.cfg.min_samples {
                continue;
            }
            if self.in_cooldown(workload_id, ctx.now()) {
                continue;
            }
            let cap = self.cfg.max_replicas.min(self.workers.len());
            if summary.p99_ns > self.cfg.target_p99.as_nanos() {
                self.low_windows.insert(workload_id, 0);
                if replicas < cap {
                    self.decide(
                        ctx,
                        workload_id,
                        replicas,
                        ScaleDirection::Out,
                        summary.p99_ns,
                    );
                }
            } else if summary.p99_ns < self.cfg.scale_in_p99.as_nanos() {
                let low = self.low_windows.entry(workload_id).or_insert(0);
                *low += 1;
                if *low >= self.cfg.scale_in_windows && replicas > self.cfg.min_replicas {
                    self.decide(
                        ctx,
                        workload_id,
                        replicas,
                        ScaleDirection::In,
                        summary.p99_ns,
                    );
                }
            } else {
                // Neither hot nor idle: reset the hysteresis counter so
                // scale-in only fires on genuinely sustained low load.
                self.low_windows.insert(workload_id, 0);
            }
        }
    }
}

impl Component for Autoscaler {
    fn name(&self) -> &str {
        "autoscaler"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        if msg.is::<StartAutoscaler>() || msg.is::<Tick>() {
            let self_id = ctx.self_id();
            ctx.send(
                self.gateway,
                SimDuration::ZERO,
                QueryStats { reply_to: self_id },
            );
            ctx.send_self(self.cfg.interval, Tick);
            return;
        }
        match msg.downcast::<StatsReport>() {
            Ok(r) => self.on_report(ctx, *r),
            Err(other) => panic!("autoscaler received unknown message {other:?}"),
        }
    }
}
