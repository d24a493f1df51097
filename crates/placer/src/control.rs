//! The placement control plane: a simulation component that profiles,
//! repacks, and live-migrates lambdas between NIC and host.
//!
//! The [`Placer`] ticks on a fixed interval, pulling per-workload
//! latency windows from the gateway ([`QueryStats`]) and folding them
//! into [`ObservedProfile`]s. Each window it repacks the whole lambda
//! set with [`crate::packer::pack`] and asks the
//! [`crate::migrate::MigrationPlanner`] which differences are worth
//! acting on. An approved migration runs as a three-phase state
//! machine:
//!
//! 1. **Drain** — the new placements are announced on the trace stream
//!    (make-before-break: a demoted lambda gains its host placement
//!    *before* losing the NIC one) and the cluster keeps serving for
//!    [`PlacerConfig::drain`] so gateway-tracked requests in flight at
//!    decision time complete or retransmit against the old firmware.
//! 2. **Swap** — the NIC subset is recompiled and pushed to every
//!    worker as a [`LoadFirmware`]; packets arriving during the
//!    [`PlacerConfig::swap_downtime`] reload are dropped on the floor
//!    and recovered by the gateway's retransmission layer. If the
//!    subset no longer compiles the epoch cancels cleanly.
//! 3. **Finish** — old placements are withdrawn and `migrate_done` is
//!    emitted, closing the conservation window the invariant checker
//!    tracks.
//!
//! Routing never changes during a NIC↔host migration: hybrid workers
//! punt firmware-miss packets across PCIe to the host behind them, so
//! a migration is purely a firmware recomposition. The placer is also
//! the arbiter for the autoscaler's [`PlacementProposal`]s, which *are*
//! routing changes (gateway placements), applied here so one component
//! owns every placement decision. Failover re-placement stays with the
//! failover controller, which re-homes a dead worker's workloads itself.

use std::collections::BTreeMap;
use std::sync::Arc;

use lnic::cluster::Testbed;
use lnic::gateway::{AddPlacement, QueryStats, RemovePlacement, StatsReport};
use lnic::{PlacementProposal, ScaleDirection};
use lnic_host::DeployProgram;
use lnic_mlambda::compile::{compile, CompileOptions};
use lnic_mlambda::program::Program;
use lnic_nic::{LoadFirmware, Nic, NicParams};
use lnic_sim::prelude::*;

use crate::migrate::{MigrationPlanner, MigrationPolicy, Move};
use crate::packer::{pack, LambdaProfile, NicCapacity, PackOptions, Target};
use crate::profile::{static_costs, subset_program, ObservedProfile, StaticCost};

/// Placement control-plane policy.
#[derive(Clone, Debug)]
pub struct PlacerConfig {
    /// Profiling/repacking interval.
    pub interval: SimDuration,
    /// Time between announcing a migration and swapping firmware, left
    /// for in-flight requests to drain through the old placement.
    pub drain: SimDuration,
    /// How long a firmware swap keeps the NIC dark (requests dropped;
    /// the old placement is not withdrawn until this has passed).
    pub swap_downtime: SimDuration,
    /// Estimated host/NIC service-time ratio, used to project the
    /// unobserved side of a lambda's profile (the paper measures ~10×
    /// for short lambdas; Figure 7).
    pub host_penalty: f64,
    /// Migration brakes (hysteresis, swap-cost gate).
    pub policy: MigrationPolicy,
    /// Packing policy for the repacking pass.
    pub pack: PackOptions,
    /// The per-worker NIC budgets packed against.
    pub capacity: NicCapacity,
    /// Compiler options for subset images (must match what the NICs
    /// run).
    pub compile: CompileOptions,
}

impl PlacerConfig {
    /// A config derived from the NIC model: capacity from its memory
    /// spec and instruction store, swap costs from its firmware swap
    /// time, defaults everywhere else.
    pub fn from_nic(nic: &NicParams) -> Self {
        let mut compile = CompileOptions::optimized();
        compile.memory = nic.memory;
        let capacity = NicCapacity::from_params(nic, &compile);
        PlacerConfig {
            interval: SimDuration::from_millis(100),
            drain: SimDuration::from_millis(20),
            swap_downtime: nic.firmware_swap_time,
            host_penalty: 10.0,
            policy: MigrationPolicy {
                cooldown: SimDuration::from_millis(500),
                swap_cost: nic.firmware_swap_time,
                amortize: SimDuration::from_secs(1),
            },
            pack: PackOptions::default(),
            capacity,
            compile,
        }
    }
}

/// Control message: start the profiling loop.
#[derive(Debug)]
pub struct StartPlacer;

#[derive(Debug)]
struct Tick;

/// Drain elapsed: compile and push the new firmware.
#[derive(Debug)]
struct SwapPhase {
    epoch: u64,
}

/// Swap downtime elapsed: withdraw old placements.
#[derive(Debug)]
struct FinishMigration {
    epoch: u64,
}

/// One placement decision, for inspection in tests/experiments.
#[derive(Clone, Copy, Debug)]
pub enum PlacerEvent {
    /// A migration epoch completed.
    Migrate {
        /// When it finished.
        at: SimTime,
        /// The workload moved.
        workload_id: u32,
        /// Source engine.
        from: Target,
        /// Destination engine.
        to: Target,
    },
    /// A migration epoch was cancelled (subset stopped compiling).
    MigrationCancelled {
        /// When it was cancelled.
        at: SimTime,
        /// The cancelled epoch.
        epoch: u64,
    },
    /// An autoscaler proposal was applied as a routing change.
    Proposal {
        /// When it was applied.
        at: SimTime,
        /// The workload scaled.
        workload_id: u32,
        /// Out or in.
        direction: ScaleDirection,
    },
}

struct PlacerWorker {
    nic: ComponentId,
    endpoint: lnic::gateway::WorkerEndpoint,
}

struct PendingMigration {
    epoch: u64,
    moves: Vec<Move>,
    after: BTreeMap<u32, Target>,
}

/// The placement control-plane component.
///
/// Note: once started, the placer ticks forever; drive simulations
/// containing one with [`Simulation::run_for`] /
/// [`Simulation::run_until`] rather than `run()`.
pub struct Placer {
    cfg: PlacerConfig,
    gateway: ComponentId,
    workers: Vec<PlacerWorker>,
    base: Arc<Program>,
    /// Static costs, index-aligned with `base.lambdas`.
    statics: Vec<StaticCost>,
    /// Workload id → index into `base.lambdas`.
    index_of: BTreeMap<u32, usize>,
    observed: BTreeMap<u32, ObservedProfile>,
    /// The fleet-wide NIC/host split currently installed.
    current: BTreeMap<u32, Target>,
    planner: MigrationPlanner,
    epoch: u64,
    pending: Option<PendingMigration>,
    events: Vec<PlacerEvent>,
    migrations: u64,
}

impl Placer {
    /// Creates a placer managing `workers` (NIC component + gateway
    /// endpoint each), with `current` describing the split already
    /// installed. Prefer [`attach_placer`], which installs that split.
    pub fn new(
        cfg: PlacerConfig,
        gateway: ComponentId,
        workers: Vec<(ComponentId, lnic::gateway::WorkerEndpoint)>,
        base: Arc<Program>,
        statics: Vec<StaticCost>,
        current: BTreeMap<u32, Target>,
    ) -> Self {
        let index_of = base
            .lambdas
            .iter()
            .enumerate()
            .map(|(i, l)| (l.id.0, i))
            .collect();
        Placer {
            cfg,
            gateway,
            workers: workers
                .into_iter()
                .map(|(nic, endpoint)| PlacerWorker { nic, endpoint })
                .collect(),
            base,
            statics,
            index_of,
            observed: BTreeMap::new(),
            current,
            planner: MigrationPlanner::new(),
            epoch: 0,
            pending: None,
            events: Vec::new(),
            migrations: 0,
        }
    }

    /// The fleet-wide NIC/host split currently installed.
    pub fn current_split(&self) -> &BTreeMap<u32, Target> {
        &self.current
    }

    /// Decisions taken so far.
    pub fn events(&self) -> &[PlacerEvent] {
        &self.events
    }

    /// Completed migrations (individual workload moves).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    fn cost_of(&self, workload_id: u32) -> &StaticCost {
        &self.statics[self.index_of[&workload_id]]
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let cap_instr = self.cfg.capacity.instr_words;
        let cap_mem = self.cfg.capacity.total_mem_bytes();
        for w in 0..self.workers.len() as u32 {
            ctx.emit(|| TraceEvent::PlacementCapacity {
                worker: w,
                instr_words: cap_instr,
                mem_bytes: cap_mem,
            });
        }
        // Every worker carries the full split (fleet-uniform firmware).
        for (&wid, &target) in &self.current {
            let cost = *self.cost_of(wid);
            for w in 0..self.workers.len() as u32 {
                ctx.emit(|| TraceEvent::Place {
                    workload_id: wid,
                    worker: w,
                    target: target.name(),
                    instr_words: cost.instr_words,
                    mem_bytes: cost.total_mem_bytes(),
                });
            }
        }
        ctx.send_self(self.cfg.interval, Tick);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        let self_id = ctx.self_id();
        ctx.send(
            self.gateway,
            SimDuration::ZERO,
            QueryStats { reply_to: self_id },
        );
        ctx.send_self(self.cfg.interval, Tick);
    }

    /// Projects a lambda's profile onto both engines: the side it runs
    /// on is observed, the other side is scaled by
    /// [`PlacerConfig::host_penalty`].
    fn profiles(&self) -> Vec<LambdaProfile> {
        self.base
            .lambdas
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let wid = l.id.0;
                let obs = self.observed.get(&wid).copied().unwrap_or_default();
                let on_nic = self.current.get(&wid) == Some(&Target::Nic);
                let (nic_ns, host_ns) = if obs.requests == 0 {
                    (0.0, 0.0)
                } else if on_nic {
                    (obs.p50_ns, obs.p50_ns * self.cfg.host_penalty)
                } else {
                    (obs.p50_ns / self.cfg.host_penalty, obs.p50_ns)
                };
                LambdaProfile {
                    workload_id: wid,
                    cost: self.statics[i],
                    rate_rps: obs.rate_rps,
                    nic_service_ns: nic_ns,
                    host_service_ns: host_ns,
                }
            })
            .collect()
    }

    fn on_report(&mut self, ctx: &mut Ctx<'_>, report: StatsReport) {
        for (wid, summary, _) in &report.workloads {
            self.observed
                .entry(*wid)
                .or_default()
                .update(summary, self.cfg.interval);
        }
        if self.pending.is_some() || self.observed.is_empty() {
            return;
        }

        let profiles = self.profiles();
        let plan = pack(&profiles, &self.cfg.capacity, &self.cfg.pack);
        let mut desired = BTreeMap::new();
        for &wid in &plan.nic {
            desired.insert(wid, Target::Nic);
        }
        for &wid in &plan.host {
            desired.insert(wid, Target::Host);
        }
        for &(wid, reason) in &plan.rejected {
            ctx.emit(|| TraceEvent::PlacementReject {
                workload_id: wid,
                worker: 0,
                reason,
            });
        }
        let gains: BTreeMap<u32, f64> = profiles
            .iter()
            .map(|p| {
                let saved = (p.host_service_ns - p.nic_service_ns).max(0.0);
                (p.workload_id, saved * p.rate_rps)
            })
            .collect();
        let moves = self
            .planner
            .plan(ctx.now(), &self.current, &desired, &gains, &self.cfg.policy);
        if moves.is_empty() {
            return;
        }

        self.epoch += 1;
        let mut after = self.current.clone();
        for m in &moves {
            after.insert(m.workload_id, m.to);
            for w in 0..self.workers.len() as u32 {
                ctx.emit(|| TraceEvent::MigrateStart {
                    workload_id: m.workload_id,
                    from_worker: w,
                    from_target: m.from.name(),
                    to_worker: w,
                    to_target: m.to.name(),
                });
            }
            // Make-before-break for demotions: the host placement goes
            // live before the NIC one is withdrawn. (Promotions gain
            // their NIC placement at swap time, when the firmware
            // actually carries them — placing earlier would overstate
            // instruction-store usage during the overlap.)
            if m.to == Target::Host {
                let cost = *self.cost_of(m.workload_id);
                for w in 0..self.workers.len() as u32 {
                    ctx.emit(|| TraceEvent::Place {
                        workload_id: m.workload_id,
                        worker: w,
                        target: Target::Host.name(),
                        instr_words: cost.instr_words,
                        mem_bytes: cost.total_mem_bytes(),
                    });
                }
            }
        }
        let epoch = self.epoch;
        self.pending = Some(PendingMigration {
            epoch,
            moves,
            after,
        });
        ctx.send_self(self.cfg.drain, SwapPhase { epoch });
    }

    fn on_swap(&mut self, ctx: &mut Ctx<'_>, epoch: u64) {
        let Some(pending) = self.pending.as_ref() else {
            return;
        };
        if pending.epoch != epoch {
            return;
        }
        let nic_indices: Vec<usize> = self
            .base
            .lambdas
            .iter()
            .enumerate()
            .filter(|(_, l)| pending.after.get(&l.id.0) == Some(&Target::Nic))
            .map(|(i, _)| i)
            .collect();
        let subset = subset_program(&self.base, &nic_indices);
        let firmware = match compile(&subset, &self.cfg.compile) {
            Ok(fw) => Arc::new(fw),
            Err(_) => {
                // The packed set no longer compiles (model drift); undo
                // the announcement and cancel the epoch.
                let pending = self.pending.take().expect("checked above");
                for m in &pending.moves {
                    for w in 0..self.workers.len() as u32 {
                        if m.to == Target::Host {
                            ctx.emit(|| TraceEvent::Unplace {
                                workload_id: m.workload_id,
                                worker: w,
                                target: Target::Host.name(),
                            });
                        }
                        ctx.emit(|| TraceEvent::MigrateDone {
                            workload_id: m.workload_id,
                            from_worker: w,
                            from_target: m.from.name(),
                            to_worker: w,
                            to_target: m.from.name(),
                        });
                    }
                }
                self.events.push(PlacerEvent::MigrationCancelled {
                    at: ctx.now(),
                    epoch,
                });
                return;
            }
        };
        // The swap replaces the old NIC set atomically: demotions leave
        // the instruction store before promotions enter it, so declared
        // capacity is respected at every instant.
        let pending = self.pending.as_ref().expect("checked above");
        for m in &pending.moves {
            if m.from == Target::Nic {
                for w in 0..self.workers.len() as u32 {
                    ctx.emit(|| TraceEvent::Unplace {
                        workload_id: m.workload_id,
                        worker: w,
                        target: Target::Nic.name(),
                    });
                }
            }
        }
        for m in &pending.moves {
            if m.to == Target::Nic {
                let cost = *self.cost_of(m.workload_id);
                for w in 0..self.workers.len() as u32 {
                    ctx.emit(|| TraceEvent::Place {
                        workload_id: m.workload_id,
                        worker: w,
                        target: Target::Nic.name(),
                        instr_words: cost.instr_words,
                        mem_bytes: cost.total_mem_bytes(),
                    });
                }
            }
        }
        for w in &self.workers {
            ctx.send(
                w.nic,
                SimDuration::ZERO,
                LoadFirmware::unfenced(Arc::clone(&firmware)),
            );
        }
        ctx.send_self(
            self.cfg.swap_downtime + SimDuration::from_millis(1),
            FinishMigration { epoch },
        );
    }

    fn on_finish(&mut self, ctx: &mut Ctx<'_>, epoch: u64) {
        if self.pending.as_ref().is_none_or(|p| p.epoch != epoch) {
            return;
        }
        let pending = self.pending.take().expect("checked above");
        for m in &pending.moves {
            // Promotions now withdraw the host placement they kept live
            // through the swap; demotions left the NIC at swap time.
            if m.from == Target::Host {
                for w in 0..self.workers.len() as u32 {
                    ctx.emit(|| TraceEvent::Unplace {
                        workload_id: m.workload_id,
                        worker: w,
                        target: Target::Host.name(),
                    });
                }
            }
            for w in 0..self.workers.len() as u32 {
                ctx.emit(|| TraceEvent::MigrateDone {
                    workload_id: m.workload_id,
                    from_worker: w,
                    from_target: m.from.name(),
                    to_worker: w,
                    to_target: m.to.name(),
                });
            }
            self.migrations += 1;
            self.events.push(PlacerEvent::Migrate {
                at: ctx.now(),
                workload_id: m.workload_id,
                from: m.from,
                to: m.to,
            });
        }
        self.current = pending.after;
    }

    fn on_proposal(&mut self, ctx: &mut Ctx<'_>, p: PlacementProposal) {
        let n = self.workers.len();
        match p.direction {
            ScaleDirection::Out => {
                let endpoint = self.workers[p.replicas % n].endpoint;
                ctx.send(
                    self.gateway,
                    SimDuration::ZERO,
                    AddPlacement {
                        workload_id: p.workload_id,
                        endpoint,
                    },
                );
            }
            ScaleDirection::In => {
                let mac = self.workers[(p.replicas - 1) % n].endpoint.mac;
                ctx.send(
                    self.gateway,
                    SimDuration::ZERO,
                    RemovePlacement {
                        workload_id: p.workload_id,
                        mac,
                    },
                );
            }
        }
        self.events.push(PlacerEvent::Proposal {
            at: ctx.now(),
            workload_id: p.workload_id,
            direction: p.direction,
        });
    }
}

impl Component for Placer {
    fn name(&self) -> &str {
        "placer"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        if msg.is::<StartPlacer>() {
            self.on_start(ctx);
            return;
        }
        if msg.is::<Tick>() {
            self.on_tick(ctx);
            return;
        }
        let msg = match msg.downcast::<StatsReport>() {
            Ok(r) => return self.on_report(ctx, *r),
            Err(other) => other,
        };
        let msg = match msg.downcast::<SwapPhase>() {
            Ok(s) => return self.on_swap(ctx, s.epoch),
            Err(other) => other,
        };
        let msg = match msg.downcast::<FinishMigration>() {
            Ok(f) => return self.on_finish(ctx, f.epoch),
            Err(other) => other,
        };
        match msg.downcast::<PlacementProposal>() {
            Ok(p) => self.on_proposal(ctx, *p),
            Err(other) => panic!("placer received unknown message {other:?}"),
        }
    }
}

/// Installs a *static* first-fit NIC/host split on a hybrid testbed:
/// computes static costs, packs in declaration order (no profiles exist
/// yet), compiles the NIC subset onto every worker NIC, deploys the
/// full program to every host backend, and registers gateway routing
/// for every lambda spread across workers. Returns the costs and the
/// plan; no control plane is started — this is the "static" baseline of
/// the placement ablation, and the starting state of [`attach_placer`].
///
/// # Panics
///
/// Panics when the testbed is not hybrid (every worker must have a host
/// backend behind its NIC) or the NIC subset fails to compile.
pub fn install_static_split(
    bed: &mut Testbed,
    base: &Arc<Program>,
    cfg: &PlacerConfig,
) -> (Vec<StaticCost>, crate::packer::PlacementPlan) {
    assert!(
        bed.worker_hosts.iter().all(Option::is_some),
        "install_static_split requires a hybrid testbed (NIC workers with host backends)"
    );
    let statics = static_costs(base, &cfg.compile);
    let profiles: Vec<LambdaProfile> = base
        .lambdas
        .iter()
        .enumerate()
        .map(|(i, l)| LambdaProfile {
            workload_id: l.id.0,
            cost: statics[i],
            rate_rps: 0.0,
            nic_service_ns: 0.0,
            host_service_ns: 0.0,
        })
        .collect();
    let plan = pack(
        &profiles,
        &cfg.capacity,
        &PackOptions {
            profile_guided: false,
            ..cfg.pack
        },
    );

    let nic_indices: Vec<usize> = base
        .lambdas
        .iter()
        .enumerate()
        .filter(|(_, l)| plan.target_of(l.id.0) == Some(Target::Nic))
        .map(|(i, _)| i)
        .collect();
    let subset = subset_program(base, &nic_indices);
    let firmware = Arc::new(compile(&subset, &cfg.compile).expect("initial NIC subset compiles"));
    for (worker, host) in bed.workers.iter().zip(&bed.worker_hosts) {
        bed.sim
            .get_mut::<Nic>(worker.component)
            .expect("worker is a NIC")
            .install_now(Arc::clone(&firmware));
        bed.sim.post(
            host.expect("hybrid testbed"),
            SimDuration::ZERO,
            DeployProgram::unfenced(Arc::clone(base)),
        );
    }
    for (i, lambda) in base.lambdas.iter().enumerate() {
        bed.place(lambda.id.0, i % bed.workers.len());
    }
    (statics, plan)
}

/// Installs a profile-guided placement control plane on a hybrid
/// testbed: lays down the static first-fit split of
/// [`install_static_split`], then starts a [`Placer`] that corrects it
/// online from observed traffic.
///
/// # Panics
///
/// Panics when the testbed is not hybrid (every worker must have a host
/// backend behind its NIC) or the initial NIC subset fails to compile.
pub fn attach_placer(bed: &mut Testbed, base: &Arc<Program>, cfg: PlacerConfig) -> ComponentId {
    let (statics, plan) = install_static_split(bed, base, &cfg);

    let mut current = BTreeMap::new();
    for &wid in &plan.nic {
        current.insert(wid, Target::Nic);
    }
    for &wid in &plan.host {
        current.insert(wid, Target::Host);
    }

    let workers: Vec<(ComponentId, lnic::gateway::WorkerEndpoint)> = bed
        .workers
        .iter()
        .map(|w| (w.component, w.endpoint()))
        .collect();
    let placer = Placer::new(
        cfg,
        bed.gateway,
        workers,
        Arc::clone(base),
        statics,
        current,
    );
    let id = bed.sim.add(placer);
    bed.sim.post(id, SimDuration::ZERO, StartPlacer);
    id
}
