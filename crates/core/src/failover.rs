//! Worker health checking and failover (§7's fault-tolerance story).
//!
//! λ-NIC keeps serving through SmartNIC failures with two cooperating
//! mechanisms: the gateway's weakly-consistent transport retransmits
//! lost requests (§4.2-D3), and the framework re-deploys the lambdas of
//! a failed worker onto survivors. The [`FailoverController`] implements
//! the second half: it heartbeats every worker over the management
//! network, declares a worker dead after `missed_beats` consecutive
//! silent probes, withdraws the dead worker's endpoints from the
//! gateway, re-places its home workloads onto the next live worker, and
//! re-admits the worker when its heartbeats return.
//!
//! Probes are [`HealthPing`] control messages delivered directly to the
//! worker component (the out-of-band management NIC port, not the data
//! plane), so a congested data path never looks like a death — only a
//! crashed or long-stalled worker does.
//!
//! # Leases and fencing ([`FailoverConfig::fencing`])
//!
//! Heartbeat liveness alone is unsafe under network partitions: a
//! worker the controller cannot reach may still be serving traffic, and
//! re-placing its workloads creates two live owners (split brain). With
//! fencing enabled the controller instead grants **bounded leases**
//! carrying monotonically increasing **epochs**
//! ([`GrantLease`](lnic_sim::fault::GrantLease)):
//!
//! - A worker serves only while its lease is live, and stamps its epoch
//!   on every reply; work carrying an older epoch is refused with
//!   `RC_FENCED`.
//! - The controller stops renewing after [`FailoverConfig::missed_beats`]
//!   silent rounds and re-places only once the last granted lease has
//!   **provably expired** — there is no instant at which the old owner
//!   still accepts work and a new owner exists.
//! - Fencing raises the gateway's reply floor to `epoch + 1`
//!   ([`crate::gateway::FenceWorker`]), so late replies from the fenced
//!   epoch can never complete a re-placed request twice.
//! - A healed worker rejoins through a lease-renewal handshake that
//!   bumps its epoch past the fence and drops its pre-partition queue.
//!
//! With [`FailoverConfig::snapshot_interval`] set, the controller also
//! serializes its membership + placement state to a stable snapshot on
//! a cadence and writes it through on every fence/rejoin transition, so
//! a crash-restarted control plane ([`lnic_sim::fault::Crash`] /
//! [`lnic_sim::fault::Restart`]) resumes from the last snapshot and
//! reconciles against worker-reported epochs ([`EpochQuery`]).
//!
//! The lease round, the liveness tally, and the crash/restart/partition
//! lifecycle are the shared membership core in [`crate::lease`]; the
//! gateway tier's [`crate::gwtier::TierController`] runs on the same
//! core. This controller adds what is worker-specific: endpoints,
//! placements, and the fail-slow detector.

use lnic_net::transport::UpdateService;
use lnic_sim::fault::{EpochQuery, EpochReport, HealthPing, HealthPong, LeaseAck};
use lnic_sim::hash::FastMap;
use lnic_sim::prelude::*;

use crate::gateway::{
    AddPlacement, EndpointLatencyReport, FenceWorker, RemoveWorkerEndpoints, SetWorkerEpoch,
    WorkerEndpoint,
};
use crate::lease::{ControlPlane, ControllerView, Decision, Grant, Member, Membership, Timing};

/// Health-check timing and thresholds.
#[derive(Clone, Copy, Debug)]
pub struct FailoverConfig {
    /// Interval between heartbeat rounds.
    pub heartbeat_interval: SimDuration,
    /// Consecutive missed heartbeats before a worker is declared dead.
    pub missed_beats: u32,
    /// Fail-slow threshold: a worker whose EWMA request latency exceeds
    /// the cluster median by this factor accrues a slow strike.
    pub slow_factor: f64,
    /// Consecutive outlier latency reports before quarantine.
    pub slow_strikes: u32,
    /// How long a quarantined worker sits out before being re-admitted
    /// with a clean latency history.
    pub quarantine_probation: SimDuration,
    /// EWMA smoothing weight given to each new latency report.
    pub ewma_alpha: f64,
    /// Replace heartbeat liveness with lease-based membership + epoch
    /// fencing (see the module docs). Off by default: legacy testbeds
    /// keep the exact ping/pong behaviour.
    pub fencing: bool,
    /// Validity of each granted lease. A suspected worker is fenced
    /// only once its last granted lease has provably expired.
    pub lease_duration: SimDuration,
    /// When set, serialize controller state to a stable snapshot on
    /// this cadence (and on every fence/rejoin transition), enabling
    /// crash-restart recovery of the control plane.
    pub snapshot_interval: Option<SimDuration>,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        let heartbeat_interval = SimDuration::from_millis(50);
        let missed_beats: u32 = 3;
        FailoverConfig {
            heartbeat_interval,
            missed_beats,
            lease_duration: heartbeat_interval * missed_beats as u64,
            slow_factor: 4.0,
            slow_strikes: 3,
            quarantine_probation: SimDuration::from_millis(500),
            ewma_alpha: 0.3,
            fencing: false,
            snapshot_interval: None,
        }
    }
}

impl FailoverConfig {
    /// Enables lease-based membership with epoch fencing.
    pub fn fenced(self) -> Self {
        FailoverConfig {
            fencing: true,
            ..self
        }
    }

    /// Enables periodic stable snapshots of controller state.
    pub fn with_snapshots(self, interval: SimDuration) -> Self {
        FailoverConfig {
            snapshot_interval: Some(interval),
            ..self
        }
    }
}

/// Control message: start the heartbeat loop.
#[derive(Debug)]
pub struct StartFailover;

/// Self-timer: a quarantined worker's probation is over.
#[derive(Debug)]
struct ProbationEnd {
    worker: usize,
}

/// What happened, for post-run inspection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailoverEventKind {
    /// A worker stopped answering heartbeats and was evicted.
    WorkerDead {
        /// Index of the worker in the controller's table.
        worker: usize,
    },
    /// A dead worker's heartbeats returned and it was re-admitted.
    WorkerRecovered {
        /// Index of the worker in the controller's table.
        worker: usize,
    },
    /// A workload's primary placement moved.
    Replaced {
        /// The workload.
        workload_id: u32,
        /// Previous home worker.
        from: usize,
        /// New home worker.
        to: usize,
    },
    /// A worker still answering heartbeats was ejected for fail-slow
    /// behaviour (gray failure): its EWMA latency was an outlier
    /// against the cluster median.
    Quarantined {
        /// Index of the worker in the controller's table.
        worker: usize,
    },
    /// A quarantined worker finished probation and was re-admitted.
    QuarantineLifted {
        /// Index of the worker in the controller's table.
        worker: usize,
    },
}

/// A timestamped [`FailoverEventKind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailoverEvent {
    /// When the controller acted.
    pub at: SimTime,
    /// What it did.
    pub kind: FailoverEventKind,
}

/// Failover statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailoverCounters {
    /// Workers declared dead.
    pub deaths: u64,
    /// Workers re-admitted after recovery.
    pub recoveries: u64,
    /// Workload placements moved off dead workers.
    pub replacements: u64,
    /// Workers quarantined by the fail-slow detector.
    pub quarantines: u64,
    /// Quarantines lifted after probation.
    pub quarantine_lifts: u64,
}

/// Worker-only state, indexed like the control plane's member table
/// (which holds the lease view and the liveness tally).
struct WorkerHealth {
    endpoint: WorkerEndpoint,
    alive: bool,
    /// EWMA of reported request latency, in ns (None until first report).
    ewma_ns: Option<f64>,
    /// Consecutive reports in which this worker was a latency outlier.
    slow_strikes: u32,
    /// Ejected by the fail-slow detector (still answers heartbeats).
    quarantined: bool,
}

/// Stable-storage image of the controller's membership + placement
/// state. Written through on every fence/rejoin so restored epochs are
/// exact; leases are volatile and re-bounded at restore.
#[derive(Clone)]
struct Snapshot {
    seq: u64,
    /// Per-worker `(epoch, fenced, alive)`.
    workers: Vec<(u64, bool, bool)>,
    home: Vec<(u32, usize)>,
    origin: Vec<(u32, usize)>,
}

/// The health-check + failover controller component: a worker-tier
/// adapter over the shared lease-membership core ([`crate::lease`]).
pub struct FailoverController {
    cfg: FailoverConfig,
    /// Every gateway shard, primary first: each mirrors every
    /// gateway-directed reconfiguration (placement withdrawals, worker
    /// epochs, fence floors, re-placements), so all of them stop
    /// routing at a dead worker.
    gateways: Vec<ComponentId>,
    workers: Vec<WorkerHealth>,
    /// Member table, lease views, and the crash/restart lifecycle.
    plane: ControlPlane,
    /// Current primary home of each workload (index into `workers`).
    home: FastMap<u32, usize>,
    /// Where each workload was homed at setup (restored on recovery).
    origin: FastMap<u32, usize>,
    counters: FailoverCounters,
    events: Vec<FailoverEvent>,
    /// Last stable snapshot (survives crashes — modeled stable storage).
    stable: Option<Snapshot>,
    /// Workload → service id routes to broadcast ([`UpdateService`])
    /// when a re-placement moves the workload.
    service_routes: FastMap<u32, u16>,
}

impl FailoverController {
    /// Creates a controller over `workers` (component + gateway-visible
    /// endpoint) that reconfigures every gateway in `gateways` (primary
    /// first) on failures.
    pub fn new(
        cfg: FailoverConfig,
        gateways: Vec<ComponentId>,
        workers: Vec<(ComponentId, WorkerEndpoint)>,
    ) -> Self {
        let (members, workers) = workers
            .into_iter()
            .map(|(component, endpoint)| {
                (
                    // Epoch 0 until the fencing regime starts.
                    Member::new(component, 0),
                    WorkerHealth {
                        endpoint,
                        alive: true,
                        ewma_ns: None,
                        slow_strikes: 0,
                        quarantined: false,
                    },
                )
            })
            .unzip();
        let timing = Timing {
            round: cfg.heartbeat_interval,
            lease: cfg.lease_duration,
            miss_threshold: cfg.missed_beats,
            snapshot_interval: cfg.snapshot_interval,
        };
        FailoverController {
            cfg,
            gateways,
            workers,
            plane: ControlPlane::new(members, timing),
            home: FastMap::default(),
            origin: FastMap::default(),
            counters: FailoverCounters::default(),
            events: Vec::new(),
            stable: None,
            service_routes: FastMap::default(),
        }
    }

    /// Registers an additional gateway shard that must mirror every
    /// gateway-directed reconfiguration (a gateway tier enabled after
    /// the controller calls this for each new shard).
    pub fn add_gateway(&mut self, gateway: ComponentId) {
        if !self.gateways.contains(&gateway) {
            self.gateways.push(gateway);
        }
    }

    /// Sends one reconfiguration to every gateway shard, primary first.
    fn broadcast<M: Message>(&self, ctx: &mut Ctx<'_>, msg: impl Fn() -> M) {
        for &gw in &self.gateways {
            ctx.send(gw, SimDuration::ZERO, msg());
        }
    }

    /// Records that `workload_id` is served by worker `worker` (its home
    /// for re-placement purposes). Call during setup, mirroring the
    /// placements registered with the gateway.
    pub fn track_placement(&mut self, workload_id: u32, worker: usize) {
        assert!(worker < self.workers.len(), "worker index out of range");
        self.home.insert(workload_id, worker);
        self.origin.insert(workload_id, worker);
    }

    /// Records that `workload_id` is callable as lambda-RPC service
    /// `service`. When a re-placement moves the workload, the controller
    /// broadcasts the new endpoint to every worker's service table
    /// ([`UpdateService`]), so in-flight RPC retries chase the live
    /// endpoint instead of retransmitting at the evicted one.
    pub fn track_service(&mut self, workload_id: u32, service: u16) {
        self.service_routes.insert(workload_id, service);
    }

    /// The fencing token worker `worker` was last seen holding.
    pub fn worker_epoch(&self, worker: usize) -> u64 {
        self.plane.members[worker].view.epoch
    }

    /// Whether worker `worker` is currently fenced.
    pub fn is_fenced(&self, worker: usize) -> bool {
        self.plane.members[worker].view.fenced
    }

    /// Sequence number of the last stable snapshot taken (0 = none).
    pub fn snapshot_seq(&self) -> u64 {
        self.plane.snapshot_seq()
    }

    /// Whether the control plane is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.plane.is_crashed()
    }

    /// Statistics.
    pub fn counters(&self) -> FailoverCounters {
        self.counters
    }

    /// Timestamped log of deaths, recoveries, and re-placements.
    pub fn events(&self) -> &[FailoverEvent] {
        &self.events
    }

    /// Whether worker `worker` is currently considered alive.
    pub fn is_alive(&self, worker: usize) -> bool {
        self.workers[worker].alive
    }

    /// The current primary home of a workload, if tracked.
    pub fn home_of(&self, workload_id: u32) -> Option<usize> {
        self.home.get(&workload_id).copied()
    }

    fn record(&mut self, ctx: &Ctx<'_>, kind: FailoverEventKind) {
        self.events.push(FailoverEvent {
            at: ctx.now(),
            kind,
        });
    }

    /// Heartbeat-only round (fencing off): act on deaths, then probe.
    fn round_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.workers.len() {
            let member = &mut self.plane.members[i];
            member.tally();
            if self.workers[i].alive && member.missed >= self.cfg.missed_beats {
                self.declare_dead(ctx, i);
            }
        }
        let reply_to = ctx.self_id();
        for m in &self.plane.members {
            ctx.send(m.component, SimDuration::ZERO, HealthPing { reply_to });
        }
    }

    /// Lease round (fencing on): renew, probe fenced workers for
    /// rejoin, and fence suspects whose last lease provably expired.
    fn round_fenced(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        for i in 0..self.workers.len() {
            self.plane.members[i].tally();
            match self.plane.decide(i, now, false) {
                Decision::Grant(grant) => self.send_grant(ctx, i, grant),
                Decision::Fence => self.fence_worker(ctx, i),
                Decision::Hold => {}
            }
        }
    }

    /// Traces and sends a grant (or rejoin probe). Grants are direct
    /// zero-delay control messages, so the `lease_until` the view
    /// recorded is exactly what the worker adopts when the grant is
    /// delivered; a lost grant only leaves the worker with a *shorter*
    /// lease.
    fn send_grant(&mut self, ctx: &mut Ctx<'_>, idx: usize, grant: Grant) {
        let worker = idx as u32;
        let (epoch, until_ns) = (grant.epoch, grant.until.as_nanos());
        ctx.emit(|| TraceEvent::LeaseGrant {
            worker,
            epoch,
            until_ns,
        });
        self.plane.send_grant(ctx, idx, grant);
    }

    /// Acts on a worker the round fenced (its lease provably expired):
    /// raise the gateways' reply floor, withdraw its endpoints, re-home
    /// its workloads, and persist the membership transition.
    fn fence_worker(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let epoch = self.plane.members[idx].view.epoch;
        let worker = idx as u32;
        let component = self.plane.members[idx].component.index() as u32;
        ctx.emit(|| TraceEvent::LeaseExpire { worker, epoch });
        ctx.emit(|| TraceEvent::WorkerFenced {
            worker,
            component,
            epoch,
        });
        let mac = self.workers[idx].endpoint.mac;
        self.broadcast(ctx, || FenceWorker {
            mac,
            floor_epoch: epoch + 1,
        });
        self.declare_dead(ctx, idx);
        self.write_through(ctx);
    }

    /// Broadcasts the new endpoint of a re-placed service workload to
    /// every worker's service table.
    fn broadcast_service_route(&mut self, ctx: &mut Ctx<'_>, workload_id: u32, target: usize) {
        let Some(&service) = self.service_routes.get(&workload_id) else {
            return;
        };
        let ep = self.workers[target].endpoint;
        let update = UpdateService {
            service,
            mac: ep.mac,
            addr: ep.addr,
        };
        for m in &self.plane.members {
            ctx.send(m.component, SimDuration::ZERO, update);
        }
    }

    fn on_lease_ack(&mut self, ctx: &mut Ctx<'_>, ack: &LeaseAck) {
        let now = ctx.now();
        let Some(idx) = self.plane.member_of(now, ack.from) else {
            return;
        };
        if !self.plane.ack(idx, now, ack.epoch) {
            return;
        }
        // Rejoin handshake complete: the worker adopted the bumped
        // epoch and dropped its pre-partition queue. The probe carried
        // no serving time, so issue the real lease now.
        self.workers[idx].alive = true;
        self.counters.recoveries += 1;
        self.record(ctx, FailoverEventKind::WorkerRecovered { worker: idx });
        let worker = idx as u32;
        let component = ack.from.index() as u32;
        let epoch = ack.epoch;
        ctx.emit(|| TraceEvent::WorkerRejoin {
            worker,
            component,
            epoch,
        });
        let mac = self.workers[idx].endpoint.mac;
        self.broadcast(ctx, || SetWorkerEpoch { mac, epoch });
        let grant = self.plane.members[idx]
            .view
            .grant(now, self.cfg.lease_duration);
        self.send_grant(ctx, idx, grant);
        self.hand_back(ctx, idx);
        self.write_through(ctx);
    }

    /// A worker's answer to the restore-time [`EpochQuery`].
    fn on_epoch_report(&mut self, ctx: &mut Ctx<'_>, report: &EpochReport) {
        let Some(idx) = self.plane.member_of(ctx.now(), report.from) else {
            return;
        };
        let view = &mut self.plane.members[idx].view;
        let until = SimTime::from_nanos(report.lease_until_ns);
        if view.reconcile(report.epoch, until) {
            // The worker completed a rejoin the snapshot missed. Its
            // gateway placements survived the controller crash, so no
            // handback is needed — only the bookkeeping catches up.
            if view.fenced {
                view.fenced = false;
                self.workers[idx].alive = true;
            }
            self.plane.count_reconciled();
            let mac = self.workers[idx].endpoint.mac;
            let epoch = report.epoch;
            self.broadcast(ctx, || SetWorkerEpoch { mac, epoch });
        }
    }

    fn declare_dead(&mut self, ctx: &mut Ctx<'_>, dead: usize) {
        self.workers[dead].alive = false;
        self.counters.deaths += 1;
        self.record(ctx, FailoverEventKind::WorkerDead { worker: dead });
        // Stop routing anything (originals or retransmissions) at the
        // blackhole.
        self.evict(ctx, dead);
    }

    /// Withdraws a worker's endpoints from every gateway and re-places
    /// the workloads homed on it.
    fn evict(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let mac = self.workers[idx].endpoint.mac;
        self.broadcast(ctx, || RemoveWorkerEndpoints { mac });
        self.replace_orphans(ctx, idx);
    }

    /// Re-places the workloads homed on `from` onto healthy survivors,
    /// spreading round-robin from the next index so one eviction does
    /// not pile every orphan onto a single node.
    fn replace_orphans(&mut self, ctx: &mut Ctx<'_>, from: usize) {
        let n = self.workers.len();
        let orphans: Vec<u32> = self
            .home
            .iter()
            .filter(|&(_, &h)| h == from)
            .map(|(&wid, _)| wid)
            .collect();
        let mut sorted = orphans;
        sorted.sort_unstable();
        for (k, wid) in sorted.into_iter().enumerate() {
            let Some(target) = (1..n)
                .map(|step| (from + k + step) % n)
                .find(|&i| self.workers[i].alive && !self.workers[i].quarantined)
            else {
                continue; // no survivors: leave it homed, unplaced
            };
            self.home.insert(wid, target);
            self.counters.replacements += 1;
            self.record(
                ctx,
                FailoverEventKind::Replaced {
                    workload_id: wid,
                    from,
                    to: target,
                },
            );
            let endpoint = self.workers[target].endpoint;
            self.broadcast(ctx, || AddPlacement {
                workload_id: wid,
                endpoint,
            });
            // Inter-worker RPC tables must chase the re-placement too,
            // or retries keep hammering the evicted endpoint.
            self.broadcast_service_route(ctx, wid, target);
        }
    }

    fn on_pong(&mut self, ctx: &mut Ctx<'_>, from: ComponentId) {
        let Some(idx) = self.plane.member_of(ctx.now(), from) else {
            return;
        };
        self.plane.members[idx].heard();
        if self.workers[idx].alive {
            return;
        }
        // Recovery: re-admit and hand back the workloads that
        // originally lived here (survivor replicas keep serving too, so
        // the handback is hitless).
        self.workers[idx].alive = true;
        self.counters.recoveries += 1;
        self.record(ctx, FailoverEventKind::WorkerRecovered { worker: idx });
        self.hand_back(ctx, idx);
    }

    /// Hands the workloads that originally lived on `idx` back to it,
    /// re-registering its endpoint with the gateway.
    fn hand_back(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let endpoint = self.workers[idx].endpoint;
        let mut homecoming: Vec<u32> = self
            .origin
            .iter()
            .filter(|&(_, &o)| o == idx)
            .map(|(&wid, _)| wid)
            .collect();
        homecoming.sort_unstable();
        for wid in homecoming {
            let from = self.home.insert(wid, idx).unwrap_or(idx);
            if from != idx {
                self.counters.replacements += 1;
                self.record(
                    ctx,
                    FailoverEventKind::Replaced {
                        workload_id: wid,
                        from,
                        to: idx,
                    },
                );
            }
            self.broadcast(ctx, || AddPlacement {
                workload_id: wid,
                endpoint,
            });
            self.broadcast_service_route(ctx, wid, idx);
        }
    }

    /// Consumes a gateway latency feed report: updates per-worker
    /// EWMAs, compares each against the cluster median, and quarantines
    /// a worker that stays an outlier for `slow_strikes` consecutive
    /// reports. Heartbeats cannot see this failure mode — a fail-slow
    /// worker still answers pings promptly.
    fn on_latency_report(&mut self, ctx: &mut Ctx<'_>, report: &EndpointLatencyReport) {
        let alpha = self.cfg.ewma_alpha;
        for &(mac, mean_ns, count) in &report.samples {
            if count == 0 {
                continue;
            }
            let Some(idx) = self.workers.iter().position(|w| w.endpoint.mac == mac) else {
                continue;
            };
            let w = &mut self.workers[idx];
            if !w.alive || w.quarantined {
                continue;
            }
            w.ewma_ns = Some(match w.ewma_ns {
                Some(prev) => alpha * mean_ns as f64 + (1.0 - alpha) * prev,
                None => mean_ns as f64,
            });
        }
        // Judge each candidate against the median EWMA of the healthy
        // set; a lone outlier cannot drag the median toward itself as
        // long as the majority is healthy.
        let mut ewmas: Vec<f64> = self
            .workers
            .iter()
            .filter(|w| w.alive && !w.quarantined)
            .filter_map(|w| w.ewma_ns)
            .collect();
        if ewmas.len() < 3 {
            return; // not enough peers for a meaningful median
        }
        ewmas.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ewmas[ewmas.len() / 2];
        if median <= 0.0 {
            return;
        }
        for i in 0..self.workers.len() {
            {
                let w = &mut self.workers[i];
                if !w.alive || w.quarantined {
                    continue;
                }
                let Some(ewma) = w.ewma_ns else { continue };
                if ewma > self.cfg.slow_factor * median {
                    w.slow_strikes += 1;
                } else {
                    w.slow_strikes = 0;
                    continue;
                }
            }
            if self.workers[i].slow_strikes >= self.cfg.slow_strikes {
                let ewma = self.workers[i].ewma_ns.unwrap_or(0.0);
                self.quarantine(ctx, i, ewma as u64, median as u64);
            }
        }
    }

    /// Ejects a fail-slow worker: withdraw its endpoints, re-place its
    /// workloads, and start the probation clock. The worker stays
    /// `alive` — it still answers heartbeats — so death/recovery logic
    /// is untouched.
    fn quarantine(&mut self, ctx: &mut Ctx<'_>, idx: usize, ewma_ns: u64, median_ns: u64) {
        self.workers[idx].quarantined = true;
        self.workers[idx].slow_strikes = 0;
        self.counters.quarantines += 1;
        self.record(ctx, FailoverEventKind::Quarantined { worker: idx });
        ctx.emit(|| TraceEvent::EndpointQuarantine {
            worker: idx as u32,
            ewma_ns,
            median_ns,
        });
        self.evict(ctx, idx);
        ctx.send_self(self.cfg.quarantine_probation, ProbationEnd { worker: idx });
    }

    fn on_probation_end(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let w = &mut self.workers[idx];
        if !w.quarantined {
            return;
        }
        // Re-admit with a clean latency history; if it is still slow it
        // will be caught again within `slow_strikes` reports.
        w.quarantined = false;
        w.ewma_ns = None;
        w.slow_strikes = 0;
        self.counters.quarantine_lifts += 1;
        self.record(ctx, FailoverEventKind::QuarantineLifted { worker: idx });
        if self.workers[idx].alive {
            self.hand_back(ctx, idx);
        }
    }
}

impl Membership for FailoverController {
    const FAULT_KINDS: (&'static str, &'static str) = ("crash", "restart");

    fn plane(&mut self) -> &mut ControlPlane {
        &mut self.plane
    }

    /// With fencing, establishes the epoch regime: every worker starts
    /// at 1 and the gateways stamp that token on requests routed at it.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if !self.cfg.fencing {
            return;
        }
        for i in 0..self.workers.len() {
            self.plane.members[i].view.epoch = 1;
            let mac = self.workers[i].endpoint.mac;
            self.broadcast(ctx, || SetWorkerEpoch { mac, epoch: 1 });
        }
    }

    /// One round of the liveness loop: tally the previous round's
    /// silences, act on deaths (or lease expiries), then probe (or
    /// grant) again.
    fn on_round(&mut self, ctx: &mut Ctx<'_>) {
        // A restore completed last turn; every reachable worker's
        // zero-delay EpochReport has arrived by now.
        if let Some((seq, reconciled)) = self.plane.restore_pending.take() {
            ctx.emit(|| TraceEvent::SnapshotRestored { seq, reconciled });
        }
        if self.cfg.fencing {
            self.round_fenced(ctx);
        } else {
            self.round_heartbeat(ctx);
        }
    }

    /// Serializes membership + placement state to the stable snapshot.
    fn on_snapshot(&mut self, ctx: &mut Ctx<'_>) {
        let seq = self.plane.next_snapshot_seq();
        let mut home: Vec<(u32, usize)> = self.home.iter().map(|(&k, &v)| (k, v)).collect();
        home.sort_unstable();
        let mut origin: Vec<(u32, usize)> = self.origin.iter().map(|(&k, &v)| (k, v)).collect();
        origin.sort_unstable();
        let workers: Vec<(u64, bool, bool)> = self
            .plane
            .members
            .iter()
            .zip(&self.workers)
            .map(|(m, w)| (m.view.epoch, m.view.fenced, w.alive))
            .collect();
        let n_workers = workers.len() as u64;
        let placements = home.len() as u64;
        self.stable = Some(Snapshot {
            seq,
            workers,
            home,
            origin,
        });
        ctx.emit(|| TraceEvent::SnapshotTaken {
            seq,
            workers: n_workers,
            placements,
        });
    }

    /// Restores membership + placement bookkeeping from the last stable
    /// snapshot, re-bounds every worker's lease (no grant was sent while
    /// crashed, so every pre-crash lease expires within one lease
    /// duration), re-asserts epoch/floor state at the gateways, and
    /// queries workers for epochs the snapshot may have missed.
    /// Placements are NOT re-issued — gateway placement state survived,
    /// and re-placing would violate conservation.
    fn on_restore(&mut self, ctx: &mut Ctx<'_>) {
        let Some(snap) = self.stable.clone() else {
            return;
        };
        self.home = snap.home.into_iter().collect();
        self.origin = snap.origin.into_iter().collect();
        let now = ctx.now();
        let reply_to = ctx.self_id();
        for (i, &(epoch, fenced, alive)) in snap.workers.iter().enumerate() {
            let member = &mut self.plane.members[i];
            member.view =
                ControllerView::restore(epoch, fenced, SimTime::ZERO, now, self.cfg.lease_duration);
            member.clear_tally();
            let component = member.component;
            self.workers[i].alive = alive;
            let mac = self.workers[i].endpoint.mac;
            self.broadcast(ctx, || SetWorkerEpoch { mac, epoch });
            if fenced {
                self.broadcast(ctx, || FenceWorker {
                    mac,
                    floor_epoch: epoch + 1,
                });
                self.broadcast(ctx, || RemoveWorkerEndpoints { mac });
            }
            ctx.send(component, SimDuration::ZERO, EpochQuery { reply_to });
        }
        self.plane.restore_pending = Some((snap.seq, 0));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let msg = match msg.downcast::<StartFailover>() {
            Ok(_) => {
                self.start(ctx);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<LeaseAck>() {
            Ok(ack) => {
                self.on_lease_ack(ctx, &ack);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<EpochReport>() {
            Ok(report) => {
                self.on_epoch_report(ctx, &report);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<EndpointLatencyReport>() {
            Ok(report) => {
                self.on_latency_report(ctx, &report);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<ProbationEnd>() {
            Ok(p) => {
                self.on_probation_end(ctx, p.worker);
                return;
            }
            Err(other) => other,
        };
        match msg.downcast::<HealthPong>() {
            Ok(pong) => self.on_pong(ctx, pong.from),
            Err(other) => panic!("failover controller received unknown message {other:?}"),
        }
    }
}

impl Component for FailoverController {
    fn name(&self) -> &str {
        "failover-controller"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        self.dispatch(ctx, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sink;

    impl Component for Sink {
        fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: AnyMessage) {}
    }

    #[test]
    fn track_placement_sets_home_and_origin() {
        let mut sim = Simulation::new(1);
        let gw = sim.add(Sink);
        let mk = |sim: &mut Simulation, i: u32| {
            (
                sim.add(Sink),
                WorkerEndpoint {
                    mac: lnic_net::MacAddr::from_index(10 + i),
                    addr: lnic_net::SocketAddr::new(lnic_net::Ipv4Addr::node(2 + i as u8), 8000),
                },
            )
        };
        let w0 = mk(&mut sim, 0);
        let w1 = mk(&mut sim, 1);
        let mut ctl = FailoverController::new(FailoverConfig::default(), vec![gw], vec![w0, w1]);
        ctl.track_placement(7, 1);
        assert_eq!(ctl.home_of(7), Some(1));
        assert!(ctl.is_alive(0) && ctl.is_alive(1));
    }
}
