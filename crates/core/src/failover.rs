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
//! carrying monotonically increasing **epochs** ([`GrantLease`]):
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

use lnic_net::transport::UpdateService;
use lnic_net::MacAddr;
use lnic_sim::fault::{
    Crash, EpochQuery, EpochReport, GrantLease, HealthPing, HealthPong, LeaseAck, NetCutFrom,
    Restart,
};
use lnic_sim::hash::FastMap;
use lnic_sim::prelude::*;

use crate::gateway::{
    AddPlacement, EndpointLatencyReport, FenceWorker, RemoveWorkerEndpoints, SetWorkerEpoch,
    WorkerEndpoint,
};

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

/// A re-placement request routed to a placement planner instead of being
/// applied directly (see [`FailoverController::with_planner`]): the
/// controller has withdrawn a dead worker's endpoints (or seen a worker
/// recover) and asks the planner to decide where the workload should
/// live now.
#[derive(Clone, Copy, Debug)]
pub struct ReplanRequest {
    /// The workload needing a (re-)placement decision.
    pub workload_id: u32,
    /// The worker the event originated on (the dead worker, or the
    /// recovered one).
    pub from_worker: usize,
    /// `false`: the worker died and the workload is orphaned. `true`:
    /// the worker recovered and its original workloads may come home.
    pub recovered: bool,
}

#[derive(Debug)]
struct Beat {
    /// Generation at arming; a crash-restart bumps the generation so
    /// pre-crash timers cannot double the beat loop.
    gen: u64,
}

/// Self-timer: take the next periodic stable snapshot.
#[derive(Debug)]
struct SnapTick {
    gen: u64,
}

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
    /// Heartbeat rounds completed.
    pub beats: u64,
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

struct WorkerHealth {
    component: ComponentId,
    endpoint: WorkerEndpoint,
    /// Consecutive silent heartbeat rounds.
    missed: u32,
    /// Answered the probe of the current round.
    ponged: bool,
    alive: bool,
    /// EWMA of reported request latency, in ns (None until first report).
    ewma_ns: Option<f64>,
    /// Consecutive reports in which this worker was a latency outlier.
    slow_strikes: u32,
    /// Ejected by the fail-slow detector (still answers heartbeats).
    quarantined: bool,
    /// The worker's fencing token (fencing mode; 0 before the regime
    /// starts, then ≥ 1, bumped on every rejoin).
    epoch: u64,
    /// Expiry of the last lease granted to this worker, as recorded at
    /// grant time. An upper bound on the worker's own view: lost grants
    /// only make the worker's lease *shorter*.
    lease_until: SimTime,
    /// Fenced: lease provably expired, placements re-homed, awaiting
    /// the rejoin handshake.
    fenced: bool,
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

/// The health-check + failover controller component.
pub struct FailoverController {
    cfg: FailoverConfig,
    gateway: ComponentId,
    workers: Vec<WorkerHealth>,
    /// Current primary home of each workload (index into `workers`).
    home: FastMap<u32, usize>,
    /// Where each workload was homed at setup (restored on recovery).
    origin: FastMap<u32, usize>,
    started: bool,
    counters: FailoverCounters,
    events: Vec<FailoverEvent>,
    /// When set, death/recovery re-placement decisions are delegated to
    /// this planner via [`ReplanRequest`] instead of applied directly.
    planner: Option<ComponentId>,
    /// Peers this controller is partitioned from (by component index),
    /// and until when; their acks/pongs/reports are dropped.
    cut_from: FastMap<usize, SimTime>,
    /// Crashed control plane: silent until a [`Restart`].
    crashed: bool,
    /// Last stable snapshot (survives crashes — modeled stable storage).
    stable: Option<Snapshot>,
    /// Monotonic snapshot sequence (also survives crashes).
    snap_seq: u64,
    /// Current beat-timer generation (see [`Beat`]).
    beat_gen: u64,
    /// Current snapshot-timer generation.
    snap_gen: u64,
    /// Monotonic lease-grant sequence.
    lease_seq: u64,
    /// Workload → service id routes to broadcast ([`UpdateService`])
    /// when a re-placement moves the workload.
    service_routes: FastMap<u32, u16>,
    /// A restore happened; emit `SnapshotRestored` (with the count of
    /// workers whose reported epoch was ahead) on the next beat, after
    /// the zero-delay [`EpochReport`]s have arrived.
    restore_pending: Option<(u64, u64)>,
    /// Additional gateway shards mirroring every gateway-directed
    /// reconfiguration — placement withdrawals, worker epochs, fence
    /// floors, re-placements. A gateway tier registers its extra shards
    /// here so all of them stop routing at a dead worker, not just the
    /// primary.
    extra_gateways: Vec<ComponentId>,
}

impl FailoverController {
    /// Creates a controller over `workers` (component + gateway-visible
    /// endpoint) that reconfigures `gateway` on failures.
    pub fn new(
        cfg: FailoverConfig,
        gateway: ComponentId,
        workers: Vec<(ComponentId, WorkerEndpoint)>,
    ) -> Self {
        FailoverController {
            cfg,
            gateway,
            workers: workers
                .into_iter()
                .map(|(component, endpoint)| WorkerHealth {
                    component,
                    endpoint,
                    missed: 0,
                    ponged: false,
                    alive: true,
                    ewma_ns: None,
                    slow_strikes: 0,
                    quarantined: false,
                    epoch: 0,
                    lease_until: SimTime::ZERO,
                    fenced: false,
                })
                .collect(),
            home: FastMap::default(),
            origin: FastMap::default(),
            started: false,
            counters: FailoverCounters::default(),
            events: Vec::new(),
            planner: None,
            cut_from: FastMap::default(),
            crashed: false,
            stable: None,
            snap_seq: 0,
            beat_gen: 0,
            snap_gen: 0,
            lease_seq: 0,
            service_routes: FastMap::default(),
            restore_pending: None,
            extra_gateways: Vec::new(),
        }
    }

    /// Registers an additional gateway shard that must mirror every
    /// gateway-directed reconfiguration (the gateway tier calls this
    /// for each shard beyond the primary).
    pub fn add_gateway(&mut self, gateway: ComponentId) {
        if gateway != self.gateway && !self.extra_gateways.contains(&gateway) {
            self.extra_gateways.push(gateway);
        }
    }

    /// Sends a worker-epoch update to every gateway shard.
    fn set_epoch_all(&self, ctx: &mut Ctx<'_>, mac: MacAddr, epoch: u64) {
        ctx.send(
            self.gateway,
            SimDuration::ZERO,
            SetWorkerEpoch { mac, epoch },
        );
        for &gw in &self.extra_gateways {
            ctx.send(gw, SimDuration::ZERO, SetWorkerEpoch { mac, epoch });
        }
    }

    /// Installs a reply-fence floor for a worker at every gateway shard.
    fn fence_all(&self, ctx: &mut Ctx<'_>, mac: MacAddr, floor_epoch: u64) {
        ctx.send(
            self.gateway,
            SimDuration::ZERO,
            FenceWorker { mac, floor_epoch },
        );
        for &gw in &self.extra_gateways {
            ctx.send(gw, SimDuration::ZERO, FenceWorker { mac, floor_epoch });
        }
    }

    /// Withdraws a worker's endpoints from every gateway shard.
    fn remove_endpoints_all(&self, ctx: &mut Ctx<'_>, mac: MacAddr) {
        ctx.send(
            self.gateway,
            SimDuration::ZERO,
            RemoveWorkerEndpoints { mac },
        );
        for &gw in &self.extra_gateways {
            ctx.send(gw, SimDuration::ZERO, RemoveWorkerEndpoints { mac });
        }
    }

    /// Adds a replica placement at every gateway shard.
    fn add_placement_all(&self, ctx: &mut Ctx<'_>, workload_id: u32, endpoint: WorkerEndpoint) {
        ctx.send(
            self.gateway,
            SimDuration::ZERO,
            AddPlacement {
                workload_id,
                endpoint,
            },
        );
        for &gw in &self.extra_gateways {
            ctx.send(
                gw,
                SimDuration::ZERO,
                AddPlacement {
                    workload_id,
                    endpoint,
                },
            );
        }
    }

    /// Delegates post-crash and post-recovery re-placement to a
    /// placement planner: instead of re-homing workloads itself, the
    /// controller sends the planner one [`ReplanRequest`] per affected
    /// workload (endpoint withdrawal for dead workers still happens
    /// immediately — a blackhole must never stay routable).
    pub fn with_planner(mut self, planner: ComponentId) -> Self {
        self.planner = Some(planner);
        self
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
        self.workers[worker].epoch
    }

    /// Whether worker `worker` is currently fenced.
    pub fn is_fenced(&self, worker: usize) -> bool {
        self.workers[worker].fenced
    }

    /// Sequence number of the last stable snapshot taken (0 = none).
    pub fn snapshot_seq(&self) -> u64 {
        self.snap_seq
    }

    /// Whether the control plane is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
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

    /// Whether worker `worker` is currently quarantined as fail-slow.
    pub fn is_quarantined(&self, worker: usize) -> bool {
        self.workers[worker].quarantined
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

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.started {
            return;
        }
        self.started = true;
        if self.cfg.fencing {
            // Establish the epoch regime: every worker starts at 1 and
            // the gateway stamps that token on requests routed at it.
            for i in 0..self.workers.len() {
                self.workers[i].epoch = 1;
                let mac = self.workers[i].endpoint.mac;
                self.set_epoch_all(ctx, mac, 1);
            }
        }
        if let Some(interval) = self.cfg.snapshot_interval {
            self.take_snapshot(ctx);
            let gen = self.snap_gen;
            ctx.send_self(interval, SnapTick { gen });
        }
        self.on_beat(ctx);
    }

    /// One round of the liveness loop: tally the previous round's
    /// silences, act on deaths (or lease expiries), then probe (or
    /// grant) again.
    fn on_beat(&mut self, ctx: &mut Ctx<'_>) {
        self.counters.beats += 1;
        // A restore completed last turn; every reachable worker's
        // zero-delay EpochReport has arrived by now.
        if let Some((seq, reconciled)) = self.restore_pending.take() {
            ctx.emit(|| TraceEvent::SnapshotRestored { seq, reconciled });
        }
        for i in 0..self.workers.len() {
            let w = &mut self.workers[i];
            if w.ponged {
                w.missed = 0;
            } else {
                w.missed = w.missed.saturating_add(1);
            }
            w.ponged = false;
        }
        if self.cfg.fencing {
            self.beat_fencing(ctx);
        } else {
            self.beat_legacy(ctx);
        }
        let gen = self.beat_gen;
        ctx.send_self(self.cfg.heartbeat_interval, Beat { gen });
    }

    fn beat_legacy(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.workers.len() {
            if self.workers[i].alive && self.workers[i].missed >= self.cfg.missed_beats {
                self.declare_dead(ctx, i);
            }
        }
        let seq = self.counters.beats;
        let reply_to = ctx.self_id();
        for i in 0..self.workers.len() {
            ctx.send(
                self.workers[i].component,
                SimDuration::ZERO,
                HealthPing { seq, reply_to },
            );
        }
    }

    fn beat_fencing(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        for i in 0..self.workers.len() {
            if self.workers[i].fenced {
                // Rejoin probe: idempotent until the worker acks with
                // the bumped epoch (a partitioned worker never sees it).
                let epoch = self.workers[i].epoch + 1;
                self.send_grant(ctx, i, epoch, true);
                continue;
            }
            if self.workers[i].missed >= self.cfg.missed_beats {
                // Suspected: stop extending the lease. Fencing is safe
                // only once the last granted lease has provably expired
                // — before that instant the worker may still be serving.
                if crate::lease::provably_expired(now, self.workers[i].lease_until) {
                    self.fence_worker(ctx, i);
                }
                continue;
            }
            let epoch = self.workers[i].epoch;
            self.send_grant(ctx, i, epoch, false);
        }
    }

    /// Grants (or probes, for `rejoin`) a lease. Grants are direct
    /// zero-delay control messages, so the `lease_until` recorded here
    /// is exactly what the worker adopts when the grant is delivered;
    /// a lost grant only leaves the worker with a *shorter* lease.
    fn send_grant(&mut self, ctx: &mut Ctx<'_>, idx: usize, epoch: u64, rejoin: bool) {
        self.lease_seq += 1;
        // A rejoin probe carries an already-expired lease: the worker
        // adopts the bumped epoch but earns serving time only after its
        // ack round-trips.
        let until = if rejoin {
            ctx.now()
        } else {
            ctx.now() + self.cfg.lease_duration
        };
        if !rejoin {
            self.workers[idx].lease_until = self.workers[idx].lease_until.max(until);
        }
        let worker = idx as u32;
        let until_ns = until.as_nanos();
        ctx.emit(|| TraceEvent::LeaseGrant {
            worker,
            epoch,
            until_ns,
        });
        let reply_to = ctx.self_id();
        ctx.send(
            self.workers[idx].component,
            SimDuration::ZERO,
            GrantLease {
                epoch,
                until_ns,
                seq: self.lease_seq,
                rejoin,
                reply_to,
            },
        );
    }

    /// Fences a worker whose lease provably expired: raise the
    /// gateway's reply floor, withdraw its endpoints, re-home its
    /// workloads, and persist the membership transition.
    fn fence_worker(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let epoch = self.workers[idx].epoch;
        self.workers[idx].fenced = true;
        self.workers[idx].alive = false;
        self.counters.deaths += 1;
        self.record(ctx, FailoverEventKind::WorkerDead { worker: idx });
        let worker = idx as u32;
        let component = self.workers[idx].component.index() as u32;
        ctx.emit(|| TraceEvent::LeaseExpire { worker, epoch });
        ctx.emit(|| TraceEvent::WorkerFenced {
            worker,
            component,
            epoch,
        });
        let mac = self.workers[idx].endpoint.mac;
        self.fence_all(ctx, mac, epoch + 1);
        self.remove_endpoints_all(ctx, mac);
        self.replace_orphans(ctx, idx);
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
        for w in &self.workers {
            ctx.send(w.component, SimDuration::ZERO, update);
        }
    }

    /// Serializes membership + placement state to the stable snapshot.
    fn take_snapshot(&mut self, ctx: &mut Ctx<'_>) {
        self.snap_seq += 1;
        let seq = self.snap_seq;
        let mut home: Vec<(u32, usize)> = self.home.iter().map(|(&k, &v)| (k, v)).collect();
        home.sort_unstable();
        let mut origin: Vec<(u32, usize)> = self.origin.iter().map(|(&k, &v)| (k, v)).collect();
        origin.sort_unstable();
        let workers: Vec<(u64, bool, bool)> = self
            .workers
            .iter()
            .map(|w| (w.epoch, w.fenced, w.alive))
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

    /// Persists a membership transition immediately (fence/rejoin), so
    /// restored epochs are never stale. No-op when snapshotting is off.
    fn write_through(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.snapshot_interval.is_some() {
            self.take_snapshot(ctx);
        }
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        ctx.emit(|| TraceEvent::Fault {
            kind: "crash",
            detail: 0,
        });
    }

    /// Restarts the control plane from the last stable snapshot:
    /// restore membership + placement bookkeeping, re-bound every
    /// worker's lease (no grant was sent while crashed, so every
    /// pre-crash lease expires within one lease duration), re-assert
    /// epoch/floor state at the gateway, and query workers for epochs
    /// the snapshot may have missed. Placements are NOT re-issued —
    /// gateway placement state survived, and re-placing would violate
    /// conservation.
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        if !self.crashed {
            return;
        }
        self.crashed = false;
        ctx.emit(|| TraceEvent::Fault {
            kind: "restart",
            detail: 0,
        });
        // Pre-crash timers must not double the loops.
        self.beat_gen += 1;
        self.snap_gen += 1;
        if !self.started {
            return;
        }
        if let Some(snap) = self.stable.clone() {
            self.home = snap.home.into_iter().collect();
            self.origin = snap.origin.into_iter().collect();
            let reply_to = ctx.self_id();
            for (i, &(epoch, fenced, alive)) in snap.workers.iter().enumerate() {
                let w = &mut self.workers[i];
                w.epoch = epoch;
                w.fenced = fenced;
                w.alive = alive;
                w.missed = 0;
                w.ponged = false;
                w.lease_until = ctx.now() + self.cfg.lease_duration;
                let mac = w.endpoint.mac;
                self.set_epoch_all(ctx, mac, epoch);
                if fenced {
                    self.fence_all(ctx, mac, epoch + 1);
                    self.remove_endpoints_all(ctx, mac);
                }
                ctx.send(
                    self.workers[i].component,
                    SimDuration::ZERO,
                    EpochQuery { reply_to },
                );
            }
            self.restore_pending = Some((snap.seq, 0));
        }
        let gen = self.beat_gen;
        ctx.send_self(self.cfg.heartbeat_interval, Beat { gen });
        if let Some(interval) = self.cfg.snapshot_interval {
            let gen = self.snap_gen;
            ctx.send_self(interval, SnapTick { gen });
        }
    }

    fn on_lease_ack(&mut self, ctx: &mut Ctx<'_>, ack: &LeaseAck) {
        let Some(idx) = self.workers.iter().position(|w| w.component == ack.from) else {
            return;
        };
        if self.is_cut_from(ctx.now(), ack.from) {
            return;
        }
        let w = &mut self.workers[idx];
        w.ponged = true;
        w.missed = 0;
        if w.fenced && ack.epoch > w.epoch {
            // Rejoin handshake complete: the worker adopted the bumped
            // epoch and dropped its pre-partition queue. The probe
            // carried no serving time, so issue the real lease now.
            w.epoch = ack.epoch;
            w.fenced = false;
            w.alive = true;
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
            self.set_epoch_all(ctx, mac, epoch);
            self.send_grant(ctx, idx, epoch, false);
            self.hand_back(ctx, idx);
            self.write_through(ctx);
        } else if ack.epoch > w.epoch {
            // Tokens never regress; adopt the fresher view.
            w.epoch = ack.epoch;
        }
    }

    fn on_epoch_report(&mut self, ctx: &mut Ctx<'_>, report: &EpochReport) {
        let Some(idx) = self.workers.iter().position(|w| w.component == report.from) else {
            return;
        };
        if self.is_cut_from(ctx.now(), report.from) {
            return;
        }
        let w = &mut self.workers[idx];
        if report.epoch > w.epoch {
            // The worker completed a rejoin the snapshot missed. Its
            // gateway placements survived the controller crash, so no
            // handback is needed — only the bookkeeping catches up.
            w.epoch = report.epoch;
            if w.fenced {
                w.fenced = false;
                w.alive = true;
            }
            if let Some((_, reconciled)) = self.restore_pending.as_mut() {
                *reconciled += 1;
            }
            let mac = w.endpoint.mac;
            let epoch = report.epoch;
            self.set_epoch_all(ctx, mac, epoch);
        }
        if report.lease_until_ns > 0 {
            let until = SimTime::from_nanos(report.lease_until_ns);
            let w = &mut self.workers[idx];
            w.lease_until = w.lease_until.max(until);
        }
    }

    /// Whether a message from `peer` is inside an active partition cut.
    fn is_cut_from(&self, now: SimTime, peer: ComponentId) -> bool {
        self.cut_from
            .get(&peer.index())
            .is_some_and(|&until| now < until)
    }

    fn declare_dead(&mut self, ctx: &mut Ctx<'_>, dead: usize) {
        self.workers[dead].alive = false;
        self.counters.deaths += 1;
        self.record(ctx, FailoverEventKind::WorkerDead { worker: dead });
        // Stop routing anything (originals or retransmissions) at the
        // blackhole.
        self.remove_endpoints_all(ctx, self.workers[dead].endpoint.mac);
        self.replace_orphans(ctx, dead);
    }

    /// Re-places the workloads homed on `from` onto healthy survivors,
    /// spreading round-robin from the next index so one eviction does
    /// not pile every orphan onto a single node. Delegates to the
    /// planner instead when one is installed.
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
        if let Some(planner) = self.planner {
            // The planner owns re-placement: hand it one request per
            // orphan. `home` is left pointing at the evicted worker so
            // the recovery handback below still knows the origin.
            for wid in sorted {
                ctx.send(
                    planner,
                    SimDuration::ZERO,
                    ReplanRequest {
                        workload_id: wid,
                        from_worker: from,
                        recovered: false,
                    },
                );
            }
            return;
        }
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
            self.add_placement_all(ctx, wid, self.workers[target].endpoint);
            // Inter-worker RPC tables must chase the re-placement too,
            // or retries keep hammering the evicted endpoint.
            self.broadcast_service_route(ctx, wid, target);
        }
    }

    fn on_pong(&mut self, ctx: &mut Ctx<'_>, from: ComponentId) {
        let Some(idx) = self.workers.iter().position(|w| w.component == from) else {
            return;
        };
        if self.is_cut_from(ctx.now(), from) {
            return;
        }
        let w = &mut self.workers[idx];
        w.ponged = true;
        w.missed = 0;
        if w.alive {
            return;
        }
        // Recovery: re-admit and hand back the workloads that
        // originally lived here (survivor replicas keep serving too, so
        // the handback is hitless).
        w.alive = true;
        self.counters.recoveries += 1;
        self.record(ctx, FailoverEventKind::WorkerRecovered { worker: idx });
        self.hand_back(ctx, idx);
    }

    /// Hands the workloads that originally lived on `idx` back to it,
    /// re-registering its endpoint with the gateway (or asking the
    /// planner to decide, when one is installed).
    fn hand_back(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let endpoint = self.workers[idx].endpoint;
        let mut homecoming: Vec<u32> = self
            .origin
            .iter()
            .filter(|&(_, &o)| o == idx)
            .map(|(&wid, _)| wid)
            .collect();
        homecoming.sort_unstable();
        if let Some(planner) = self.planner {
            for wid in homecoming {
                ctx.send(
                    planner,
                    SimDuration::ZERO,
                    ReplanRequest {
                        workload_id: wid,
                        from_worker: idx,
                        recovered: true,
                    },
                );
            }
            return;
        }
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
            self.add_placement_all(ctx, wid, endpoint);
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
        self.remove_endpoints_all(ctx, self.workers[idx].endpoint.mac);
        self.replace_orphans(ctx, idx);
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

impl Component for FailoverController {
    fn name(&self) -> &str {
        "failover-controller"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        // Fault controls model process/network state and act even while
        // the process is down.
        let msg = match msg.downcast::<Crash>() {
            Ok(_) => {
                self.on_crash(ctx);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<Restart>() {
            Ok(_) => {
                self.on_restart(ctx);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<NetCutFrom>() {
            Ok(cut) => {
                let until = ctx.now() + cut.duration;
                for peer in &cut.peers {
                    let slot = self.cut_from.entry(peer.index()).or_insert(until);
                    *slot = (*slot).max(until);
                }
                return;
            }
            Err(other) => other,
        };
        if self.crashed {
            // Messages addressed to a crashed process die with it.
            return;
        }
        let msg = match msg.downcast::<StartFailover>() {
            Ok(_) => {
                self.on_start(ctx);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<Beat>() {
            Ok(beat) => {
                if beat.gen == self.beat_gen {
                    self.on_beat(ctx);
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<SnapTick>() {
            Ok(tick) => {
                if tick.gen == self.snap_gen {
                    self.take_snapshot(ctx);
                    if let Some(interval) = self.cfg.snapshot_interval {
                        let gen = self.snap_gen;
                        ctx.send_self(interval, SnapTick { gen });
                    }
                }
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
        let mut ctl = FailoverController::new(FailoverConfig::default(), gw, vec![w0, w1]);
        ctl.track_placement(7, 1);
        assert_eq!(ctl.home_of(7), Some(1));
        assert!(ctl.is_alive(0) && ctl.is_alive(1));
    }
}
