//! The λ-NIC gateway: proxies user requests to workers and implements
//! the sender side of the weakly-consistent transport (§4.2-D3).
//!
//! The gateway "inserts the ID of the destined lambda as a new header"
//! (§4.1) on every request, fragments large payloads into RDMA writes,
//! tracks outstanding RPCs with timeout-based retransmission, and
//! stamps the wire-to-wire latency on every completion it returns — the
//! measurement Figures 6–8 report. As a host process, the gateway has
//! finite per-request processing capacity, modeled as serialized
//! occupancy (`proxy_cost`), which is what bounds λ-NIC's aggregate
//! throughput in Table 2.

use std::sync::Arc;

use bytes::Bytes;

use lnic_net::frag::fragment;
use lnic_net::packet::{
    LambdaHdr, LambdaKind, Packet, RC_EXPIRED, RC_FENCED, RC_OVERLOADED, RC_REDIRECT,
};
use lnic_net::params::MTU_PAYLOAD_BYTES;
use lnic_net::transport::{RetryPolicy, UpdateService};
use lnic_net::{Ipv4Addr, MacAddr, SocketAddr};
use lnic_sim::fault::{Crash, EpochQuery, GrantLease, LeaseAck, NetCutFrom, Restart};
use lnic_sim::hash::FastMap;
use lnic_sim::lease::{CutTable, WorkerView};
use lnic_sim::prelude::*;
use lnic_tenant::{TenantDirectory, TenantId, DEFAULT_TENANT};
use lnic_workloads::kv::{decode_repkv_get_response, decode_repkv_request, RepKvOp};

use crate::admission::{Admission, AdmissionParams};

/// How often the gateway pushes per-endpoint latency digests to its
/// latency observer (the fail-slow detector).
const LAT_FLUSH_INTERVAL: SimDuration = SimDuration::from_millis(10);

/// Where a deployed workload lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerEndpoint {
    /// Worker MAC.
    pub mac: MacAddr,
    /// Worker UDP endpoint.
    pub addr: SocketAddr,
}

/// Gateway configuration.
#[derive(Clone, Debug)]
pub struct GatewayParams {
    /// The gateway's MAC.
    pub mac: MacAddr,
    /// The gateway's IP.
    pub ip: Ipv4Addr,
    /// The gateway's UDP port.
    pub port: u16,
    /// Per-request proxy processing time (serialized; the gateway is one
    /// host process).
    pub proxy_cost: SimDuration,
    /// Per-response processing time.
    pub response_cost: SimDuration,
    /// Retransmission timeout.
    pub rpc_timeout: SimDuration,
    /// Total attempts per request.
    pub rpc_attempts: u32,
    /// Full retransmission policy. `None` uses the legacy fixed policy
    /// built from `rpc_timeout`/`rpc_attempts`.
    pub retry: Option<RetryPolicy>,
    /// Admission control (token buckets + concurrency cap). `None`
    /// admits everything.
    pub admission: Option<AdmissionParams>,
    /// Deadline attached to every request, relative to its submission.
    /// Propagated as an absolute instant in the lambda header, enforced
    /// at admission (infeasible deadlines are shed), at retry scheduling,
    /// and at worker dequeue. `None` disables deadlines.
    pub default_deadline: Option<SimDuration>,
    /// Hedged requests. `None` disables hedging.
    pub hedge: Option<HedgeParams>,
}

/// Hedged-request configuration.
///
/// After the per-workload adaptive delay — the observed p95 of the
/// latency stats window, floored at `min_delay` — a still-outstanding
/// request is re-sent to a *different* replica. The first response wins;
/// the loser's response is suppressed as a duplicate.
#[derive(Clone, Copy, Debug)]
pub struct HedgeParams {
    /// Floor on the hedge delay (also used until the stats window has
    /// `min_samples` observations).
    pub min_delay: SimDuration,
    /// Samples required before the adaptive p95 delay is trusted.
    pub min_samples: usize,
}

impl Default for HedgeParams {
    fn default() -> Self {
        HedgeParams {
            min_delay: SimDuration::from_micros(200),
            min_samples: 20,
        }
    }
}

impl Default for GatewayParams {
    fn default() -> Self {
        GatewayParams {
            mac: MacAddr::from_index(1),
            ip: Ipv4Addr::node(1),
            port: 7000,
            proxy_cost: SimDuration::from_micros(15),
            response_cost: SimDuration::from_micros(2),
            rpc_timeout: SimDuration::from_millis(200),
            rpc_attempts: 3,
            retry: None,
            admission: None,
            default_deadline: None,
            hedge: None,
        }
    }
}

impl GatewayParams {
    /// A failure-tolerant preset: exponential backoff with seeded jitter
    /// and a per-request deadline, sized from `rpc_timeout` and
    /// `rpc_attempts`. Use this in chaos experiments so retries from many
    /// clients do not re-synchronize against a recovering worker.
    pub fn resilient(self) -> Self {
        GatewayParams {
            retry: Some(RetryPolicy::exponential(
                self.rpc_timeout,
                self.rpc_attempts,
            )),
            ..self
        }
    }

    /// The tail-tolerance preset: admission control sized to
    /// `rate_per_sec` sustained per workload, a global in-flight cap, a
    /// `deadline` on every request, and hedging at the observed p95.
    /// Use this in overload experiments; the protected arm of
    /// `overload_tail` is exactly this configuration.
    pub fn tail_tolerant(
        self,
        rate_per_sec: f64,
        max_in_flight: usize,
        deadline: SimDuration,
    ) -> Self {
        GatewayParams {
            admission: Some(AdmissionParams {
                rate_per_sec,
                burst: (rate_per_sec / 100.0).max(16.0),
                max_in_flight,
            }),
            default_deadline: Some(deadline),
            hedge: Some(HedgeParams::default()),
            ..self
        }
    }
}

/// Ask the gateway to issue one request to a workload.
#[derive(Debug)]
pub struct SubmitRequest {
    /// Target workload.
    pub workload_id: u32,
    /// Request payload.
    pub payload: Bytes,
    /// Who receives the [`RequestDone`].
    pub reply_to: ComponentId,
    /// Opaque token echoed back.
    pub token: u64,
}

/// Control message: set (replace) a workload's placement.
#[derive(Debug)]
pub struct SetPlacement {
    /// The workload.
    pub workload_id: u32,
    /// Where it is served.
    pub endpoint: WorkerEndpoint,
}

/// Control message: add a *replica* placement; requests round-robin
/// across all replicas (used by the autoscaler to scale out).
#[derive(Debug)]
pub struct AddPlacement {
    /// The workload.
    pub workload_id: u32,
    /// The additional replica.
    pub endpoint: WorkerEndpoint,
}

/// Control message: remove one replica of a workload from a worker (by
/// MAC); the inverse of [`AddPlacement`], used by the autoscaler to
/// scale in. Removing a replica that does not exist is a no-op.
#[derive(Debug)]
pub struct RemovePlacement {
    /// The workload.
    pub workload_id: u32,
    /// MAC of the worker losing a replica.
    pub mac: MacAddr,
}

/// Control message: drop every placement pointing at a worker (by MAC).
///
/// Sent by the failover controller when a worker is declared dead so no
/// new request — original or retransmission — is routed at a blackhole.
#[derive(Debug)]
pub struct RemoveWorkerEndpoints {
    /// MAC of the dead worker.
    pub mac: MacAddr,
}

/// Control message: record the fencing token a worker currently serves
/// under. Every subsequent request routed at that worker carries this
/// epoch in its lambda header; the worker refuses anything older.
///
/// Sent by the failover controller at lease establishment and again
/// after a fenced worker rejoins with a bumped epoch.
#[derive(Debug)]
pub struct SetWorkerEpoch {
    /// The worker (by MAC).
    pub mac: MacAddr,
    /// Its current fencing token.
    pub epoch: u64,
}

/// Control message: fence a worker at the gateway. Replies arriving
/// from this worker with an epoch below `floor_epoch` are discarded —
/// they were produced under a lease that has since been revoked, and
/// accepting them could complete a request the controller already
/// re-placed (a double side effect).
#[derive(Debug)]
pub struct FenceWorker {
    /// The worker (by MAC).
    pub mac: MacAddr,
    /// Minimum acceptable reply epoch (the fenced epoch + 1).
    pub floor_epoch: u64,
}

/// Control message: ask the gateway for per-workload statistics since
/// the last query; it replies with a [`StatsReport`].
#[derive(Debug)]
pub struct QueryStats {
    /// Where to send the report.
    pub reply_to: ComponentId,
}

/// Per-workload statistics over the window since the previous
/// [`QueryStats`].
#[derive(Clone, Debug)]
pub struct StatsReport {
    /// `(workload id, latency summary, replica count)` per workload with
    /// traffic in the window.
    pub workloads: Vec<(u32, lnic_sim::metrics::Summary, usize)>,
}

/// Completion notification for a [`SubmitRequest`].
#[derive(Clone, Debug)]
pub struct RequestDone {
    /// The submitter's token.
    pub token: u64,
    /// The workload that served it.
    pub workload_id: u32,
    /// Wire-to-wire latency (first transmission to response arrival).
    pub latency: SimDuration,
    /// Client-observed sojourn: submit to completion, including time
    /// queued behind the gateway proxy (zero for shed requests).
    pub sojourn: SimDuration,
    /// The lambda's return code (`None` if the request failed outright).
    pub return_code: Option<u16>,
    /// The response payload (empty on failure).
    pub response: Bytes,
    /// Whether the transport gave up after exhausting retries.
    pub failed: bool,
}

/// Gateway statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatewayCounters {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests that exhausted their retry budget.
    pub failed: u64,
    /// Retransmissions sent.
    pub retransmitted: u64,
    /// Requests rejected for lack of a placement.
    pub unplaced: u64,
    /// Requests shed at admission (token bucket, concurrency cap, or
    /// infeasible deadline).
    pub shed: u64,
    /// Requests whose worker reported the deadline expired at dequeue.
    pub expired: u64,
    /// Hedge attempts sent to a second replica.
    pub hedges_fired: u64,
    /// Requests whose winning response came from the hedge replica.
    pub hedges_won: u64,
    /// `RC_FENCED` replies: a worker refused the attempt because its
    /// lease lapsed or the carried token was stale.
    pub fenced_replies: u64,
    /// Late replies discarded because they carried an epoch below the
    /// worker's fence floor.
    pub stale_replies: u64,
    /// `RC_REDIRECT` replies: a replicated service's non-leader replica
    /// bounced the attempt; the gateway retried it elsewhere.
    pub redirected_replies: u64,
    /// Requests shed because their tenant's in-flight quota was full.
    pub tenant_quota_shed: u64,
    /// Routed submits bounced back to the shard router because this
    /// shard was fenced, draining, or deposed from the tier.
    pub bounced: u64,
    /// In-flight requests handed to a successor shard during a drain.
    pub handed_off: u64,
    /// In-flight requests adopted from a draining peer shard.
    pub adopted: u64,
}

/// Control message installing the tenant directory: the gateway stamps
/// every outgoing header with the workload's owning tenant, enforces
/// per-tenant in-flight quotas at admission, and announces the
/// assignments as `TenantAssign` trace events (the ground truth the
/// isolation invariants check executions against).
#[derive(Clone, Debug)]
pub struct RegisterTenants {
    /// The shared workload→tenant directory.
    pub dir: Arc<TenantDirectory>,
}

/// Control message: the tier controller asks this gateway shard to
/// drain — hand every in-flight request to `successor` as an
/// [`AdoptRequest`] and bounce subsequent submits with reason
/// `"draining"` so the shard router re-routes them under the new shard
/// map. The shard serves again only after a rejoin lease grant.
#[derive(Clone, Copy, Debug)]
pub struct DrainGateway {
    /// The gateway component adopting the in-flight work.
    pub successor: ComponentId,
    /// The successor's gateway id (trace attribution).
    pub successor_gateway: u32,
}

/// A draining shard's report to the tier controller of how many
/// in-flight requests it handed to its successor — the controller's
/// handoff ledger, conserved across controller snapshot/restore
/// (checker rule 15 audits the ledger against observed `GwHandoff`
/// events).
#[derive(Clone, Copy, Debug)]
pub struct HandoffReport {
    /// The reporting (draining) gateway component.
    pub from: ComponentId,
    /// The draining shard's id.
    pub from_gateway: u32,
    /// The adopting shard's id.
    pub to_gateway: u32,
    /// Requests handed over.
    pub count: u64,
}

/// Control message: the tier controller assigns this shard its slice of
/// the tier-wide admission budget (rebalanced on every membership
/// change). A shard partitioned from the controller simply keeps its
/// last slice — the local fallback that keeps total admission under the
/// global budget even when the control plane is unreachable.
#[derive(Clone, Copy, Debug)]
pub struct SetAdmissionSlice {
    /// The controller (partition check).
    pub from: ComponentId,
    /// Per-workload sustained admit rate for this shard.
    pub rate_per_sec: f64,
    /// Token-bucket depth for this shard.
    pub burst: f64,
}

/// Gateway-to-gateway handoff of one in-flight request during a drain.
///
/// Adoption bypasses admission — the work was already admitted at the
/// draining shard, and double-charging the token bucket would shed
/// requests that were promised service — but keeps the original
/// absolute deadline so handoff never extends a request's budget.
#[derive(Debug)]
pub struct AdoptRequest {
    /// Target workload.
    pub workload_id: u32,
    /// Request payload.
    pub payload: Bytes,
    /// Who receives the [`RequestDone`] (the shard router).
    pub reply_to: ComponentId,
    /// The submitter's token (the router's client uid).
    pub token: u64,
    /// Original absolute deadline in ns (0 = none).
    pub deadline_ns: u64,
    /// The draining gateway handing the request over.
    pub from_gateway: u32,
}

#[derive(Debug)]
struct GwTimeout {
    request_id: u64,
    /// Timer generation at arming; a mismatch at firing means the
    /// request was already retried through another path (e.g. an
    /// `RC_FENCED` fast retry) and this timer is stale.
    gen: u64,
}

/// Self-timer: consider hedging a still-outstanding request.
#[derive(Debug)]
struct GwHedge {
    request_id: u64,
}

/// Self-timer: flush per-endpoint latency digests to the observer.
#[derive(Debug)]
struct GwLatFlush;

/// Per-endpoint latency digest pushed by the gateway to its latency
/// observer (the failover controller's fail-slow detector), sorted by
/// MAC for determinism.
#[derive(Clone, Debug)]
pub struct EndpointLatencyReport {
    /// `(worker MAC, mean latency over the window in ns, sample count)`.
    pub samples: Vec<(MacAddr, u64, u64)>,
}

/// One routed request, the sender side of the weakly-consistent
/// transport (§4.2-D3). It is admitted at dispatch (attempt 1), each
/// retransmission moves it to attempt k + 1, a hedge marks it hedged,
/// and every way out (completed, failed, handed off, lost in a crash)
/// goes through [`Gateway::retire`].
struct InFlight {
    /// The targeted lambda.
    workload_id: u32,
    /// Request payload, kept for retransmission, hedging and handoff.
    payload: Bytes,
    /// When the first attempt left the gateway (latency origin).
    first_sent_at: SimTime,
    /// Attempts sent so far (1 = original only; a hedge is not one).
    attempts: u32,
    /// The submitter's token.
    token: u64,
    /// Who receives the [`RequestDone`].
    reply_to: ComponentId,
    /// The owning tenant (in-flight quota accounting).
    tenant_id: TenantId,
    /// When the client's submit arrived (sojourn measurement origin).
    submitted_at: SimTime,
    /// Absolute deadline carried in the lambda header (0 = none).
    deadline_ns: u64,
    /// The replica the original attempt targeted.
    primary_mac: MacAddr,
    /// Whether a hedge has been sent for this request.
    hedged: bool,
    /// Current retransmission-timer generation (see [`GwTimeout`]).
    timer_gen: u64,
    /// The armed retransmission timer, cancelled when a newer attempt
    /// re-arms it or the request retires.
    timer: Option<TimerId>,
    /// The replicated-KV op `(write, value)`, for the `KvResponse`
    /// emitted when the request resolves.
    kv_op: Option<(bool, u64)>,
}

/// The gateway component.
pub struct Gateway {
    params: GatewayParams,
    uplink: ComponentId,
    placements: FastMap<u32, Vec<WorkerEndpoint>>,
    rr: FastMap<u32, usize>,
    /// Latency samples since the last stats query, per workload.
    window: FastMap<u32, Series>,
    /// Retransmission timers and the give-up rule.
    policy: RetryPolicy,
    /// The next request id to issue (ids are never reused, not even
    /// across a crash).
    next_id: u64,
    /// Every routed request not yet retired, by request id.
    in_flight: FastMap<u64, InFlight>,
    /// Responses for a request already retired.
    duplicates: u64,
    /// Serialized proxy occupancy.
    busy_until: SimTime,
    counters: GatewayCounters,
    next_ident: u16,
    /// Admission gate (None admits everything).
    admission: Option<Admission>,
    /// Last queue depth each worker advertised in a response header;
    /// used for join-shortest-advertised-queue replica selection.
    endpoint_depth: FastMap<MacAddr, u16>,
    /// Per-endpoint latency accumulator `(sum_ns, count)` since the
    /// last flush to the latency observer.
    pending_lat: FastMap<MacAddr, (u64, u64)>,
    /// Who receives [`EndpointLatencyReport`]s (the fail-slow detector).
    latency_observer: Option<ComponentId>,
    /// Whether a `GwLatFlush` timer is currently armed.
    lat_timer_armed: bool,
    /// The fencing token each worker currently serves under; stamped
    /// into the lambda header of every request routed at it (0 when the
    /// worker is outside any lease regime).
    worker_epochs: FastMap<MacAddr, u64>,
    /// Minimum acceptable reply epoch per fenced worker; older replies
    /// are discarded to prevent double-completion after re-placement.
    fence_floors: FastMap<MacAddr, u64>,
    /// Replicated workloads: workload id → replica-group service id.
    /// Their requests emit `KvInvoke`/`KvResponse` trace events (the
    /// linearizability checker's history) and follow leader routing.
    replicated: FastMap<u32, u16>,
    /// Last announced leader MAC per replicated workload; preferred by
    /// `pick_endpoint` while it remains in the placement list.
    preferred_leader: FastMap<u32, MacAddr>,
    /// The tenant directory; `None` stamps everything [`DEFAULT_TENANT`].
    tenants: Option<Arc<TenantDirectory>>,
    /// In-flight requests per tenant (quota enforcement); a record
    /// holds its tenant's slot until it is retired.
    tenant_in_flight: FastMap<TenantId, usize>,
    /// This gateway's shard id within a gateway tier (0 standalone).
    gateway_id: u32,
    /// Crashed: every message except [`Restart`] is blackholed.
    crashed: bool,
    /// Control-plane partition: direct messages from cut peers are
    /// dropped.
    cuts: CutTable,
    /// The tier lease this shard holds. Once enrolled by a first grant
    /// the shard self-fences whenever its lease lapses — including
    /// after a crash, which lapses the lease and keeps its epoch — so a
    /// deposed gateway provably stops accepting routed work.
    tier_lease: WorkerView,
    /// Draining: in-flight work was handed to this successor; new
    /// submits bounce until a rejoin grant re-admits the shard.
    draining: Option<ComponentId>,
    /// Restart count, carried in every [`LeaseAck`]. A jump tells the
    /// tier controller this shard lost its in-flight state even though
    /// it never missed enough heartbeats to be deposed, triggering
    /// proactive client re-adoption at the router.
    incarnation: u64,
    /// The tier controller, learned from the first lease grant (kept
    /// across crashes — it re-identifies itself on the next grant).
    tier_controller: Option<ComponentId>,
}

impl Gateway {
    /// Creates a gateway sending through `uplink`.
    pub fn new(params: GatewayParams, uplink: ComponentId) -> Self {
        let mut policy = params
            .retry
            .unwrap_or_else(|| RetryPolicy::fixed(params.rpc_timeout, params.rpc_attempts));
        assert!(policy.max_attempts >= 1, "at least one attempt is required");
        // The propagated deadline also bounds the retry schedule: no
        // retransmission is armed past it.
        if let Some(d) = params.default_deadline {
            policy.deadline = Some(match policy.deadline {
                Some(p) => p.min(d),
                None => d,
            });
        }
        let admission = params.admission.map(Admission::new);
        Gateway {
            params,
            uplink,
            placements: FastMap::default(),
            rr: FastMap::default(),
            window: FastMap::default(),
            policy,
            next_id: 1,
            in_flight: FastMap::default(),
            duplicates: 0,
            busy_until: SimTime::ZERO,
            counters: GatewayCounters::default(),
            next_ident: 0,
            admission,
            endpoint_depth: FastMap::default(),
            pending_lat: FastMap::default(),
            latency_observer: None,
            lat_timer_armed: false,
            worker_epochs: FastMap::default(),
            fence_floors: FastMap::default(),
            replicated: FastMap::default(),
            preferred_leader: FastMap::default(),
            tenants: None,
            tenant_in_flight: FastMap::default(),
            gateway_id: 0,
            crashed: false,
            cuts: CutTable::default(),
            tier_lease: WorkerView::new(),
            draining: None,
            incarnation: 0,
            tier_controller: None,
        }
    }

    /// Assigns this gateway's shard id within a gateway tier and moves
    /// its request-id space to `id << 48`, so ids minted by different
    /// shards never collide and every trace event is attributable to
    /// its gateway by the id's high bits. Id 0 keeps the legacy id
    /// space, so single-gateway traces are byte-identical. Must be
    /// called before any request is submitted.
    #[must_use]
    pub fn with_gateway_id(mut self, id: u32) -> Self {
        assert!(id < (1 << 16), "gateway id must fit the 16-bit id prefix");
        self.gateway_id = id;
        self.next_id = (u64::from(id) << 48) + 1;
        self
    }

    /// This gateway's shard id (0 when standalone).
    pub fn gateway_id(&self) -> u32 {
        self.gateway_id
    }

    /// Admission statistics `(admitted, rejected)`, when admission is
    /// configured.
    pub fn admission_stats(&self) -> Option<(u64, u64)> {
        self.admission
            .as_ref()
            .map(|a| (a.admitted(), a.rejected()))
    }

    /// The per-workload admission rate currently in force (a tier
    /// budget slice, or the locally configured rate).
    pub fn admission_rate(&self) -> Option<f64> {
        self.admission.as_ref().map(|a| a.rate_per_sec())
    }

    /// The owning tenant of a workload per the installed directory.
    fn tenant_of(&self, workload_id: u32) -> TenantId {
        self.tenants
            .as_ref()
            .map_or(DEFAULT_TENANT, |d| d.tenant_of(workload_id))
    }

    /// Removes a request's record, cancels its retransmission timer and
    /// releases its tenant's in-flight quota slot. Every terminal path
    /// goes through here: completed, expired, gave up, placement vanished,
    /// handed off, and crash.
    fn retire(&mut self, ctx: &mut Ctx<'_>, request_id: u64) -> Option<InFlight> {
        let mut rec = self.in_flight.remove(&request_id)?;
        if let Some(timer) = rec.timer.take() {
            ctx.cancel(timer);
        }
        if let Some(n) = self.tenant_in_flight.get_mut(&rec.tenant_id) {
            *n = n.saturating_sub(1);
        }
        Some(rec)
    }

    /// Marks a workload as a replicated KV service: its requests are
    /// routed leader-first (following [`UpdateService`] announcements),
    /// `RC_REDIRECT` bounces are retried against other replicas, and
    /// every operation emits the `KvInvoke`/`KvResponse` trace pair the
    /// online linearizability checker consumes.
    pub fn track_replicated(&mut self, workload_id: u32, service: u16) {
        self.replicated.insert(workload_id, service);
    }

    /// Registers the component receiving [`EndpointLatencyReport`]s
    /// (typically the failover controller's fail-slow detector).
    pub fn set_latency_observer(&mut self, observer: ComponentId) {
        self.latency_observer = Some(observer);
    }

    /// Registers (replaces) a placement during setup.
    pub fn place(&mut self, workload_id: u32, endpoint: WorkerEndpoint) {
        self.placements.insert(workload_id, vec![endpoint]);
    }

    /// Adds a replica placement; requests round-robin across replicas.
    pub fn add_replica(&mut self, workload_id: u32, endpoint: WorkerEndpoint) {
        self.placements
            .entry(workload_id)
            .or_default()
            .push(endpoint);
    }

    /// Removes at most one replica of `workload_id` served by `mac`.
    /// Returns whether a replica was removed; keeps the round-robin
    /// cursor in range.
    pub fn remove_replica(&mut self, workload_id: u32, mac: MacAddr) -> bool {
        let Some(list) = self.placements.get_mut(&workload_id) else {
            return false;
        };
        let Some(pos) = list.iter().position(|ep| ep.mac == mac) else {
            return false;
        };
        list.remove(pos);
        if let Some(rr) = self.rr.get_mut(&workload_id) {
            *rr = if list.is_empty() { 0 } else { *rr % list.len() };
        }
        true
    }

    /// Replica count for a workload.
    pub fn replicas(&self, workload_id: u32) -> usize {
        self.placements.get(&workload_id).map_or(0, |v| v.len())
    }

    /// A full dump of the placement table, sorted by workload id —
    /// used when a gateway tier clones the primary's placements onto
    /// freshly added shards.
    pub fn placement_table(&self) -> Vec<(u32, Vec<WorkerEndpoint>)> {
        let mut table: Vec<(u32, Vec<WorkerEndpoint>)> = self
            .placements
            .iter()
            .map(|(wid, eps)| (*wid, eps.clone()))
            .collect();
        table.sort_by_key(|(wid, _)| *wid);
        table
    }

    /// The installed tenant directory, if any (tier shards clone it
    /// from the primary at tier setup).
    pub fn tenant_directory(&self) -> Option<Arc<TenantDirectory>> {
        self.tenants.clone()
    }

    /// Installs a tenant directory *without* re-announcing the
    /// assignments — the primary gateway already emitted the
    /// `TenantAssign` events, and duplicating them would corrupt the
    /// checker's ownership ground truth.
    pub fn adopt_tenant_directory(&mut self, dir: Arc<TenantDirectory>) {
        self.tenants = Some(dir);
    }

    /// Drops every placement served by `mac` (a dead worker). Workloads
    /// left with no replica fail fast at the next pick until the
    /// controller re-places them.
    pub fn remove_worker_endpoints(&mut self, mac: MacAddr) {
        for list in self.placements.values_mut() {
            list.retain(|ep| ep.mac != mac);
        }
    }

    /// Picks the next replica for a workload: join-shortest-advertised-
    /// queue over the depths workers report in response headers, with
    /// round-robin breaking ties (and carrying the choice when no depth
    /// has been observed yet, where all depths read as zero).
    fn pick_endpoint(&mut self, workload_id: u32) -> Option<WorkerEndpoint> {
        let list = self.placements.get(&workload_id)?;
        if list.is_empty() {
            return None;
        }
        // Replicated workloads route to the announced leader while it is
        // still placed: only the leader serves reads without a redirect.
        if let Some(leader) = self.preferred_leader.get(&workload_id) {
            if let Some(ep) = list.iter().find(|ep| ep.mac == *leader) {
                return Some(*ep);
            }
        }
        let idx = self.rr.entry(workload_id).or_insert(0);
        let start = *idx % list.len();
        *idx = (*idx + 1) % list.len();
        let depth_of = |ep: &WorkerEndpoint| self.endpoint_depth.get(&ep.mac).copied().unwrap_or(0);
        let mut best = list[start];
        let mut best_depth = depth_of(&best);
        for off in 1..list.len() {
            let ep = list[(start + off) % list.len()];
            let d = depth_of(&ep);
            if d < best_depth {
                best = ep;
                best_depth = d;
            }
        }
        Some(best)
    }

    /// The gateway's own endpoint.
    pub fn addr(&self) -> SocketAddr {
        SocketAddr::new(self.params.ip, self.params.port)
    }

    /// The gateway's MAC.
    pub fn mac(&self) -> MacAddr {
        self.params.mac
    }

    /// Statistics.
    pub fn counters(&self) -> GatewayCounters {
        self.counters
    }

    /// Responses discarded because the request was already resolved
    /// (network duplicates, or both arms of a hedge answering).
    pub fn duplicate_replies(&self) -> u64 {
        self.duplicates
    }

    /// Requests admitted and not yet retired.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Tenant in-flight quota slots currently held, over all tenants.
    pub fn tenant_slots_held(&self) -> usize {
        self.tenant_in_flight.values().sum()
    }

    #[allow(clippy::too_many_arguments)]
    fn send_attempt(
        &mut self,
        ctx: &mut Ctx<'_>,
        request_id: u64,
        workload_id: u32,
        endpoint: WorkerEndpoint,
        payload: &Bytes,
        send_delay: SimDuration,
        deadline_ns: u64,
        arm_timer: bool,
    ) {
        let src = SocketAddr::new(self.params.ip, self.params.port);
        // Stamp the destination worker's fencing token so the worker can
        // refuse the attempt if its lease has since been superseded.
        let epoch = self.worker_epochs.get(&endpoint.mac).copied().unwrap_or(0);
        let tenant_id = self.tenant_of(workload_id);
        if payload.len() <= MTU_PAYLOAD_BYTES {
            let hdr = LambdaHdr::request(workload_id, request_id)
                .with_deadline_ns(deadline_ns)
                .with_epoch(epoch)
                .with_tenant(tenant_id);
            let packet = Packet::builder()
                .eth(self.params.mac, endpoint.mac)
                .udp(src, endpoint.addr)
                .ident(self.bump_ident())
                .lambda(hdr)
                .payload(payload.clone())
                .build();
            ctx.send(self.uplink, send_delay, packet);
        } else {
            // Multi-packet message: RDMA writes (§4.2-D3).
            let frags = fragment(payload.clone(), MTU_PAYLOAD_BYTES);
            let count = frags.len() as u16;
            for (i, frag) in frags.into_iter().enumerate() {
                let hdr = LambdaHdr {
                    workload_id,
                    request_id,
                    frag_index: i as u16,
                    frag_count: count,
                    kind: LambdaKind::RdmaWrite,
                    return_code: 0,
                    deadline_ns,
                    queue_depth: 0,
                    epoch,
                    tenant_id,
                };
                let packet = Packet::builder()
                    .eth(self.params.mac, endpoint.mac)
                    .udp(src, endpoint.addr)
                    .ident(self.bump_ident())
                    .lambda(hdr)
                    .payload(frag)
                    .build();
                ctx.send(self.uplink, send_delay, packet);
            }
        }
        // Arm the retransmission timer for this attempt (fixed policies
        // never draw jitter, so their event timing is unchanged). Hedge
        // attempts piggyback on the primary attempt's timer instead of
        // arming their own.
        if arm_timer {
            if let Some(rec) = self.in_flight.get_mut(&request_id) {
                let timer =
                    self.policy
                        .retry_timer(ctx.now(), rec.first_sent_at, rec.attempts, ctx.rng());
                let gen = rec.timer_gen;
                let armed = ctx.send_timer(send_delay + timer, GwTimeout { request_id, gen });
                if let Some(superseded) = rec.timer.replace(armed) {
                    ctx.cancel(superseded);
                }
            }
        }
    }

    fn bump_ident(&mut self) -> u16 {
        self.next_ident = self.next_ident.wrapping_add(1);
        self.next_ident
    }

    /// Emits the `KvResponse` half of a replicated-KV operation's trace
    /// pair, if the request carries one. `response` carries the worker
    /// payload on success (parsed for read results).
    fn resolve_kv(
        ctx: &mut Ctx<'_>,
        request_id: u64,
        kv_op: Option<(bool, u64)>,
        ok: bool,
        response: Option<&Bytes>,
    ) {
        let Some((write, value)) = kv_op else {
            return;
        };
        let (found, value) = if write {
            (true, value)
        } else {
            response
                .and_then(|p| decode_repkv_get_response(p))
                .unwrap_or((false, 0))
        };
        ctx.emit(|| TraceEvent::KvResponse {
            request_id,
            ok,
            found,
            value,
        });
    }

    /// Rejects a submit with a typed `Overloaded` reply. Shed requests
    /// never emit `RequestSubmitted`, so conservation is untouched.
    fn shed(&mut self, ctx: &mut Ctx<'_>, req: &SubmitRequest, reason: &'static str) {
        self.counters.shed += 1;
        let workload_id = req.workload_id;
        ctx.emit(|| TraceEvent::AdmissionReject {
            workload_id,
            reason,
        });
        ctx.send(
            req.reply_to,
            SimDuration::ZERO,
            RequestDone {
                token: req.token,
                workload_id: req.workload_id,
                latency: SimDuration::ZERO,
                sojourn: SimDuration::ZERO,
                return_code: Some(RC_OVERLOADED),
                response: Bytes::new(),
                failed: true,
            },
        );
    }

    /// Why this shard must refuse routed work right now, if at all:
    /// `"draining"` after a [`DrainGateway`], `"fenced"` once an
    /// enrolled shard's tier lease has lapsed. This is the deposed-
    /// gateway guarantee the shard map's safety argument rests on: a
    /// gateway the controller fenced *provably* stops accepting, even
    /// if the depose decision has not reached it, because its own lease
    /// clock ran out first (same algebra as [`crate::lease`]).
    fn tier_refusal(&self, now: SimTime) -> Option<&'static str> {
        if self.draining.is_some() {
            return Some("draining");
        }
        if !self.tier_lease.live(now) {
            return Some("fenced");
        }
        None
    }

    /// Bounces a routed submit back to the shard router with
    /// `RC_FENCED`: the shard map has moved on (or is about to) and the
    /// router must re-route the request to the shard that now owns it.
    /// Bounced requests never emit `RequestSubmitted`, so conservation
    /// is untouched.
    fn bounce(&mut self, ctx: &mut Ctx<'_>, req: &SubmitRequest, reason: &'static str) {
        self.counters.bounced += 1;
        let gateway = self.gateway_id;
        let uid = req.token;
        ctx.emit(|| TraceEvent::GwBounce {
            gateway,
            uid,
            reason,
        });
        ctx.send(
            req.reply_to,
            SimDuration::ZERO,
            RequestDone {
                token: req.token,
                workload_id: req.workload_id,
                latency: SimDuration::ZERO,
                sojourn: SimDuration::ZERO,
                return_code: Some(RC_FENCED),
                response: Bytes::new(),
                failed: true,
            },
        );
    }

    /// Crash: every in-flight record is lost (retired without a
    /// completion) and every message except [`Restart`] is blackholed.
    /// The id sequence survives (ids are never reused across a crash,
    /// so a late reply for a pre-crash request counts as a duplicate,
    /// not a completion), and an enrolled shard stays self-fenced after
    /// restart until the tier controller grants it a fresh lease.
    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        let lost: Vec<u64> = self.in_flight.keys().copied().collect();
        let detail = lost.len() as u64;
        ctx.emit(|| TraceEvent::Fault {
            kind: "gateway-crash",
            detail,
        });
        for request_id in lost {
            self.retire(ctx, request_id);
        }
        self.pending_lat.clear();
        self.lat_timer_armed = false;
        self.busy_until = SimTime::ZERO;
        self.tier_lease.lapse();
        self.draining = None;
    }

    /// Restart after a crash: the gateway serves again (an enrolled
    /// shard still bounces routed work until it is re-leased).
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        if !self.crashed {
            return;
        }
        self.crashed = false;
        // A new incarnation: the next lease ack announces that whatever
        // this shard held in flight is gone.
        self.incarnation += 1;
        ctx.emit(|| TraceEvent::Fault {
            kind: "gateway-restart",
            detail: 0,
        });
    }

    /// Tier lease grant from the tier controller: adopt it (tokens
    /// never regress — the [`WorkerView`] drops stale epochs), ack, and
    /// on a rejoin grant leave the draining state behind: the shard
    /// serves again under its bumped epoch.
    fn on_tier_grant(&mut self, ctx: &mut Ctx<'_>, grant: GrantLease) {
        if self.cuts.is_cut(ctx.now(), grant.reply_to) {
            return;
        }
        self.tier_controller = Some(grant.reply_to);
        let Some(epoch) = self.tier_lease.deliver(grant.into()) else {
            return;
        };
        if grant.rejoin {
            self.draining = None;
        }
        ctx.send(
            grant.reply_to,
            SimDuration::ZERO,
            LeaseAck {
                from: ctx.self_id(),
                epoch,
                incarnation: self.incarnation,
            },
        );
    }

    /// Planned drain: hand every in-flight request to the successor as
    /// an [`AdoptRequest`] — forward-or-redirect, never drop — then
    /// bounce subsequent submits so the router re-routes them. Each
    /// handed-off id is retired without a completion; the successor
    /// re-submits under its own id space, and the `GwHandoff` trace
    /// event ties the two ids together for the exactly-once invariant
    /// (checker rule 14).
    fn on_drain(&mut self, ctx: &mut Ctx<'_>, drain: DrainGateway) {
        self.draining = Some(drain.successor);
        // Sorted for deterministic handoff order (a HashMap's is not).
        let mut ids: Vec<u64> = self.in_flight.keys().copied().collect();
        ids.sort_unstable();
        let from_gateway = self.gateway_id;
        let to_gateway = drain.successor_gateway;
        let handed = ids.len() as u64;
        for request_id in ids {
            let rec = self.retire(ctx, request_id).expect("listed above");
            ctx.emit(|| TraceEvent::GwHandoff {
                from_gateway,
                to_gateway,
                request_id,
            });
            self.counters.handed_off += 1;
            // The handoff costs one proxy occupancy on the wire out.
            ctx.send(
                drain.successor,
                self.params.proxy_cost,
                AdoptRequest {
                    workload_id: rec.workload_id,
                    payload: rec.payload,
                    reply_to: rec.reply_to,
                    token: rec.token,
                    deadline_ns: rec.deadline_ns,
                    from_gateway,
                },
            );
        }
        // Report the batch to the tier controller's handoff ledger —
        // zero-delay, so the ledger entry follows the `GwHandoff`
        // events it accounts for in the same instant.
        if handed > 0 {
            if let Some(tc) = self.tier_controller {
                let from = ctx.self_id();
                ctx.send(
                    tc,
                    SimDuration::ZERO,
                    HandoffReport {
                        from,
                        from_gateway,
                        to_gateway,
                        count: handed,
                    },
                );
            }
        }
    }

    /// Adopts an in-flight request handed over by a draining peer:
    /// admission is bypassed (the work was already admitted once) and
    /// the original absolute deadline is preserved.
    fn on_adopt(&mut self, ctx: &mut Ctx<'_>, adopt: AdoptRequest) {
        let req = SubmitRequest {
            workload_id: adopt.workload_id,
            payload: adopt.payload,
            reply_to: adopt.reply_to,
            token: adopt.token,
        };
        if let Some(reason) = self.tier_refusal(ctx.now()) {
            self.bounce(ctx, &req, reason);
            return;
        }
        self.counters.adopted += 1;
        self.dispatch(ctx, req, adopt.deadline_ns);
    }

    fn on_submit(&mut self, ctx: &mut Ctx<'_>, req: SubmitRequest) {
        // Partitioned from the submitter: the message never arrived.
        if self.cuts.is_cut(ctx.now(), req.reply_to) {
            return;
        }
        // Tier fencing before admission: a deposed or draining shard
        // must provably stop accepting routed work, and a bounce must
        // not consume admission tokens.
        if let Some(reason) = self.tier_refusal(ctx.now()) {
            self.bounce(ctx, &req, reason);
            return;
        }
        // Admission gate first: shed before occupying the proxy, the
        // wire, or a worker queue.
        if let Some(adm) = self.admission.as_mut() {
            let in_flight = self.in_flight.len();
            if let Err(reason) = adm.check(ctx.now(), req.workload_id, in_flight) {
                self.shed(ctx, &req, reason);
                return;
            }
        }
        // Per-tenant in-flight quota: one tenant's burst must not occupy
        // the gateway's whole concurrency budget.
        let tenant_id = self.tenant_of(req.workload_id);
        if let Some(dir) = self.tenants.as_ref() {
            let cap = dir.spec_of(tenant_id).max_in_flight;
            let held = self.tenant_in_flight.get(&tenant_id).copied().unwrap_or(0);
            if cap != 0 && held >= cap {
                self.counters.tenant_quota_shed += 1;
                self.shed(ctx, &req, "tenant-quota");
                return;
            }
        }
        // Deadline-aware shedding: if the proxy backlog alone would eat
        // the whole deadline, the request is already dead — reject it
        // now instead of shipping doomed work.
        let deadline_ns = match self.params.default_deadline {
            Some(d) => (ctx.now() + d).as_nanos(),
            None => 0,
        };
        let start = self.busy_until.max(ctx.now());
        let wire_time = start + self.params.proxy_cost;
        if deadline_ns != 0 && wire_time.as_nanos() >= deadline_ns {
            self.shed(ctx, &req, "deadline");
            return;
        }
        self.dispatch(ctx, req, deadline_ns);
    }

    /// Routes an admitted request: placement pick, proxy serialization,
    /// its in-flight record, first attempt, and hedge arming. Shared by
    /// [`Self::on_submit`] (after its admission gates) and
    /// [`Self::on_adopt`] (which bypasses them).
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, req: SubmitRequest, deadline_ns: u64) {
        let tenant_id = self.tenant_of(req.workload_id);
        let Some(endpoint) = self.pick_endpoint(req.workload_id) else {
            self.counters.unplaced += 1;
            ctx.send(
                req.reply_to,
                SimDuration::ZERO,
                RequestDone {
                    token: req.token,
                    workload_id: req.workload_id,
                    latency: SimDuration::ZERO,
                    sojourn: SimDuration::ZERO,
                    return_code: None,
                    response: Bytes::new(),
                    failed: true,
                },
            );
            ctx.emit(|| TraceEvent::RequestUnplaced {
                workload_id: req.workload_id,
            });
            return;
        };
        self.counters.submitted += 1;

        // Serialize through the proxy.
        let start = self.busy_until.max(ctx.now());
        let wire_time = start + self.params.proxy_cost;
        self.busy_until = wire_time;
        let send_delay = wire_time - ctx.now();

        // Latency is measured from the moment the request leaves the
        // gateway (§6.3.1's measurement), so the first send is at wire
        // time.
        let request_id = self.next_id;
        self.next_id += 1;
        let kv_op = if self.replicated.contains_key(&req.workload_id) {
            decode_repkv_request(&req.payload).map(|op| match op {
                RepKvOp::Get { key } => (u64::from(key), false, 0),
                RepKvOp::Put { key, value } => (u64::from(key), true, value),
            })
        } else {
            None
        };
        *self.tenant_in_flight.entry(tenant_id).or_insert(0) += 1;
        self.in_flight.insert(
            request_id,
            InFlight {
                workload_id: req.workload_id,
                payload: req.payload.clone(),
                first_sent_at: wire_time,
                attempts: 1,
                token: req.token,
                reply_to: req.reply_to,
                tenant_id,
                submitted_at: ctx.now(),
                deadline_ns,
                primary_mac: endpoint.mac,
                hedged: false,
                timer_gen: 0,
                timer: None,
                kv_op: kv_op.map(|(_, write, value)| (write, value)),
            },
        );
        ctx.emit(|| TraceEvent::RequestSubmitted {
            request_id,
            workload_id: req.workload_id,
        });
        // Replicated-KV history: one invocation per client op, emitted
        // exactly once at first send (retries, hedges, and redirects of
        // the same request id are transparent to the checker).
        if let Some((key, write, value)) = kv_op {
            ctx.emit(|| TraceEvent::KvInvoke {
                request_id,
                key,
                write,
                value,
            });
        }
        self.send_attempt(
            ctx,
            request_id,
            req.workload_id,
            endpoint,
            &req.payload,
            send_delay,
            deadline_ns,
            true,
        );
        // Hedging: once the adaptive delay passes with the request still
        // outstanding, re-send it to a second replica.
        if self.params.hedge.is_some() && self.replicas(req.workload_id) >= 2 {
            let delay = self.hedge_delay(req.workload_id);
            ctx.send_self(send_delay + delay, GwHedge { request_id });
        }
    }

    /// The adaptive hedge delay for a workload: the p95 of its stats
    /// window once enough samples exist, floored at `min_delay`.
    fn hedge_delay(&self, workload_id: u32) -> SimDuration {
        let hedge = self.params.hedge.expect("hedging enabled");
        let adaptive = self
            .window
            .get(&workload_id)
            .filter(|s| s.len() >= hedge.min_samples)
            .and_then(|s| s.quantile_ns(0.95))
            .map(SimDuration::from_nanos)
            .unwrap_or(hedge.min_delay);
        adaptive.max(hedge.min_delay)
    }

    fn on_hedge(&mut self, ctx: &mut Ctx<'_>, request_id: u64) {
        // Still outstanding, and not hedged already?
        let Some(rec) = self.in_flight.get(&request_id) else {
            return;
        };
        if rec.hedged {
            return;
        }
        let (workload_id, payload) = (rec.workload_id, rec.payload.clone());
        let (deadline_ns, primary_mac) = (rec.deadline_ns, rec.primary_mac);
        // The hedge is pointless if the deadline would expire before the
        // proxy can get it on the wire.
        let start = self.busy_until.max(ctx.now());
        let wire_time = start + self.params.proxy_cost;
        if deadline_ns != 0 && wire_time.as_nanos() >= deadline_ns {
            return;
        }
        // Find the least-loaded replica other than the one already
        // serving the request.
        let hedge_ep = self.placements.get(&workload_id).and_then(|list| {
            list.iter()
                .filter(|ep| ep.mac != primary_mac)
                .min_by_key(|ep| {
                    (
                        self.endpoint_depth.get(&ep.mac).copied().unwrap_or(0),
                        ep.mac,
                    )
                })
                .copied()
        });
        let Some(endpoint) = hedge_ep else { return };
        self.in_flight
            .get_mut(&request_id)
            .expect("checked above")
            .hedged = true;
        self.counters.hedges_fired += 1;
        ctx.emit(|| TraceEvent::HedgeFired {
            request_id,
            workload_id,
        });
        // The hedge occupies the proxy like any other send.
        self.busy_until = wire_time;
        let send_delay = wire_time - ctx.now();
        self.send_attempt(
            ctx,
            request_id,
            workload_id,
            endpoint,
            &payload,
            send_delay,
            deadline_ns,
            false,
        );
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        let Some(hdr) = packet.lambda else { return };
        if hdr.kind != LambdaKind::Response {
            return;
        }
        // Backpressure signal: workers advertise their queue depth on
        // every response, even ones losing a hedge race.
        self.endpoint_depth.insert(packet.eth.src, hdr.queue_depth);
        // Fencing: discard late replies carrying an epoch below the
        // worker's fence floor. They were produced under a lease the
        // controller has since revoked; the workload may already be
        // re-placed, and accepting such a reply could complete a request
        // twice. The request stays outstanding — its retransmission
        // timer resolves it against the current placement.
        if let Some(&floor) = self.fence_floors.get(&packet.eth.src) {
            if hdr.epoch < floor {
                self.counters.stale_replies += 1;
                ctx.emit(|| TraceEvent::StaleReplyDrop {
                    request_id: hdr.request_id,
                    reply_epoch: hdr.epoch,
                    floor_epoch: floor,
                });
                return;
            }
        }
        // A worker refused the attempt because its lease lapsed or the
        // carried token was stale (`RC_FENCED`), or a replicated
        // service's replica is not (or no longer) the leader
        // (`RC_REDIRECT`). Adopt a fresher epoch, or drop a stale
        // leadership preference pointing at the replica, then retry
        // immediately on another replica when one exists; with no
        // alternative the armed timer retries after the controller has
        // re-placed the workload. The winner's `UpdateService`
        // announcement re-points routing for subsequent requests.
        if hdr.return_code == RC_FENCED || hdr.return_code == RC_REDIRECT {
            let fenced = hdr.return_code == RC_FENCED;
            if fenced {
                self.counters.fenced_replies += 1;
                if hdr.epoch != 0 {
                    let slot = self.worker_epochs.entry(packet.eth.src).or_insert(0);
                    *slot = (*slot).max(hdr.epoch);
                }
            } else {
                self.counters.redirected_replies += 1;
            }
            let Some(rec) = self.in_flight.get_mut(&hdr.request_id) else {
                return; // already resolved (e.g. the other hedge arm won)
            };
            let workload_id = rec.workload_id;
            if !fenced && self.preferred_leader.get(&workload_id) == Some(&packet.eth.src) {
                self.preferred_leader.remove(&workload_id);
            }
            let has_alt = self
                .placements
                .get(&workload_id)
                .is_some_and(|list| list.iter().any(|ep| ep.mac != packet.eth.src));
            if has_alt {
                rec.timer_gen += 1; // the armed timer is now stale
                self.attempt_retry(ctx, hdr.request_id, Some(packet.eth.src));
            }
            return;
        }
        let Some(rec) = self.retire(ctx, hdr.request_id) else {
            self.duplicates += 1;
            return; // duplicate (e.g. the losing side of a hedge race)
        };

        // The worker refused the request because its deadline had
        // already expired at dequeue: a failed completion. No latency
        // sample is recorded — the request did no useful work.
        if hdr.return_code == RC_EXPIRED {
            self.counters.expired += 1;
            self.fail(ctx, hdr.request_id, rec, Some(RC_EXPIRED));
            return;
        }

        let latency = ctx.now() - rec.first_sent_at;
        self.counters.completed += 1;
        if rec.hedged && packet.eth.src != rec.primary_mac {
            self.counters.hedges_won += 1;
            ctx.emit(|| TraceEvent::HedgeWon {
                request_id: hdr.request_id,
                workload_id: rec.workload_id,
            });
        }
        Self::resolve_kv(ctx, hdr.request_id, rec.kv_op, true, Some(&packet.payload));
        ctx.emit(|| TraceEvent::RequestCompleted {
            request_id: hdr.request_id,
            workload_id: rec.workload_id,
            latency_ns: latency.as_nanos(),
            failed: false,
        });
        self.window
            .entry(rec.workload_id)
            .or_insert_with(|| Series::new("window"))
            .record(latency);
        // Feed the fail-slow detector: attribute the latency to the
        // worker that actually answered.
        if self.latency_observer.is_some() {
            let slot = self.pending_lat.entry(packet.eth.src).or_insert((0, 0));
            slot.0 += latency.as_nanos();
            slot.1 += 1;
            if !self.lat_timer_armed {
                self.lat_timer_armed = true;
                ctx.send_self(LAT_FLUSH_INTERVAL, GwLatFlush);
            }
        }
        // Response processing occupies the proxy briefly.
        let start = self.busy_until.max(ctx.now());
        self.busy_until = start + self.params.response_cost;

        ctx.send(
            rec.reply_to,
            self.busy_until - ctx.now(),
            RequestDone {
                token: rec.token,
                workload_id: rec.workload_id,
                latency,
                sojourn: self.busy_until - rec.submitted_at,
                return_code: Some(hdr.return_code),
                response: packet.payload,
                failed: false,
            },
        );
    }

    /// Fails a retired request: the `KvResponse` of a replicated op,
    /// the failed `RequestCompleted`, then the client's [`RequestDone`]
    /// carrying `return_code`.
    fn fail(
        &mut self,
        ctx: &mut Ctx<'_>,
        request_id: u64,
        rec: InFlight,
        return_code: Option<u16>,
    ) {
        self.counters.failed += 1;
        Self::resolve_kv(ctx, request_id, rec.kv_op, false, None);
        let latency = ctx.now() - rec.first_sent_at;
        ctx.emit(|| TraceEvent::RequestCompleted {
            request_id,
            workload_id: rec.workload_id,
            latency_ns: latency.as_nanos(),
            failed: true,
        });
        ctx.send(
            rec.reply_to,
            SimDuration::ZERO,
            RequestDone {
                token: rec.token,
                workload_id: rec.workload_id,
                latency,
                sojourn: ctx.now() - rec.submitted_at,
                return_code,
                response: Bytes::new(),
                failed: true,
            },
        );
    }

    fn on_lat_flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_lat.is_empty() {
            // Idle: let the timer lapse so drained simulations terminate;
            // the next response re-arms it.
            self.lat_timer_armed = false;
            return;
        }
        let mut samples: Vec<(MacAddr, u64, u64)> = self
            .pending_lat
            .drain()
            .map(|(mac, (sum, count))| (mac, sum / count.max(1), count))
            .collect();
        samples.sort_by_key(|(mac, _, _)| *mac);
        if let Some(observer) = self.latency_observer {
            ctx.send(
                observer,
                SimDuration::ZERO,
                EndpointLatencyReport { samples },
            );
        }
        ctx.send_self(LAT_FLUSH_INTERVAL, GwLatFlush);
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_>, request_id: u64, gen: u64) {
        // A timer for a retired request is stale. A generation mismatch
        // means the request was already retried through another path
        // (an `RC_FENCED` fast retry) after this timer was armed; that
        // retry armed its own timer.
        if self
            .in_flight
            .get(&request_id)
            .is_some_and(|rec| rec.timer_gen == gen)
        {
            self.attempt_retry(ctx, request_id, None);
        }
    }

    /// Drives one retry decision for an in-flight request: charges its
    /// attempt budget, re-resolves the placement (preferring a replica
    /// other than `avoid` when one exists), and resends or fails the
    /// request.
    fn attempt_retry(&mut self, ctx: &mut Ctx<'_>, request_id: u64, avoid: Option<MacAddr>) {
        let Some(rec) = self.in_flight.get_mut(&request_id) else {
            return;
        };
        if self
            .policy
            .gives_up(ctx.now(), rec.first_sent_at, rec.attempts)
        {
            let rec = self.retire(ctx, request_id).expect("checked above");
            self.fail(ctx, request_id, rec, None);
            return;
        }
        rec.attempts += 1;
        let (workload_id, payload, deadline_ns) =
            (rec.workload_id, rec.payload.clone(), rec.deadline_ns);
        // Re-resolve the placement on *every* attempt: if the controller
        // re-placed the workload after a worker died, the
        // retransmission must chase the new endpoint, not the one
        // picked at first send.
        let mut picked = self.pick_endpoint(workload_id);
        if let (Some(ep), Some(avoid_mac)) = (picked, avoid) {
            if ep.mac == avoid_mac {
                // Prefer any replica over the one that just fenced the
                // attempt.
                picked = self
                    .placements
                    .get(&workload_id)
                    .and_then(|list| list.iter().find(|e| e.mac != avoid_mac).copied())
                    .or(picked);
            }
        }
        let Some(endpoint) = picked else {
            // The placement vanished mid-flight: fail the request
            // instead of letting it dangle without a timer.
            let rec = self.retire(ctx, request_id).expect("checked above");
            self.fail(ctx, request_id, rec, None);
            return;
        };
        self.counters.retransmitted += 1;
        ctx.emit(|| TraceEvent::RequestRetransmit {
            request_id,
            workload_id,
        });
        self.send_attempt(
            ctx,
            request_id,
            workload_id,
            endpoint,
            &payload,
            SimDuration::ZERO,
            deadline_ns,
            true,
        );
    }
}

impl Component for Gateway {
    fn name(&self) -> &str {
        "gateway"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
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
        if self.crashed {
            // A crashed gateway blackholes everything until restarted:
            // submits, worker responses, timers, and control traffic.
            drop(msg);
            return;
        }
        let msg = match msg.downcast::<SubmitRequest>() {
            Ok(req) => {
                self.on_submit(ctx, *req);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<Packet>() {
            Ok(p) => {
                self.on_response(ctx, *p);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<GwTimeout>() {
            Ok(t) => {
                self.on_timeout(ctx, t.request_id, t.gen);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<GwHedge>() {
            Ok(h) => {
                self.on_hedge(ctx, h.request_id);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<GwLatFlush>() {
            Ok(_) => {
                self.on_lat_flush(ctx);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<RegisterTenants>() {
            Ok(r) => {
                // Announce the assignments before any request can be
                // submitted so the checker knows every owner up front;
                // sorted for deterministic trace order.
                for (workload_id, tenant_id) in r.dir.assignments() {
                    ctx.emit(|| TraceEvent::TenantAssign {
                        tenant_id,
                        workload_id,
                    });
                }
                self.tenants = Some(r.dir);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<SetPlacement>() {
            Ok(p) => {
                self.placements.insert(p.workload_id, vec![p.endpoint]);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<AddPlacement>() {
            Ok(p) => {
                self.add_replica(p.workload_id, p.endpoint);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<RemovePlacement>() {
            Ok(r) => {
                self.remove_replica(r.workload_id, r.mac);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<RemoveWorkerEndpoints>() {
            Ok(r) => {
                self.remove_worker_endpoints(r.mac);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<SetWorkerEpoch>() {
            Ok(s) => {
                let slot = self.worker_epochs.entry(s.mac).or_insert(0);
                // Fencing tokens never regress.
                *slot = (*slot).max(s.epoch);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<FenceWorker>() {
            Ok(f) => {
                let slot = self.fence_floors.entry(f.mac).or_insert(0);
                *slot = (*slot).max(f.floor_epoch);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<UpdateService>() {
            Ok(u) => {
                // A replica announced leadership of its service: route
                // every workload tracked under that service to it. If a
                // prior failover declared this worker dead and dropped
                // its endpoints, the announcement also restores the
                // leader's placement — a rejoined replica that wins an
                // election must be routable again.
                for (&wid, &svc) in &self.replicated {
                    if svc != u.service {
                        continue;
                    }
                    self.preferred_leader.insert(wid, u.mac);
                    let list = self.placements.entry(wid).or_default();
                    if !list.iter().any(|ep| ep.mac == u.mac) {
                        list.push(WorkerEndpoint {
                            mac: u.mac,
                            addr: u.addr,
                        });
                    }
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<NetCutFrom>() {
            Ok(c) => {
                self.cuts.apply(ctx.now(), &c);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<GrantLease>() {
            Ok(g) => {
                self.on_tier_grant(ctx, *g);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<EpochQuery>() {
            Ok(q) => {
                // Restore-time reconciliation: report the tier lease
                // epoch this shard actually holds so a restarted
                // controller never regresses below live state.
                if !self.cuts.is_cut(ctx.now(), q.reply_to) {
                    let report = self.tier_lease.report(ctx.self_id());
                    ctx.send(q.reply_to, SimDuration::ZERO, report);
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<SetAdmissionSlice>() {
            Ok(s) => {
                if self.cuts.is_cut(ctx.now(), s.from) {
                    return; // partitioned: keep the local slice
                }
                match self.admission.as_mut() {
                    Some(adm) => adm.set_rate(s.rate_per_sec, s.burst),
                    None => {
                        if s.rate_per_sec > 0.0 {
                            self.admission = Some(Admission::new(AdmissionParams {
                                rate_per_sec: s.rate_per_sec,
                                burst: s.burst,
                                max_in_flight: 0,
                            }));
                        }
                    }
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<DrainGateway>() {
            Ok(d) => {
                self.on_drain(ctx, *d);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<AdoptRequest>() {
            Ok(a) => {
                self.on_adopt(ctx, *a);
                return;
            }
            Err(other) => other,
        };
        match msg.downcast::<QueryStats>() {
            Ok(q) => {
                let workloads = self
                    .window
                    .drain()
                    .map(|(wid, series)| {
                        let replicas = self.placements.get(&wid).map_or(0, |v| v.len());
                        (wid, series.summary(), replicas)
                    })
                    .collect();
                ctx.send(q.reply_to, SimDuration::ZERO, StatsReport { workloads });
            }
            Err(other) => panic!("gateway received unknown message {other:?}"),
        }
    }
}
