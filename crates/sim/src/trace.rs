//! Structured event tracing: a low-overhead event stream recorded in sim
//! time, with pluggable sinks.
//!
//! Components emit [`TraceEvent`]s through [`crate::engine::Ctx::emit`];
//! the engine stamps each with the virtual time, a global sequence
//! number, and the emitting component, and fans the resulting
//! [`TraceRecord`] out to every registered [`TraceSink`]. When no sink is
//! registered the emit path is a single branch on an `Option`, so
//! instrumented hot paths cost nothing in untraced runs (the event
//! closure is never built).
//!
//! Three sinks ship with the engine:
//!
//! - [`RingSink`]: a bounded in-memory ring of the most recent records
//!   (post-mortem debugging, test assertions).
//! - [`JsonlSink`]: streams one JSON object per record to a writer
//!   (capture for offline diffing; see EXPERIMENTS.md).
//! - [`HashSink`]: folds every record into a stable 64-bit FNV-1a digest.
//!   Two runs with the same seed must produce the same hash — the
//!   golden-trace regression suite pins these digests.
//!
//! The online [`crate::check::InvariantChecker`] is a fourth sink that
//! asserts cross-component invariants while the simulation runs.
//!
//! Events carry only integers, booleans, and `&'static str` tags so the
//! digest is identical across debug/release builds and platforms (no
//! floats, no pointers, no hash-map iteration order).

use std::any::Any;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

use crate::engine::ComponentId;
use crate::time::SimTime;

/// A single value inside a [`TraceEvent`], as seen by generic sinks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned integer (all numeric fields widen to `u64`).
    U64(u64),
    /// A boolean flag.
    Bool(bool),
    /// A static tag (memory level, drop reason, fault kind).
    Str(&'static str),
}

/// One structured event emitted by an instrumented component.
///
/// Spans are keyed by the identifiers the paper's execution model cares
/// about: request id, lambda (workload) id, NPU core/worker thread, and
/// memory level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The gateway accepted a request and sent the first attempt.
    RequestSubmitted {
        /// Gateway-assigned request id (globally unique per run).
        request_id: u64,
        /// The target workload.
        workload_id: u32,
    },
    /// The gateway re-sent an outstanding request after a timeout.
    RequestRetransmit {
        /// The outstanding request.
        request_id: u64,
        /// The target workload.
        workload_id: u32,
    },
    /// The gateway resolved a request (response delivered or given up).
    RequestCompleted {
        /// The resolved request.
        request_id: u64,
        /// The target workload.
        workload_id: u32,
        /// Wire-to-wire latency in nanoseconds.
        latency_ns: u64,
        /// Whether the request failed (timeout exhaustion / lost placement).
        failed: bool,
    },
    /// The gateway had no placement for a submitted workload.
    RequestUnplaced {
        /// The unroutable workload.
        workload_id: u32,
    },
    /// A lambda execution started on a core (NPU thread / host worker).
    ExecStart {
        /// Core (thread) index within the component.
        core: u32,
        /// Lambda index within the deployed program.
        lambda_id: u32,
        /// The request being served.
        request_id: u64,
        /// The tenant the request was stamped with at the gateway. The
        /// checker asserts it matches the lambda's registered owner —
        /// a request must never execute under another tenant's lambda.
        tenant_id: u32,
    },
    /// The execution suspended awaiting a lambda RPC (core stays held:
    /// run-to-completion).
    ExecSuspend {
        /// Core holding the suspended job.
        core: u32,
        /// Lambda index.
        lambda_id: u32,
        /// The request being served.
        request_id: u64,
    },
    /// A suspended execution resumed (RPC response arrived).
    ExecResume {
        /// Core holding the job.
        core: u32,
        /// Lambda index.
        lambda_id: u32,
        /// The request being served.
        request_id: u64,
    },
    /// The execution finished and the core was released.
    ExecFinish {
        /// Core that ran the job.
        core: u32,
        /// Lambda index.
        lambda_id: u32,
        /// The request served.
        request_id: u64,
        /// Total cycles charged for the job (overhead + instructions +
        /// memory accesses).
        total_cycles: u64,
        /// Fixed cycles charged before execution (parse/match, reorder).
        overhead_cycles: u64,
        /// One cycle per interpreted instruction.
        instr_cycles: u64,
    },
    /// Memory-hierarchy cycles charged for one placed object (or the
    /// CTM-resident packet payload / response stream) of a finishing job.
    MemCharge {
        /// Core that ran the job.
        core: u32,
        /// Lambda index.
        lambda_id: u32,
        /// The request served.
        request_id: u64,
        /// Memory level tag (`"LMEM"`, `"CTM"`, `"IMEM"`, `"EMEM"`).
        level: &'static str,
        /// The level's access latency in cycles.
        latency_cycles: u64,
        /// Scalar (word) accesses.
        scalar: u64,
        /// Bulk (DMA-style) operations issued.
        bulk_ops: u64,
        /// Bytes moved by bulk operations.
        bulk_bytes: u64,
        /// Cycles charged for this object under the cost model.
        cycles: u64,
        /// Tenant owning the charged memory object. The checker asserts
        /// it matches the executing span's tenant — a lambda must never
        /// read another tenant's memory objects.
        owner_tenant: u32,
    },
    /// A request entered the WFQ (all cores busy). `depth` is the
    /// lambda's queue depth after the push.
    WfqEnqueue {
        /// Lambda index owning the per-lambda queue.
        lambda_id: u32,
        /// The lambda's weight in milli-units (weight × 1000, rounded).
        weight_milli: u64,
        /// The lambda's queue depth after the push.
        depth: u64,
        /// Tenant level of the hierarchical tree the lambda queues under.
        tenant_id: u32,
        /// The tenant's weight in milli-units.
        tenant_weight_milli: u64,
    },
    /// The WFQ released a request to a freed core. `depth` is the
    /// lambda's queue depth after the pop.
    WfqDequeue {
        /// Lambda index that won this service slot.
        lambda_id: u32,
        /// The lambda's weight in milli-units.
        weight_milli: u64,
        /// The lambda's queue depth after the pop.
        depth: u64,
        /// Tenant that won the tenant-level service slot.
        tenant_id: u32,
        /// The tenant's weight in milli-units.
        tenant_weight_milli: u64,
    },
    /// A link accepted a frame for transmission.
    LinkTx {
        /// Frame wire length in bytes.
        bytes: u64,
    },
    /// A link dropped a frame.
    LinkDrop {
        /// Frame wire length in bytes.
        bytes: u64,
        /// Why: `"down"`, `"burst"`, `"loss"`, or `"overflow"`.
        reason: &'static str,
    },
    /// A switch forwarded a frame to an output port.
    SwitchForward {
        /// Frame wire length in bytes.
        bytes: u64,
    },
    /// A switch dropped a frame (unknown destination or queue overflow).
    SwitchDrop {
        /// Frame wire length in bytes.
        bytes: u64,
    },
    /// A component (re)installed a program/firmware image while running.
    /// Jobs in flight across an install may have been costed under the
    /// previous image's placements.
    ProgramInstall {},
    /// A fault-layer event took effect on this component.
    Fault {
        /// Fault kind (`"crash"`, `"restart"`, `"evict"`, ...).
        kind: &'static str,
        /// Kind-specific detail (e.g. jobs lost, worker index).
        detail: u64,
    },
    /// A free-form experiment marker.
    Mark {
        /// Marker label.
        label: &'static str,
        /// First payload value.
        a: u64,
        /// Second payload value.
        b: u64,
    },
    /// The placement planner declared a worker's NIC capacity envelope;
    /// subsequent `Place` events on that worker are checked against it.
    PlacementCapacity {
        /// Worker index.
        worker: u32,
        /// Usable instruction-store words for lambda code.
        instr_words: u64,
        /// Usable bytes for lambda objects (all levels summed).
        mem_bytes: u64,
    },
    /// A lambda gained a live placement on a worker target.
    Place {
        /// The placed workload.
        workload_id: u32,
        /// Worker index.
        worker: u32,
        /// Serving engine: `"nic"` or `"host"`.
        target: &'static str,
        /// Instruction-store words the placement occupies (NIC targets).
        instr_words: u64,
        /// Object bytes the placement occupies (NIC targets).
        mem_bytes: u64,
    },
    /// A live placement was withdrawn (scale-in, or the old side of a
    /// completed migration).
    Unplace {
        /// The workload.
        workload_id: u32,
        /// Worker index.
        worker: u32,
        /// Serving engine the placement is leaving.
        target: &'static str,
    },
    /// A migration began: the new placement is prepared while the old
    /// one keeps serving (make-before-break).
    MigrateStart {
        /// The migrating workload.
        workload_id: u32,
        /// Worker the placement leaves.
        from_worker: u32,
        /// Engine the placement leaves.
        from_target: &'static str,
        /// Worker the placement moves to.
        to_worker: u32,
        /// Engine the placement moves to.
        to_target: &'static str,
    },
    /// A migration finished: traffic switched and the old placement was
    /// withdrawn.
    MigrateDone {
        /// The migrated workload.
        workload_id: u32,
        /// Worker the placement left.
        from_worker: u32,
        /// Engine the placement left.
        from_target: &'static str,
        /// Worker the placement now lives on.
        to_worker: u32,
        /// Engine the placement now runs on.
        to_target: &'static str,
    },
    /// The placement planner refused to place a lambda.
    PlacementReject {
        /// The rejected workload.
        workload_id: u32,
        /// Worker considered.
        worker: u32,
        /// Why (`"instr-store"`, `"memory"`, `"threads"`, ...).
        reason: &'static str,
    },
    /// The gateway's admission controller shed a request before it
    /// entered the system (never submitted; no request id is assigned).
    AdmissionReject {
        /// The target workload.
        workload_id: u32,
        /// Why (`"rate"`, `"concurrency"`, `"deadline"`).
        reason: &'static str,
    },
    /// The gateway issued a hedge (duplicate attempt to a second
    /// replica) for a still-outstanding request.
    HedgeFired {
        /// The hedged request.
        request_id: u64,
        /// The target workload.
        workload_id: u32,
    },
    /// A hedged request's winning reply came from the hedge replica
    /// (emitted just before the single `request_completed`).
    HedgeWon {
        /// The hedged request.
        request_id: u64,
        /// The target workload.
        workload_id: u32,
    },
    /// A worker dropped an expired request at dequeue instead of
    /// executing it (deadline propagation).
    DeadlineDrop {
        /// The expired request.
        request_id: u64,
        /// The target workload.
        workload_id: u32,
        /// How far past the deadline the dequeue happened, in ns.
        overdue_ns: u64,
    },
    /// The fail-slow detector quarantined a gray endpoint: its EWMA
    /// latency was an outlier against the cluster median.
    EndpointQuarantine {
        /// Index of the quarantined worker.
        worker: u32,
        /// The endpoint's EWMA latency in ns at quarantine time.
        ewma_ns: u64,
        /// The cluster median EWMA in ns it was judged against.
        median_ns: u64,
    },
    /// A link drop destroyed one fragment of a multi-packet message, so
    /// the whole reassembly will stall or abort; emitted alongside the
    /// `link_drop` so conservation accounting can attribute the loss to
    /// the owning request.
    FragDrop {
        /// The request whose fragment was lost.
        request_id: u64,
        /// Index of the lost fragment.
        frag_index: u64,
        /// Total fragments in the message.
        frag_count: u64,
        /// The drop reason of the underlying link drop.
        reason: &'static str,
    },
    /// The membership controller granted (or renewed) a worker's lease.
    LeaseGrant {
        /// Index of the worker in the testbed.
        worker: u32,
        /// Fencing token the lease carries.
        epoch: u64,
        /// Absolute expiry of the lease, in ns.
        until_ns: u64,
    },
    /// A worker's lease provably expired at the controller: the grace
    /// bound passed with no ack, so re-placement is now safe.
    LeaseExpire {
        /// Index of the worker.
        worker: u32,
        /// The epoch the expired lease carried.
        epoch: u64,
    },
    /// The controller fenced a worker: placements stamped with `epoch`
    /// or older are dead, and any execution on `component` before a
    /// matching `worker_rejoin` is split-brain.
    WorkerFenced {
        /// Index of the fenced worker.
        worker: u32,
        /// The worker's component index (for checker attribution).
        component: u32,
        /// Highest epoch the fence invalidates.
        epoch: u64,
    },
    /// A fenced worker completed the lease-renewal handshake and rejoined
    /// with a strictly higher epoch.
    WorkerRejoin {
        /// Index of the rejoining worker.
        worker: u32,
        /// The worker's component index (for checker attribution).
        component: u32,
        /// The new epoch (must exceed every previously fenced epoch).
        epoch: u64,
    },
    /// A worker refused a request or deploy carrying a stale fencing
    /// token (or arriving after its own lease lapsed) with `RC_FENCED`.
    FencedReject {
        /// The refused request (0 for deploys).
        request_id: u64,
        /// The target workload.
        workload_id: u32,
        /// The fencing token the work carried.
        hdr_epoch: u64,
        /// The epoch the worker currently holds.
        worker_epoch: u64,
    },
    /// The gateway discarded a late reply stamped with a fenced epoch
    /// instead of completing the request with it (no double-completion).
    StaleReplyDrop {
        /// The request the late reply answered.
        request_id: u64,
        /// The epoch the reply carried.
        reply_epoch: u64,
        /// The fence floor the reply failed to clear.
        floor_epoch: u64,
    },
    /// The control plane serialized its membership + placement state to
    /// stable storage.
    SnapshotTaken {
        /// Monotonic snapshot sequence number.
        seq: u64,
        /// Workers captured in the snapshot.
        workers: u64,
        /// Placement entries captured in the snapshot.
        placements: u64,
    },
    /// A restarted control plane restored the last stable snapshot and
    /// reconciled it against worker-reported epochs.
    SnapshotRestored {
        /// Sequence number of the restored snapshot.
        seq: u64,
        /// Workers whose reported epoch was ahead of the snapshot.
        reconciled: u64,
    },
    /// A replicated-KV operation entered the system at the gateway (the
    /// linearizability checker's invocation event; retries and hedges of
    /// the same request do not re-invoke).
    KvInvoke {
        /// Gateway request id (pairs with the matching [`Self::KvResponse`]).
        request_id: u64,
        /// The key operated on.
        key: u64,
        /// `true` for a write (PUT), `false` for a read (GET).
        write: bool,
        /// The value written (writes) or 0 (reads).
        value: u64,
    },
    /// A replicated-KV operation resolved at the gateway (the
    /// linearizability checker's response event).
    KvResponse {
        /// Gateway request id (pairs with the matching [`Self::KvInvoke`]).
        request_id: u64,
        /// Whether the operation was acknowledged as successful.
        ok: bool,
        /// Reads: whether the key was present. Writes: always `true`.
        found: bool,
        /// Reads: the value returned (0 when absent). Writes: the value
        /// that was acknowledged.
        value: u64,
    },
    /// The control plane registered a workload→tenant assignment. The
    /// checker builds its ownership map from these, so they must precede
    /// any traffic for the workload (the testbed emits them at t=0).
    TenantAssign {
        /// The owning tenant.
        tenant_id: u32,
        /// The owned workload.
        workload_id: u32,
    },
    /// A request targeted a lambda whose firmware page was not resident
    /// in the worker's instruction-store cache: the page is fetched in
    /// and the fetch cycles are charged as execution overhead on the
    /// faulting request (the per-lambda analogue of the whole-image
    /// firmware swap).
    FirmwareFault {
        /// Tenant owning the faulting lambda.
        tenant_id: u32,
        /// The faulting lambda.
        workload_id: u32,
        /// Instruction-store words paged in.
        words: u64,
        /// Pages evicted to make room (each also emits `firmware_evict`).
        evictions: u64,
    },
    /// A firmware page was evicted from a worker's instruction-store
    /// cache to make room for a faulting page (LRU order).
    FirmwareEvict {
        /// Tenant owning the evicted lambda.
        tenant_id: u32,
        /// The evicted lambda.
        workload_id: u32,
        /// Instruction-store words freed.
        words: u64,
    },
    /// The gateway-tier controller installed a new shard map. Epochs are
    /// strictly increasing; the checker rejects any regression.
    GwShardMap {
        /// The new map's epoch (fencing token for the whole ring).
        epoch: u64,
        /// Gateway shards serving in this map.
        shards: u64,
    },
    /// A gateway shard was deposed from the ring: its tier lease provably
    /// expired (crash/partition) or it was drained, and the map that
    /// excludes it is being installed. Any `request_submitted` whose id
    /// encodes this gateway before a matching `gw_rejoin` is split-brain.
    GwDeposed {
        /// The deposed gateway shard.
        gateway: u32,
        /// The map epoch at which it was deposed.
        epoch: u64,
    },
    /// A deposed gateway shard completed the lease handshake again and
    /// rejoined the ring at a strictly higher epoch.
    GwRejoin {
        /// The rejoining gateway shard.
        gateway: u32,
        /// The new map epoch (must exceed the deposed epoch).
        epoch: u64,
    },
    /// A draining gateway handed one in-flight request to its successor
    /// (forward-or-redirect). The old request id is retired without a
    /// completion; the adopting gateway re-submits under its own id.
    GwHandoff {
        /// Gateway shard giving the request up.
        from_gateway: u32,
        /// Gateway shard adopting it.
        to_gateway: u32,
        /// The retired request id at the old gateway.
        request_id: u64,
    },
    /// The shard router accepted a client request and routed it to the
    /// gateway shard owning the client's hash point.
    GwClientSubmit {
        /// Router-assigned client-request uid (unique per run).
        uid: u64,
        /// The originating client's identity (hash key for routing).
        client_id: u64,
        /// The gateway shard chosen by the current map.
        gateway: u32,
    },
    /// The shard router delivered the single client-visible completion
    /// for a routed request. A second delivery for the same uid is an
    /// exactly-once violation (rule 14).
    GwClientComplete {
        /// The completed client-request uid.
        uid: u64,
        /// The gateway shard whose completion won.
        gateway: u32,
        /// Whether the tier gave up on the request.
        failed: bool,
    },
    /// A gateway shard bounced a routed request back to the router
    /// instead of accepting it: its tier lease had lapsed (self-fence)
    /// or it was draining. Proof that a deposed shard stops accepting.
    GwBounce {
        /// The bouncing gateway shard.
        gateway: u32,
        /// The bounced client-request uid.
        uid: u64,
        /// Why (`"fenced"`, `"draining"`, `"crashed"`).
        reason: &'static str,
    },
    /// The gateway-tier controller wrote a snapshot of its durable state
    /// (shard map, per-shard lease views, handoff ledger) to modeled
    /// stable storage. Sequence numbers are strictly increasing and the
    /// snapshot may not claim an epoch or ledger the stream has never
    /// shown (checker rule 15). Distinct from [`Self::SnapshotTaken`],
    /// which belongs to the placement failover controller and runs its
    /// own sequence.
    TierSnapshot {
        /// Monotonic tier-snapshot sequence number.
        seq: u64,
        /// The map epoch captured in the snapshot.
        epoch: u64,
        /// Member shards captured in the snapshot.
        shards: u64,
        /// Handoff-ledger total captured in the snapshot.
        handed_off: u64,
    },
    /// The gateway-tier controller finished restoring after a crash:
    /// stable state re-adopted (or a cold rebuild when the snapshot was
    /// missing/corrupt) and live shard epochs reconciled via
    /// query/report. The restored epoch must cover every epoch the
    /// stream has shown and the ledger may not exceed the observed
    /// handoffs (checker rule 15).
    TierRestore {
        /// The snapshot sequence restored from (0 = cold rebuild).
        seq: u64,
        /// The map epoch in force after the restore.
        epoch: u64,
        /// Shard epoch reports reconciled before this emit.
        reconciled: u64,
        /// Handoff-ledger total after the restore.
        handed_off: u64,
    },
}

impl TraceEvent {
    /// A stable tag naming the event kind (used by the JSONL and hash
    /// sinks; never rename without regenerating goldens).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RequestSubmitted { .. } => "request_submitted",
            TraceEvent::RequestRetransmit { .. } => "request_retransmit",
            TraceEvent::RequestCompleted { .. } => "request_completed",
            TraceEvent::RequestUnplaced { .. } => "request_unplaced",
            TraceEvent::ExecStart { .. } => "exec_start",
            TraceEvent::ExecSuspend { .. } => "exec_suspend",
            TraceEvent::ExecResume { .. } => "exec_resume",
            TraceEvent::ExecFinish { .. } => "exec_finish",
            TraceEvent::MemCharge { .. } => "mem_charge",
            TraceEvent::WfqEnqueue { .. } => "wfq_enqueue",
            TraceEvent::WfqDequeue { .. } => "wfq_dequeue",
            TraceEvent::LinkTx { .. } => "link_tx",
            TraceEvent::LinkDrop { .. } => "link_drop",
            TraceEvent::SwitchForward { .. } => "switch_forward",
            TraceEvent::SwitchDrop { .. } => "switch_drop",
            TraceEvent::ProgramInstall {} => "program_install",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Mark { .. } => "mark",
            TraceEvent::PlacementCapacity { .. } => "placement_capacity",
            TraceEvent::Place { .. } => "place",
            TraceEvent::Unplace { .. } => "unplace",
            TraceEvent::MigrateStart { .. } => "migrate_start",
            TraceEvent::MigrateDone { .. } => "migrate_done",
            TraceEvent::PlacementReject { .. } => "reject",
            TraceEvent::AdmissionReject { .. } => "admission_reject",
            TraceEvent::HedgeFired { .. } => "hedge_fired",
            TraceEvent::HedgeWon { .. } => "hedge_won",
            TraceEvent::DeadlineDrop { .. } => "deadline_drop",
            TraceEvent::EndpointQuarantine { .. } => "endpoint_quarantine",
            TraceEvent::FragDrop { .. } => "frag_drop",
            TraceEvent::LeaseGrant { .. } => "lease_grant",
            TraceEvent::LeaseExpire { .. } => "lease_expire",
            TraceEvent::WorkerFenced { .. } => "worker_fenced",
            TraceEvent::WorkerRejoin { .. } => "worker_rejoin",
            TraceEvent::FencedReject { .. } => "fenced_reject",
            TraceEvent::StaleReplyDrop { .. } => "stale_reply_drop",
            TraceEvent::SnapshotTaken { .. } => "snapshot_taken",
            TraceEvent::SnapshotRestored { .. } => "snapshot_restored",
            TraceEvent::KvInvoke { .. } => "kv_invoke",
            TraceEvent::KvResponse { .. } => "kv_response",
            TraceEvent::TenantAssign { .. } => "tenant_assign",
            TraceEvent::FirmwareFault { .. } => "firmware_fault",
            TraceEvent::FirmwareEvict { .. } => "firmware_evict",
            TraceEvent::GwShardMap { .. } => "gw_shard_map",
            TraceEvent::GwDeposed { .. } => "gw_deposed",
            TraceEvent::GwRejoin { .. } => "gw_rejoin",
            TraceEvent::GwHandoff { .. } => "gw_handoff",
            TraceEvent::GwClientSubmit { .. } => "gw_client_submit",
            TraceEvent::GwClientComplete { .. } => "gw_client_complete",
            TraceEvent::GwBounce { .. } => "gw_bounce",
            TraceEvent::TierSnapshot { .. } => "tier_snapshot",
            TraceEvent::TierRestore { .. } => "tier_restore",
        }
    }

    /// Visits every field as a `(name, value)` pair in declaration order.
    pub fn visit_fields(&self, f: &mut dyn FnMut(&'static str, FieldValue)) {
        use FieldValue::{Bool, Str, U64};
        match *self {
            TraceEvent::RequestSubmitted {
                request_id,
                workload_id,
            } => {
                f("request_id", U64(request_id));
                f("workload_id", U64(workload_id.into()));
            }
            TraceEvent::RequestRetransmit {
                request_id,
                workload_id,
            } => {
                f("request_id", U64(request_id));
                f("workload_id", U64(workload_id.into()));
            }
            TraceEvent::RequestCompleted {
                request_id,
                workload_id,
                latency_ns,
                failed,
            } => {
                f("request_id", U64(request_id));
                f("workload_id", U64(workload_id.into()));
                f("latency_ns", U64(latency_ns));
                f("failed", Bool(failed));
            }
            TraceEvent::RequestUnplaced { workload_id } => {
                f("workload_id", U64(workload_id.into()));
            }
            TraceEvent::ExecStart {
                core,
                lambda_id,
                request_id,
                tenant_id,
            } => {
                f("core", U64(core.into()));
                f("lambda_id", U64(lambda_id.into()));
                f("request_id", U64(request_id));
                f("tenant_id", U64(tenant_id.into()));
            }
            TraceEvent::ExecSuspend {
                core,
                lambda_id,
                request_id,
            }
            | TraceEvent::ExecResume {
                core,
                lambda_id,
                request_id,
            } => {
                f("core", U64(core.into()));
                f("lambda_id", U64(lambda_id.into()));
                f("request_id", U64(request_id));
            }
            TraceEvent::ExecFinish {
                core,
                lambda_id,
                request_id,
                total_cycles,
                overhead_cycles,
                instr_cycles,
            } => {
                f("core", U64(core.into()));
                f("lambda_id", U64(lambda_id.into()));
                f("request_id", U64(request_id));
                f("total_cycles", U64(total_cycles));
                f("overhead_cycles", U64(overhead_cycles));
                f("instr_cycles", U64(instr_cycles));
            }
            TraceEvent::MemCharge {
                core,
                lambda_id,
                request_id,
                level,
                latency_cycles,
                scalar,
                bulk_ops,
                bulk_bytes,
                cycles,
                owner_tenant,
            } => {
                f("core", U64(core.into()));
                f("lambda_id", U64(lambda_id.into()));
                f("request_id", U64(request_id));
                f("level", Str(level));
                f("latency_cycles", U64(latency_cycles));
                f("scalar", U64(scalar));
                f("bulk_ops", U64(bulk_ops));
                f("bulk_bytes", U64(bulk_bytes));
                f("cycles", U64(cycles));
                f("owner_tenant", U64(owner_tenant.into()));
            }
            TraceEvent::WfqEnqueue {
                lambda_id,
                weight_milli,
                depth,
                tenant_id,
                tenant_weight_milli,
            }
            | TraceEvent::WfqDequeue {
                lambda_id,
                weight_milli,
                depth,
                tenant_id,
                tenant_weight_milli,
            } => {
                f("lambda_id", U64(lambda_id.into()));
                f("weight_milli", U64(weight_milli));
                f("depth", U64(depth));
                f("tenant_id", U64(tenant_id.into()));
                f("tenant_weight_milli", U64(tenant_weight_milli));
            }
            TraceEvent::LinkTx { bytes } => f("bytes", U64(bytes)),
            TraceEvent::LinkDrop { bytes, reason } => {
                f("bytes", U64(bytes));
                f("reason", Str(reason));
            }
            TraceEvent::SwitchForward { bytes } | TraceEvent::SwitchDrop { bytes } => {
                f("bytes", U64(bytes));
            }
            TraceEvent::ProgramInstall {} => {}
            TraceEvent::Fault { kind, detail } => {
                f("kind", Str(kind));
                f("detail", U64(detail));
            }
            TraceEvent::Mark { label, a, b } => {
                f("label", Str(label));
                f("a", U64(a));
                f("b", U64(b));
            }
            TraceEvent::PlacementCapacity {
                worker,
                instr_words,
                mem_bytes,
            } => {
                f("worker", U64(worker.into()));
                f("instr_words", U64(instr_words));
                f("mem_bytes", U64(mem_bytes));
            }
            TraceEvent::Place {
                workload_id,
                worker,
                target,
                instr_words,
                mem_bytes,
            } => {
                f("workload_id", U64(workload_id.into()));
                f("worker", U64(worker.into()));
                f("target", Str(target));
                f("instr_words", U64(instr_words));
                f("mem_bytes", U64(mem_bytes));
            }
            TraceEvent::Unplace {
                workload_id,
                worker,
                target,
            } => {
                f("workload_id", U64(workload_id.into()));
                f("worker", U64(worker.into()));
                f("target", Str(target));
            }
            TraceEvent::MigrateStart {
                workload_id,
                from_worker,
                from_target,
                to_worker,
                to_target,
            }
            | TraceEvent::MigrateDone {
                workload_id,
                from_worker,
                from_target,
                to_worker,
                to_target,
            } => {
                f("workload_id", U64(workload_id.into()));
                f("from_worker", U64(from_worker.into()));
                f("from_target", Str(from_target));
                f("to_worker", U64(to_worker.into()));
                f("to_target", Str(to_target));
            }
            TraceEvent::PlacementReject {
                workload_id,
                worker,
                reason,
            } => {
                f("workload_id", U64(workload_id.into()));
                f("worker", U64(worker.into()));
                f("reason", Str(reason));
            }
            TraceEvent::AdmissionReject {
                workload_id,
                reason,
            } => {
                f("workload_id", U64(workload_id.into()));
                f("reason", Str(reason));
            }
            TraceEvent::HedgeFired {
                request_id,
                workload_id,
            }
            | TraceEvent::HedgeWon {
                request_id,
                workload_id,
            } => {
                f("request_id", U64(request_id));
                f("workload_id", U64(workload_id.into()));
            }
            TraceEvent::DeadlineDrop {
                request_id,
                workload_id,
                overdue_ns,
            } => {
                f("request_id", U64(request_id));
                f("workload_id", U64(workload_id.into()));
                f("overdue_ns", U64(overdue_ns));
            }
            TraceEvent::EndpointQuarantine {
                worker,
                ewma_ns,
                median_ns,
            } => {
                f("worker", U64(worker.into()));
                f("ewma_ns", U64(ewma_ns));
                f("median_ns", U64(median_ns));
            }
            TraceEvent::FragDrop {
                request_id,
                frag_index,
                frag_count,
                reason,
            } => {
                f("request_id", U64(request_id));
                f("frag_index", U64(frag_index));
                f("frag_count", U64(frag_count));
                f("reason", Str(reason));
            }
            TraceEvent::LeaseGrant {
                worker,
                epoch,
                until_ns,
            } => {
                f("worker", U64(worker.into()));
                f("epoch", U64(epoch));
                f("until_ns", U64(until_ns));
            }
            TraceEvent::LeaseExpire { worker, epoch } => {
                f("worker", U64(worker.into()));
                f("epoch", U64(epoch));
            }
            TraceEvent::WorkerFenced {
                worker,
                component,
                epoch,
            }
            | TraceEvent::WorkerRejoin {
                worker,
                component,
                epoch,
            } => {
                f("worker", U64(worker.into()));
                f("component", U64(component.into()));
                f("epoch", U64(epoch));
            }
            TraceEvent::FencedReject {
                request_id,
                workload_id,
                hdr_epoch,
                worker_epoch,
            } => {
                f("request_id", U64(request_id));
                f("workload_id", U64(workload_id.into()));
                f("hdr_epoch", U64(hdr_epoch));
                f("worker_epoch", U64(worker_epoch));
            }
            TraceEvent::StaleReplyDrop {
                request_id,
                reply_epoch,
                floor_epoch,
            } => {
                f("request_id", U64(request_id));
                f("reply_epoch", U64(reply_epoch));
                f("floor_epoch", U64(floor_epoch));
            }
            TraceEvent::SnapshotTaken {
                seq,
                workers,
                placements,
            } => {
                f("seq", U64(seq));
                f("workers", U64(workers));
                f("placements", U64(placements));
            }
            TraceEvent::SnapshotRestored { seq, reconciled } => {
                f("seq", U64(seq));
                f("reconciled", U64(reconciled));
            }
            TraceEvent::KvInvoke {
                request_id,
                key,
                write,
                value,
            } => {
                f("request_id", U64(request_id));
                f("key", U64(key));
                f("write", Bool(write));
                f("value", U64(value));
            }
            TraceEvent::KvResponse {
                request_id,
                ok,
                found,
                value,
            } => {
                f("request_id", U64(request_id));
                f("ok", Bool(ok));
                f("found", Bool(found));
                f("value", U64(value));
            }
            TraceEvent::TenantAssign {
                tenant_id,
                workload_id,
            } => {
                f("tenant_id", U64(tenant_id.into()));
                f("workload_id", U64(workload_id.into()));
            }
            TraceEvent::FirmwareFault {
                tenant_id,
                workload_id,
                words,
                evictions,
            } => {
                f("tenant_id", U64(tenant_id.into()));
                f("workload_id", U64(workload_id.into()));
                f("words", U64(words));
                f("evictions", U64(evictions));
            }
            TraceEvent::FirmwareEvict {
                tenant_id,
                workload_id,
                words,
            } => {
                f("tenant_id", U64(tenant_id.into()));
                f("workload_id", U64(workload_id.into()));
                f("words", U64(words));
            }
            TraceEvent::GwShardMap { epoch, shards } => {
                f("epoch", U64(epoch));
                f("shards", U64(shards));
            }
            TraceEvent::GwDeposed { gateway, epoch } | TraceEvent::GwRejoin { gateway, epoch } => {
                f("gateway", U64(gateway.into()));
                f("epoch", U64(epoch));
            }
            TraceEvent::GwHandoff {
                from_gateway,
                to_gateway,
                request_id,
            } => {
                f("from_gateway", U64(from_gateway.into()));
                f("to_gateway", U64(to_gateway.into()));
                f("request_id", U64(request_id));
            }
            TraceEvent::GwClientSubmit {
                uid,
                client_id,
                gateway,
            } => {
                f("uid", U64(uid));
                f("client_id", U64(client_id));
                f("gateway", U64(gateway.into()));
            }
            TraceEvent::GwClientComplete {
                uid,
                gateway,
                failed,
            } => {
                f("uid", U64(uid));
                f("gateway", U64(gateway.into()));
                f("failed", Bool(failed));
            }
            TraceEvent::GwBounce {
                gateway,
                uid,
                reason,
            } => {
                f("gateway", U64(gateway.into()));
                f("uid", U64(uid));
                f("reason", Str(reason));
            }
            TraceEvent::TierSnapshot {
                seq,
                epoch,
                shards,
                handed_off,
            } => {
                f("seq", U64(seq));
                f("epoch", U64(epoch));
                f("shards", U64(shards));
                f("handed_off", U64(handed_off));
            }
            TraceEvent::TierRestore {
                seq,
                epoch,
                reconciled,
                handed_off,
            } => {
                f("seq", U64(seq));
                f("epoch", U64(epoch));
                f("reconciled", U64(reconciled));
                f("handed_off", U64(handed_off));
            }
        }
    }
}

/// One stamped record on the trace stream.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Virtual time of emission.
    pub at: SimTime,
    /// Global emission sequence number (dense, starting at 0).
    pub seq: u64,
    /// The component that emitted the event.
    pub src: ComponentId,
    /// The event payload.
    pub event: TraceEvent,
}

/// A consumer of the trace stream.
///
/// Sinks run inline on the emit path, so `on_record` should stay cheap.
/// `on_finish` fires once when [`crate::Simulation::finish_tracing`] is
/// called (end-of-run checks, flushing buffers).
pub trait TraceSink: Any {
    /// Consumes one record.
    fn on_record(&mut self, rec: &TraceRecord);

    /// Notifies the sink that the run is over.
    fn on_finish(&mut self, _now: SimTime) {}
}

/// The per-simulation fan-out point for trace records.
pub struct Tracer {
    sinks: Vec<Box<dyn TraceSink>>,
    next_seq: u64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sinks", &self.sinks.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates a tracer with no sinks.
    pub fn new() -> Self {
        Tracer {
            sinks: Vec::new(),
            next_seq: 0,
        }
    }

    /// Registers a sink.
    pub fn add_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sinks.push(sink);
    }

    /// Number of records emitted so far.
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// Stamps and fans out one event.
    pub fn record(&mut self, at: SimTime, src: ComponentId, event: TraceEvent) {
        let rec = TraceRecord {
            at,
            seq: self.next_seq,
            src,
            event,
        };
        self.next_seq += 1;
        for sink in &mut self.sinks {
            sink.on_record(&rec);
        }
    }

    /// Signals end-of-run to every sink.
    pub fn finish(&mut self, now: SimTime) {
        for sink in &mut self.sinks {
            sink.on_finish(now);
        }
    }

    /// Borrows the first sink of concrete type `S`, if registered.
    pub fn sink<S: TraceSink>(&self) -> Option<&S> {
        self.sinks
            .iter()
            .find_map(|s| (s.as_ref() as &dyn Any).downcast_ref::<S>())
    }

    /// Mutably borrows the first sink of concrete type `S`, if registered.
    pub fn sink_mut<S: TraceSink>(&mut self) -> Option<&mut S> {
        self.sinks
            .iter_mut()
            .find_map(|s| (s.as_mut() as &mut dyn Any).downcast_mut::<S>())
    }
}

/// A bounded ring of the most recent records.
pub struct RingSink {
    cap: usize,
    buf: VecDeque<TraceRecord>,
    seen: u64,
}

impl RingSink {
    /// Creates a ring keeping at most `cap` records.
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: VecDeque::with_capacity(cap.min(4096)),
            seen: 0,
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Total records observed (including evicted ones).
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl TraceSink for RingSink {
    fn on_record(&mut self, rec: &TraceRecord) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(rec.clone());
        self.seen += 1;
    }
}

/// Renders one record as a single-line JSON object.
///
/// The schema is flat: `at` (ns), `seq`, `src` (component index), `kind`,
/// then the event's own fields. Static tags are emitted as JSON strings;
/// they never contain characters needing escapes.
pub fn json_line(rec: &TraceRecord) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "{{\"at\":{},\"seq\":{},\"src\":{},\"kind\":\"{}\"",
        rec.at.as_nanos(),
        rec.seq,
        rec.src.index(),
        rec.event.kind()
    );
    rec.event.visit_fields(&mut |name, value| {
        let _ = match value {
            FieldValue::U64(v) => write!(s, ",\"{name}\":{v}"),
            FieldValue::Bool(v) => write!(s, ",\"{name}\":{v}"),
            FieldValue::Str(v) => write!(s, ",\"{name}\":\"{v}\""),
        };
    });
    s.push('}');
    s
}

/// Streams records as JSON Lines to a writer.
pub struct JsonlSink {
    out: io::BufWriter<Box<dyn Write>>,
    lines: u64,
}

impl JsonlSink {
    /// Wraps an arbitrary writer.
    pub fn new(out: Box<dyn Write>) -> Self {
        JsonlSink {
            out: io::BufWriter::new(out),
            lines: 0,
        }
    }

    /// Creates (truncates) `path` and streams records into it.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(file)))
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl TraceSink for JsonlSink {
    fn on_record(&mut self, rec: &TraceRecord) {
        // A full disk during an experiment is not worth a panic in the
        // middle of the run; drop the line.
        let _ = writeln!(self.out, "{}", json_line(rec));
        self.lines += 1;
    }

    fn on_finish(&mut self, _now: SimTime) {
        let _ = self.out.flush();
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Folds the stream into a stable 64-bit FNV-1a digest.
///
/// The digest covers every record's time, sequence number, source
/// component, event kind, and every field name and value — so any change
/// in event order, timing, or content changes the hash. It is identical
/// across debug/release builds and platforms.
pub struct HashSink {
    state: u64,
    count: u64,
}

impl Default for HashSink {
    fn default() -> Self {
        Self::new()
    }
}

impl HashSink {
    /// Creates an empty digest.
    pub fn new() -> Self {
        HashSink {
            state: FNV_OFFSET,
            count: 0,
        }
    }

    /// The digest over everything consumed so far.
    pub fn hash(&self) -> u64 {
        self.state
    }

    /// Records consumed.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl TraceSink for HashSink {
    fn on_record(&mut self, rec: &TraceRecord) {
        let mut h = self.state;
        h = fnv1a(h, &rec.at.as_nanos().to_le_bytes());
        h = fnv1a(h, &rec.seq.to_le_bytes());
        h = fnv1a(h, &(rec.src.index() as u64).to_le_bytes());
        h = fnv1a(h, rec.event.kind().as_bytes());
        rec.event.visit_fields(&mut |name, value| {
            h = fnv1a(h, name.as_bytes());
            h = match value {
                FieldValue::U64(v) => fnv1a(h, &v.to_le_bytes()),
                FieldValue::Bool(v) => fnv1a(h, &[u8::from(v)]),
                FieldValue::Str(v) => fnv1a(h, v.as_bytes()),
            };
        });
        self.state = h;
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64, seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(at_ns),
            seq,
            src: crate::engine::ComponentId::from_index_for_tests(3),
            event,
        }
    }

    #[test]
    fn json_line_is_flat_and_complete() {
        let line = json_line(&rec(
            1500,
            7,
            TraceEvent::RequestCompleted {
                request_id: 42,
                workload_id: 2,
                latency_ns: 880,
                failed: false,
            },
        ));
        assert_eq!(
            line,
            "{\"at\":1500,\"seq\":7,\"src\":3,\"kind\":\"request_completed\",\
             \"request_id\":42,\"workload_id\":2,\"latency_ns\":880,\"failed\":false}"
        );
    }

    #[test]
    fn hash_is_order_and_content_sensitive() {
        let a = rec(10, 0, TraceEvent::LinkTx { bytes: 64 });
        let b = rec(20, 1, TraceEvent::LinkTx { bytes: 64 });

        let mut h1 = HashSink::new();
        h1.on_record(&a);
        h1.on_record(&b);
        let mut h2 = HashSink::new();
        h2.on_record(&b);
        h2.on_record(&a);
        assert_ne!(h1.hash(), h2.hash(), "order must matter");

        let mut h3 = HashSink::new();
        h3.on_record(&a);
        h3.on_record(&b);
        assert_eq!(h1.hash(), h3.hash(), "same stream, same digest");

        let mut h4 = HashSink::new();
        h4.on_record(&a);
        h4.on_record(&rec(20, 1, TraceEvent::LinkTx { bytes: 65 }));
        assert_ne!(h1.hash(), h4.hash(), "content must matter");
    }

    #[test]
    fn ring_sink_keeps_most_recent() {
        let mut ring = RingSink::new(2);
        for i in 0..5 {
            ring.on_record(&rec(
                i,
                i,
                TraceEvent::Mark {
                    label: "m",
                    a: i,
                    b: 0,
                },
            ));
        }
        assert_eq!(ring.seen(), 5);
        let kept: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn tracer_fans_out_and_stamps_sequence() {
        let mut tracer = Tracer::new();
        tracer.add_sink(Box::new(RingSink::new(16)));
        tracer.add_sink(Box::new(HashSink::new()));
        let src = crate::engine::ComponentId::from_index_for_tests(0);
        tracer.record(SimTime::from_nanos(1), src, TraceEvent::LinkTx { bytes: 1 });
        tracer.record(SimTime::from_nanos(2), src, TraceEvent::LinkTx { bytes: 2 });
        assert_eq!(tracer.emitted(), 2);
        let ring = tracer.sink::<RingSink>().unwrap();
        let seqs: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(tracer.sink::<HashSink>().unwrap().count(), 2);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let path = std::env::temp_dir().join("lnic_trace_test.jsonl");
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.on_record(&rec(5, 0, TraceEvent::SwitchDrop { bytes: 9 }));
            sink.on_record(&rec(6, 1, TraceEvent::ProgramInstall {}));
            sink.on_finish(SimTime::from_nanos(6));
            assert_eq!(sink.lines(), 2);
        }
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"switch_drop\""));
        assert!(lines[1].ends_with("\"kind\":\"program_install\"}"));
        let _ = std::fs::remove_file(&path);
    }
}
