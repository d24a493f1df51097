//! Online invariant checking over the trace stream.
//!
//! [`InvariantChecker`] is a [`TraceSink`] that validates, while the
//! simulation runs, the properties the λ-NIC model's headline numbers
//! rest on:
//!
//! 1. **Clock monotonicity** — records never go backwards in sim time.
//! 2. **Request conservation** — every completion matches exactly one
//!    outstanding submission (no invented or double-counted requests),
//!    and at end of run `submitted = completed + failed + in-flight`.
//! 3. **Per-core run-to-completion** — once a job starts on an NPU
//!    thread or host worker, no other job starts on that core until it
//!    finishes (§4.2-D1); RPC suspensions keep the core held.
//! 4. **WFQ weight bounds** — among continuously-backlogged lambdas,
//!    per-lambda service normalized by weight stays within a small
//!    additive bound of every other's (credit-based WRR guarantee), and
//!    no backlogged lambda starves.
//! 5. **Memory-hierarchy cost consistency** — the cycles a finishing job
//!    was charged equal its fixed overheads plus one cycle per
//!    instruction plus the per-object memory charges recomputed from the
//!    documented cost model (scalar burst amortization, bulk latency +
//!    streaming).
//! 6. **Placement conservation** — once a lambda is placed by the
//!    placement control plane, it always keeps at least one live
//!    placement (migrations must be make-before-break); a worker's
//!    NIC-resident placements never exceed its declared
//!    instruction-store or memory capacity; and every `migrate_done`
//!    pairs with a prior `migrate_start`. The checks only engage when
//!    placement events appear on the stream, so testbeds without a
//!    placer are unaffected.
//! 7. **At most one live owner per placement across epochs** — between a
//!    `worker_fenced` event and the matching `worker_rejoin`, the fenced
//!    component must not start executing any job (a stale owner running
//!    work after the controller re-placed its lambdas is exactly the
//!    split-brain the fencing tokens exist to prevent).
//! 8. **Fencing-token monotonicity** — per worker, lease/fence/rejoin
//!    epochs never regress (including across controller restarts), a
//!    rejoin strictly bumps the fenced epoch, a worker never rejects a
//!    token fresher than its own epoch, and the gateway only discards
//!    replies whose epoch is genuinely below the fence floor.
//! 9. **Snapshot conservation** — control-plane snapshot sequence
//!    numbers strictly increase, and a restore names a snapshot that was
//!    actually taken (a restart must not invent state).
//! 10. **Linearizability** — the per-key history of replicated-KV
//!     operations ([`TraceEvent::KvInvoke`]/[`TraceEvent::KvResponse`]
//!     pairs emitted at the gateway) admits a legal sequential ordering
//!     that respects real time, checked online Wing–Gong style: each
//!     response re-runs a memoized search for a witness ordering over the
//!     current window. Failed writes are *ghosts* — they may take effect
//!     at any later point or never (the gateway gave up, but a delayed or
//!     duplicated frame can still apply them) — while failed reads have
//!     no visible effect and drop out. The rule only engages when KV
//!     events appear on the stream, so existing testbeds are unaffected.
//! 11. **Tenant execution isolation** — a request never executes under
//!     another tenant's lambda: the tenant an `exec_start` runs as must
//!     equal the registered owner (`tenant_assign`) of the workload the
//!     request was submitted against. Untenanted runs carry tenant 0
//!     everywhere, so the rule is active by default and vacuously clean.
//! 12. **Tenant memory isolation** — a running job is only ever charged
//!     for memory objects its own tenant owns: every `mem_charge`'s
//!     `owner_tenant` must equal the executing span's tenant.
//! 13. **Tenant-level weighted fairness** — the tenant tier of the
//!     hierarchical WFQ obeys the same starvation and
//!     weight-proportional-share bounds as the per-lambda tier
//!     (invariant 4), computed over the tenant ids and weights stamped
//!     on `wfq_enqueue`/`wfq_dequeue`: under saturation, per-tenant
//!     service normalized by tenant weight converges to equal shares.
//! 14. **Gateway-tier exactly-once and epoch monotonicity** — across
//!     shard-map changes and gateway-to-gateway handoffs, each routed
//!     client request (`gw_client_submit`) is delivered exactly one
//!     client-visible completion (`gw_client_complete`); shard-map
//!     epochs (`gw_shard_map`) strictly increase; a deposed gateway
//!     (`gw_deposed`) must not accept new requests — detected through
//!     the gateway id encoded in the high bits of submitted request
//!     ids — until it rejoins (`gw_rejoin`) at a strictly higher
//!     epoch; and a `gw_handoff` retires an outstanding request at
//!     the old gateway exactly once (the successor re-submits it under
//!     its own id, keeping conservation whole). The rule only engages
//!     when gateway-tier events appear on the stream.
//! 15. **Tier-controller snapshot/restore conservation** — tier
//!     snapshot sequence numbers (`tier_snapshot`) strictly increase; a
//!     snapshot never claims a map epoch above the last published
//!     `gw_shard_map` (write-through order) nor a handoff-ledger total
//!     above the `gw_handoff` events actually observed; a restore
//!     (`tier_restore`) names a snapshot that was actually taken (seq 0
//!     is the declared cold rebuild) and never regresses the map epoch
//!     below the last published one — with requests neither lost nor
//!     duplicated across the restore (that part is invariant 14's
//!     exactly-once machinery plus end-of-run conservation, which keep
//!     running across the controller outage). Engages with the
//!     gateway-tier rule.
//!
//! By default a violation panics immediately with the offending record,
//! which makes every integration test a correctness gate; use
//! [`InvariantChecker::collecting`] to gather violations instead (e.g.
//! to assert that a deliberately broken run *is* caught).

use std::collections::BTreeSet;

use crate::hash::{FastMap, FastSet};
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceRecord, TraceSink};

/// Mirror of the cost model's scalar burst factor
/// (`lnic_mlambda::cost::SCALAR_BURST`); the checker recomputes memory
/// charges independently, so the constant is duplicated by design — if
/// the model changes, this check is *supposed* to fail until both sides
/// agree.
pub const SCALAR_BURST: u64 = 8;

/// Mirror of `lnic_mlambda::cost::BULK_BYTES_PER_CYCLE`.
pub const BULK_BYTES_PER_CYCLE: u64 = 8;

/// Dequeues a continuously-backlogged lambda may wait, per unit of
/// (total weight / own weight), before the checker calls starvation.
const STARVATION_FACTOR: u64 = 4;

/// Additive slack (in dequeues) on the starvation bound.
const STARVATION_SLACK: u64 = 64;

/// Allowed spread, in weight-normalized service rounds, between any two
/// continuously-backlogged lambdas (credit WRR serves bursts of up to
/// `weight` items, so ~1 round of skew is inherent; 4 is generous).
const FAIRNESS_SLACK_ROUNDS: f64 = 4.0;

/// Dequeues (per backlogged lambda) before the fairness bound is
/// enforced on a window, letting shares converge first.
const FAIRNESS_MIN_WINDOW: u64 = 16;

#[derive(Debug)]
struct JobSpan {
    request_id: u64,
    lambda_id: u32,
    /// The tenant the job started under (invariant 12 joins memory
    /// charges against it).
    tenant_id: u32,
    suspended: bool,
    /// A program install landed mid-job: charged cycles may mix two
    /// images' placements, so skip the cost identity.
    cost_exempt: bool,
    charge_sum: u64,
}

#[derive(Debug, Default)]
struct LambdaQueue {
    backlog: u64,
    weight_milli: u64,
    served_in_window: u64,
    dequeues_since_served: u64,
}

/// Per-component WFQ bookkeeping. A "window" is a maximal span of
/// dequeues over which the set of backlogged lambdas did not change, so
/// every lambda in it was continuously backlogged.
#[derive(Debug, Default)]
struct WfqState {
    lambdas: FastMap<u32, LambdaQueue>,
    window_dequeues: u64,
}

impl WfqState {
    fn reset_window(&mut self) {
        self.window_dequeues = 0;
        for q in self.lambdas.values_mut() {
            q.served_in_window = 0;
            q.dequeues_since_served = 0;
        }
    }
}

/// Completed KV ops a key's window may hold before the checker forces a
/// compaction (ghosts folded into the wildcard set — a sound
/// over-approximation, counted in [`InvariantChecker::kv_forced_gc`]).
const KV_WINDOW_CAP: usize = 96;

/// Optional (ghost / still-pending) ops a key's window may hold before
/// a forced compaction. Ghosts carry no real-time upper bound, so each
/// one roughly doubles the Wing–Gong state space: an outage that fails
/// every write (leaderless churn, a partitioned majority) would
/// otherwise push the per-response search cost to 2^ghosts. Compacting
/// at a small ghost count keeps the search cheap while the required-op
/// real-time order keeps it near-linear in window length.
const KV_GHOST_CAP: usize = 8;

/// One completed (or ghost) operation in a key's linearizability window.
#[derive(Clone, Debug)]
struct KvOp {
    request_id: u64,
    /// Trace sequence number of the invocation (real-time lower bound).
    invoke_seq: u64,
    /// Trace sequence number of the response (real-time upper bound —
    /// only binding for `required` ops; `u64::MAX` while the op is
    /// still pending).
    resp_seq: u64,
    write: bool,
    /// The value written (writes) or returned (successful reads).
    value: u64,
    /// Reads: whether the key was present.
    found: bool,
    /// Acknowledged ops must appear in the witness ordering; ghosts
    /// (failed or still-pending writes) are optional and carry no
    /// real-time upper bound.
    required: bool,
}

/// An invocation awaiting its response.
#[derive(Debug)]
struct PendingKvOp {
    key: u64,
    invoke_seq: u64,
    write: bool,
    value: u64,
}

/// Per-key linearizability state (invariant 10).
#[derive(Debug, Default)]
struct KeyHistory {
    /// Completed ops not yet compacted, in completion order.
    window: Vec<KvOp>,
    /// Possible register values at the start of the window (`None` =
    /// absent). Seeded with `{None}`; replaced by the reachable final
    /// values at each compaction.
    init_values: BTreeSet<Option<u64>>,
    /// Values of ghost writes dropped by a forced compaction: a later
    /// read returning one is accepted as "the ghost applied just before
    /// this read" (over-approximation, see [`KV_WINDOW_CAP`]).
    wildcard: FastSet<u64>,
    /// Invocations on this key still awaiting a response.
    open: usize,
}

impl KeyHistory {
    fn fresh() -> Self {
        KeyHistory {
            init_values: std::iter::once(None).collect(),
            ..KeyHistory::default()
        }
    }

    /// Ops with no real-time upper bound: ghosts and in-flight writes.
    fn optional_len(&self) -> usize {
        self.window.iter().filter(|op| !op.required).count()
    }

    /// Wing–Gong search: does the window admit a witness ordering, and
    /// if so, which register values can a complete ordering end on?
    ///
    /// DFS over `(linearized-set, value)` states with memoization. From
    /// each state any not-yet-linearized op may go next unless a
    /// *required* op's response precedes its invocation (real time
    /// forbids reordering past an op that demonstrably finished first);
    /// reads must match the current value, writes set it. A state is
    /// complete once every required op is linearized — ghosts may remain
    /// unlinearized forever.
    fn search(&self) -> Option<BTreeSet<Option<u64>>> {
        let n = self.window.len();
        debug_assert!(n <= 128, "window bounded by KV_WINDOW_CAP");
        let mut required_mask: u128 = 0;
        for (i, op) in self.window.iter().enumerate() {
            if op.required {
                required_mask |= 1 << i;
            }
        }
        let mut finals = BTreeSet::new();
        let mut seen = FastSet::default();
        let mut stack: Vec<(u128, Option<u64>)> =
            self.init_values.iter().map(|&v| (0u128, v)).collect();
        while let Some((mask, val)) = stack.pop() {
            if !seen.insert((mask, val)) {
                continue;
            }
            if mask & required_mask == required_mask {
                finals.insert(val);
            }
            'next: for i in 0..n {
                if mask & (1 << i) != 0 {
                    continue;
                }
                let op = &self.window[i];
                for (j, other) in self.window.iter().enumerate() {
                    if j != i
                        && mask & (1 << j) == 0
                        && other.required
                        && other.resp_seq < op.invoke_seq
                    {
                        continue 'next;
                    }
                }
                let next_val = if op.write {
                    Some(op.value)
                } else if op.found {
                    if val == Some(op.value) {
                        val
                    } else if self.wildcard.contains(&op.value) {
                        Some(op.value)
                    } else {
                        continue;
                    }
                } else if val.is_none() {
                    val
                } else {
                    continue;
                };
                stack.push((mask | (1 << i), next_val));
            }
        }
        if finals.is_empty() {
            None
        } else {
            Some(finals)
        }
    }

    /// Forced compaction given a successful search: fold every optional
    /// op's value into the wildcard set (a dropped ghost or still-pending
    /// write may apply at any later point) and restart the window from
    /// the reachable final values. A sound over-approximation — it can
    /// only admit more histories, never reject a linearizable one.
    fn fold_into(&mut self, finals: BTreeSet<Option<u64>>) {
        let ghost_values: Vec<u64> = self
            .window
            .iter()
            .filter(|op| !op.required)
            .map(|op| op.value)
            .collect();
        self.init_values = finals;
        for v in ghost_values {
            self.init_values.insert(Some(v));
            self.wildcard.insert(v);
        }
        self.window.clear();
    }

    /// A compact rendering of the window for violation messages.
    fn describe(&self) -> String {
        let ops: Vec<String> = self
            .window
            .iter()
            .map(|op| {
                let kind = match (op.write, op.required) {
                    (true, true) => "W",
                    (true, false) => "W?",
                    (false, _) if op.found => "R",
                    (false, _) => "R∅",
                };
                let resp = if op.resp_seq == u64::MAX {
                    "?".to_string()
                } else {
                    op.resp_seq.to_string()
                };
                format!(
                    "{kind}(v={},inv={},resp={resp},req={})",
                    op.value, op.invoke_seq, op.request_id
                )
            })
            .collect();
        format!("inits {:?}, window [{}]", self.init_values, ops.join(" "))
    }
}

/// The client uids delivered so far (invariant 14), held as a watermark
/// plus a sparse set: every uid in `1..=through` was delivered, and
/// `above` holds the other delivered uids. The router issues uids in
/// increasing order and delivers most in order, so `above` holds only
/// what was delivered after the oldest undelivered uid, and the whole
/// set stays as small as the requests in flight, not the run.
#[derive(Debug, Default)]
struct DeliveredUids {
    through: u64,
    above: FastSet<u64>,
}

impl DeliveredUids {
    fn contains(&self, uid: u64) -> bool {
        (1..=self.through).contains(&uid) || self.above.contains(&uid)
    }

    /// Marks `uid` delivered; the caller has checked it was not.
    fn insert(&mut self, uid: u64) {
        if uid != self.through + 1 {
            self.above.insert(uid);
            return;
        }
        self.through = uid;
        while self.above.remove(&(self.through + 1)) {
            self.through += 1;
        }
    }

    fn len(&self) -> u64 {
        self.through + self.above.len() as u64
    }
}

/// The online checker; see the module docs for the invariant list.
pub struct InvariantChecker {
    panic_on_violation: bool,
    violations: Vec<String>,
    records: u64,
    finished: bool,
    last_at: SimTime,

    // Request conservation (gateway events).
    submitted: u64,
    completed: u64,
    failed: u64,
    outstanding: FastSet<u64>,
    // Requests with a hedge in flight: a hedge may only be fired once
    // per request, only while the request is outstanding, and must
    // never double-count in conservation (the completion stays 1:1).
    hedged: FastSet<u64>,
    shed: u64,

    // Run-to-completion + cost consistency, keyed by (component, core).
    slots: FastMap<(usize, u32), JobSpan>,

    // WFQ fairness, keyed by component. The lambda tier tracks the
    // per-lambda queues; the tenant tier (invariant 13) tracks the
    // tenant level of the hierarchical tree. The events carry per-lambda
    // depths, so each tenant's backlog is maintained as a running sum of
    // its lambdas' last-seen depths (`wfq_lambda_depth` holds them).
    wfq: FastMap<usize, WfqState>,
    tenant_wfq: FastMap<usize, WfqState>,
    wfq_lambda_depth: FastMap<(usize, u32), (u32, u64)>,

    // Tenant isolation (invariants 11–12): workload→owner from
    // tenant_assign events, and request→workload from submissions so
    // exec_start (which carries the program-local lambda index, not the
    // workload id) can be joined back to its owner.
    tenant_owner: FastMap<u32, u32>,
    request_workload: FastMap<u64, u32>,

    // Placement conservation (invariant 6). Capacities are keyed by
    // worker index, live placements by (workload, worker, target) so a
    // make-before-break migration holds both sides simultaneously.
    placement_capacity: FastMap<u32, (u64, u64)>,
    placements: FastMap<(u32, u32, &'static str), (u64, u64)>,
    live_placements: FastMap<u32, u32>,
    ever_placed: FastSet<u32>,
    migrations_in_flight: FastMap<u32, u32>,

    // Fencing and membership (invariants 7–8). Epoch floors are keyed
    // by worker id; fenced spans by component index so `ExecStart`
    // records (attributed by `src`) can be matched against them.
    lease_epochs: FastMap<u32, u64>,
    fenced_components: FastMap<usize, u64>,

    // Snapshot conservation (invariant 9).
    snapshot_seqs: FastSet<u64>,
    last_snapshot_seq: u64,

    // Linearizability (invariant 10), engaged only when KV events
    // appear on the stream.
    kv_pending: FastMap<u64, PendingKvOp>,
    kv_keys: FastMap<u64, KeyHistory>,
    kv_ops: u64,
    kv_forced_gc: u64,

    // Gateway tier (invariant 14), engaged only when gateway-tier
    // events appear on the stream. Request ids encode the accepting
    // gateway in their high 16 bits, which is how acceptance by a
    // deposed shard is attributed.
    tier_active: bool,
    tier_epoch: u64,
    gw_epochs: FastMap<u32, u64>,
    deposed_gateways: FastMap<u32, u64>,
    client_outstanding: FastSet<u64>,
    client_delivered: DeliveredUids,
    handed_off: u64,

    // Tier-controller snapshot/restore (invariant 15). Kept separate
    // from invariant 9's `snapshot_seqs`: the placement controller and
    // the tier controller number their snapshots independently.
    tier_snapshot_seqs: FastSet<u64>,
    tier_last_snap_seq: u64,
}

impl Default for InvariantChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl InvariantChecker {
    /// A checker that panics on the first violation (the default for
    /// tests: the panic carries the offending record).
    pub fn new() -> Self {
        InvariantChecker {
            panic_on_violation: true,
            violations: Vec::new(),
            records: 0,
            finished: false,
            last_at: SimTime::ZERO,
            submitted: 0,
            completed: 0,
            failed: 0,
            outstanding: FastSet::default(),
            hedged: FastSet::default(),
            shed: 0,
            slots: FastMap::default(),
            wfq: FastMap::default(),
            tenant_wfq: FastMap::default(),
            wfq_lambda_depth: FastMap::default(),
            tenant_owner: FastMap::default(),
            request_workload: FastMap::default(),
            placement_capacity: FastMap::default(),
            placements: FastMap::default(),
            live_placements: FastMap::default(),
            ever_placed: FastSet::default(),
            migrations_in_flight: FastMap::default(),
            lease_epochs: FastMap::default(),
            fenced_components: FastMap::default(),
            snapshot_seqs: FastSet::default(),
            last_snapshot_seq: 0,
            kv_pending: FastMap::default(),
            kv_keys: FastMap::default(),
            kv_ops: 0,
            kv_forced_gc: 0,
            tier_active: false,
            tier_epoch: 0,
            gw_epochs: FastMap::default(),
            deposed_gateways: FastMap::default(),
            client_outstanding: FastSet::default(),
            client_delivered: DeliveredUids::default(),
            handed_off: 0,
            tier_snapshot_seqs: FastSet::default(),
            tier_last_snap_seq: 0,
        }
    }

    /// A checker that collects violations instead of panicking.
    pub fn collecting() -> Self {
        InvariantChecker {
            panic_on_violation: false,
            ..Self::new()
        }
    }

    /// Violations recorded so far (always empty in panicking mode).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Records observed.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Requests submitted / completed / failed so far.
    pub fn request_counts(&self) -> (u64, u64, u64) {
        (self.submitted, self.completed, self.failed)
    }

    /// Requests currently outstanding at the gateway.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Requests shed by admission control (never submitted).
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Completed replicated-KV operations checked for linearizability.
    pub fn kv_ops(&self) -> u64 {
        self.kv_ops
    }

    /// Forced window compactions (each one widens the over-approximation
    /// for its key; zero in a healthy run of bench scale).
    pub fn kv_forced_gc(&self) -> u64 {
        self.kv_forced_gc
    }

    /// Requests retired by gateway-to-gateway handoff (invariant 14);
    /// each one was outstanding at the old gateway and re-submitted by
    /// the adopting shard under its own request id.
    pub fn handed_off(&self) -> u64 {
        self.handed_off
    }

    /// Routed client requests delivered exactly one client-visible
    /// completion so far (invariant 14).
    pub fn clients_delivered(&self) -> u64 {
        self.client_delivered.len()
    }

    /// The last shard-map epoch installed by the tier controller
    /// (invariant 14); 0 when no gateway tier is on the stream.
    pub fn tier_epoch(&self) -> u64 {
        self.tier_epoch
    }

    /// Panics unless zero violations were recorded.
    ///
    /// # Panics
    ///
    /// Panics listing the violations, if any.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "{} invariant violation(s):\n{}",
            self.violations.len(),
            self.violations.join("\n")
        );
    }

    fn violation(&mut self, at: SimTime, msg: String) {
        let full = format!("[{}ns] {msg}", at.as_nanos());
        if self.panic_on_violation {
            panic!("trace invariant violated: {full}");
        }
        self.violations.push(full);
    }

    fn on_exec_start(
        &mut self,
        rec: &TraceRecord,
        core: u32,
        lambda_id: u32,
        request_id: u64,
        tenant_id: u32,
    ) {
        let key = (rec.src.index(), core);
        if let Some(prev) = self.slots.get(&key) {
            let msg = format!(
                "run-to-completion violated on {} core {core}: request {request_id} \
                 started while request {} (lambda {}) still holds the core",
                rec.src, prev.request_id, prev.lambda_id
            );
            self.violation(rec.at, msg);
        }
        // Invariant 11: the executing tenant must be the registered
        // owner of the workload the request was submitted against.
        if let Some(&workload_id) = self.request_workload.get(&request_id) {
            let owner = self.tenant_owner.get(&workload_id).copied().unwrap_or(0);
            if owner != tenant_id {
                let msg = format!(
                    "cross-tenant execution on {} core {core}: request {request_id} \
                     ran as tenant {tenant_id} under workload {workload_id}, which \
                     belongs to tenant {owner}",
                    rec.src
                );
                self.violation(rec.at, msg);
            }
        }
        self.slots.insert(
            key,
            JobSpan {
                request_id,
                lambda_id,
                tenant_id,
                suspended: false,
                cost_exempt: false,
                charge_sum: 0,
            },
        );
    }

    fn on_exec_suspend(&mut self, rec: &TraceRecord, core: u32, request_id: u64, resume: bool) {
        let key = (rec.src.index(), core);
        let what = if resume { "resumed" } else { "suspended" };
        let failure = match self.slots.get_mut(&key) {
            None => Some(format!(
                "request {request_id} {what} on idle {} core {core}",
                rec.src
            )),
            Some(span) if span.request_id != request_id => Some(format!(
                "{} core {core} holds request {} but request {request_id} \
                 changed suspension state",
                rec.src, span.request_id
            )),
            Some(span) => {
                let double = span.suspended != resume;
                span.suspended = !resume;
                double.then(|| {
                    format!(
                        "request {request_id} on {} core {core} {what} twice",
                        rec.src
                    )
                })
            }
        };
        if let Some(msg) = failure {
            self.violation(rec.at, msg);
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MemCharge event's fields
    fn on_mem_charge(
        &mut self,
        rec: &TraceRecord,
        core: u32,
        request_id: u64,
        level: &'static str,
        latency_cycles: u64,
        scalar: u64,
        bulk_ops: u64,
        bulk_bytes: u64,
        cycles: u64,
        owner_tenant: u32,
    ) {
        // Invariant 5a: the per-object charge matches the cost model.
        let expect = scalar * (1 + latency_cycles.div_ceil(SCALAR_BURST))
            + bulk_ops * latency_cycles
            + bulk_bytes.div_ceil(BULK_BYTES_PER_CYCLE);
        if cycles != expect {
            let msg = format!(
                "memory cost model mismatch on {} core {core} request {request_id} \
                 level {level}: charged {cycles} cycles, model gives {expect} \
                 (lat={latency_cycles} scalar={scalar} bulk_ops={bulk_ops} \
                 bulk_bytes={bulk_bytes})",
                rec.src
            );
            self.violation(rec.at, msg);
        }
        let key = (rec.src.index(), core);
        match self.slots.get_mut(&key) {
            Some(span) if span.request_id == request_id => {
                span.charge_sum += cycles;
                // Invariant 12: a job only touches its own tenant's
                // memory objects.
                let span_tenant = span.tenant_id;
                if span_tenant != owner_tenant {
                    let msg = format!(
                        "cross-tenant memory access on {} core {core}: request \
                         {request_id} (tenant {span_tenant}) charged for a {level} \
                         object owned by tenant {owner_tenant}",
                        rec.src
                    );
                    self.violation(rec.at, msg);
                }
            }
            _ => {
                let msg = format!(
                    "memory charge for request {request_id} on {} core {core} \
                     without a matching running job",
                    rec.src
                );
                self.violation(rec.at, msg);
            }
        }
    }

    fn on_exec_finish(
        &mut self,
        rec: &TraceRecord,
        core: u32,
        request_id: u64,
        total_cycles: u64,
        overhead_cycles: u64,
        instr_cycles: u64,
    ) {
        let key = (rec.src.index(), core);
        let Some(span) = self.slots.remove(&key) else {
            let msg = format!(
                "request {request_id} finished on idle {} core {core}",
                rec.src
            );
            self.violation(rec.at, msg);
            return;
        };
        if span.request_id != request_id {
            let msg = format!(
                "{} core {core} finished request {request_id} but was running \
                 request {}",
                rec.src, span.request_id
            );
            self.violation(rec.at, msg);
            return;
        }
        // Invariant 5b: total charged cycles decompose exactly.
        let expect = overhead_cycles + instr_cycles + span.charge_sum;
        if !span.cost_exempt && total_cycles != expect {
            let msg = format!(
                "cost consistency violated on {} core {core} request {request_id}: \
                 charged {total_cycles} cycles, but overhead {overhead_cycles} + \
                 instrs {instr_cycles} + memory {} = {expect}",
                rec.src, span.charge_sum
            );
            self.violation(rec.at, msg);
        }
    }

    /// One tier of the WFQ bounds (invariants 4 and 13): `entity` names
    /// the queueing unit ("lambda" or "tenant") for the messages.
    fn wfq_tier(
        state: &mut WfqState,
        src: String,
        entity: &'static str,
        id: u32,
        weight_milli: u64,
        depth: u64,
        deq: bool,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        let q = state.lambdas.entry(id).or_default();
        q.weight_milli = weight_milli;
        if weight_milli == 0 {
            failures.push(format!(
                "WFQ weight bound violated on {src}: {entity} {id} has \
                 non-positive weight"
            ));
            return failures;
        }
        if !deq {
            let was_empty = q.backlog == 0;
            q.backlog = depth;
            if was_empty {
                // The backlogged set changed: start a fresh fairness window.
                state.reset_window();
            }
            return failures;
        }
        if q.backlog == 0 {
            failures.push(format!(
                "WFQ on {src} dequeued {entity} {id} with no recorded backlog"
            ));
        }
        q.backlog = depth;
        q.served_in_window += 1;
        q.dequeues_since_served = 0;
        let emptied = depth == 0;
        state.window_dequeues += 1;

        // Gather the still-backlogged set for the bounds.
        let backlogged: Vec<(u32, u64, u64, u64)> = state
            .lambdas
            .iter()
            .filter(|(_, l)| l.backlog > 0)
            .map(|(&id, l)| {
                (
                    id,
                    l.weight_milli,
                    l.served_in_window,
                    l.dequeues_since_served,
                )
            })
            .collect();
        let total_milli: u64 = backlogged.iter().map(|&(_, w, _, _)| w).sum();

        if backlogged.len() >= 2 {
            // Invariant 4a: no starvation.
            for &(id, w, _, waited) in &backlogged {
                let bound = STARVATION_FACTOR * total_milli.div_ceil(w) + STARVATION_SLACK;
                if waited > bound {
                    failures.push(format!(
                        "WFQ starvation on {src}: {entity} {id} (weight {}m) backlogged \
                         through {waited} dequeues (bound {bound})",
                        w
                    ));
                }
            }
            // Invariant 4b: weight-proportional shares within the window.
            if state.window_dequeues >= FAIRNESS_MIN_WINDOW * backlogged.len() as u64 {
                let norms: Vec<f64> = backlogged
                    .iter()
                    .map(|&(_, w, served, _)| served as f64 * 1000.0 / w as f64)
                    .collect();
                let max = norms.iter().cloned().fold(f64::MIN, f64::max);
                let min = norms.iter().cloned().fold(f64::MAX, f64::min);
                if max - min > FAIRNESS_SLACK_ROUNDS {
                    failures.push(format!(
                        "WFQ weight bound violated on {src}: normalized {entity} service \
                         spread {:.2} rounds exceeds {FAIRNESS_SLACK_ROUNDS} \
                         (window of {} dequeues, set {:?})",
                        max - min,
                        state.window_dequeues,
                        backlogged
                            .iter()
                            .map(|&(id, w, served, _)| (id, w, served))
                            .collect::<Vec<_>>()
                    ));
                }
            }
        }
        // Advance starvation clocks for everyone else still waiting.
        for (&other, l) in state.lambdas.iter_mut() {
            if other != id && l.backlog > 0 {
                l.dequeues_since_served += 1;
            }
        }
        if emptied {
            // The backlogged set changed: close the window.
            state.reset_window();
        }
        failures
    }

    #[allow(clippy::too_many_arguments)] // mirrors the WFQ events' fields
    fn on_wfq(
        &mut self,
        rec: &TraceRecord,
        lambda_id: u32,
        weight_milli: u64,
        depth: u64,
        tenant_id: u32,
        tenant_weight_milli: u64,
        deq: bool,
    ) {
        let src = rec.src.to_string();
        let state = self.wfq.entry(rec.src.index()).or_default();
        let mut failures = Self::wfq_tier(
            state,
            src.clone(),
            "lambda",
            lambda_id,
            weight_milli,
            depth,
            deq,
        );
        // Tenant tier (invariant 13). The events carry per-lambda
        // depths, so each tenant's backlog is the running sum of its
        // lambdas' last-seen depths.
        let prev = self
            .wfq_lambda_depth
            .insert((rec.src.index(), lambda_id), (tenant_id, depth));
        let tstate = self.tenant_wfq.entry(rec.src.index()).or_default();
        let mut cur = tstate
            .lambdas
            .get(&tenant_id)
            .map(|q| q.backlog)
            .unwrap_or(0);
        if let Some((prev_tenant, prev_depth)) = prev {
            if prev_tenant == tenant_id {
                cur = cur.saturating_sub(prev_depth);
            } else if let Some(q) = tstate.lambdas.get_mut(&prev_tenant) {
                // A lambda changed owners mid-run (synthetic histories
                // only): move its backlog out of the old tenant.
                q.backlog = q.backlog.saturating_sub(prev_depth);
            }
        }
        let tenant_depth = cur + depth;
        failures.extend(Self::wfq_tier(
            tstate,
            src,
            "tenant",
            tenant_id,
            tenant_weight_milli,
            tenant_depth,
            deq,
        ));
        for msg in failures {
            self.violation(rec.at, msg);
        }
    }

    /// A component lost all volatile state: forget its cores and queues.
    fn on_component_reset(&mut self, src_index: usize) {
        self.slots.retain(|&(comp, _), _| comp != src_index);
        self.wfq.remove(&src_index);
        self.tenant_wfq.remove(&src_index);
        self.wfq_lambda_depth
            .retain(|&(comp, _), _| comp != src_index);
    }

    /// Sums NIC-resident usage on one worker across live placements.
    fn nic_usage(&self, worker: u32) -> (u64, u64) {
        self.placements
            .iter()
            .filter(|(&(_, w, target), _)| w == worker && target == "nic")
            .fold((0, 0), |(i, m), (_, &(instr, mem))| (i + instr, m + mem))
    }

    fn on_placement_capacity(&mut self, rec: &TraceRecord, worker: u32, instr: u64, mem: u64) {
        self.placement_capacity.insert(worker, (instr, mem));
        // Re-declared capacity must still admit what is already placed.
        let (used_instr, used_mem) = self.nic_usage(worker);
        if used_instr > instr || used_mem > mem {
            let msg = format!(
                "worker {worker} exceeds instruction-store/memory capacity after \
                 re-declaration: {used_instr} words / {used_mem} bytes placed, \
                 capacity {instr} words / {mem} bytes"
            );
            self.violation(rec.at, msg);
        }
    }

    fn on_place(
        &mut self,
        rec: &TraceRecord,
        workload_id: u32,
        worker: u32,
        target: &'static str,
        instr: u64,
        mem: u64,
    ) {
        let key = (workload_id, worker, target);
        if self.placements.insert(key, (instr, mem)).is_some() {
            let msg = format!("workload {workload_id} placed twice on worker {worker} ({target})");
            self.violation(rec.at, msg);
            return;
        }
        *self.live_placements.entry(workload_id).or_insert(0) += 1;
        self.ever_placed.insert(workload_id);
        if target == "nic" {
            if let Some(&(cap_instr, cap_mem)) = self.placement_capacity.get(&worker) {
                let (used_instr, used_mem) = self.nic_usage(worker);
                if used_instr > cap_instr || used_mem > cap_mem {
                    let msg = format!(
                        "worker {worker} exceeds instruction-store/memory capacity: \
                         placing workload {workload_id} brings usage to {used_instr} \
                         words / {used_mem} bytes, capacity {cap_instr} words / \
                         {cap_mem} bytes"
                    );
                    self.violation(rec.at, msg);
                }
            }
        }
    }

    fn on_unplace(
        &mut self,
        rec: &TraceRecord,
        workload_id: u32,
        worker: u32,
        target: &'static str,
    ) {
        if self
            .placements
            .remove(&(workload_id, worker, target))
            .is_none()
        {
            let msg = format!(
                "workload {workload_id} unplaced from worker {worker} ({target}) \
                 but was not placed there"
            );
            self.violation(rec.at, msg);
            return;
        }
        let live = self.live_placements.entry(workload_id).or_insert(0);
        *live = live.saturating_sub(1);
        if *live == 0 {
            let msg = format!(
                "workload {workload_id} lost its last live placement: migrations \
                 must be make-before-break"
            );
            self.violation(rec.at, msg);
        }
    }

    fn on_migrate_done(&mut self, rec: &TraceRecord, workload_id: u32) {
        match self.migrations_in_flight.get_mut(&workload_id) {
            Some(n) if *n > 0 => *n -= 1,
            _ => {
                let msg = format!(
                    "migrate_done for workload {workload_id} without a matching \
                     migrate_start"
                );
                self.violation(rec.at, msg);
            }
        }
    }

    /// Invariant 8: per-worker epochs never regress, no matter which
    /// membership event carries them (this also holds across controller
    /// restarts — a restored control plane must not hand out old
    /// tokens).
    fn note_epoch(&mut self, rec: &TraceRecord, worker: u32, epoch: u64, what: &str) {
        let prev = self.lease_epochs.get(&worker).copied().unwrap_or(0);
        if epoch < prev {
            let msg = format!(
                "fencing token regressed on worker {worker}: {what} at epoch \
                 {epoch} after epoch {prev}"
            );
            self.violation(rec.at, msg);
        }
        self.lease_epochs.insert(worker, prev.max(epoch));
    }

    /// Invariant 10: a KV invocation opens an op on its key. Writes
    /// enter the window immediately — a concurrent read may legally
    /// return a value whose write has not been acknowledged yet — as
    /// optional, unbounded ops until their response arrives.
    fn on_kv_invoke(
        &mut self,
        rec: &TraceRecord,
        request_id: u64,
        key: u64,
        write: bool,
        value: u64,
    ) {
        if self
            .kv_pending
            .insert(
                request_id,
                PendingKvOp {
                    key,
                    invoke_seq: rec.seq,
                    write,
                    value,
                },
            )
            .is_some()
        {
            let msg = format!("kv request {request_id} invoked twice");
            self.violation(rec.at, msg);
        }
        let mut forced = false;
        {
            let hist = self.kv_keys.entry(key).or_insert_with(KeyHistory::fresh);
            hist.open += 1;
            if write {
                if hist.window.len() >= KV_WINDOW_CAP || hist.optional_len() >= KV_GHOST_CAP {
                    if let Some(finals) = hist.search() {
                        hist.fold_into(finals);
                        forced = true;
                    }
                }
                hist.window.push(KvOp {
                    request_id,
                    invoke_seq: rec.seq,
                    resp_seq: u64::MAX,
                    write: true,
                    value,
                    found: true,
                    required: false,
                });
            }
        }
        if forced {
            self.kv_forced_gc += 1;
        }
    }

    /// Invariant 10: a KV response closes its op and re-runs the
    /// Wing–Gong search over the key's window.
    fn on_kv_response(
        &mut self,
        rec: &TraceRecord,
        request_id: u64,
        ok: bool,
        found: bool,
        value: u64,
    ) {
        let Some(pending) = self.kv_pending.remove(&request_id) else {
            let msg = format!("kv request {request_id} responded without an invocation");
            self.violation(rec.at, msg);
            return;
        };
        self.kv_ops += 1;
        let key = pending.key;
        let mut viol = None;
        let mut forced = false;
        {
            let hist = self
                .kv_keys
                .get_mut(&key)
                .expect("invocation created the key history");
            hist.open = hist.open.saturating_sub(1);
            // Bind the response to its op. Writes were placed in the
            // window at invocation: the response fixes their real-time
            // upper bound and, when acknowledged, makes them required.
            // Acknowledged reads are appended, constrained by the value
            // they *returned*; failed reads constrain nothing.
            let write_idx = if pending.write {
                match hist.window.iter().position(|op| {
                    op.write && op.request_id == request_id && op.resp_seq == u64::MAX
                }) {
                    Some(idx) => {
                        if !ok {
                            // Ghost: stays optional and unbounded.
                            return;
                        }
                        hist.window[idx].resp_seq = rec.seq;
                        hist.window[idx].required = true;
                        Some(idx)
                    }
                    // A forced compaction already folded this write into
                    // the wildcard set; its ordering can no longer be
                    // enforced (counted in `kv_forced_gc`).
                    None => return,
                }
            } else {
                if !ok {
                    return;
                }
                hist.window.push(KvOp {
                    request_id,
                    invoke_seq: pending.invoke_seq,
                    resp_seq: rec.seq,
                    write: false,
                    value,
                    found,
                    required: true,
                });
                None
            };
            match hist.search() {
                None => {
                    let msg = format!(
                        "non-linearizable history on key {key}: no witness ordering \
                         after request {request_id} ({}{}) — {}",
                        if pending.write { "write" } else { "read" },
                        if pending.write {
                            format!(" v={}", pending.value)
                        } else if found {
                            format!(" returned v={value}")
                        } else {
                            " returned absent".to_string()
                        },
                        hist.describe()
                    );
                    // Surgical recovery so one bad response does not
                    // cascade into a violation on every later op: demote
                    // the write back to a ghost, or drop the read.
                    match write_idx {
                        Some(idx) => {
                            hist.window[idx].resp_seq = u64::MAX;
                            hist.window[idx].required = false;
                        }
                        None => {
                            hist.window.pop();
                        }
                    }
                    viol = Some(msg);
                }
                Some(finals) => {
                    // Compact at quiescence: with no open ops and no
                    // ghosts, the window collapses to its reachable
                    // final values exactly.
                    let optional = hist.optional_len();
                    if hist.open == 0 && optional == 0 {
                        hist.init_values = finals;
                        hist.window.clear();
                    } else if hist.window.len() >= KV_WINDOW_CAP || optional >= KV_GHOST_CAP {
                        hist.fold_into(finals);
                        forced = true;
                    }
                }
            }
        }
        if forced {
            self.kv_forced_gc += 1;
        }
        if let Some(msg) = viol {
            self.violation(rec.at, msg);
        }
    }
}

impl TraceSink for InvariantChecker {
    fn on_record(&mut self, rec: &TraceRecord) {
        self.records += 1;
        // Invariant 1: clock monotonicity.
        if rec.at < self.last_at {
            let msg = format!(
                "clock went backwards: record {} at {}ns after {}ns",
                rec.seq,
                rec.at.as_nanos(),
                self.last_at.as_nanos()
            );
            self.violation(rec.at, msg);
        }
        self.last_at = self.last_at.max(rec.at);

        match rec.event {
            // Invariant 2: request conservation.
            TraceEvent::RequestSubmitted {
                request_id,
                workload_id,
            } => {
                self.submitted += 1;
                if !self.outstanding.insert(request_id) {
                    let msg = format!("request {request_id} submitted twice");
                    self.violation(rec.at, msg);
                }
                // Invariant 14: with a gateway tier on the stream, the
                // accepting gateway is encoded in the id's high bits; a
                // deposed shard must not accept before rejoining.
                if self.tier_active {
                    let gateway = (request_id >> 48) as u32;
                    if let Some(&epoch) = self.deposed_gateways.get(&gateway) {
                        let msg = format!(
                            "deposed gateway {gateway} (epoch {epoch}) accepted \
                             request {request_id} before rejoining"
                        );
                        self.violation(rec.at, msg);
                    }
                }
                // Invariant 11 joins exec_start back to the workload.
                self.request_workload.insert(request_id, workload_id);
            }
            TraceEvent::RequestRetransmit { request_id, .. } => {
                if !self.outstanding.contains(&request_id) {
                    let msg = format!("request {request_id} retransmitted but not outstanding");
                    self.violation(rec.at, msg);
                }
            }
            TraceEvent::RequestCompleted {
                request_id, failed, ..
            } => {
                if failed {
                    self.failed += 1;
                } else {
                    self.completed += 1;
                }
                if !self.outstanding.remove(&request_id) {
                    let msg = format!(
                        "request {request_id} completed without an outstanding \
                         submission (invented or double-completed)"
                    );
                    self.violation(rec.at, msg);
                }
                self.hedged.remove(&request_id);
                self.request_workload.remove(&request_id);
            }
            TraceEvent::RequestUnplaced { .. } => {}

            // Invariant 2, hedging form: a hedge is a *duplicate attempt*
            // for one outstanding request, never a new request. Exactly
            // one completion may follow, which the arms above enforce;
            // here we pin that hedges only attach to live requests and
            // fire at most once each.
            TraceEvent::HedgeFired { request_id, .. } => {
                if !self.outstanding.contains(&request_id) {
                    let msg = format!("request {request_id} hedged but not outstanding");
                    self.violation(rec.at, msg);
                }
                if !self.hedged.insert(request_id) {
                    let msg = format!("request {request_id} hedged twice");
                    self.violation(rec.at, msg);
                }
            }
            TraceEvent::HedgeWon { request_id, .. } => {
                if !self.hedged.contains(&request_id) {
                    let msg = format!("request {request_id} hedge won without a hedge fired");
                    self.violation(rec.at, msg);
                }
                if !self.outstanding.contains(&request_id) {
                    let msg = format!("request {request_id} hedge won after the request completed");
                    self.violation(rec.at, msg);
                }
            }
            // Shed requests are rejected before submission: they never
            // get a request id and must not enter conservation.
            TraceEvent::AdmissionReject { .. } => {
                self.shed += 1;
            }
            // A worker-side deadline drop resolves through the normal
            // response/timeout path at the gateway, so conservation is
            // untouched here.
            TraceEvent::DeadlineDrop { .. } => {}
            TraceEvent::EndpointQuarantine { .. } => {}

            // Invariant 3 (+5, 11 join); invariant 7 gates entry.
            TraceEvent::ExecStart {
                core,
                lambda_id,
                request_id,
                tenant_id,
            } => {
                if let Some(epoch) = self.fenced_components.get(&rec.src.index()) {
                    let msg = format!(
                        "stale-epoch execution: {} (fenced at epoch {epoch}) started \
                         request {request_id} (lambda {lambda_id}) before rejoining",
                        rec.src
                    );
                    self.violation(rec.at, msg);
                }
                self.on_exec_start(rec, core, lambda_id, request_id, tenant_id);
            }
            TraceEvent::ExecSuspend {
                core, request_id, ..
            } => self.on_exec_suspend(rec, core, request_id, false),
            TraceEvent::ExecResume {
                core, request_id, ..
            } => self.on_exec_suspend(rec, core, request_id, true),
            TraceEvent::ExecFinish {
                core,
                request_id,
                total_cycles,
                overhead_cycles,
                instr_cycles,
                ..
            } => self.on_exec_finish(
                rec,
                core,
                request_id,
                total_cycles,
                overhead_cycles,
                instr_cycles,
            ),
            TraceEvent::MemCharge {
                core,
                request_id,
                level,
                latency_cycles,
                scalar,
                bulk_ops,
                bulk_bytes,
                cycles,
                owner_tenant,
                ..
            } => self.on_mem_charge(
                rec,
                core,
                request_id,
                level,
                latency_cycles,
                scalar,
                bulk_ops,
                bulk_bytes,
                cycles,
                owner_tenant,
            ),

            // Invariants 4 and 13.
            TraceEvent::WfqEnqueue {
                lambda_id,
                weight_milli,
                depth,
                tenant_id,
                tenant_weight_milli,
            } => self.on_wfq(
                rec,
                lambda_id,
                weight_milli,
                depth,
                tenant_id,
                tenant_weight_milli,
                false,
            ),
            TraceEvent::WfqDequeue {
                lambda_id,
                weight_milli,
                depth,
                tenant_id,
                tenant_weight_milli,
            } => self.on_wfq(
                rec,
                lambda_id,
                weight_milli,
                depth,
                tenant_id,
                tenant_weight_milli,
                true,
            ),

            TraceEvent::ProgramInstall {} => {
                let src = rec.src.index();
                for ((comp, _), span) in self.slots.iter_mut() {
                    if *comp == src {
                        span.cost_exempt = true;
                    }
                }
            }
            TraceEvent::Fault { kind, .. } => {
                if kind == "crash" {
                    self.on_component_reset(rec.src.index());
                }
            }

            // Invariant 6: placement conservation.
            TraceEvent::PlacementCapacity {
                worker,
                instr_words,
                mem_bytes,
            } => self.on_placement_capacity(rec, worker, instr_words, mem_bytes),
            TraceEvent::Place {
                workload_id,
                worker,
                target,
                instr_words,
                mem_bytes,
            } => self.on_place(rec, workload_id, worker, target, instr_words, mem_bytes),
            TraceEvent::Unplace {
                workload_id,
                worker,
                target,
            } => self.on_unplace(rec, workload_id, worker, target),
            TraceEvent::MigrateStart { workload_id, .. } => {
                *self.migrations_in_flight.entry(workload_id).or_insert(0) += 1;
            }
            TraceEvent::MigrateDone { workload_id, .. } => self.on_migrate_done(rec, workload_id),
            TraceEvent::PlacementReject { .. } => {}

            // Invariants 7–8: lease-based membership and fencing.
            TraceEvent::LeaseGrant { worker, epoch, .. } => {
                self.note_epoch(rec, worker, epoch, "lease grant");
            }
            TraceEvent::WorkerFenced {
                worker,
                component,
                epoch,
            } => {
                self.note_epoch(rec, worker, epoch, "fence");
                self.fenced_components.insert(component as usize, epoch);
            }
            TraceEvent::WorkerRejoin {
                worker,
                component,
                epoch,
            } => {
                match self.fenced_components.remove(&(component as usize)) {
                    Some(fenced_epoch) if epoch <= fenced_epoch => {
                        let msg = format!(
                            "worker {worker} rejoined at epoch {epoch} without bumping \
                             past the fenced epoch {fenced_epoch}"
                        );
                        self.violation(rec.at, msg);
                    }
                    Some(_) => {}
                    None => {
                        let msg = format!(
                            "worker {worker} rejoined at epoch {epoch} without a \
                             preceding fence"
                        );
                        self.violation(rec.at, msg);
                    }
                }
                self.note_epoch(rec, worker, epoch, "rejoin");
            }
            TraceEvent::FencedReject {
                request_id,
                hdr_epoch,
                worker_epoch,
                ..
            } => {
                // A worker may reject an equal-epoch token (lapsed
                // lease, self-fence) but never a strictly fresher one.
                if hdr_epoch > worker_epoch {
                    let msg = format!(
                        "request {request_id} carried epoch {hdr_epoch} but was \
                         fence-rejected by a worker at older epoch {worker_epoch}"
                    );
                    self.violation(rec.at, msg);
                }
            }
            TraceEvent::StaleReplyDrop {
                request_id,
                reply_epoch,
                floor_epoch,
            } => {
                if reply_epoch >= floor_epoch {
                    let msg = format!(
                        "reply for request {request_id} at epoch {reply_epoch} \
                         discarded despite meeting the fence floor {floor_epoch}"
                    );
                    self.violation(rec.at, msg);
                }
            }
            TraceEvent::LeaseExpire { .. } => {}

            // Invariant 9: snapshot conservation.
            TraceEvent::SnapshotTaken { seq, .. } => {
                if seq <= self.last_snapshot_seq {
                    let msg = format!(
                        "snapshot seq went backwards: {seq} after {}",
                        self.last_snapshot_seq
                    );
                    self.violation(rec.at, msg);
                }
                self.last_snapshot_seq = seq;
                self.snapshot_seqs.insert(seq);
            }
            TraceEvent::SnapshotRestored { seq, .. } => {
                if !self.snapshot_seqs.contains(&seq) {
                    let msg = format!("controller restored snapshot {seq} that was never taken");
                    self.violation(rec.at, msg);
                }
            }

            // Invariant 10: online linearizability over per-key KV
            // histories.
            TraceEvent::KvInvoke {
                request_id,
                key,
                write,
                value,
            } => self.on_kv_invoke(rec, request_id, key, write, value),
            TraceEvent::KvResponse {
                request_id,
                ok,
                found,
                value,
            } => self.on_kv_response(rec, request_id, ok, found, value),

            // Invariants 11–12: ownership registration. Firmware paging
            // events are accounting-only (the fault cost feeds the cost
            // identity through exec_finish's overhead).
            TraceEvent::TenantAssign {
                tenant_id,
                workload_id,
            } => {
                self.tenant_owner.insert(workload_id, tenant_id);
            }
            TraceEvent::FirmwareFault { .. } | TraceEvent::FirmwareEvict { .. } => {}

            // Invariant 14: gateway-tier exactly-once and epoch
            // monotonicity.
            TraceEvent::GwShardMap { epoch, .. } => {
                self.tier_active = true;
                if epoch <= self.tier_epoch {
                    let msg = format!(
                        "shard-map epoch regressed: {epoch} installed after {}",
                        self.tier_epoch
                    );
                    self.violation(rec.at, msg);
                }
                self.tier_epoch = epoch;
            }
            TraceEvent::GwDeposed { gateway, epoch } => {
                self.tier_active = true;
                let floor = self.gw_epochs.get(&gateway).copied().unwrap_or(0);
                if epoch < floor {
                    let msg = format!(
                        "gateway {gateway} deposed at epoch {epoch}, below its \
                         prior epoch {floor}"
                    );
                    self.violation(rec.at, msg);
                }
                self.gw_epochs.insert(gateway, floor.max(epoch));
                self.deposed_gateways.insert(gateway, epoch);
            }
            TraceEvent::GwRejoin { gateway, epoch } => {
                self.tier_active = true;
                match self.deposed_gateways.remove(&gateway) {
                    Some(deposed_epoch) if epoch <= deposed_epoch => {
                        let msg = format!(
                            "gateway {gateway} rejoined at epoch {epoch} without \
                             bumping past the deposed epoch {deposed_epoch}"
                        );
                        self.violation(rec.at, msg);
                    }
                    Some(_) => {}
                    None => {
                        let msg = format!(
                            "gateway {gateway} rejoined at epoch {epoch} without a \
                             preceding depose"
                        );
                        self.violation(rec.at, msg);
                    }
                }
                let floor = self.gw_epochs.get(&gateway).copied().unwrap_or(0);
                self.gw_epochs.insert(gateway, floor.max(epoch));
            }
            TraceEvent::GwHandoff {
                from_gateway,
                to_gateway,
                request_id,
            } => {
                self.tier_active = true;
                if !self.outstanding.remove(&request_id) {
                    let msg = format!(
                        "handoff from gateway {from_gateway} to {to_gateway} retired \
                         request {request_id}, which was not outstanding"
                    );
                    self.violation(rec.at, msg);
                } else {
                    self.handed_off += 1;
                }
                self.hedged.remove(&request_id);
                self.request_workload.remove(&request_id);
            }
            TraceEvent::GwClientSubmit { uid, .. } => {
                self.tier_active = true;
                if self.client_delivered.contains(uid) || !self.client_outstanding.insert(uid) {
                    let msg = format!("client request {uid} routed twice");
                    self.violation(rec.at, msg);
                }
            }
            TraceEvent::GwClientComplete { uid, gateway, .. } => {
                self.tier_active = true;
                if self.client_delivered.contains(uid) {
                    let msg = format!(
                        "exactly-once violated: client request {uid} delivered a \
                         second completion (from gateway {gateway})"
                    );
                    self.violation(rec.at, msg);
                } else if !self.client_outstanding.remove(&uid) {
                    let msg = format!(
                        "client request {uid} completed (gateway {gateway}) without \
                         a routed submission"
                    );
                    self.violation(rec.at, msg);
                } else {
                    self.client_delivered.insert(uid);
                }
            }
            TraceEvent::GwBounce { .. } => {}

            // Invariant 15: tier-controller snapshot/restore
            // conservation.
            TraceEvent::TierSnapshot {
                seq,
                epoch,
                handed_off,
                ..
            } => {
                self.tier_active = true;
                if seq <= self.tier_last_snap_seq {
                    let msg = format!(
                        "tier snapshot seq went backwards: {seq} after {}",
                        self.tier_last_snap_seq
                    );
                    self.violation(rec.at, msg);
                }
                if epoch > self.tier_epoch {
                    let msg = format!(
                        "tier snapshot {seq} claims epoch {epoch} above the \
                         published map epoch {}",
                        self.tier_epoch
                    );
                    self.violation(rec.at, msg);
                }
                if handed_off > self.handed_off {
                    let msg = format!(
                        "tier snapshot {seq} claims {handed_off} handoffs but only \
                         {} were observed",
                        self.handed_off
                    );
                    self.violation(rec.at, msg);
                }
                self.tier_last_snap_seq = self.tier_last_snap_seq.max(seq);
                self.tier_snapshot_seqs.insert(seq);
            }
            TraceEvent::TierRestore {
                seq,
                epoch,
                handed_off,
                ..
            } => {
                self.tier_active = true;
                if seq != 0 && !self.tier_snapshot_seqs.contains(&seq) {
                    let msg =
                        format!("tier controller restored snapshot {seq} that was never taken");
                    self.violation(rec.at, msg);
                }
                if epoch < self.tier_epoch {
                    let msg = format!(
                        "tier restore regressed the map epoch: {epoch} below the \
                         published {}",
                        self.tier_epoch
                    );
                    self.violation(rec.at, msg);
                }
                if handed_off > self.handed_off {
                    let msg = format!(
                        "tier restore claims {handed_off} handoffs but only {} \
                         were observed",
                        self.handed_off
                    );
                    self.violation(rec.at, msg);
                }
            }

            TraceEvent::LinkTx { .. }
            | TraceEvent::LinkDrop { .. }
            | TraceEvent::FragDrop { .. }
            | TraceEvent::SwitchForward { .. }
            | TraceEvent::SwitchDrop { .. }
            | TraceEvent::Mark { .. } => {}
        }
    }

    fn on_finish(&mut self, now: SimTime) {
        if self.finished {
            return;
        }
        self.finished = true;
        // Invariant 2, end-of-run form (handed-off requests were retired
        // at the old gateway and re-submitted by the adopting shard, so
        // they count once on each side of the ledger).
        let accounted =
            self.completed + self.failed + self.handed_off + self.outstanding.len() as u64;
        if self.submitted != accounted {
            let msg = format!(
                "request conservation violated: {} submitted but {} completed + \
                 {} failed + {} handed off + {} in flight = {accounted}",
                self.submitted,
                self.completed,
                self.failed,
                self.handed_off,
                self.outstanding.len()
            );
            self.violation(now, msg);
        }
        // Invariant 6, end-of-run form: every workload the control plane
        // ever placed must still hold at least one live placement.
        // (Migrations still in flight at a run_until cutoff are fine —
        // the make-before-break ordering means the workload stays live
        // throughout.)
        let mut lost: Vec<u32> = self
            .ever_placed
            .iter()
            .filter(|id| self.live_placements.get(id).copied().unwrap_or(0) == 0)
            .copied()
            .collect();
        lost.sort_unstable();
        for workload_id in lost {
            let msg = format!(
                "placement conservation violated at end of run: workload \
                 {workload_id} was placed but holds no live placement"
            );
            self.violation(now, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ComponentId;

    fn rec(at_ns: u64, seq: u64, src: usize, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(at_ns),
            seq,
            src: ComponentId::from_index_for_tests(src),
            event,
        }
    }

    fn feed(checker: &mut InvariantChecker, events: &[(u64, usize, TraceEvent)]) {
        for (at, src, ev) in events {
            // Seq continues across feed calls: real-time order between
            // batches must be preserved (the kv rule orders by seq).
            let seq = checker.records;
            checker.on_record(&rec(*at, seq, *src, ev.clone()));
        }
    }

    #[test]
    fn clean_request_lifecycle_passes() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    1,
                    TraceEvent::RequestSubmitted {
                        request_id: 1,
                        workload_id: 7,
                    },
                ),
                (
                    10,
                    2,
                    TraceEvent::ExecStart {
                        core: 0,
                        lambda_id: 0,
                        request_id: 1,
                        tenant_id: 0,
                    },
                ),
                (
                    20,
                    2,
                    TraceEvent::MemCharge {
                        core: 0,
                        lambda_id: 0,
                        request_id: 1,
                        level: "CTM",
                        latency_cycles: 40,
                        scalar: 2,
                        bulk_ops: 1,
                        bulk_bytes: 64,
                        cycles: 2 * (1 + 5) + 40 + 8,
                        owner_tenant: 0,
                    },
                ),
                (
                    20,
                    2,
                    TraceEvent::ExecFinish {
                        core: 0,
                        lambda_id: 0,
                        request_id: 1,
                        total_cycles: 100 + 60,
                        overhead_cycles: 60,
                        instr_cycles: 40,
                    },
                ),
                (
                    30,
                    1,
                    TraceEvent::RequestCompleted {
                        request_id: 1,
                        workload_id: 7,
                        latency_ns: 30,
                        failed: false,
                    },
                ),
            ],
        );
        c.on_finish(SimTime::from_nanos(30));
        c.assert_clean();
        assert_eq!(c.request_counts(), (1, 1, 0));
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn double_completion_is_caught() {
        let mut c = InvariantChecker::collecting();
        let done = TraceEvent::RequestCompleted {
            request_id: 5,
            workload_id: 0,
            latency_ns: 1,
            failed: false,
        };
        feed(
            &mut c,
            &[
                (
                    0,
                    1,
                    TraceEvent::RequestSubmitted {
                        request_id: 5,
                        workload_id: 0,
                    },
                ),
                (1, 1, done.clone()),
                (2, 1, done),
            ],
        );
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("without an outstanding"));
    }

    #[test]
    fn clock_regression_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    100,
                    1,
                    TraceEvent::Mark {
                        label: "a",
                        a: 0,
                        b: 0,
                    },
                ),
                (
                    90,
                    1,
                    TraceEvent::Mark {
                        label: "b",
                        a: 0,
                        b: 0,
                    },
                ),
            ],
        );
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("clock went backwards"));
    }

    #[test]
    fn core_interleaving_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    3,
                    TraceEvent::ExecStart {
                        core: 4,
                        lambda_id: 0,
                        request_id: 1,
                        tenant_id: 0,
                    },
                ),
                (
                    5,
                    3,
                    TraceEvent::ExecStart {
                        core: 4,
                        lambda_id: 1,
                        request_id: 2,
                        tenant_id: 0,
                    },
                ),
            ],
        );
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("run-to-completion"));
    }

    #[test]
    fn suspension_keeps_core_held_without_violation() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    3,
                    TraceEvent::ExecStart {
                        core: 1,
                        lambda_id: 0,
                        request_id: 1,
                        tenant_id: 0,
                    },
                ),
                (
                    1,
                    3,
                    TraceEvent::ExecSuspend {
                        core: 1,
                        lambda_id: 0,
                        request_id: 1,
                    },
                ),
                (
                    2,
                    3,
                    TraceEvent::ExecResume {
                        core: 1,
                        lambda_id: 0,
                        request_id: 1,
                    },
                ),
                (
                    3,
                    3,
                    TraceEvent::ExecFinish {
                        core: 1,
                        lambda_id: 0,
                        request_id: 1,
                        total_cycles: 0,
                        overhead_cycles: 0,
                        instr_cycles: 0,
                    },
                ),
                // Core is free again: a new start is legal.
                (
                    4,
                    3,
                    TraceEvent::ExecStart {
                        core: 1,
                        lambda_id: 2,
                        request_id: 9,
                        tenant_id: 0,
                    },
                ),
            ],
        );
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    #[test]
    fn bad_memory_charge_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    3,
                    TraceEvent::ExecStart {
                        core: 0,
                        lambda_id: 0,
                        request_id: 1,
                        tenant_id: 0,
                    },
                ),
                (
                    1,
                    3,
                    TraceEvent::MemCharge {
                        core: 0,
                        lambda_id: 0,
                        request_id: 1,
                        level: "EMEM",
                        latency_cycles: 150,
                        scalar: 1,
                        bulk_ops: 0,
                        bulk_bytes: 0,
                        cycles: 7, // model says 1 + ceil(150/8) = 20
                        owner_tenant: 0,
                    },
                ),
            ],
        );
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("memory cost model mismatch"));
    }

    #[test]
    fn cost_decomposition_mismatch_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    3,
                    TraceEvent::ExecStart {
                        core: 0,
                        lambda_id: 0,
                        request_id: 1,
                        tenant_id: 0,
                    },
                ),
                (
                    1,
                    3,
                    TraceEvent::ExecFinish {
                        core: 0,
                        lambda_id: 0,
                        request_id: 1,
                        total_cycles: 500,
                        overhead_cycles: 100,
                        instr_cycles: 100, // memory sum is 0, so expect 200
                    },
                ),
            ],
        );
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("cost consistency"));
    }

    #[test]
    fn program_install_exempts_in_flight_jobs() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    3,
                    TraceEvent::ExecStart {
                        core: 0,
                        lambda_id: 0,
                        request_id: 1,
                        tenant_id: 0,
                    },
                ),
                (1, 3, TraceEvent::ProgramInstall {}),
                (
                    2,
                    3,
                    TraceEvent::ExecFinish {
                        core: 0,
                        lambda_id: 0,
                        request_id: 1,
                        total_cycles: 999, // inconsistent, but exempt
                        overhead_cycles: 0,
                        instr_cycles: 0,
                    },
                ),
            ],
        );
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    #[test]
    fn crash_resets_component_state() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    3,
                    TraceEvent::ExecStart {
                        core: 0,
                        lambda_id: 0,
                        request_id: 1,
                        tenant_id: 0,
                    },
                ),
                (
                    1,
                    3,
                    TraceEvent::Fault {
                        kind: "crash",
                        detail: 1,
                    },
                ),
                // After the crash the core is free; a fresh start is legal.
                (
                    2,
                    3,
                    TraceEvent::ExecStart {
                        core: 0,
                        lambda_id: 1,
                        request_id: 2,
                        tenant_id: 0,
                    },
                ),
            ],
        );
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    #[test]
    fn wfq_fair_interleaving_passes() {
        let mut c = InvariantChecker::collecting();
        let mut events = Vec::new();
        // Two lambdas, weights 2:1, continuously backlogged.
        for i in 0..64u64 {
            events.push((
                i,
                3usize,
                TraceEvent::WfqEnqueue {
                    lambda_id: 0,
                    weight_milli: 2000,
                    depth: i + 1,
                    tenant_id: 0,
                    tenant_weight_milli: 1000,
                },
            ));
            events.push((
                i,
                3,
                TraceEvent::WfqEnqueue {
                    lambda_id: 1,
                    weight_milli: 1000,
                    depth: i + 1,
                    tenant_id: 0,
                    tenant_weight_milli: 1000,
                },
            ));
        }
        // Serve in the WRR pattern 0,0,1 repeatedly; backlogs stay > 0.
        let mut d0 = 64u64;
        let mut d1 = 64u64;
        for i in 0..45u64 {
            let (l, w, depth) = if i % 3 == 2 {
                d1 -= 1;
                (1u32, 1000, d1)
            } else {
                d0 -= 1;
                (0u32, 2000, d0)
            };
            events.push((
                100 + i,
                3,
                TraceEvent::WfqDequeue {
                    lambda_id: l,
                    weight_milli: w,
                    depth,
                    tenant_id: 0,
                    tenant_weight_milli: 1000,
                },
            ));
        }
        feed(&mut c, &events);
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    #[test]
    fn wfq_starvation_is_caught() {
        let mut c = InvariantChecker::collecting();
        let mut events = vec![
            (
                0,
                3usize,
                TraceEvent::WfqEnqueue {
                    lambda_id: 0,
                    weight_milli: 1000,
                    depth: 600,
                    tenant_id: 0,
                    tenant_weight_milli: 1000,
                },
            ),
            (
                0,
                3,
                TraceEvent::WfqEnqueue {
                    lambda_id: 1,
                    weight_milli: 1000,
                    depth: 600,
                    tenant_id: 0,
                    tenant_weight_milli: 1000,
                },
            ),
        ];
        // Serve only lambda 0, hundreds of times, while lambda 1 waits.
        for i in 0..600u64 {
            events.push((
                1 + i,
                3,
                TraceEvent::WfqDequeue {
                    lambda_id: 0,
                    weight_milli: 1000,
                    depth: 600 - 1 - i,
                    tenant_id: 0,
                    tenant_weight_milli: 1000,
                },
            ));
        }
        feed(&mut c, &events);
        assert!(
            c.violations().iter().any(|v| v.contains("starvation")),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn conservation_checked_at_finish() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[(
                0,
                1,
                TraceEvent::RequestSubmitted {
                    request_id: 1,
                    workload_id: 0,
                },
            )],
        );
        c.on_finish(SimTime::from_nanos(5));
        // One submitted, one in flight: conserved.
        c.assert_clean();
        assert_eq!(c.in_flight(), 1);
    }

    fn place(workload_id: u32, worker: u32, target: &'static str, instr: u64) -> TraceEvent {
        TraceEvent::Place {
            workload_id,
            worker,
            target,
            instr_words: instr,
            mem_bytes: 0,
        }
    }

    #[test]
    fn make_before_break_migration_passes() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    1,
                    TraceEvent::PlacementCapacity {
                        worker: 0,
                        instr_words: 1000,
                        mem_bytes: 1 << 20,
                    },
                ),
                (1, 1, place(7, 0, "host", 100)),
                (
                    10,
                    1,
                    TraceEvent::MigrateStart {
                        workload_id: 7,
                        from_worker: 0,
                        from_target: "host",
                        to_worker: 0,
                        to_target: "nic",
                    },
                ),
                // New placement goes live before the old one is torn down.
                (11, 1, place(7, 0, "nic", 100)),
                (
                    20,
                    1,
                    TraceEvent::Unplace {
                        workload_id: 7,
                        worker: 0,
                        target: "host",
                    },
                ),
                (
                    21,
                    1,
                    TraceEvent::MigrateDone {
                        workload_id: 7,
                        from_worker: 0,
                        from_target: "host",
                        to_worker: 0,
                        to_target: "nic",
                    },
                ),
            ],
        );
        c.on_finish(SimTime::from_nanos(30));
        c.assert_clean();
    }

    #[test]
    fn losing_last_placement_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (0, 1, place(3, 0, "nic", 50)),
                (
                    1,
                    1,
                    TraceEvent::Unplace {
                        workload_id: 3,
                        worker: 0,
                        target: "nic",
                    },
                ),
            ],
        );
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("lost its last live placement"));
    }

    #[test]
    fn capacity_overflow_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    1,
                    TraceEvent::PlacementCapacity {
                        worker: 2,
                        instr_words: 100,
                        mem_bytes: 1024,
                    },
                ),
                (1, 1, place(1, 2, "nic", 60)),
                (2, 1, place(2, 2, "nic", 60)), // 120 > 100 words
            ],
        );
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("exceeds instruction-store/memory capacity"));
    }

    #[test]
    fn host_placements_do_not_count_against_nic_capacity() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    1,
                    TraceEvent::PlacementCapacity {
                        worker: 0,
                        instr_words: 100,
                        mem_bytes: 1024,
                    },
                ),
                (1, 1, place(1, 0, "nic", 90)),
                (2, 1, place(2, 0, "host", 5000)), // huge, but host-side
            ],
        );
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    #[test]
    fn duplicate_place_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (0, 1, place(4, 1, "nic", 10)),
                (1, 1, place(4, 1, "nic", 10)),
            ],
        );
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("placed twice"));
    }

    #[test]
    fn migrate_done_without_start_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[(
                0,
                1,
                TraceEvent::MigrateDone {
                    workload_id: 9,
                    from_worker: 0,
                    from_target: "nic",
                    to_worker: 1,
                    to_target: "host",
                },
            )],
        );
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("without a matching migrate_start"));
    }

    #[test]
    fn placement_lost_by_end_of_run_is_caught() {
        let mut c = InvariantChecker::collecting();
        // Place on two targets, then tear down both (the second Unplace
        // already violates make-before-break; on_finish adds the
        // end-of-run conservation violation on top).
        feed(
            &mut c,
            &[
                (0, 1, place(5, 0, "nic", 10)),
                (1, 1, place(5, 1, "nic", 10)),
                (
                    2,
                    1,
                    TraceEvent::Unplace {
                        workload_id: 5,
                        worker: 0,
                        target: "nic",
                    },
                ),
                (
                    3,
                    1,
                    TraceEvent::Unplace {
                        workload_id: 5,
                        worker: 1,
                        target: "nic",
                    },
                ),
            ],
        );
        c.on_finish(SimTime::from_nanos(10));
        assert!(
            c.violations()
                .iter()
                .any(|v| v.contains("placement conservation violated at end of run")),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn in_flight_migration_at_finish_is_not_flagged() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (0, 1, place(6, 0, "host", 10)),
                (
                    1,
                    1,
                    TraceEvent::MigrateStart {
                        workload_id: 6,
                        from_worker: 0,
                        from_target: "host",
                        to_worker: 0,
                        to_target: "nic",
                    },
                ),
                (2, 1, place(6, 0, "nic", 10)),
                // Run cut off mid-migration: no Unplace, no MigrateDone.
            ],
        );
        c.on_finish(SimTime::from_nanos(10));
        c.assert_clean();
    }

    #[test]
    fn fenced_component_execution_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::WorkerFenced {
                        worker: 0,
                        component: 4,
                        epoch: 3,
                    },
                ),
                // The fenced component (src 4) starts a job: split-brain.
                (
                    5,
                    4,
                    TraceEvent::ExecStart {
                        core: 0,
                        lambda_id: 1,
                        request_id: 7,
                        tenant_id: 0,
                    },
                ),
            ],
        );
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
        assert!(c.violations()[0].contains("stale-epoch execution"));
    }

    #[test]
    fn rejoin_lifts_the_fence() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::WorkerFenced {
                        worker: 0,
                        component: 4,
                        epoch: 3,
                    },
                ),
                (
                    5,
                    9,
                    TraceEvent::WorkerRejoin {
                        worker: 0,
                        component: 4,
                        epoch: 4,
                    },
                ),
                (
                    6,
                    4,
                    TraceEvent::ExecStart {
                        core: 0,
                        lambda_id: 1,
                        request_id: 7,
                        tenant_id: 0,
                    },
                ),
            ],
        );
        // The ExecStart half-opens a run-to-completion span; only the
        // fencing rules are under test here.
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    #[test]
    fn epoch_regression_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::LeaseGrant {
                        worker: 2,
                        epoch: 5,
                        until_ns: 100,
                    },
                ),
                (
                    10,
                    9,
                    TraceEvent::LeaseGrant {
                        worker: 2,
                        epoch: 4,
                        until_ns: 200,
                    },
                ),
            ],
        );
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
        assert!(c.violations()[0].contains("fencing token regressed"));
    }

    #[test]
    fn rejoin_must_bump_past_fenced_epoch() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::WorkerFenced {
                        worker: 1,
                        component: 5,
                        epoch: 2,
                    },
                ),
                (
                    5,
                    9,
                    TraceEvent::WorkerRejoin {
                        worker: 1,
                        component: 5,
                        epoch: 2,
                    },
                ),
            ],
        );
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
        assert!(c.violations()[0].contains("without bumping"));
    }

    #[test]
    fn rejoin_without_fence_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[(
                0,
                9,
                TraceEvent::WorkerRejoin {
                    worker: 1,
                    component: 5,
                    epoch: 2,
                },
            )],
        );
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
        assert!(c.violations()[0].contains("without a preceding fence"));
    }

    #[test]
    fn rejecting_a_fresher_token_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[(
                0,
                4,
                TraceEvent::FencedReject {
                    request_id: 11,
                    workload_id: 1,
                    hdr_epoch: 5,
                    worker_epoch: 3,
                },
            )],
        );
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
        assert!(c.violations()[0].contains("fence-rejected"));
        // Equal-epoch rejects (lapsed lease) are legitimate.
        let mut ok = InvariantChecker::collecting();
        feed(
            &mut ok,
            &[(
                0,
                4,
                TraceEvent::FencedReject {
                    request_id: 12,
                    workload_id: 1,
                    hdr_epoch: 3,
                    worker_epoch: 3,
                },
            )],
        );
        assert!(ok.violations().is_empty(), "{:?}", ok.violations());
    }

    #[test]
    fn dropping_a_reply_above_the_floor_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[(
                0,
                1,
                TraceEvent::StaleReplyDrop {
                    request_id: 9,
                    reply_epoch: 4,
                    floor_epoch: 4,
                },
            )],
        );
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
        assert!(c.violations()[0].contains("despite meeting the fence floor"));
    }

    #[test]
    fn snapshot_seq_regression_and_invented_restore_are_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::SnapshotTaken {
                        seq: 2,
                        workers: 4,
                        placements: 8,
                    },
                ),
                (
                    5,
                    9,
                    TraceEvent::SnapshotTaken {
                        seq: 2,
                        workers: 4,
                        placements: 8,
                    },
                ),
                (
                    10,
                    9,
                    TraceEvent::SnapshotRestored {
                        seq: 3,
                        reconciled: 0,
                    },
                ),
            ],
        );
        assert_eq!(c.violations().len(), 2, "{:?}", c.violations());
        assert!(c.violations()[0].contains("snapshot seq went backwards"));
        assert!(c.violations()[1].contains("never taken"));
    }

    #[test]
    fn restore_of_taken_snapshot_passes() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::SnapshotTaken {
                        seq: 1,
                        workers: 4,
                        placements: 8,
                    },
                ),
                (
                    10,
                    9,
                    TraceEvent::SnapshotRestored {
                        seq: 1,
                        reconciled: 2,
                    },
                ),
            ],
        );
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    #[test]
    fn panicking_mode_panics() {
        let mut c = InvariantChecker::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.on_record(&rec(
                0,
                0,
                1,
                TraceEvent::RequestCompleted {
                    request_id: 3,
                    workload_id: 0,
                    latency_ns: 0,
                    failed: false,
                },
            ));
        }));
        assert!(result.is_err());
    }

    // ---- Invariant 10: linearizability -------------------------------

    fn kv_invoke(request_id: u64, key: u64, write: bool, value: u64) -> TraceEvent {
        TraceEvent::KvInvoke {
            request_id,
            key,
            write,
            value,
        }
    }

    fn kv_response(request_id: u64, ok: bool, found: bool, value: u64) -> TraceEvent {
        TraceEvent::KvResponse {
            request_id,
            ok,
            found,
            value,
        }
    }

    /// The self-test the satellite demands: a recorded history with a
    /// seeded stale read (two acknowledged sequential writes, then a
    /// read returning the overwritten value) must trip the rule — a
    /// checker that silently passes this history is broken.
    #[test]
    fn stale_read_after_two_writes_is_flagged() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (0, 1, kv_invoke(1, 5, true, 10)),
                (1, 1, kv_response(1, true, true, 10)),
                (2, 1, kv_invoke(2, 5, true, 20)),
                (3, 1, kv_response(2, true, true, 20)),
                (4, 1, kv_invoke(3, 5, false, 0)),
                (5, 1, kv_response(3, true, true, 10)),
            ],
        );
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
        assert!(
            c.violations()[0].contains("non-linearizable"),
            "{:?}",
            c.violations()
        );
        assert_eq!(c.kv_ops(), 3);
    }

    #[test]
    fn sequential_writes_and_reads_linearize_cleanly() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (0, 1, kv_invoke(1, 5, false, 0)),
                (1, 1, kv_response(1, true, false, 0)), // read of unwritten key: absent
                (2, 1, kv_invoke(2, 5, true, 10)),
                (3, 1, kv_response(2, true, true, 10)),
                (4, 1, kv_invoke(3, 5, false, 0)),
                (5, 1, kv_response(3, true, true, 10)),
                (6, 1, kv_invoke(4, 6, false, 0)), // other key independent
                (7, 1, kv_response(4, true, false, 0)),
            ],
        );
        c.on_finish(SimTime::from_nanos(10));
        c.assert_clean();
        assert_eq!(c.kv_ops(), 4);
    }

    /// A read concurrent with a write may return either the old or the
    /// new value — both interleavings are witness orderings.
    #[test]
    fn concurrent_read_may_see_either_value() {
        for observed in [(true, 10u64), (false, 0)] {
            let mut c = InvariantChecker::collecting();
            feed(
                &mut c,
                &[
                    (0, 1, kv_invoke(1, 5, true, 10)), // write in flight...
                    (1, 1, kv_invoke(2, 5, false, 0)), // ...read overlaps it
                    (2, 1, kv_response(2, true, observed.0, observed.1)),
                    (3, 1, kv_response(1, true, true, 10)),
                ],
            );
            c.assert_clean();
        }
    }

    /// A failed (ghost) write may take effect or not: a later read may
    /// return it once, but after an acknowledged overwrite the ghost
    /// value must not reappear.
    #[test]
    fn ghost_write_value_is_readable_but_cannot_resurrect() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (0, 1, kv_invoke(1, 5, true, 10)),
                (1, 1, kv_response(1, false, true, 0)), // gateway gave up: ghost
                (2, 1, kv_invoke(2, 5, false, 0)),
                (3, 1, kv_response(2, true, true, 10)), // ghost applied after all
            ],
        );
        c.assert_clean();
        feed(
            &mut c,
            &[
                (4, 1, kv_invoke(3, 5, true, 20)),
                (5, 1, kv_response(3, true, true, 20)),
                (6, 1, kv_invoke(4, 5, false, 0)),
                (7, 1, kv_response(4, true, true, 10)), // stale resurrection
            ],
        );
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
    }

    #[test]
    fn read_of_never_written_value_is_flagged() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (0, 1, kv_invoke(1, 5, true, 10)),
                (1, 1, kv_response(1, true, true, 10)),
                (2, 1, kv_invoke(2, 5, false, 0)),
                (3, 1, kv_response(2, true, true, 99)),
            ],
        );
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
    }

    /// Failed reads have no effect; quiescence compaction keeps the
    /// verdicts identical across the GC boundary.
    #[test]
    fn compaction_preserves_final_values() {
        let mut c = InvariantChecker::collecting();
        // Sequential history; every response quiesces the key, so the
        // window compacts down to {Some(v)} each round.
        let mut evs = Vec::new();
        for i in 0..200u64 {
            evs.push((2 * i, 1usize, kv_invoke(i, 7, true, i)));
            evs.push((2 * i + 1, 1usize, kv_response(i, true, true, i)));
        }
        evs.push((400, 1, kv_invoke(200, 7, false, 0)));
        evs.push((401, 1, kv_response(200, true, true, 199)));
        // A stale read far across compactions must still be caught.
        evs.push((402, 1, kv_invoke(201, 7, false, 0)));
        evs.push((403, 1, kv_response(201, true, true, 0)));
        feed(&mut c, &evs);
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
        assert_eq!(c.kv_forced_gc(), 0);
    }

    // ---- Invariants 11–13: tenant isolation --------------------------

    /// Seeded self-test for invariant 11: a request stamped with one
    /// tenant executing under a workload registered to another must be
    /// flagged (the violating history is synthetic — a correct NIC can
    /// never produce it, which is exactly what the rule guards).
    #[test]
    fn cross_tenant_execution_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::TenantAssign {
                        tenant_id: 1,
                        workload_id: 7,
                    },
                ),
                (
                    1,
                    1,
                    TraceEvent::RequestSubmitted {
                        request_id: 42,
                        workload_id: 7,
                    },
                ),
                // The worker runs the request as tenant 2: isolation hole.
                (
                    2,
                    3,
                    TraceEvent::ExecStart {
                        core: 0,
                        lambda_id: 0,
                        request_id: 42,
                        tenant_id: 2,
                    },
                ),
            ],
        );
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
        assert!(c.violations()[0].contains("cross-tenant execution"));
    }

    #[test]
    fn matching_tenant_execution_passes() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::TenantAssign {
                        tenant_id: 1,
                        workload_id: 7,
                    },
                ),
                (
                    1,
                    1,
                    TraceEvent::RequestSubmitted {
                        request_id: 42,
                        workload_id: 7,
                    },
                ),
                (
                    2,
                    3,
                    TraceEvent::ExecStart {
                        core: 0,
                        lambda_id: 0,
                        request_id: 42,
                        tenant_id: 1,
                    },
                ),
            ],
        );
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    /// Seeded self-test for invariant 12: a job charged for another
    /// tenant's memory object must be flagged.
    #[test]
    fn cross_tenant_memory_charge_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    3,
                    TraceEvent::ExecStart {
                        core: 0,
                        lambda_id: 0,
                        request_id: 1,
                        tenant_id: 1,
                    },
                ),
                (
                    1,
                    3,
                    TraceEvent::MemCharge {
                        core: 0,
                        lambda_id: 0,
                        request_id: 1,
                        level: "EMEM",
                        latency_cycles: 150,
                        scalar: 1,
                        bulk_ops: 0,
                        bulk_bytes: 0,
                        cycles: 1 + 19, // model-consistent: only the owner is wrong
                        owner_tenant: 2,
                    },
                ),
            ],
        );
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
        assert!(c.violations()[0].contains("cross-tenant memory access"));
    }

    /// Seeded self-test for invariant 13: a tenant kept backlogged while
    /// another monopolizes the service slots must trip the tenant-tier
    /// starvation bound even when each lambda, viewed alone, is served
    /// in proportion.
    #[test]
    fn tenant_tier_starvation_is_caught() {
        let mut c = InvariantChecker::collecting();
        let mut events = vec![
            (
                0,
                3usize,
                TraceEvent::WfqEnqueue {
                    lambda_id: 0,
                    weight_milli: 1000,
                    depth: 600,
                    tenant_id: 1,
                    tenant_weight_milli: 1000,
                },
            ),
            (
                0,
                3,
                TraceEvent::WfqEnqueue {
                    lambda_id: 1,
                    weight_milli: 1000,
                    depth: 600,
                    tenant_id: 2,
                    tenant_weight_milli: 1000,
                },
            ),
        ];
        // Serve only tenant 1's lambda while tenant 2 stays backlogged.
        for i in 0..600u64 {
            events.push((
                1 + i,
                3,
                TraceEvent::WfqDequeue {
                    lambda_id: 0,
                    weight_milli: 1000,
                    depth: 600 - 1 - i,
                    tenant_id: 1,
                    tenant_weight_milli: 1000,
                },
            ));
        }
        feed(&mut c, &events);
        assert!(
            c.violations()
                .iter()
                .any(|v| v.contains("starvation") && v.contains("tenant 2")),
            "{:?}",
            c.violations()
        );
    }

    /// Weight-proportional service across tenants passes the tenant
    /// tier: tenants at weights 2:1 served in the 2:1 WRR pattern.
    #[test]
    fn tenant_tier_fair_shares_pass() {
        let mut c = InvariantChecker::collecting();
        let mut events = Vec::new();
        // One lambda per tenant; both tiers weighted 2:1, both backlogged.
        for i in 0..64u64 {
            events.push((
                i,
                3usize,
                TraceEvent::WfqEnqueue {
                    lambda_id: 0,
                    weight_milli: 2000,
                    depth: i + 1,
                    tenant_id: 1,
                    tenant_weight_milli: 2000,
                },
            ));
            events.push((
                i,
                3,
                TraceEvent::WfqEnqueue {
                    lambda_id: 1,
                    weight_milli: 1000,
                    depth: i + 1,
                    tenant_id: 2,
                    tenant_weight_milli: 1000,
                },
            ));
        }
        let mut d0 = 64u64;
        let mut d1 = 64u64;
        for i in 0..45u64 {
            let (l, t, w, depth) = if i % 3 == 2 {
                d1 -= 1;
                (1u32, 2u32, 1000, d1)
            } else {
                d0 -= 1;
                (0u32, 1u32, 2000, d0)
            };
            events.push((
                100 + i,
                3,
                TraceEvent::WfqDequeue {
                    lambda_id: l,
                    weight_milli: w,
                    depth,
                    tenant_id: t,
                    tenant_weight_milli: w,
                },
            ));
        }
        feed(&mut c, &events);
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    /// Unbalanced service across equal-weight tenants trips the
    /// tenant-tier fairness bound (shares must converge to weights).
    #[test]
    fn tenant_tier_unfair_shares_are_caught() {
        let mut c = InvariantChecker::collecting();
        let mut events = Vec::new();
        for i in 0..200u64 {
            events.push((
                i,
                3usize,
                TraceEvent::WfqEnqueue {
                    lambda_id: 0,
                    weight_milli: 1000,
                    depth: i + 1,
                    tenant_id: 1,
                    tenant_weight_milli: 1000,
                },
            ));
            events.push((
                i,
                3,
                TraceEvent::WfqEnqueue {
                    lambda_id: 1,
                    weight_milli: 1000,
                    depth: i + 1,
                    tenant_id: 2,
                    tenant_weight_milli: 1000,
                },
            ));
        }
        // Equal weights, but tenant 1 gets 7 of every 8 service slots.
        let mut d0 = 200u64;
        let mut d1 = 200u64;
        for i in 0..64u64 {
            let (l, t, depth) = if i % 8 == 7 {
                d1 -= 1;
                (1u32, 2u32, d1)
            } else {
                d0 -= 1;
                (0u32, 1u32, d0)
            };
            events.push((
                300 + i,
                3,
                TraceEvent::WfqDequeue {
                    lambda_id: l,
                    weight_milli: 1000,
                    depth,
                    tenant_id: t,
                    tenant_weight_milli: 1000,
                },
            ));
        }
        feed(&mut c, &events);
        assert!(
            c.violations()
                .iter()
                .any(|v| v.contains("normalized tenant service")),
            "{:?}",
            c.violations()
        );
    }

    // ---- invariant 14: gateway-tier exactly-once and epoch rules ----

    #[test]
    fn clean_tier_handoff_passes() {
        let gw1_id = 1u64 << 48;
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 1,
                        shards: 2,
                    },
                ),
                (
                    5,
                    9,
                    TraceEvent::GwClientSubmit {
                        uid: 1,
                        client_id: 77,
                        gateway: 0,
                    },
                ),
                (
                    6,
                    2,
                    TraceEvent::RequestSubmitted {
                        request_id: 1,
                        workload_id: 0,
                    },
                ),
                // Planned drain: gateway 0 hands its in-flight request to
                // gateway 1, which re-submits under its own id space.
                (
                    10,
                    2,
                    TraceEvent::GwHandoff {
                        from_gateway: 0,
                        to_gateway: 1,
                        request_id: 1,
                    },
                ),
                (
                    10,
                    9,
                    TraceEvent::GwDeposed {
                        gateway: 0,
                        epoch: 1,
                    },
                ),
                (
                    11,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 2,
                        shards: 1,
                    },
                ),
                (
                    12,
                    3,
                    TraceEvent::RequestSubmitted {
                        request_id: gw1_id + 1,
                        workload_id: 0,
                    },
                ),
                (
                    20,
                    3,
                    TraceEvent::RequestCompleted {
                        request_id: gw1_id + 1,
                        workload_id: 0,
                        latency_ns: 8,
                        failed: false,
                    },
                ),
                (
                    21,
                    9,
                    TraceEvent::GwClientComplete {
                        uid: 1,
                        gateway: 1,
                        failed: false,
                    },
                ),
                (
                    30,
                    9,
                    TraceEvent::GwRejoin {
                        gateway: 0,
                        epoch: 3,
                    },
                ),
                (
                    31,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 3,
                        shards: 2,
                    },
                ),
            ],
        );
        c.on_finish(SimTime::from_nanos(40));
        c.assert_clean();
        assert_eq!(c.handed_off(), 1);
        assert_eq!(c.clients_delivered(), 1);
        assert_eq!(c.tier_epoch(), 3);
    }

    #[test]
    fn double_client_completion_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 1,
                        shards: 2,
                    },
                ),
                (
                    1,
                    9,
                    TraceEvent::GwClientSubmit {
                        uid: 4,
                        client_id: 9,
                        gateway: 0,
                    },
                ),
                (
                    5,
                    9,
                    TraceEvent::GwClientComplete {
                        uid: 4,
                        gateway: 0,
                        failed: false,
                    },
                ),
                // The old owner's late completion leaks through: the
                // router failed to suppress the duplicate.
                (
                    9,
                    9,
                    TraceEvent::GwClientComplete {
                        uid: 4,
                        gateway: 1,
                        failed: false,
                    },
                ),
            ],
        );
        assert!(
            c.violations().iter().any(|v| v.contains("exactly-once")),
            "{:?}",
            c.violations()
        );
    }

    fn client_submit(uid: u64) -> TraceEvent {
        TraceEvent::GwClientSubmit {
            uid,
            client_id: uid,
            gateway: 0,
        }
    }

    fn client_complete(uid: u64) -> TraceEvent {
        TraceEvent::GwClientComplete {
            uid,
            gateway: 0,
            failed: false,
        }
    }

    /// Uids 1..=5 routed; 1, 2, 3 and 5 delivered. Uid 4 is still
    /// pending, so the watermark stops at 3 and uid 5 sits in the
    /// sparse set.
    fn tier_with_gap() -> InvariantChecker {
        let mut c = InvariantChecker::collecting();
        for uid in 1..=5 {
            feed(&mut c, &[(uid, 9, client_submit(uid))]);
        }
        for uid in [1, 2, 3, 5] {
            feed(&mut c, &[(10 + uid, 9, client_complete(uid))]);
        }
        assert_eq!(c.client_delivered.through, 3);
        assert_eq!(c.client_delivered.above.len(), 1);
        assert_eq!(c.clients_delivered(), 4);
        c.assert_clean();
        c
    }

    fn only_violation(c: &InvariantChecker, needle: &str) {
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
        assert!(c.violations()[0].contains(needle), "{:?}", c.violations());
    }

    #[test]
    fn client_rule_violations_fire_below_the_watermark_and_in_the_sparse_set() {
        // 2 is below the watermark, 5 is in the sparse set.
        for uid in [2, 5] {
            let mut c = tier_with_gap();
            feed(&mut c, &[(20, 9, client_submit(uid))]);
            only_violation(&c, &format!("client request {uid} routed twice"));

            let mut c = tier_with_gap();
            feed(&mut c, &[(20, 9, client_complete(uid))]);
            only_violation(
                &c,
                &format!("client request {uid} delivered a second completion"),
            );
        }
        // A completion for a uid that was never routed: in the gap just
        // above the watermark, further above it outside the sparse set,
        // and uid 0, which the watermark never covers.
        for uid in [4, 6, 0] {
            let mut c = InvariantChecker::collecting();
            for routed in [1, 2, 3, 5] {
                feed(&mut c, &[(2 * routed, 9, client_submit(routed))]);
                feed(&mut c, &[(2 * routed + 1, 9, client_complete(routed))]);
            }
            feed(&mut c, &[(20, 9, client_complete(uid))]);
            only_violation(
                &c,
                &format!("client request {uid} completed (gateway 0) without a routed submission"),
            );
        }
        // The stuck uid still completes cleanly and closes the gap.
        let mut c = tier_with_gap();
        feed(&mut c, &[(20, 9, client_complete(4))]);
        c.assert_clean();
        assert_eq!(c.client_delivered.through, 5);
        assert!(c.client_delivered.above.is_empty());
    }

    #[test]
    fn in_order_deliveries_leave_the_sparse_set_empty() {
        let mut c = InvariantChecker::collecting();
        for uid in 1..=100_000u64 {
            feed(&mut c, &[(uid, 9, client_submit(uid))]);
            feed(&mut c, &[(uid, 9, client_complete(uid))]);
        }
        c.assert_clean();
        assert_eq!(c.clients_delivered(), 100_000);
        assert_eq!(c.client_delivered.through, 100_000);
        assert!(c.client_delivered.above.is_empty());
    }

    #[test]
    fn one_stuck_uid_holds_only_the_deliveries_after_it() {
        let stuck = 100u64;
        let mut c = InvariantChecker::collecting();
        let mut after_stuck = 0;
        for uid in 1..=5_000u64 {
            feed(&mut c, &[(uid, 9, client_submit(uid))]);
            if uid != stuck {
                feed(&mut c, &[(uid, 9, client_complete(uid))]);
                if uid > stuck {
                    after_stuck += 1;
                }
            }
            assert!(c.client_delivered.above.len() <= after_stuck);
        }
        assert_eq!(c.client_delivered.through, stuck - 1);
        assert_eq!(c.client_delivered.above.len(), after_stuck);
        feed(&mut c, &[(6_000, 9, client_complete(stuck))]);
        c.assert_clean();
        assert_eq!(c.client_delivered.through, 5_000);
        assert!(c.client_delivered.above.is_empty());
    }

    #[test]
    fn client_rule_matches_a_full_delivered_set() {
        // Random submit/complete streams over a small uid space, duplicates
        // and unrouted uids included, must give exactly the verdicts of
        // the plain "every uid ever delivered" set the watermark replaces.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let mut c = InvariantChecker::collecting();
            let mut delivered: FastSet<u64> = FastSet::default();
            let mut outstanding: FastSet<u64> = FastSet::default();
            let mut expected = Vec::new();
            for at in 0..300u64 {
                let r = next();
                let uid = (r >> 8) % 24;
                if r & 1 == 0 {
                    feed(&mut c, &[(at, 9, client_submit(uid))]);
                    if delivered.contains(&uid) || !outstanding.insert(uid) {
                        expected.push(format!("client request {uid} routed twice"));
                    }
                } else {
                    feed(&mut c, &[(at, 9, client_complete(uid))]);
                    if delivered.contains(&uid) {
                        expected.push(format!(
                            "client request {uid} delivered a second completion"
                        ));
                    } else if !outstanding.remove(&uid) {
                        expected.push(format!(
                            "client request {uid} completed (gateway 0) without a routed submission"
                        ));
                    } else {
                        delivered.insert(uid);
                    }
                }
            }
            assert_eq!(c.violations().len(), expected.len(), "{:?}", c.violations());
            for (got, want) in c.violations().iter().zip(&expected) {
                assert!(got.contains(want.as_str()), "{got} vs {want}");
            }
            assert_eq!(c.clients_delivered(), delivered.len() as u64);
        }
    }

    #[test]
    fn shard_map_epoch_regression_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 5,
                        shards: 3,
                    },
                ),
                (
                    9,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 5,
                        shards: 2,
                    },
                ),
            ],
        );
        assert!(
            c.violations()
                .iter()
                .any(|v| v.contains("shard-map epoch regressed")),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn tier_snapshot_restore_cycle_is_clean() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 1,
                        shards: 2,
                    },
                ),
                (
                    1,
                    9,
                    TraceEvent::TierSnapshot {
                        seq: 1,
                        epoch: 1,
                        shards: 2,
                        handed_off: 0,
                    },
                ),
                (
                    5,
                    9,
                    TraceEvent::TierSnapshot {
                        seq: 2,
                        epoch: 1,
                        shards: 2,
                        handed_off: 0,
                    },
                ),
                (
                    9,
                    9,
                    TraceEvent::TierRestore {
                        seq: 2,
                        epoch: 1,
                        reconciled: 2,
                        handed_off: 0,
                    },
                ),
                // A cold rebuild reports seq 0 and is always legal.
                (
                    12,
                    9,
                    TraceEvent::TierRestore {
                        seq: 0,
                        epoch: 1,
                        reconciled: 2,
                        handed_off: 0,
                    },
                ),
            ],
        );
        c.on_finish(SimTime::from_nanos(20));
        c.assert_clean();
    }

    #[test]
    fn tier_snapshot_seq_regression_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 1,
                        shards: 2,
                    },
                ),
                (
                    1,
                    9,
                    TraceEvent::TierSnapshot {
                        seq: 3,
                        epoch: 1,
                        shards: 2,
                        handed_off: 0,
                    },
                ),
                (
                    5,
                    9,
                    TraceEvent::TierSnapshot {
                        seq: 2,
                        epoch: 1,
                        shards: 2,
                        handed_off: 0,
                    },
                ),
            ],
        );
        assert!(
            c.violations()
                .iter()
                .any(|v| v.contains("tier snapshot seq went backwards")),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn tier_snapshot_of_unpublished_epoch_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 1,
                        shards: 2,
                    },
                ),
                // Claims an epoch the controller never published.
                (
                    1,
                    9,
                    TraceEvent::TierSnapshot {
                        seq: 1,
                        epoch: 4,
                        shards: 2,
                        handed_off: 0,
                    },
                ),
            ],
        );
        assert!(
            c.violations()
                .iter()
                .any(|v| v.contains("above the published map epoch")),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn tier_snapshot_overstating_handoffs_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 1,
                        shards: 2,
                    },
                ),
                (
                    1,
                    9,
                    TraceEvent::TierSnapshot {
                        seq: 1,
                        epoch: 1,
                        shards: 2,
                        handed_off: 7,
                    },
                ),
            ],
        );
        assert!(
            c.violations()
                .iter()
                .any(|v| v.contains("handoffs but only")),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn tier_restore_from_untaken_snapshot_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 1,
                        shards: 2,
                    },
                ),
                (
                    1,
                    9,
                    TraceEvent::TierRestore {
                        seq: 5,
                        epoch: 1,
                        reconciled: 2,
                        handed_off: 0,
                    },
                ),
            ],
        );
        assert!(
            c.violations()
                .iter()
                .any(|v| v.contains("that was never taken")),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn tier_restore_epoch_regression_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 3,
                        shards: 2,
                    },
                ),
                (
                    1,
                    9,
                    TraceEvent::TierSnapshot {
                        seq: 1,
                        epoch: 3,
                        shards: 2,
                        handed_off: 0,
                    },
                ),
                // The restore reports an epoch below the published map:
                // the controller rolled the tier backwards.
                (
                    5,
                    9,
                    TraceEvent::TierRestore {
                        seq: 1,
                        epoch: 2,
                        reconciled: 2,
                        handed_off: 0,
                    },
                ),
            ],
        );
        assert!(
            c.violations()
                .iter()
                .any(|v| v.contains("regressed the map epoch")),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn deposed_gateway_acceptance_is_caught() {
        let gw2_id = 2u64 << 48;
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 1,
                        shards: 3,
                    },
                ),
                (
                    5,
                    9,
                    TraceEvent::GwDeposed {
                        gateway: 2,
                        epoch: 1,
                    },
                ),
                (
                    6,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 2,
                        shards: 2,
                    },
                ),
                // The deposed shard keeps serving: split-brain.
                (
                    8,
                    4,
                    TraceEvent::RequestSubmitted {
                        request_id: gw2_id + 7,
                        workload_id: 0,
                    },
                ),
            ],
        );
        assert!(
            c.violations()
                .iter()
                .any(|v| v.contains("deposed gateway 2")),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn rejoin_must_bump_past_deposed_epoch() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[
                (
                    0,
                    9,
                    TraceEvent::GwShardMap {
                        epoch: 3,
                        shards: 2,
                    },
                ),
                (
                    1,
                    9,
                    TraceEvent::GwDeposed {
                        gateway: 1,
                        epoch: 3,
                    },
                ),
                (
                    9,
                    9,
                    TraceEvent::GwRejoin {
                        gateway: 1,
                        epoch: 3,
                    },
                ),
            ],
        );
        assert!(
            c.violations()
                .iter()
                .any(|v| v.contains("without bumping past the deposed epoch")),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn handoff_of_unknown_request_is_caught() {
        let mut c = InvariantChecker::collecting();
        feed(
            &mut c,
            &[(
                3,
                2,
                TraceEvent::GwHandoff {
                    from_gateway: 0,
                    to_gateway: 1,
                    request_id: 99,
                },
            )],
        );
        assert!(
            c.violations().iter().any(|v| v.contains("not outstanding")),
            "{:?}",
            c.violations()
        );
    }
}
