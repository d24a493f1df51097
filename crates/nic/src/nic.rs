//! The SmartNIC component: scheduler, NPU thread pool, RDMA engine, and
//! firmware management.
//!
//! Implements §5's execution model: every core runs the same
//! Match+Lambda image; the hardware scheduler uniformly distributes
//! single-packet requests to threads; lambdas run to completion on their
//! thread (§4.2-D1); multi-packet messages are committed to NIC memory
//! over RDMA and dispatched once reassembled (§4.2-D3); packets that match
//! no lambda are punted to the host OS across PCIe.

use std::sync::Arc;

use bytes::Bytes;
use rand::Rng;

use lnic_mlambda::compile::Firmware;
use lnic_mlambda::cost::{exec_cycles, mem_charge_cycles};
use lnic_mlambda::interp::{Code, Execution, HeaderValues, ObjectMemory, RequestCtx, StepOutcome};
use lnic_mlambda::ir::retcode;
use lnic_mlambda::program::{DispatchCtx, DispatchResult, Program};
use lnic_net::frag::Reassembler;
use lnic_net::packet::{LambdaHdr, LambdaKind, Packet};
use lnic_net::{Ipv4Addr, MacAddr, SocketAddr};
use lnic_sim::hash::FastMap;
use lnic_sim::lease::{CutTable, WorkerView};
use lnic_sim::prelude::*;

use lnic_tenant::cache::{Access, FirmwareCache};
use lnic_tenant::{TenancyConfig, TenantDirectory, TenantId, DEFAULT_TENANT};

use crate::params::{ExecMode, NicParams};
use crate::wfq::HierarchicalWfq;

/// How the scheduler picks a thread for an incoming request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// The Netronome scheduler: work-conserving, uniformly random over
    /// idle threads (§5).
    #[default]
    UniformRandom,
    /// Deterministic round-robin (ablation).
    RoundRobin,
}

/// A remote service a lambda can call with [`lnic_mlambda::ir::Instr::NetRpc`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceEndpoint {
    /// L2 address of (the NIC in front of) the service.
    pub mac: MacAddr,
    /// UDP endpoint of the service.
    pub addr: SocketAddr,
}

/// Control message: load (swap) the NIC firmware. Incurs
/// [`NicParams::firmware_swap_time`] of downtime (§7).
#[derive(Debug)]
pub struct LoadFirmware {
    /// The compiled image.
    pub firmware: Arc<Firmware>,
    /// Fencing token of the deploy (0 = fencing disabled). A worker
    /// holding a higher epoch refuses the image: it was cut for a
    /// placement decision that has since been superseded.
    pub epoch: u64,
}

impl LoadFirmware {
    /// A deploy outside any fencing regime (epoch 0).
    pub fn unfenced(firmware: Arc<Firmware>) -> Self {
        LoadFirmware { firmware, epoch: 0 }
    }
}

pub use lnic_net::transport::UpdateService;

/// NIC → resident service: a single-packet `Request` for a workload
/// registered with [`Nic::register_resident`], intercepted ahead of the
/// firmware dispatch path. The resident answers with [`ResidentDone`].
#[derive(Debug)]
pub struct ResidentCall {
    /// Correlates the eventual [`ResidentDone`] with the reply state the
    /// NIC keeps (headers of the request packet).
    pub token: u64,
    /// The request's λ-NIC header.
    pub hdr: LambdaHdr,
    /// The request payload.
    pub payload: Bytes,
}

/// Resident service → NIC: completes the call `token`; the NIC builds
/// and transmits the response packet, stamping queue depth and epoch
/// exactly like a lambda response.
#[derive(Debug)]
pub struct ResidentDone {
    /// The [`ResidentCall`] token being answered.
    pub token: u64,
    /// Response return code (`RC_OK`, `RC_REDIRECT`, ...).
    pub return_code: u16,
    /// Response payload.
    pub payload: Bytes,
}

/// NIC → resident service: a raw `RdmaWrite` frame addressed to a
/// resident workload (replication traffic). The resident runs its own
/// reassembler; the NIC does not interpret these.
#[derive(Debug)]
pub struct ResidentFrame {
    /// The undecoded frame.
    pub packet: Packet,
}

/// Resident service → NIC: transmit a fully-built packet on the wire
/// (replica-to-replica replication traffic originates here).
#[derive(Debug)]
pub struct ResidentTx {
    /// The packet to transmit.
    pub packet: Packet,
}

/// NIC → resident service: the worker's fencing epoch rose (lease grant
/// after a partition rejoin). Residents derive leadership fences from
/// this: a replica whose worker was fenced must step down.
#[derive(Debug)]
pub struct ResidentEpoch {
    /// The new epoch.
    pub epoch: u64,
}

/// Reply state for one outstanding [`ResidentCall`].
#[derive(Debug)]
struct ResidentReply {
    /// The request packet (headers only) used to construct the reply.
    reply_template: Packet,
    req_hdr: LambdaHdr,
}

/// Counters exposed for experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NicCounters {
    /// Lambda requests accepted.
    pub requests: u64,
    /// Responses sent.
    pub responses: u64,
    /// Packets punted to the host OS.
    pub punted_to_host: u64,
    /// Packets dropped because no firmware is loaded or a swap is in
    /// progress.
    pub dropped_downtime: u64,
    /// Lambda executions that faulted (bounds, fuel, RPC failure).
    pub faults: u64,
    /// Firmware swaps completed.
    pub swaps: u64,
    /// RDMA fragments committed.
    pub rdma_fragments: u64,
    /// Requests that waited in the WFQ (all threads busy).
    pub queued: u64,
    /// Crashes injected.
    pub crashes: u64,
    /// Packets blackholed while the NIC was crashed.
    pub dropped_crashed: u64,
    /// In-flight jobs (running or queued) lost to crashes.
    pub jobs_lost: u64,
    /// Requests refused at dequeue because their propagated deadline had
    /// already expired (answered with `RC_EXPIRED`, not executed).
    pub deadline_drops: u64,
    /// Requests or deploys refused because they carried a stale fencing
    /// token, or because the worker's own lease had lapsed (answered
    /// with `RC_FENCED`, not executed).
    pub fenced_rejects: u64,
    /// Firmware faults: requests whose lambda's instruction-store page
    /// was not resident and had to page in (tenancy enabled only).
    pub firmware_faults: u64,
    /// Firmware pages evicted to make room for fault-ins.
    pub firmware_evictions: u64,
    /// Requests queued because their tenant's NPU-thread quota was
    /// exhausted even though idle threads existed.
    pub quota_deferrals: u64,
    /// Firmware images refused at install because their program failed
    /// to decode ([`Code::decode`]); the previous image keeps serving.
    pub rejected_programs: u64,
}

/// Per-worker multi-tenant runtime state: the shared directory, the
/// virtualized instruction store, and the thread-quota accounting.
struct TenantRuntime {
    dir: Arc<TenantDirectory>,
    cfg: TenancyConfig,
    /// The LRU firmware cache virtualizing the instruction store:
    /// resident lambdas execute immediately, cold ones pay a paging
    /// charge (the per-lambda analogue of a whole-image swap).
    cache: FirmwareCache,
    /// Lambda threads currently executing each tenant's work.
    busy: FastMap<TenantId, usize>,
}

#[derive(Debug)]
enum Phase {
    /// Emit the response and free the thread.
    Finish { response: Bytes, code: u16 },
    /// Send the pending lambda RPC.
    SendRpc { service: u16, payload: Bytes },
}

struct Job {
    lambda_idx: usize,
    /// The tenant whose thread-quota slot this job occupies.
    tenant_id: TenantId,
    exec: Execution,
    /// The request packet (headers only) used to construct the reply.
    reply_template: Packet,
    /// The request's λ-NIC header.
    req_hdr: LambdaHdr,
    /// Cycles already converted into virtual time.
    charged_cycles: u64,
    /// Fixed cycles charged before execution (parse/match, reorder).
    overhead_cycles: u64,
    /// Next action once the current compute delay elapses.
    phase: Option<Phase>,
    /// Monotonic sequence for RPC attempts (invalidates stale timeouts).
    rpc_seq: u64,
    /// Attempts used for the current RPC.
    rpc_attempt: u32,
}

enum ThreadState {
    Idle,
    /// Computing until the scheduled `ThreadPhase` fires.
    Computing(Job),
    /// Suspended on a lambda RPC.
    AwaitingRpc(Job),
}

struct Thread {
    state: ThreadState,
    epoch: u64,
}

/// One request ready for dispatch to a thread.
#[derive(Debug)]
struct PendingRequest {
    lambda_idx: usize,
    /// The owning tenant per the directory (scheduling identity).
    tenant_id: TenantId,
    ctx: RequestCtx,
    reply_template: Packet,
    req_hdr: LambdaHdr,
    extra_cycles: u64,
}

#[derive(Debug)]
struct ThreadPhase {
    thread: usize,
    epoch: u64,
}

#[derive(Debug)]
struct RpcTimeout {
    thread: usize,
    epoch: u64,
    rpc_seq: u64,
}

#[derive(Debug)]
struct SwapDone {
    firmware: Arc<Firmware>,
    /// Guards against swaps started before a crash landing afterwards.
    swap_epoch: u64,
}

/// Pipelined mode: the parse/match stage finished for this request.
#[derive(Debug)]
struct StageDone {
    pending: PendingRequest,
}

/// The simulated SmartNIC.
///
/// Attach it to a [`lnic_net::switch::Switch`] and make that its uplink, load
/// a [`Firmware`], and send it [`Packet`]s.
pub struct Nic {
    params: NicParams,
    mac: MacAddr,
    ip: Ipv4Addr,
    uplink: ComponentId,
    host: Option<ComponentId>,
    services: FastMap<u16, ServiceEndpoint>,
    dispatch_policy: DispatchPolicy,

    firmware: Option<Arc<Firmware>>,
    /// The installed firmware's program, decoded once at install.
    code: Option<Arc<Code>>,
    deployed_mem: Vec<ObjectMemory>,
    swapping: bool,
    /// Power/fault state: a crashed NIC blackholes everything until a
    /// [`lnic_sim::fault::Restart`] re-enters through the swap path.
    crashed: bool,
    /// Last installed image, reloaded on restart (the controller's copy
    /// of record survives the crash; the NIC's running state does not).
    last_firmware: Option<Arc<Firmware>>,
    /// Bumped on crash so in-flight [`SwapDone`] events become stale.
    swap_epoch: u64,
    /// The control processor defers all work until this instant.
    stalled_until: SimTime,
    /// Gray failure: compute runs `slow_factor`× slower until
    /// `slow_until` (the NIC still answers health pings — only
    /// latency-based fail-slow detection can see this).
    slow_until: SimTime,
    slow_factor: f64,
    /// Membership: the lease and fencing token this worker serves
    /// under. No lease until the first grant (no fencing regime: legacy
    /// heartbeat-free testbeds keep working).
    lease: WorkerView,
    /// Partition windows: direct control messages from cut peers are
    /// blackholed.
    cuts: CutTable,
    /// NIC-resident services by workload id: intercepted ahead of the
    /// firmware dispatch path and delegated to a co-located component
    /// (the replicated KV replica).
    resident: FastMap<u32, ComponentId>,
    /// Outstanding [`ResidentCall`]s awaiting their [`ResidentDone`].
    resident_pending: FastMap<u64, ResidentReply>,
    resident_next_token: u64,

    threads: Vec<Thread>,
    idle: Vec<usize>,
    rr_next: usize,
    /// Two-level wait queue: tenants share capacity by tenant weight,
    /// lambdas within a tenant by lambda weight. With tenancy disabled
    /// every request lands under [`DEFAULT_TENANT`] and the hierarchy
    /// degenerates to the flat per-lambda WFQ exactly.
    queue: HierarchicalWfq<PendingRequest>,
    /// Lambda WFQ weights by index, applied lazily to whichever tenant
    /// slice the lambda's requests arrive under.
    lambda_weights: FastMap<usize, f64>,
    /// Multi-tenant runtime; `None` keeps the single-tenant behavior.
    tenancy: Option<TenantRuntime>,
    reassembler: Reassembler,

    counters: NicCounters,
    /// Pipelined mode: next-free times of the parse/match stage threads.
    stage_free_at: Vec<SimTime>,
}

impl Nic {
    /// Creates a NIC with the given identity and uplink.
    pub fn new(params: NicParams, mac: MacAddr, ip: Ipv4Addr, uplink: ComponentId) -> Self {
        // In pipelined mode, stage threads are carved out of the pool.
        let (lambda_threads, stage_threads) = match params.exec_mode {
            ExecMode::RunToCompletion => (params.threads(), 0),
            ExecMode::Pipelined { stage_threads, .. } => {
                assert!(
                    stage_threads > 0 && stage_threads < params.threads(),
                    "pipelined mode needs stage threads and lambda threads"
                );
                (params.threads() - stage_threads, stage_threads)
            }
        };
        let threads = (0..lambda_threads)
            .map(|_| Thread {
                state: ThreadState::Idle,
                epoch: 0,
            })
            .collect::<Vec<_>>();
        let idle = (0..lambda_threads).rev().collect();
        let stage_free_at = vec![SimTime::ZERO; stage_threads];
        Nic {
            params,
            mac,
            ip,
            uplink,
            host: None,
            services: FastMap::default(),
            dispatch_policy: DispatchPolicy::default(),
            firmware: None,
            code: None,
            deployed_mem: Vec::new(),
            swapping: false,
            crashed: false,
            last_firmware: None,
            swap_epoch: 0,
            stalled_until: SimTime::ZERO,
            slow_until: SimTime::ZERO,
            slow_factor: 1.0,
            lease: WorkerView::new(),
            cuts: CutTable::default(),
            resident: FastMap::default(),
            resident_pending: FastMap::default(),
            resident_next_token: 0,
            threads,
            idle,
            rr_next: 0,
            queue: HierarchicalWfq::new(),
            lambda_weights: FastMap::default(),
            tenancy: None,
            reassembler: Reassembler::new(),
            counters: NicCounters::default(),
            stage_free_at,
        }
    }

    /// Sets the host component packets are punted to.
    pub fn with_host(mut self, host: ComponentId) -> Self {
        self.host = Some(host);
        self
    }

    /// Registers a callable service endpoint.
    pub fn with_service(mut self, id: u16, endpoint: ServiceEndpoint) -> Self {
        self.services.insert(id, endpoint);
        self
    }

    /// The endpoint this worker currently resolves `service` to.
    pub fn service(&self, id: u16) -> Option<ServiceEndpoint> {
        self.services.get(&id).copied()
    }

    /// Registers a NIC-resident service: packets for `workload_id` are
    /// intercepted ahead of the firmware dispatch path and delegated to
    /// `component` (which must be co-located with this NIC — it speaks
    /// [`ResidentCall`]/[`ResidentDone`] and shares the NIC's fate on
    /// crash and fencing).
    pub fn register_resident(&mut self, workload_id: u32, component: ComponentId) {
        self.resident.insert(workload_id, component);
    }

    /// Changes the dispatch policy on a constructed NIC (ablation).
    pub fn set_dispatch_policy(&mut self, policy: DispatchPolicy) {
        self.dispatch_policy = policy;
    }

    /// Installs firmware immediately (no swap downtime); for experiment
    /// setup where the image is in place before traffic starts. An image
    /// whose program does not decode is refused and counted in
    /// [`NicCounters::rejected_programs`].
    pub fn preload(mut self, firmware: Arc<Firmware>) -> Self {
        self.install(firmware);
        self
    }

    /// Installs firmware immediately on an already-constructed NIC (no
    /// swap downtime); the post-construction form of [`Nic::preload`].
    ///
    /// An out-of-band image push supersedes any in-flight swap: the
    /// pending swap completion is invalidated and the NIC serves the
    /// new image at once (disaster drills re-image a recovered rack
    /// this way instead of waiting out the self-reload swap). An image
    /// whose program does not decode is refused and counted, as in
    /// [`Nic::preload`].
    pub fn install_now(&mut self, firmware: Arc<Firmware>) {
        if self.swapping {
            self.swapping = false;
            self.swap_epoch += 1;
        }
        self.install(firmware);
    }

    /// Sets a lambda's WFQ weight (within its tenant's slice).
    pub fn set_weight(&mut self, lambda_idx: usize, weight: f64) {
        self.lambda_weights.insert(lambda_idx, weight);
        self.queue
            .set_lambda_weight(DEFAULT_TENANT, lambda_idx, weight);
    }

    /// Turns on multi-tenant virtualization: requests are scheduled
    /// under their workload's owning tenant (hierarchical WFQ weighted
    /// by the directory), NPU-thread quotas gate dispatch, and the
    /// instruction store is virtualized behind an LRU firmware cache —
    /// cold lambdas fault their page in, charged as execution overhead
    /// on the faulting request.
    pub fn enable_tenancy(&mut self, dir: Arc<TenantDirectory>, cfg: TenancyConfig) {
        for t in dir.tenants() {
            self.queue.set_tenant_weight(t, dir.weight_of(t));
        }
        self.tenancy = Some(TenantRuntime {
            cache: FirmwareCache::new(cfg.cache_words),
            busy: FastMap::default(),
            dir,
            cfg,
        });
    }

    /// The tenant a workload is scheduled under: its owner per the
    /// directory, or [`DEFAULT_TENANT`] when tenancy is disabled.
    fn sched_tenant(&self, workload_id: u32) -> TenantId {
        self.tenancy
            .as_ref()
            .map_or(DEFAULT_TENANT, |t| t.dir.tenant_of(workload_id))
    }

    /// Whether `tenant` may occupy another lambda thread right now.
    fn thread_budget_ok(&self, tenant: TenantId) -> bool {
        let Some(rt) = &self.tenancy else { return true };
        let quota = rt.dir.spec_of(tenant).thread_quota;
        quota == 0 || rt.busy.get(&tenant).copied().unwrap_or(0) < quota
    }

    /// Instruction-store words of one lambda's firmware page.
    fn page_words(program: &Program, lambda_idx: usize) -> u64 {
        program.lambdas[lambda_idx].instrs().count() as u64
    }

    /// The NIC's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The NIC's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Experiment counters.
    pub fn counters(&self) -> NicCounters {
        self.counters
    }

    /// Bytes of NIC memory the current deployment occupies (Table 3):
    /// the image plus the runtime's resident allocations.
    pub fn memory_in_use_bytes(&self) -> u64 {
        self.firmware
            .as_ref()
            .map_or(0, |f| f.size_bytes() + self.params.runtime_resident_bytes)
    }

    /// Number of lambda threads currently busy (excludes dedicated
    /// parse/match stage threads in pipelined mode).
    pub fn busy_threads(&self) -> usize {
        self.threads.len() - self.idle.len()
    }

    /// Whether the NIC is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Refuses fenced work with a typed `RC_FENCED` reply so the sender
    /// re-resolves the placement instead of waiting out its timer.
    fn reject_fenced(&mut self, ctx: &mut Ctx<'_>, pending: &PendingRequest, worker_epoch: u64) {
        self.counters.fenced_rejects += 1;
        let hdr = pending.req_hdr;
        ctx.emit(|| TraceEvent::FencedReject {
            request_id: hdr.request_id,
            workload_id: hdr.workload_id,
            hdr_epoch: hdr.epoch,
            worker_epoch,
        });
        let mut resp_hdr = hdr.response_to(lnic_net::packet::RC_FENCED);
        resp_hdr.queue_depth = self.queue.len().min(u16::MAX as usize) as u16;
        resp_hdr.epoch = self.lease.epoch();
        let packet = pending
            .reply_template
            .reply_to()
            .lambda(resp_hdr)
            .payload(Bytes::new())
            .build();
        ctx.send(self.uplink, SimDuration::ZERO, packet);
    }

    /// Installs `firmware` with its shared decode ([`Firmware::code`]),
    /// returning whether it was taken. An image whose program does not
    /// decode is refused and counted; the running image, if any, keeps
    /// serving.
    fn install(&mut self, firmware: Arc<Firmware>) -> bool {
        let Ok(code) = firmware.code() else {
            self.counters.rejected_programs += 1;
            return false;
        };
        self.deployed_mem = firmware
            .program
            .lambdas
            .iter()
            .map(ObjectMemory::for_lambda)
            .collect();
        self.code = Some(code);
        self.last_firmware = Some(Arc::clone(&firmware));
        self.firmware = Some(firmware);
        true
    }

    /// Fails the NIC: every in-flight job (running or queued) is lost,
    /// per-lambda state is wiped, and arrivals blackhole until restart.
    fn crash(&mut self, ctx: &mut Ctx<'_>) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        self.counters.crashes += 1;
        let in_flight = self.busy_threads() + self.queue.len();
        self.counters.jobs_lost += in_flight as u64;
        ctx.emit(|| TraceEvent::Fault {
            kind: "crash",
            detail: in_flight as u64,
        });
        for t in &mut self.threads {
            t.epoch += 1; // invalidate every pending phase/RPC timer
            t.state = ThreadState::Idle;
        }
        self.idle = (0..self.threads.len()).rev().collect();
        self.rr_next = 0;
        while self.queue.pop().is_some() {}
        // The instruction store and quota accounting are volatile.
        if let Some(rt) = &mut self.tenancy {
            rt.busy.clear();
            rt.cache = FirmwareCache::new(rt.cfg.cache_words);
        }
        self.reassembler = Reassembler::new();
        self.resident_pending.clear();
        for slot in &mut self.stage_free_at {
            *slot = SimTime::ZERO;
        }
        // Volatile deployment state is gone; any in-progress swap dies
        // with the NIC.
        self.firmware = None;
        self.code = None;
        self.deployed_mem = Vec::new();
        self.swapping = false;
        self.swap_epoch += 1;
        // A lease does not survive a crash; its epoch does.
        self.lease.lapse();
    }

    /// Recovers a crashed NIC: power back on and re-enter service by
    /// reloading the last installed image through the firmware-swap
    /// path, paying [`NicParams::firmware_swap_time`] of downtime.
    fn restart(&mut self, ctx: &mut Ctx<'_>) {
        if !self.crashed {
            return;
        }
        self.crashed = false;
        ctx.emit(|| TraceEvent::Fault {
            kind: "restart",
            detail: 0,
        });
        if let Some(firmware) = self.last_firmware.clone() {
            self.swapping = true;
            ctx.send_self(
                self.params.firmware_swap_time,
                SwapDone {
                    firmware,
                    swap_epoch: self.swap_epoch,
                },
            );
        }
    }

    fn alloc_thread(&mut self, rng: &mut impl Rng) -> Option<usize> {
        if self.idle.is_empty() {
            return None;
        }
        let pick = match self.dispatch_policy {
            DispatchPolicy::UniformRandom => rng.gen_range(0..self.idle.len()),
            DispatchPolicy::RoundRobin => {
                self.rr_next = (self.rr_next + 1) % self.idle.len();
                self.rr_next
            }
        };
        Some(self.idle.swap_remove(pick))
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if self.crashed {
            self.counters.dropped_crashed += 1;
            return;
        }
        // Lambda RPC responses come back on the per-thread port range.
        if packet.lambda.is_none() {
            let port = packet.udp.dst_port;
            let base = self.params.rpc_port_base;
            let nthreads = self.threads.len() as u16;
            if port >= base && port < base + nthreads {
                self.on_rpc_response(ctx, (port - base) as usize, packet.payload);
                return;
            }
            self.punt_to_host(ctx, packet);
            return;
        }

        // Resident services bypass the firmware path entirely: they are
        // live across swaps and do not need an image loaded.
        if let Some(hdr) = packet.lambda {
            if let Some(&svc) = self.resident.get(&hdr.workload_id) {
                self.on_resident_packet(ctx, svc, packet, hdr);
                return;
            }
        }

        if self.swapping || self.firmware.is_none() {
            self.counters.dropped_downtime += 1;
            return;
        }

        let hdr = packet.lambda.expect("checked above");
        match hdr.kind {
            LambdaKind::Request => {
                if hdr.frag_count <= 1 {
                    self.dispatch_request(ctx, packet, hdr, Bytes::new(), 0);
                } else {
                    // Multi-packet requests must arrive as RDMA writes.
                    self.counters.punted_to_host += 1;
                }
            }
            LambdaKind::RdmaWrite => {
                self.counters.rdma_fragments += 1;
                let payload = packet.payload.clone();
                if let Some(done) = self.reassembler.accept(hdr, payload) {
                    // Reordering cost is charged as extra NPU cycles; the
                    // RDMA commit itself delayed the trigger event.
                    let commit_ns = self.params.rdma_commit_ns_per_kb
                        * (done.payload.len() as u64).div_ceil(1024);
                    let extra = done.reorder_instrs;
                    let assembled = done.payload;
                    // The completion event (RdmaComplete) fires after the
                    // commit delay; model by delaying dispatch.
                    let pkt = packet;
                    let hdr_full = LambdaHdr {
                        frag_index: 0,
                        frag_count: 1,
                        ..hdr
                    };
                    ctx.send_self(
                        SimDuration::from_nanos(commit_ns),
                        RdmaDispatch {
                            packet: pkt,
                            hdr: hdr_full,
                            payload: assembled,
                            extra_cycles: extra,
                        },
                    );
                }
            }
            LambdaKind::Response | LambdaKind::RdmaComplete => {
                self.punt_to_host(ctx, packet);
            }
        }
    }

    /// Hands an intercepted packet to a co-located resident service.
    /// Requests pass the same fencing and deadline gates as dispatched
    /// lambda work; replication frames (`RdmaWrite`) pass through raw —
    /// the resident runs its own reassembler, and the raft layer above
    /// it carries its own epoch discipline.
    fn on_resident_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        svc: ComponentId,
        packet: Packet,
        hdr: LambdaHdr,
    ) {
        match hdr.kind {
            LambdaKind::Request => {
                self.counters.requests += 1;
                let refuse = |nic: &mut Nic, ctx: &mut Ctx<'_>, code: u16| {
                    let mut resp_hdr = hdr.response_to(code);
                    resp_hdr.queue_depth = nic.queue.len().min(u16::MAX as usize) as u16;
                    resp_hdr.epoch = nic.lease.epoch();
                    let reply = packet
                        .reply_to()
                        .lambda(resp_hdr)
                        .payload(Bytes::new())
                        .build();
                    ctx.send(nic.uplink, SimDuration::ZERO, reply);
                };
                if let Some(worker_epoch) = self.lease.fence_check(ctx.now(), hdr.epoch) {
                    self.counters.fenced_rejects += 1;
                    ctx.emit(|| TraceEvent::FencedReject {
                        request_id: hdr.request_id,
                        workload_id: hdr.workload_id,
                        hdr_epoch: hdr.epoch,
                        worker_epoch,
                    });
                    refuse(self, ctx, lnic_net::packet::RC_FENCED);
                    return;
                }
                if hdr.expired_at(ctx.now().as_nanos()) {
                    self.counters.deadline_drops += 1;
                    let overdue_ns = ctx.now().as_nanos().saturating_sub(hdr.deadline_ns);
                    ctx.emit(|| TraceEvent::DeadlineDrop {
                        request_id: hdr.request_id,
                        workload_id: hdr.workload_id,
                        overdue_ns,
                    });
                    refuse(self, ctx, lnic_net::packet::RC_EXPIRED);
                    return;
                }
                let token = self.resident_next_token;
                self.resident_next_token += 1;
                let payload = packet.payload.clone();
                let mut reply_template = packet;
                reply_template.payload = Bytes::new();
                self.resident_pending.insert(
                    token,
                    ResidentReply {
                        reply_template,
                        req_hdr: hdr,
                    },
                );
                ctx.send(
                    svc,
                    SimDuration::ZERO,
                    ResidentCall {
                        token,
                        hdr,
                        payload,
                    },
                );
            }
            LambdaKind::RdmaWrite => {
                self.counters.rdma_fragments += 1;
                ctx.send(svc, SimDuration::ZERO, ResidentFrame { packet });
            }
            LambdaKind::Response | LambdaKind::RdmaComplete => self.punt_to_host(ctx, packet),
        }
    }

    fn dispatch_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        packet: Packet,
        hdr: LambdaHdr,
        assembled_payload: Bytes,
        extra_cycles: u64,
    ) {
        let firmware = Arc::clone(self.firmware.as_ref().expect("firmware installed"));
        let dctx = DispatchCtx {
            workload_id: hdr.workload_id,
            dst_port: packet.udp.dst_port,
            dst_ip: packet.ipv4.dst.to_bits(),
            has_lambda_hdr: true,
        };
        match firmware.program.dispatch(&dctx) {
            DispatchResult::ToHost => self.punt_to_host(ctx, packet),
            DispatchResult::Invoke { lambda, params } => {
                self.counters.requests += 1;
                let payload = if assembled_payload.is_empty() {
                    packet.payload.clone()
                } else {
                    assembled_payload
                };
                let req = RequestCtx {
                    headers: HeaderValues {
                        workload_id: hdr.workload_id,
                        request_id: hdr.request_id,
                        frag_index: hdr.frag_index,
                        frag_count: hdr.frag_count,
                        return_code: hdr.return_code,
                        src_ip: packet.ipv4.src.to_bits(),
                        dst_ip: packet.ipv4.dst.to_bits(),
                        src_port: packet.udp.src_port,
                        dst_port: packet.udp.dst_port,
                    },
                    payload,
                    match_data: params,
                };
                let mut reply_template = packet;
                reply_template.payload = Bytes::new();
                let pending = PendingRequest {
                    lambda_idx: lambda,
                    tenant_id: self.sched_tenant(hdr.workload_id),
                    ctx: req,
                    reply_template,
                    req_hdr: hdr,
                    extra_cycles,
                };
                match self.params.exec_mode {
                    ExecMode::RunToCompletion => self.admit_to_thread(ctx, pending),
                    ExecMode::Pipelined { handoff_cycles, .. } => {
                        // The parse/match stage serializes over its own
                        // thread pool, then hands off across cores.
                        let service = self
                            .params
                            .cycles_to_time(firmware.parse_match_cycles() + handoff_cycles);
                        let slot = self
                            .stage_free_at
                            .iter_mut()
                            .min()
                            .expect("stage pool is non-empty");
                        let start = (*slot).max(ctx.now());
                        *slot = start + service;
                        let done_in = *slot - ctx.now();
                        ctx.send_self(done_in, StageDone { pending });
                    }
                }
            }
        }
    }

    /// Refuses an expired request at dequeue: answer `RC_EXPIRED` so the
    /// sender resolves the request promptly instead of waiting out its
    /// retransmission timer, and spend no NPU cycles on it.
    fn reject_expired(&mut self, ctx: &mut Ctx<'_>, pending: &PendingRequest) {
        self.counters.deadline_drops += 1;
        let hdr = pending.req_hdr;
        let overdue_ns = ctx.now().as_nanos().saturating_sub(hdr.deadline_ns);
        ctx.emit(|| TraceEvent::DeadlineDrop {
            request_id: hdr.request_id,
            workload_id: hdr.workload_id,
            overdue_ns,
        });
        let mut resp_hdr = hdr.response_to(lnic_net::packet::RC_EXPIRED);
        resp_hdr.queue_depth = self.queue.len().min(u16::MAX as usize) as u16;
        resp_hdr.epoch = self.lease.epoch();
        let packet = pending
            .reply_template
            .reply_to()
            .lambda(resp_hdr)
            .payload(Bytes::new())
            .build();
        ctx.send(self.uplink, SimDuration::ZERO, packet);
    }

    /// Assigns the request to an idle lambda thread or queues it.
    fn admit_to_thread(&mut self, ctx: &mut Ctx<'_>, pending: PendingRequest) {
        if let Some(epoch) = self.lease.fence_check(ctx.now(), pending.req_hdr.epoch) {
            self.reject_fenced(ctx, &pending, epoch);
            return;
        }
        if pending.req_hdr.expired_at(ctx.now().as_nanos()) {
            self.reject_expired(ctx, &pending);
            return;
        }
        let lambda = pending.lambda_idx;
        let tenant = pending.tenant_id;
        let budget_ok = self.thread_budget_ok(tenant);
        let slot = if budget_ok {
            self.alloc_thread(ctx.rng())
        } else {
            if !self.idle.is_empty() {
                self.counters.quota_deferrals += 1;
            }
            None
        };
        match slot {
            Some(t) => self.start_job(ctx, t, pending),
            None => {
                self.counters.queued += 1;
                if let Some(&w) = self.lambda_weights.get(&lambda) {
                    self.queue.set_lambda_weight(tenant, lambda, w);
                }
                self.queue.push(tenant, lambda, pending);
                let weight_milli =
                    (self.queue.lambda_weight_of(tenant, lambda) * 1000.0).round() as u64;
                let tenant_weight_milli =
                    (self.queue.tenant_weight_of(tenant) * 1000.0).round() as u64;
                let depth = self.queue.len_for(tenant, lambda) as u64;
                ctx.emit(|| TraceEvent::WfqEnqueue {
                    lambda_id: lambda as u32,
                    weight_milli,
                    depth,
                    tenant_id: tenant,
                    tenant_weight_milli,
                });
            }
        }
    }

    fn start_job(&mut self, ctx: &mut Ctx<'_>, thread: usize, pending: PendingRequest) {
        ctx.emit(|| TraceEvent::ExecStart {
            core: thread as u32,
            lambda_id: pending.lambda_idx as u32,
            request_id: pending.req_hdr.request_id,
            tenant_id: pending.req_hdr.tenant_id,
        });
        let code = Arc::clone(self.code.as_ref().expect("firmware installed"));
        let firmware = Arc::clone(self.firmware.as_ref().expect("firmware installed"));
        // Virtualized instruction store: a non-resident lambda pages its
        // firmware in first, charged as overhead on this request — the
        // per-lambda analogue of the whole-image swap downtime.
        let mut paging_cycles = 0;
        if let Some(rt) = &mut self.tenancy {
            let words = Self::page_words(&firmware.program, pending.lambda_idx);
            let workload_id = pending.req_hdr.workload_id;
            let tenant_id = pending.tenant_id;
            if let Access::Fault { evicted } = rt.cache.access(workload_id, words) {
                paging_cycles = rt.cfg.page_cycles_per_word * words;
                self.counters.firmware_faults += 1;
                self.counters.firmware_evictions += evicted.len() as u64;
                let evictions = evicted.len() as u64;
                ctx.emit(|| TraceEvent::FirmwareFault {
                    tenant_id,
                    workload_id,
                    words,
                    evictions,
                });
                for e in evicted {
                    let owner = rt.dir.tenant_of(e.workload_id);
                    ctx.emit(|| TraceEvent::FirmwareEvict {
                        tenant_id: owner,
                        workload_id: e.workload_id,
                        words: e.words,
                    });
                }
            }
            *rt.busy.entry(tenant_id).or_insert(0) += 1;
        }
        let exec = Execution::start(
            code,
            pending.lambda_idx,
            pending.ctx,
            self.params.lambda_fuel,
        );
        let overhead = paging_cycles
            + match self.params.exec_mode {
                // Pipelined: parse/match already ran on the stage threads.
                ExecMode::Pipelined { .. } => pending.extra_cycles,
                ExecMode::RunToCompletion => firmware.parse_match_cycles() + pending.extra_cycles,
            };
        let mut job = Job {
            lambda_idx: pending.lambda_idx,
            tenant_id: pending.tenant_id,
            exec,
            reply_template: pending.reply_template,
            req_hdr: pending.req_hdr,
            charged_cycles: 0,
            overhead_cycles: overhead,
            phase: None,
            rpc_seq: 0,
            rpc_attempt: 0,
        };
        self.advance_job(&mut job);
        self.schedule_phase(ctx, thread, job);
    }

    /// Runs (or resumes) the execution until it finishes or suspends, and
    /// records the next phase.
    fn advance_job(&mut self, job: &mut Job) {
        debug_assert!(!job.exec.is_awaiting(), "advance_job while awaiting rpc");
        let mem = &mut self.deployed_mem[job.lambda_idx];
        let outcome = job.exec.run(mem);
        job.phase = Some(Self::phase_of(&mut self.counters, outcome));
    }

    fn phase_of(
        counters: &mut NicCounters,
        outcome: Result<StepOutcome, lnic_mlambda::interp::ExecError>,
    ) -> Phase {
        match outcome {
            Ok(StepOutcome::Done(done)) => Phase::Finish {
                response: done.response,
                code: done.return_code as u16,
            },
            Ok(StepOutcome::NetCall { service, payload }) => Phase::SendRpc { service, payload },
            Err(_) => {
                counters.faults += 1;
                Phase::Finish {
                    response: Bytes::new(),
                    code: retcode::ERROR as u16,
                }
            }
        }
    }

    /// Charges the cycles accumulated since the last charge and schedules
    /// the phase transition.
    fn schedule_phase(&mut self, ctx: &mut Ctx<'_>, thread: usize, mut job: Job) {
        let firmware = self.firmware.as_ref().expect("firmware installed");
        let total = job.overhead_cycles
            + exec_cycles(
                job.exec.stats(),
                &firmware.placements[job.lambda_idx],
                &self.params.memory,
            );
        let delta = total.saturating_sub(job.charged_cycles);
        job.charged_cycles = total;
        let mut delay = self.params.cycles_to_time(delta);
        if ctx.now() < self.slow_until {
            delay = delay.mul_f64(self.slow_factor);
        }
        let epoch = self.threads[thread].epoch;
        self.threads[thread].state = ThreadState::Computing(job);
        ctx.send_self(delay, ThreadPhase { thread, epoch });
    }

    fn on_thread_phase(&mut self, ctx: &mut Ctx<'_>, thread: usize, epoch: u64) {
        if self.threads[thread].epoch != epoch {
            return; // stale timer from a previous job
        }
        let state = std::mem::replace(&mut self.threads[thread].state, ThreadState::Idle);
        let ThreadState::Computing(mut job) = state else {
            // Phase timers only fire for computing threads.
            self.threads[thread].state = state;
            return;
        };
        match job.phase.take().expect("computing job has a phase") {
            Phase::Finish { response, code } => {
                self.emit_exec_finish(ctx, thread, &job);
                self.emit_response(ctx, &job, response, code);
                self.free_thread(ctx, thread, job.tenant_id);
            }
            Phase::SendRpc { service, payload } => {
                job.rpc_seq += 1;
                job.rpc_attempt = 1;
                ctx.emit(|| TraceEvent::ExecSuspend {
                    core: thread as u32,
                    lambda_id: job.lambda_idx as u32,
                    request_id: job.req_hdr.request_id,
                });
                self.send_rpc(ctx, thread, &job, service, &payload);
                let seq = job.rpc_seq;
                job.phase = Some(Phase::SendRpc { service, payload });
                self.threads[thread].state = ThreadState::AwaitingRpc(job);
                let epoch = self.threads[thread].epoch;
                ctx.send_self(
                    self.params.rpc_timeout,
                    RpcTimeout {
                        thread,
                        epoch,
                        rpc_seq: seq,
                    },
                );
            }
        }
    }

    fn send_rpc(
        &mut self,
        ctx: &mut Ctx<'_>,
        thread: usize,
        _job: &Job,
        service: u16,
        payload: &Bytes,
    ) {
        let Some(endpoint) = self.services.get(&service).copied() else {
            // Unknown service: the RPC can never complete; it will time
            // out and the job will fail.
            return;
        };
        let src = SocketAddr::new(self.ip, self.params.rpc_port_base + thread as u16);
        let packet = Packet::builder()
            .eth(self.mac, endpoint.mac)
            .udp(src, endpoint.addr)
            .payload(payload.clone())
            .build();
        ctx.send(self.uplink, SimDuration::ZERO, packet);
    }

    fn on_rpc_response(&mut self, ctx: &mut Ctx<'_>, thread: usize, payload: Bytes) {
        if thread >= self.threads.len() {
            return;
        }
        let state = std::mem::replace(&mut self.threads[thread].state, ThreadState::Idle);
        let ThreadState::AwaitingRpc(mut job) = state else {
            // Duplicate or stale response: ignore.
            self.threads[thread].state = state;
            return;
        };
        job.rpc_seq += 1; // invalidate the pending timeout
        ctx.emit(|| TraceEvent::ExecResume {
            core: thread as u32,
            lambda_id: job.lambda_idx as u32,
            request_id: job.req_hdr.request_id,
        });
        let mem = &mut self.deployed_mem[job.lambda_idx];
        let outcome = job.exec.resume(mem, &payload);
        job.phase = Some(Self::phase_of(&mut self.counters, outcome));
        self.schedule_phase(ctx, thread, job);
    }

    fn on_rpc_timeout(&mut self, ctx: &mut Ctx<'_>, thread: usize, epoch: u64, rpc_seq: u64) {
        if self.threads[thread].epoch != epoch {
            return;
        }
        let state = std::mem::replace(&mut self.threads[thread].state, ThreadState::Idle);
        let ThreadState::AwaitingRpc(mut job) = state else {
            self.threads[thread].state = state;
            return;
        };
        if job.rpc_seq != rpc_seq {
            // The RPC already completed; put the job back untouched.
            self.threads[thread].state = ThreadState::AwaitingRpc(job);
            return;
        }
        let Some(Phase::SendRpc { service, payload }) = job.phase.take() else {
            unreachable!("awaiting thread always holds a SendRpc phase");
        };
        if lnic_net::transport::retries_exhausted(job.rpc_attempt, self.params.rpc_attempts) {
            // Give up: fail the lambda (weakly-consistent transport
            // reports the failure to the sender, §4.2-D3).
            self.counters.faults += 1;
            ctx.emit(|| TraceEvent::ExecResume {
                core: thread as u32,
                lambda_id: job.lambda_idx as u32,
                request_id: job.req_hdr.request_id,
            });
            self.emit_exec_finish(ctx, thread, &job);
            self.emit_response(ctx, &job, Bytes::new(), retcode::ERROR as u16);
            self.free_thread(ctx, thread, job.tenant_id);
            return;
        }
        job.rpc_attempt += 1;
        job.rpc_seq += 1;
        self.send_rpc(ctx, thread, &job, service, &payload);
        let seq = job.rpc_seq;
        job.phase = Some(Phase::SendRpc { service, payload });
        self.threads[thread].state = ThreadState::AwaitingRpc(job);
        ctx.send_self(
            self.params.rpc_timeout,
            RpcTimeout {
                thread,
                epoch,
                rpc_seq: seq,
            },
        );
    }

    fn emit_response(&mut self, ctx: &mut Ctx<'_>, job: &Job, response: Bytes, code: u16) {
        let mut resp_hdr = job.req_hdr.response_to(code);
        // Advertise the wait-queue depth so the gateway can route and
        // shed against backpressure.
        resp_hdr.queue_depth = self.queue.len().min(u16::MAX as usize) as u16;
        // Stamp the epoch the work was served under, so the gateway can
        // discard late replies from fenced epochs.
        resp_hdr.epoch = self.lease.epoch();
        let packet = job
            .reply_template
            .reply_to()
            .lambda(resp_hdr)
            .payload(response)
            .build();
        ctx.send(self.uplink, SimDuration::ZERO, packet);
        self.counters.responses += 1;
    }

    fn free_thread(&mut self, ctx: &mut Ctx<'_>, thread: usize, finished_tenant: TenantId) {
        self.threads[thread].epoch += 1;
        self.threads[thread].state = ThreadState::Idle;
        if let Some(rt) = &mut self.tenancy {
            if let Some(n) = rt.busy.get_mut(&finished_tenant) {
                *n = n.saturating_sub(1);
            }
        }
        // Quota-blocked tenants are skipped, not dequeued: their work
        // keeps its place while eligible tenants use the thread.
        let budget = self.tenancy.as_ref().map(|rt| {
            let busy = rt.busy.clone();
            let dir = Arc::clone(&rt.dir);
            move |t: TenantId| {
                let quota = dir.spec_of(t).thread_quota;
                quota == 0 || busy.get(&t).copied().unwrap_or(0) < quota
            }
        });
        let eligible = |t: TenantId| budget.as_ref().is_none_or(|f| f(t));
        // Skip over requests whose deadline expired while they waited:
        // answering them late helps nobody, and the cycles go to work
        // someone is still waiting for.
        while let Some((tenant, lambda, pending)) = self.queue.pop_where(eligible) {
            let weight_milli =
                (self.queue.lambda_weight_of(tenant, lambda) * 1000.0).round() as u64;
            let tenant_weight_milli = (self.queue.tenant_weight_of(tenant) * 1000.0).round() as u64;
            let depth = self.queue.len_for(tenant, lambda) as u64;
            ctx.emit(|| TraceEvent::WfqDequeue {
                lambda_id: lambda as u32,
                weight_milli,
                depth,
                tenant_id: tenant,
                tenant_weight_milli,
            });
            if let Some(epoch) = self.lease.fence_check(ctx.now(), pending.req_hdr.epoch) {
                self.reject_fenced(ctx, &pending, epoch);
                continue;
            }
            if pending.req_hdr.expired_at(ctx.now().as_nanos()) {
                self.reject_expired(ctx, &pending);
                continue;
            }
            self.start_job(ctx, thread, pending);
            return;
        }
        self.idle.push(thread);
    }

    /// Emits the per-object memory charges and the finish record for a
    /// completing job; the decomposition mirrors [`exec_cycles`] exactly so
    /// the online checker can recompute it.
    fn emit_exec_finish(&self, ctx: &mut Ctx<'_>, thread: usize, job: &Job) {
        let Some(firmware) = self.firmware.as_ref() else {
            return;
        };
        let stats = job.exec.stats();
        let placements = &firmware.placements[job.lambda_idx];
        let core = thread as u32;
        let lambda_id = job.lambda_idx as u32;
        let request_id = job.req_hdr.request_id;
        // The charged objects are the executing lambda's own memory, so
        // the owner is that workload's tenant per the directory — not
        // whatever tenant the request claimed to be.
        let owner_tenant = self.sched_tenant(job.req_hdr.workload_id);
        let charge = |level: &'static str,
                      latency_cycles: u64,
                      scalar: u64,
                      bulk_ops: u64,
                      bulk_bytes: u64,
                      ctx: &mut Ctx<'_>| {
            if scalar == 0 && bulk_ops == 0 && bulk_bytes == 0 {
                return;
            }
            let cycles = mem_charge_cycles(scalar, bulk_ops, bulk_bytes, latency_cycles);
            ctx.emit(|| TraceEvent::MemCharge {
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
            });
        };
        for (i, &scalar) in stats.obj_scalar.iter().enumerate() {
            let level = placements[i];
            let lat = self.params.memory.level(level).latency_cycles;
            charge(
                level.name(),
                lat,
                scalar,
                stats.obj_bulk_ops[i],
                stats.obj_bulk_bytes[i],
                ctx,
            );
        }
        let ctm_lat = self.params.memory.ctm.latency_cycles;
        charge("CTM", ctm_lat, stats.payload_scalar, 0, 0, ctx);
        charge("CTM", ctm_lat, 0, 0, stats.payload_bulk_bytes, ctx);
        charge("CTM", ctm_lat, 0, 0, stats.emitted_bytes, ctx);
        ctx.emit(|| TraceEvent::ExecFinish {
            core,
            lambda_id,
            request_id,
            total_cycles: job.charged_cycles,
            overhead_cycles: job.overhead_cycles,
            instr_cycles: stats.instrs,
        });
    }

    fn punt_to_host(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        self.counters.punted_to_host += 1;
        if let Some(host) = self.host {
            ctx.send(host, self.params.pcie_latency, packet);
        }
    }
}

/// Internal delayed-dispatch message for assembled RDMA requests.
#[derive(Debug)]
struct RdmaDispatch {
    packet: Packet,
    hdr: LambdaHdr,
    payload: Bytes,
    extra_cycles: u64,
}

impl Component for Nic {
    fn name(&self) -> &str {
        "nic"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        // Hardware fault controls act immediately, even mid-stall.
        let msg = match msg.downcast::<lnic_sim::fault::Crash>() {
            Ok(_) => {
                self.crash(ctx);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<lnic_sim::fault::Restart>() {
            Ok(_) => {
                self.restart(ctx);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<lnic_sim::fault::StallFor>() {
            Ok(stall) => {
                self.stalled_until = self.stalled_until.max(ctx.now() + stall.0);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<lnic_sim::fault::NetCutFrom>() {
            Ok(cut) => {
                self.cuts.apply(ctx.now(), &cut);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<lnic_sim::fault::Slowdown>() {
            Ok(slow) => {
                self.slow_until = self.slow_until.max(ctx.now() + slow.duration);
                self.slow_factor = slow.factor.max(1.0);
                ctx.emit(|| TraceEvent::Fault {
                    kind: "slowdown",
                    detail: (slow.factor * 1000.0) as u64,
                });
                return;
            }
            Err(other) => other,
        };
        // A stalled control processor defers everything else; replaying
        // at the stall's end preserves arrival order (engine FIFO ties).
        if ctx.now() < self.stalled_until {
            let delay = self.stalled_until - ctx.now();
            ctx.send_boxed(ctx.self_id(), delay, msg);
            return;
        }
        let msg = match msg.downcast::<lnic_sim::fault::HealthPing>() {
            Ok(ping) => {
                // The management endpoint answers as long as the NIC has
                // power — including during firmware swaps — but a
                // crashed NIC is silent, which is the failure signal.
                if !self.crashed && !self.cuts.is_cut(ctx.now(), ping.reply_to) {
                    ctx.send(
                        ping.reply_to,
                        SimDuration::ZERO,
                        lnic_sim::fault::HealthPong {
                            from: ctx.self_id(),
                        },
                    );
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<lnic_sim::fault::GrantLease>() {
            Ok(grant) => {
                // A crashed worker is silent; a partitioned one never
                // saw the grant. An adopted grant replaces the held
                // lease (a pre-expired rejoin probe stops serving until
                // the grant after its ack); a stale one is dropped.
                if self.crashed || self.cuts.is_cut(ctx.now(), grant.reply_to) {
                    return;
                }
                let held = self.lease.epoch();
                let Some(epoch) = self.lease.deliver((*grant).into()) else {
                    return;
                };
                let epoch_rose = epoch > held;
                if epoch_rose {
                    // The fencing token doubles as a leadership fence:
                    // residents must re-derive any authority they held
                    // under the previous epoch.
                    for &svc in self.resident.values() {
                        ctx.send(svc, SimDuration::ZERO, ResidentEpoch { epoch });
                    }
                }
                if grant.rejoin && epoch_rose {
                    // Drop pre-partition placements: everything still
                    // queued was stamped with an older epoch. Refuse it
                    // now so senders re-resolve immediately.
                    while let Some((_, _, pending)) = self.queue.pop() {
                        self.reject_fenced(ctx, &pending, epoch);
                    }
                    self.reassembler = Reassembler::new();
                }
                ctx.send(
                    grant.reply_to,
                    SimDuration::ZERO,
                    lnic_sim::fault::LeaseAck {
                        from: ctx.self_id(),
                        epoch,
                        // The swap epoch bumps exactly once per crash.
                        incarnation: self.swap_epoch,
                    },
                );
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<lnic_sim::fault::EpochQuery>() {
            Ok(q) => {
                if !self.crashed && !self.cuts.is_cut(ctx.now(), q.reply_to) {
                    let report = self.lease.report(ctx.self_id());
                    ctx.send(q.reply_to, SimDuration::ZERO, report);
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<UpdateService>() {
            Ok(up) => {
                if self.crashed {
                    // Missed updates are re-broadcast when the worker's
                    // workloads are handed back after recovery.
                    self.counters.dropped_crashed += 1;
                    return;
                }
                self.services.insert(
                    up.service,
                    ServiceEndpoint {
                        mac: up.mac,
                        addr: up.addr,
                    },
                );
                // Hybrid deployments punt some lambdas to the host OS;
                // its RPC table must chase the same re-placement.
                if let Some(host) = self.host {
                    ctx.send(host, self.params.pcie_latency, *up);
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<ResidentDone>() {
            Ok(done) => {
                if self.crashed {
                    self.counters.dropped_crashed += 1;
                    return;
                }
                // Token unknown: the call state died with a crash or was
                // superseded; the gateway's retransmit path covers it.
                let Some(reply) = self.resident_pending.remove(&done.token) else {
                    return;
                };
                let mut resp_hdr = reply.req_hdr.response_to(done.return_code);
                resp_hdr.queue_depth = self.queue.len().min(u16::MAX as usize) as u16;
                resp_hdr.epoch = self.lease.epoch();
                let packet = reply
                    .reply_template
                    .reply_to()
                    .lambda(resp_hdr)
                    .payload(done.payload)
                    .build();
                ctx.send(self.uplink, SimDuration::ZERO, packet);
                self.counters.responses += 1;
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<ResidentTx>() {
            Ok(tx) => {
                if self.crashed {
                    self.counters.dropped_crashed += 1;
                    return;
                }
                ctx.send(self.uplink, SimDuration::ZERO, tx.packet);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<Packet>() {
            Ok(packet) => {
                self.on_packet(ctx, *packet);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<ThreadPhase>() {
            Ok(tp) => {
                self.on_thread_phase(ctx, tp.thread, tp.epoch);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<RpcTimeout>() {
            Ok(t) => {
                self.on_rpc_timeout(ctx, t.thread, t.epoch, t.rpc_seq);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<RdmaDispatch>() {
            Ok(rd) => {
                if self.crashed {
                    self.counters.dropped_crashed += 1;
                } else if !self.swapping && self.firmware.is_some() {
                    self.dispatch_request(ctx, rd.packet, rd.hdr, rd.payload, rd.extra_cycles);
                } else {
                    self.counters.dropped_downtime += 1;
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<StageDone>() {
            Ok(sd) => {
                if self.crashed {
                    self.counters.dropped_crashed += 1;
                } else if !self.swapping && self.firmware.is_some() {
                    self.admit_to_thread(ctx, sd.pending);
                } else {
                    self.counters.dropped_downtime += 1;
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<LoadFirmware>() {
            Ok(lf) => {
                if self.crashed {
                    // A crashed NIC cannot take an image; the controller
                    // re-deploys after restart.
                    self.counters.dropped_crashed += 1;
                    return;
                }
                if lf.epoch < self.lease.epoch() {
                    // A deploy stamped before this worker's last rejoin:
                    // the placement decision behind it has been fenced.
                    self.counters.fenced_rejects += 1;
                    ctx.emit(|| TraceEvent::FencedReject {
                        request_id: 0,
                        workload_id: 0,
                        hdr_epoch: lf.epoch,
                        worker_epoch: self.lease.epoch(),
                    });
                    return;
                }
                self.swapping = true;
                ctx.send_self(
                    self.params.firmware_swap_time,
                    SwapDone {
                        firmware: lf.firmware,
                        swap_epoch: self.swap_epoch,
                    },
                );
                return;
            }
            Err(other) => other,
        };
        match msg.downcast::<SwapDone>() {
            Ok(done) => {
                if done.swap_epoch != self.swap_epoch {
                    return; // the swap died with a crash
                }
                self.swapping = false;
                if self.install(done.firmware) {
                    self.counters.swaps += 1;
                    ctx.emit(|| TraceEvent::ProgramInstall {});
                }
            }
            Err(other) => panic!("nic received unknown message {other:?}"),
        }
    }
}
