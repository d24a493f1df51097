//! The host serverless backend component: an OS + runtime model serving
//! lambda requests on server CPUs.
//!
//! One component instance models one worker node's serving stack in
//! either bare-metal or container form (§6.1.1). Requests traverse the
//! kernel receive path (plus the overlay/NAT path for containers), wait
//! for a worker thread, serialize on the interpreter lock (the paper's
//! backends are Python services), pay a context switch whenever the
//! executor changes lambdas (§6.3.2), execute on the same Match+Lambda
//! interpreter as the NIC (with host cycle costs), and leave through the
//! kernel transmit path.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;

use lnic_mlambda::cost::{exec_cycles, mem_charge_cycles};
use lnic_mlambda::interp::{Code, Execution, HeaderValues, ObjectMemory, RequestCtx, StepOutcome};
use lnic_mlambda::ir::retcode;
use lnic_mlambda::program::{DispatchCtx, DispatchResult, Program};
use lnic_net::frag::Reassembler;
use lnic_net::packet::{LambdaHdr, LambdaKind, Packet, RC_EXPIRED, RC_FENCED};
use lnic_net::transport::retries_exhausted;
pub use lnic_net::transport::UpdateService;
use lnic_net::{Ipv4Addr, MacAddr, SocketAddr};
use lnic_sim::fault::{Crash, HealthPing, HealthPong, Restart, StallFor};
use lnic_sim::hash::FastMap;
use lnic_sim::lease::{CutTable, WorkerView};
use lnic_sim::prelude::*;
use rand::Rng;

use crate::params::HostParams;

/// A remote service a lambda can call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceEndpoint {
    /// L2 address of the service's node.
    pub mac: MacAddr,
    /// UDP endpoint of the service.
    pub addr: SocketAddr,
}

/// Control message: deploy a program onto this backend. The deployment
/// *pipeline* (image pull, extraction, runtime start) is modeled by the
/// framework layer; once this message arrives the backend serves.
#[derive(Debug)]
pub struct DeployProgram {
    /// The lambdas to serve.
    pub program: Arc<Program>,
    /// Fencing token of the deploy (0 = fencing disabled). A worker
    /// holding a higher epoch refuses the program: it was cut for a
    /// placement decision that has since been superseded.
    pub epoch: u64,
}

impl DeployProgram {
    /// A deploy outside any fencing regime (epoch 0).
    pub fn unfenced(program: Arc<Program>) -> Self {
        DeployProgram { program, epoch: 0 }
    }
}

/// Experiment counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Requests accepted.
    pub requests: u64,
    /// Responses sent.
    pub responses: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Executions that faulted.
    pub faults: u64,
    /// Requests that waited for a worker.
    pub queued: u64,
    /// Requests dropped (no program deployed).
    pub dropped: u64,
    /// Crashes injected into this backend.
    pub crashes: u64,
    /// Packets blackholed because the backend was crashed or restarting.
    pub dropped_crashed: u64,
    /// Accepted requests lost mid-flight to a crash.
    pub jobs_lost: u64,
    /// Requests refused at dequeue because their propagated deadline had
    /// already expired (answered with `RC_EXPIRED`, not executed).
    pub deadline_drops: u64,
    /// Requests refused because the worker's lease lapsed or the work
    /// carried a stale fencing token (answered with `RC_FENCED`, not
    /// executed).
    pub fenced_rejects: u64,
    /// Deploys refused because the program failed to decode
    /// ([`Code::decode`]); the previous program keeps serving.
    pub rejected_programs: u64,
}

#[derive(Debug)]
enum Phase {
    Finish { response: Bytes, code: u16 },
    SendRpc { service: u16, payload: Bytes },
}

struct Job {
    lambda_idx: usize,
    exec: Execution,
    reply_template: Packet,
    req_hdr: LambdaHdr,
    charged_cycles: u64,
    phase: Option<Phase>,
    rpc_seq: u64,
    rpc_attempt: u32,
    /// Extra fixed time to charge in the next compute segment.
    pending_overhead: SimDuration,
}

enum WorkerState {
    Idle,
    /// Holds (or will hold) the GIL; `WorkerPhase` fires at segment end.
    Executing(Job),
    /// Waiting for the GIL before (re)entering execution.
    WaitingGil(Job),
    /// Blocked on a lambda RPC (GIL released).
    AwaitingRpc(Job),
}

struct Worker {
    state: WorkerState,
    epoch: u64,
}

#[derive(Debug)]
struct PendingRequest {
    lambda_idx: usize,
    ctx: RequestCtx,
    reply_template: Packet,
    req_hdr: LambdaHdr,
}

/// A request that has traversed the receive path and is ready for a
/// worker.
#[derive(Debug)]
struct RequestReady {
    pending: PendingRequest,
}

#[derive(Debug)]
struct WorkerPhase {
    worker: usize,
    epoch: u64,
}

#[derive(Debug)]
struct RpcTimeout {
    worker: usize,
    epoch: u64,
    rpc_seq: u64,
}

/// Fires when a restarting runtime finishes re-provisioning.
#[derive(Debug)]
struct RestartDone {
    restart_epoch: u64,
}

/// The host backend component.
pub struct HostBackend {
    params: HostParams,
    mac: MacAddr,
    ip: Ipv4Addr,
    uplink: ComponentId,
    services: FastMap<u16, ServiceEndpoint>,

    program: Option<Arc<Program>>,
    /// `program`, decoded once at install.
    code: Option<Arc<Code>>,
    deployed_mem: Vec<ObjectMemory>,

    workers: Vec<Worker>,
    idle: Vec<usize>,
    runq: VecDeque<PendingRequest>,
    gil_holder: Option<usize>,
    gil_waiters: VecDeque<usize>,
    executor_last_lambda: Option<usize>,
    reassembler: Reassembler,

    counters: HostCounters,
    cpu_busy: SimDuration,
    in_flight: usize,

    crashed: bool,
    restart_epoch: u64,
    stalled_until: SimTime,
    last_program: Option<Arc<Program>>,
    /// Gray failure: compute runs `slow_factor`× slower until
    /// `slow_until` while health pings are still answered.
    slow_until: SimTime,
    slow_factor: f64,

    /// The lease and fencing token held under the lease regime; no
    /// lease until the controller first grants one (legacy heartbeat
    /// testbeds never get one).
    lease: WorkerView,
    /// Peers this node is partitioned from; direct control messages
    /// from them are dropped.
    cuts: CutTable,
}

impl HostBackend {
    /// Creates a backend with the given identity and uplink.
    pub fn new(params: HostParams, mac: MacAddr, ip: Ipv4Addr, uplink: ComponentId) -> Self {
        let workers = (0..params.worker_threads)
            .map(|_| Worker {
                state: WorkerState::Idle,
                epoch: 0,
            })
            .collect::<Vec<_>>();
        let idle = (0..params.worker_threads).rev().collect();
        HostBackend {
            params,
            mac,
            ip,
            uplink,
            services: FastMap::default(),
            program: None,
            code: None,
            deployed_mem: Vec::new(),
            workers,
            idle,
            runq: VecDeque::new(),
            gil_holder: None,
            gil_waiters: VecDeque::new(),
            executor_last_lambda: None,
            reassembler: Reassembler::new(),
            counters: HostCounters::default(),
            cpu_busy: SimDuration::ZERO,
            in_flight: 0,
            crashed: false,
            restart_epoch: 0,
            stalled_until: SimTime::ZERO,
            last_program: None,
            slow_until: SimTime::ZERO,
            slow_factor: 1.0,
            lease: WorkerView::new(),
            cuts: CutTable::default(),
        }
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

    /// Deploys a program immediately (experiment setup). A program that
    /// does not decode is refused and counted in
    /// [`HostCounters::rejected_programs`].
    pub fn preload(mut self, program: Arc<Program>) -> Self {
        self.install(program);
        self
    }

    /// The backend's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The backend's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Experiment counters.
    pub fn counters(&self) -> HostCounters {
        self.counters
    }

    /// Whether the backend is currently crashed (blackholing traffic).
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
        let mut resp_hdr = hdr.response_to(RC_FENCED);
        resp_hdr.queue_depth = self.runq.len().min(u16::MAX as usize) as u16;
        resp_hdr.epoch = self.lease.epoch();
        let packet = pending
            .reply_template
            .reply_to()
            .lambda(resp_hdr)
            .payload(Bytes::new())
            .build();
        let tx = self.tx_latency(ctx);
        ctx.send(self.uplink, tx, packet);
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Accumulated CPU busy time (incl. container engine overhead).
    pub fn cpu_busy(&self) -> SimDuration {
        self.cpu_busy
    }

    /// Average CPU utilization (%) of this backend over `window`.
    pub fn cpu_percent(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.cpu_busy.as_secs_f64() / (window.as_secs_f64() * self.params.cores as f64) * 100.0
    }

    /// Resident memory of the backend right now (Table 3).
    pub fn memory_in_use_bytes(&self) -> u64 {
        if self.program.is_none() {
            return 0;
        }
        let objects: u64 = self
            .deployed_mem
            .iter()
            .map(|m| m.total_bytes() as u64)
            .sum();
        self.params.instance_memory_bytes
            + objects
            + self.in_flight as u64 * self.params.per_request_memory_bytes
    }

    /// Decodes and installs `program`, returning whether it was taken.
    /// A program that does not decode is refused and counted; the
    /// running program, if any, keeps serving.
    fn install(&mut self, program: Arc<Program>) -> bool {
        let Ok(code) = Code::decode(&program) else {
            self.counters.rejected_programs += 1;
            return false;
        };
        self.deployed_mem = program
            .lambdas
            .iter()
            .map(ObjectMemory::for_lambda)
            .collect();
        self.code = Some(Arc::new(code));
        self.last_program = Some(Arc::clone(&program));
        self.program = Some(program);
        true
    }

    /// Fails the runtime: every in-flight and queued request is lost and
    /// all arrivals are blackholed until a [`Restart`] completes.
    fn crash(&mut self, ctx: &mut Ctx<'_>) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        self.counters.crashes += 1;
        let busy = self
            .workers
            .iter()
            .filter(|w| !matches!(w.state, WorkerState::Idle))
            .count() as u64;
        self.counters.jobs_lost += busy + self.runq.len() as u64;
        let lost = busy + self.runq.len() as u64;
        ctx.emit(|| TraceEvent::Fault {
            kind: "crash",
            detail: lost,
        });
        for w in &mut self.workers {
            w.epoch += 1;
            w.state = WorkerState::Idle;
        }
        self.idle = (0..self.params.worker_threads).rev().collect();
        self.runq.clear();
        self.gil_holder = None;
        self.gil_waiters.clear();
        self.executor_last_lambda = None;
        self.reassembler = Reassembler::new();
        self.in_flight = 0;
        // The process image is gone; remember what was deployed so a
        // restart can re-provision it.
        self.program = None;
        self.code = None;
        self.deployed_mem.clear();
        self.restart_epoch += 1;
        // A lease does not survive a crash; its epoch does.
        self.lease.lapse();
    }

    /// Begins recovery: the runtime pays `restart_time` before the
    /// remembered program serves again. Per-lambda object memory is
    /// rebuilt from scratch (a restarted process has no warm state).
    fn restart(&mut self, ctx: &mut Ctx<'_>) {
        if !self.crashed {
            return;
        }
        self.crashed = false;
        ctx.emit(|| TraceEvent::Fault {
            kind: "restart",
            detail: 0,
        });
        if self.last_program.is_some() {
            ctx.send_self(
                self.params.restart_time,
                RestartDone {
                    restart_epoch: self.restart_epoch,
                },
            );
        }
    }

    fn on_restart_done(&mut self, ctx: &mut Ctx<'_>, restart_epoch: u64) {
        if restart_epoch != self.restart_epoch || self.crashed {
            return;
        }
        if let Some(program) = self.last_program.clone() {
            self.install(program);
            ctx.emit(|| TraceEvent::ProgramInstall {});
        }
    }

    fn charge_cpu(&mut self, t: SimDuration) {
        let factor = 1.0 + self.params.container.map_or(0.0, |c| c.engine_cpu_factor);
        self.cpu_busy += t.mul_f64(factor);
    }

    /// Gray-failure multiplier applied to compute segments while a
    /// slowdown window is active.
    fn slow_scale(&self, now: SimTime) -> f64 {
        if now < self.slow_until {
            self.slow_factor
        } else {
            1.0
        }
    }

    /// Samples the OS-noise multiplier for one software-path cost.
    fn noise(&self, ctx: &mut Ctx<'_>) -> f64 {
        if self.params.jitter <= 0.0 {
            return 1.0;
        }
        let rng = ctx.rng();
        if rng.gen_bool(0.01) {
            self.params.hiccup_factor
        } else {
            1.0 + rng.gen_range(-self.params.jitter..=self.params.jitter)
        }
    }

    fn rx_latency(&self, ctx: &mut Ctx<'_>, extra_packets: u64) -> SimDuration {
        let mut d = self.params.rx_stack + self.params.per_packet_kernel * extra_packets;
        if let Some(c) = self.params.container {
            d += c.overlay_rx;
        }
        d.mul_f64(self.noise(ctx))
    }

    fn tx_latency(&self, ctx: &mut Ctx<'_>) -> SimDuration {
        let mut d = self.params.tx_stack;
        if let Some(c) = self.params.container {
            d += c.overlay_tx;
        }
        d.mul_f64(self.noise(ctx))
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if self.crashed {
            self.counters.dropped_crashed += 1;
            return;
        }
        if packet.lambda.is_none() {
            let port = packet.udp.dst_port;
            let base = self.params.rpc_port_base;
            let n = self.params.worker_threads as u16;
            if port >= base && port < base + n {
                self.on_rpc_response(ctx, (port - base) as usize, packet.payload);
            }
            // Other plain traffic is outside the model.
            return;
        }
        if self.program.is_none() {
            self.counters.dropped += 1;
            return;
        }
        let hdr = packet.lambda.expect("checked above");
        match hdr.kind {
            LambdaKind::Request if hdr.frag_count <= 1 => {
                let rx = self.rx_latency(ctx, 0);
                self.charge_cpu(self.params.rx_stack);
                self.admit(ctx, packet, hdr, Bytes::new(), rx);
            }
            LambdaKind::Request | LambdaKind::RdmaWrite => {
                let payload = packet.payload.clone();
                self.charge_cpu(self.params.per_packet_kernel);
                if let Some(done) = self.reassembler.accept(hdr, payload) {
                    let frags = hdr.frag_count as u64;
                    let rx = self.rx_latency(ctx, frags.saturating_sub(1));
                    self.charge_cpu(self.params.rx_stack);
                    let hdr_full = LambdaHdr {
                        frag_index: 0,
                        frag_count: 1,
                        ..hdr
                    };
                    self.admit(ctx, packet, hdr_full, done.payload, rx);
                }
            }
            LambdaKind::Response | LambdaKind::RdmaComplete => {}
        }
    }

    /// Builds the pending request and schedules it past the receive path.
    fn admit(
        &mut self,
        ctx: &mut Ctx<'_>,
        packet: Packet,
        hdr: LambdaHdr,
        assembled: Bytes,
        rx_delay: SimDuration,
    ) {
        let program = self.program.as_ref().expect("deployed").clone();
        let dctx = DispatchCtx {
            workload_id: hdr.workload_id,
            dst_port: packet.udp.dst_port,
            dst_ip: packet.ipv4.dst.to_bits(),
            has_lambda_hdr: true,
        };
        let DispatchResult::Invoke { lambda, params } = program.dispatch(&dctx) else {
            self.counters.dropped += 1;
            return;
        };
        self.counters.requests += 1;
        self.in_flight += 1;
        let payload = if assembled.is_empty() {
            packet.payload.clone()
        } else {
            assembled
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
            ctx: req,
            reply_template,
            req_hdr: hdr,
        };
        ctx.send_self(rx_delay, RequestReady { pending });
    }

    /// Refuses an expired request at dequeue: answer `RC_EXPIRED` so the
    /// sender resolves it promptly, and spend no executor time on it.
    fn reject_expired(&mut self, ctx: &mut Ctx<'_>, pending: &PendingRequest) {
        self.counters.deadline_drops += 1;
        let hdr = pending.req_hdr;
        let overdue_ns = ctx.now().as_nanos().saturating_sub(hdr.deadline_ns);
        ctx.emit(|| TraceEvent::DeadlineDrop {
            request_id: hdr.request_id,
            workload_id: hdr.workload_id,
            overdue_ns,
        });
        let mut resp_hdr = hdr.response_to(RC_EXPIRED);
        resp_hdr.queue_depth = self.runq.len().min(u16::MAX as usize) as u16;
        resp_hdr.epoch = self.lease.epoch();
        let packet = pending
            .reply_template
            .reply_to()
            .lambda(resp_hdr)
            .payload(Bytes::new())
            .build();
        let tx = self.tx_latency(ctx);
        ctx.send(self.uplink, tx, packet);
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    fn on_request_ready(&mut self, ctx: &mut Ctx<'_>, pending: PendingRequest) {
        // A request admitted before a crash may clear the receive path
        // after it; the process that accepted it no longer exists.
        if self.crashed || self.program.is_none() {
            self.counters.jobs_lost += 1;
            self.counters.dropped_crashed += 1;
            return;
        }
        if let Some(epoch) = self.lease.fence_check(ctx.now(), pending.req_hdr.epoch) {
            self.reject_fenced(ctx, &pending, epoch);
            return;
        }
        if pending.req_hdr.expired_at(ctx.now().as_nanos()) {
            self.reject_expired(ctx, &pending);
            return;
        }
        if let Some(w) = self.idle.pop() {
            self.start_worker(ctx, w, pending);
        } else {
            self.counters.queued += 1;
            self.runq.push_back(pending);
        }
    }

    fn start_worker(&mut self, ctx: &mut Ctx<'_>, worker: usize, pending: PendingRequest) {
        ctx.emit(|| TraceEvent::ExecStart {
            core: worker as u32,
            lambda_id: pending.lambda_idx as u32,
            request_id: pending.req_hdr.request_id,
            tenant_id: pending.req_hdr.tenant_id,
        });
        let code = Arc::clone(self.code.as_ref().expect("deployed"));
        let exec = Execution::start(
            code,
            pending.lambda_idx,
            pending.ctx,
            self.params.lambda_fuel,
        );
        let job = Job {
            lambda_idx: pending.lambda_idx,
            exec,
            reply_template: pending.reply_template,
            req_hdr: pending.req_hdr,
            charged_cycles: 0,
            phase: None,
            rpc_seq: 0,
            rpc_attempt: 0,
            pending_overhead: self.params.dispatch_cost + self.params.runtime_per_request,
        };
        self.request_gil(ctx, worker, job);
    }

    /// Acquire the GIL (immediately if free or disabled) and run a
    /// compute segment; otherwise park the worker in the GIL queue.
    fn request_gil(&mut self, ctx: &mut Ctx<'_>, worker: usize, job: Job) {
        if !self.params.gil || self.gil_holder.is_none() {
            if self.params.gil {
                self.gil_holder = Some(worker);
            }
            self.run_segment(ctx, worker, job);
        } else {
            self.workers[worker].state = WorkerState::WaitingGil(job);
            self.gil_waiters.push_back(worker);
        }
    }

    /// Runs the execution until it finishes or suspends and schedules the
    /// corresponding phase transition after the segment's compute time.
    fn run_segment(&mut self, ctx: &mut Ctx<'_>, worker: usize, mut job: Job) {
        // Context switch when the executor changes lambdas (with a GIL
        // the executor is effectively global; without one the workers
        // are homogeneous, so the global tracker still approximates the
        // per-core cache pollution).
        let mut overhead = job.pending_overhead;
        job.pending_overhead = SimDuration::ZERO;
        if self.executor_last_lambda != Some(job.lambda_idx) {
            if self.executor_last_lambda.is_some() {
                overhead += self.params.context_switch;
                self.counters.context_switches += 1;
            }
            self.executor_last_lambda = Some(job.lambda_idx);
        }

        let mem = &mut self.deployed_mem[job.lambda_idx];
        let outcome = if job.exec.is_awaiting() {
            unreachable!("segment started while awaiting rpc")
        } else {
            job.exec.run(mem)
        };
        job.phase = Some(match outcome {
            Ok(StepOutcome::Done(done)) => Phase::Finish {
                response: done.response,
                code: done.return_code as u16,
            },
            Ok(StepOutcome::NetCall { service, payload }) => Phase::SendRpc { service, payload },
            Err(_) => {
                self.counters.faults += 1;
                Phase::Finish {
                    response: Bytes::new(),
                    code: retcode::ERROR as u16,
                }
            }
        });

        let placements = vec![
            lnic_mlambda::memory::MemLevel::Emem;
            self.program.as_ref().expect("deployed").lambdas[job.lambda_idx]
                .objects
                .len()
        ];
        let total = exec_cycles(job.exec.stats(), &placements, &self.params.memory);
        let delta_cycles = total.saturating_sub(job.charged_cycles);
        job.charged_cycles = total;
        let scale = self.noise(ctx) * self.slow_scale(ctx.now());
        let segment = (self.params.cycles_to_time(delta_cycles) + overhead).mul_f64(scale);
        self.charge_cpu(segment);

        let epoch = self.workers[worker].epoch;
        self.workers[worker].state = WorkerState::Executing(job);
        ctx.send_self(segment, WorkerPhase { worker, epoch });
    }

    /// Resumes a suspended execution (the RPC response arrived).
    fn resume_segment(&mut self, ctx: &mut Ctx<'_>, worker: usize, mut job: Job, payload: Bytes) {
        let mem = &mut self.deployed_mem[job.lambda_idx];
        let outcome = job.exec.resume(mem, &payload);
        job.phase = Some(match outcome {
            Ok(StepOutcome::Done(done)) => Phase::Finish {
                response: done.response,
                code: done.return_code as u16,
            },
            Ok(StepOutcome::NetCall { service, payload }) => Phase::SendRpc { service, payload },
            Err(_) => {
                self.counters.faults += 1;
                Phase::Finish {
                    response: Bytes::new(),
                    code: retcode::ERROR as u16,
                }
            }
        });
        // Socket read cost.
        job.pending_overhead += self.params.rx_stack;
        self.charge_cpu(self.params.rx_stack);
        self.request_gil_for_resume(ctx, worker, job);
    }

    /// Like [`Self::request_gil`], but the segment is a continuation: the
    /// interpreter state is already advanced, so only charge the
    /// remaining cycles.
    fn request_gil_for_resume(&mut self, ctx: &mut Ctx<'_>, worker: usize, job: Job) {
        if !self.params.gil || self.gil_holder.is_none() {
            if self.params.gil {
                self.gil_holder = Some(worker);
            }
            self.finish_segment_after_resume(ctx, worker, job);
        } else {
            self.workers[worker].state = WorkerState::WaitingGil(job);
            self.gil_waiters.push_back(worker);
        }
    }

    fn finish_segment_after_resume(&mut self, ctx: &mut Ctx<'_>, worker: usize, mut job: Job) {
        let mut overhead = job.pending_overhead;
        job.pending_overhead = SimDuration::ZERO;
        if self.executor_last_lambda != Some(job.lambda_idx) {
            if self.executor_last_lambda.is_some() {
                overhead += self.params.context_switch;
                self.counters.context_switches += 1;
            }
            self.executor_last_lambda = Some(job.lambda_idx);
        }
        let placements = vec![
            lnic_mlambda::memory::MemLevel::Emem;
            self.program.as_ref().expect("deployed").lambdas[job.lambda_idx]
                .objects
                .len()
        ];
        let total = exec_cycles(job.exec.stats(), &placements, &self.params.memory);
        let delta = total.saturating_sub(job.charged_cycles);
        job.charged_cycles = total;
        let scale = self.noise(ctx) * self.slow_scale(ctx.now());
        let segment = (self.params.cycles_to_time(delta) + overhead).mul_f64(scale);
        self.charge_cpu(segment);
        let epoch = self.workers[worker].epoch;
        self.workers[worker].state = WorkerState::Executing(job);
        ctx.send_self(segment, WorkerPhase { worker, epoch });
    }

    fn on_worker_phase(&mut self, ctx: &mut Ctx<'_>, worker: usize, epoch: u64) {
        if self.workers[worker].epoch != epoch {
            return;
        }
        let state = std::mem::replace(&mut self.workers[worker].state, WorkerState::Idle);
        let WorkerState::Executing(mut job) = state else {
            self.workers[worker].state = state;
            return;
        };
        match job.phase.take().expect("executing job has a phase") {
            Phase::Finish { response, code } => {
                self.release_gil(ctx, worker);
                self.emit_exec_finish(ctx, worker, &job);
                self.emit_response(ctx, &job, response, code);
                self.free_worker(ctx, worker);
            }
            Phase::SendRpc { service, payload } => {
                // Socket send + release the GIL while blocked.
                self.charge_cpu(self.params.tx_stack);
                self.release_gil(ctx, worker);
                job.rpc_seq += 1;
                job.rpc_attempt = 1;
                ctx.emit(|| TraceEvent::ExecSuspend {
                    core: worker as u32,
                    lambda_id: job.lambda_idx as u32,
                    request_id: job.req_hdr.request_id,
                });
                self.send_rpc(ctx, worker, service, &payload);
                let seq = job.rpc_seq;
                job.phase = Some(Phase::SendRpc { service, payload });
                self.workers[worker].state = WorkerState::AwaitingRpc(job);
                let epoch = self.workers[worker].epoch;
                ctx.send_self(
                    self.params.rpc_timeout,
                    RpcTimeout {
                        worker,
                        epoch,
                        rpc_seq: seq,
                    },
                );
            }
        }
    }

    fn release_gil(&mut self, ctx: &mut Ctx<'_>, worker: usize) {
        if !self.params.gil {
            return;
        }
        if self.gil_holder == Some(worker) {
            self.gil_holder = None;
            if let Some(next) = self.gil_waiters.pop_front() {
                let state = std::mem::replace(&mut self.workers[next].state, WorkerState::Idle);
                let WorkerState::WaitingGil(job) = state else {
                    self.workers[next].state = state;
                    return;
                };
                self.gil_holder = Some(next);
                if job.charged_cycles == 0 && !job.exec.is_awaiting() {
                    self.run_segment(ctx, next, job);
                } else {
                    self.finish_segment_after_resume(ctx, next, job);
                }
            }
        }
    }

    fn send_rpc(&mut self, ctx: &mut Ctx<'_>, worker: usize, service: u16, payload: &Bytes) {
        let Some(endpoint) = self.services.get(&service).copied() else {
            return;
        };
        let src = SocketAddr::new(self.ip, self.params.rpc_port_base + worker as u16);
        let packet = Packet::builder()
            .eth(self.mac, endpoint.mac)
            .udp(src, endpoint.addr)
            .payload(payload.clone())
            .build();
        // The kernel tx path delays the packet without blocking the
        // worker further.
        let tx = self.tx_latency(ctx);
        ctx.send(self.uplink, tx, packet);
    }

    fn on_rpc_response(&mut self, ctx: &mut Ctx<'_>, worker: usize, payload: Bytes) {
        if worker >= self.workers.len() {
            return;
        }
        let state = std::mem::replace(&mut self.workers[worker].state, WorkerState::Idle);
        let WorkerState::AwaitingRpc(mut job) = state else {
            self.workers[worker].state = state;
            return;
        };
        job.rpc_seq += 1;
        job.phase = None;
        ctx.emit(|| TraceEvent::ExecResume {
            core: worker as u32,
            lambda_id: job.lambda_idx as u32,
            request_id: job.req_hdr.request_id,
        });
        self.resume_segment(ctx, worker, job, payload);
    }

    fn on_rpc_timeout(&mut self, ctx: &mut Ctx<'_>, worker: usize, epoch: u64, rpc_seq: u64) {
        if self.workers[worker].epoch != epoch {
            return;
        }
        let state = std::mem::replace(&mut self.workers[worker].state, WorkerState::Idle);
        let WorkerState::AwaitingRpc(mut job) = state else {
            self.workers[worker].state = state;
            return;
        };
        if job.rpc_seq != rpc_seq {
            self.workers[worker].state = WorkerState::AwaitingRpc(job);
            return;
        }
        let Some(Phase::SendRpc { service, payload }) = job.phase.take() else {
            unreachable!("awaiting worker always holds a SendRpc phase");
        };
        if retries_exhausted(job.rpc_attempt, self.params.rpc_attempts) {
            self.counters.faults += 1;
            ctx.emit(|| TraceEvent::ExecResume {
                core: worker as u32,
                lambda_id: job.lambda_idx as u32,
                request_id: job.req_hdr.request_id,
            });
            self.emit_exec_finish(ctx, worker, &job);
            self.emit_response(ctx, &job, Bytes::new(), retcode::ERROR as u16);
            self.free_worker(ctx, worker);
            return;
        }
        job.rpc_attempt += 1;
        job.rpc_seq += 1;
        self.send_rpc(ctx, worker, service, &payload);
        let seq = job.rpc_seq;
        job.phase = Some(Phase::SendRpc { service, payload });
        self.workers[worker].state = WorkerState::AwaitingRpc(job);
        ctx.send_self(
            self.params.rpc_timeout,
            RpcTimeout {
                worker,
                epoch,
                rpc_seq: seq,
            },
        );
    }

    fn emit_response(&mut self, ctx: &mut Ctx<'_>, job: &Job, response: Bytes, code: u16) {
        self.charge_cpu(self.params.tx_stack);
        let mut resp_hdr = job.req_hdr.response_to(code);
        // Advertise the run-queue depth so the gateway can route and
        // shed against backpressure.
        resp_hdr.queue_depth = self.runq.len().min(u16::MAX as usize) as u16;
        resp_hdr.epoch = self.lease.epoch();
        let packet = job
            .reply_template
            .reply_to()
            .lambda(resp_hdr)
            .payload(response)
            .build();
        let tx = self.tx_latency(ctx);
        ctx.send(self.uplink, tx, packet);
        self.counters.responses += 1;
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    fn free_worker(&mut self, ctx: &mut Ctx<'_>, worker: usize) {
        self.workers[worker].epoch += 1;
        self.workers[worker].state = WorkerState::Idle;
        // Skip requests fenced or expired while they waited.
        while let Some(pending) = self.runq.pop_front() {
            if let Some(epoch) = self.lease.fence_check(ctx.now(), pending.req_hdr.epoch) {
                self.reject_fenced(ctx, &pending, epoch);
                continue;
            }
            if pending.req_hdr.expired_at(ctx.now().as_nanos()) {
                self.reject_expired(ctx, &pending);
                continue;
            }
            self.start_worker(ctx, worker, pending);
            return;
        }
        self.idle.push(worker);
    }

    /// Emits per-object memory charges and the finish record; mirrors
    /// [`exec_cycles`] with the host's all-EMEM placement so the online
    /// checker can recompute the charged total. Host overheads (kernel
    /// stacks, GIL waits, context switches) are charged as wall time, not
    /// cycles, so `overhead_cycles` is zero here.
    fn emit_exec_finish(&self, ctx: &mut Ctx<'_>, worker: usize, job: &Job) {
        if self.program.is_none() {
            return;
        }
        let stats = job.exec.stats();
        let core = worker as u32;
        let lambda_id = job.lambda_idx as u32;
        let request_id = job.req_hdr.request_id;
        // Host workers serve the single tenant that deployed to them.
        let owner_tenant = job.req_hdr.tenant_id;
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
        // All host objects live in (the host spec's) EMEM level.
        let emem_lat = self.params.memory.emem.latency_cycles;
        for (i, &scalar) in stats.obj_scalar.iter().enumerate() {
            charge(
                "EMEM",
                emem_lat,
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
            overhead_cycles: 0,
            instr_cycles: stats.instrs,
        });
    }
}

impl Component for HostBackend {
    fn name(&self) -> &str {
        "host-backend"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        // Fault controls act immediately, even mid-stall.
        let msg = match msg.downcast::<Crash>() {
            Ok(_) => {
                self.crash(ctx);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<Restart>() {
            Ok(_) => {
                self.restart(ctx);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<StallFor>() {
            Ok(s) => {
                self.stalled_until = self.stalled_until.max(ctx.now() + s.0);
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
        // A stalled runtime makes no progress: defer everything (health
        // probes included — a long stall looks dead, as it should).
        if ctx.now() < self.stalled_until {
            let delay = self.stalled_until.saturating_duration_since(ctx.now());
            let dst = ctx.self_id();
            ctx.send_boxed(dst, delay, msg);
            return;
        }
        let msg = match msg.downcast::<HealthPing>() {
            Ok(ping) => {
                if !self.crashed && !self.cuts.is_cut(ctx.now(), ping.reply_to) {
                    ctx.send(
                        ping.reply_to,
                        SimDuration::ZERO,
                        HealthPong {
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
                if grant.rejoin && epoch > held {
                    // Drop pre-partition placements: everything still
                    // queued was stamped with an older epoch. Refuse it
                    // now so senders re-resolve immediately.
                    while let Some(pending) = self.runq.pop_front() {
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
                        // The restart epoch bumps exactly once per crash.
                        incarnation: self.restart_epoch,
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
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<RestartDone>() {
            Ok(done) => {
                self.on_restart_done(ctx, done.restart_epoch);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<Packet>() {
            Ok(p) => {
                self.on_packet(ctx, *p);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<RequestReady>() {
            Ok(r) => {
                self.on_request_ready(ctx, r.pending);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<WorkerPhase>() {
            Ok(wp) => {
                self.on_worker_phase(ctx, wp.worker, wp.epoch);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<RpcTimeout>() {
            Ok(t) => {
                self.on_rpc_timeout(ctx, t.worker, t.epoch, t.rpc_seq);
                return;
            }
            Err(other) => other,
        };
        match msg.downcast::<DeployProgram>() {
            Ok(d) => {
                if self.crashed {
                    // A crashed runtime cannot take a program; the
                    // controller re-deploys after restart.
                    self.counters.dropped_crashed += 1;
                    return;
                }
                if d.epoch < self.lease.epoch() {
                    // A deploy stamped before this worker's last rejoin:
                    // the placement decision behind it has been fenced.
                    self.counters.fenced_rejects += 1;
                    ctx.emit(|| TraceEvent::FencedReject {
                        request_id: 0,
                        workload_id: 0,
                        hdr_epoch: d.epoch,
                        worker_epoch: self.lease.epoch(),
                    });
                    return;
                }
                if self.install(d.program) {
                    ctx.emit(|| TraceEvent::ProgramInstall {});
                }
            }
            Err(other) => panic!("host backend received unknown message {other:?}"),
        }
    }
}
