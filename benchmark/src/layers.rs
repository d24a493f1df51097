//! Per-layer measurement for the traced run: bench-owned trace sinks
//! that time the program's own sinks and rebuild per-request spans, and
//! a direct pass over the lambda interpreter.
//!
//! Nothing here instruments the program: simulated-time numbers come
//! from events the components already emit, joined by `request_id`, and
//! host-time numbers from timing calls into each layer's public entry
//! points.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lnic_mlambda::compile::{compile, CompileOptions};
use lnic_mlambda::interp::{run_to_completion, ObjectMemory, RequestCtx};
use lnic_mlambda::program::{Program, WorkloadId};
use lnic_net::packet::RC_OK;
use lnic_sim::prelude::*;
use lnic_workloads::{default_web_content, image, SuiteConfig, IMAGE_ID, WEB_ID};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::workload::Workload;

/// Records a [`ChunkTimed`] sink buffers before forwarding them.
const CHUNK: usize = 4096;
/// One closed span in this many is kept for the spans file.
const KEEP_EVERY: u64 = 100;

/// Wraps a sink: buffers records and forwards them in chunks, timing
/// each forwarded chunk, so the wrapped sink's host cost is measured
/// without a clock read per record. A wrapped [`InvariantChecker`] still
/// panics on a violation, at most one chunk late.
pub struct ChunkTimed<S> {
    inner: S,
    buf: Vec<TraceRecord>,
    busy: Duration,
    records: u64,
}

impl<S: TraceSink> ChunkTimed<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        ChunkTimed {
            inner,
            buf: Vec::with_capacity(CHUNK),
            busy: Duration::ZERO,
            records: 0,
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Host time spent inside the wrapped sink.
    pub fn busy(&self) -> Duration {
        self.busy
    }

    /// Records forwarded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    fn flush(&mut self) {
        let t = Instant::now();
        for rec in &self.buf {
            self.inner.on_record(rec);
        }
        self.busy += t.elapsed();
        self.records += self.buf.len() as u64;
        self.buf.clear();
    }
}

impl<S: TraceSink> TraceSink for ChunkTimed<S> {
    fn on_record(&mut self, rec: &TraceRecord) {
        self.buf.push(rec.clone());
        if self.buf.len() == CHUNK {
            self.flush();
        }
    }

    fn on_finish(&mut self, now: SimTime) {
        self.flush();
        let t = Instant::now();
        self.inner.on_finish(now);
        self.busy += t.elapsed();
    }
}

/// Which executor a span's last execution ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Executor {
    None,
    Nic,
    Host,
}

impl Executor {
    fn name(self) -> &'static str {
        match self {
            Executor::None => "none",
            Executor::Nic => "nic",
            Executor::Host => "host",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    submitted: SimTime,
    exec_ns: u64,
    exec_on: Executor,
    mem_cycles: u64,
    retransmits: u32,
}

/// Memory levels of the NIC's hierarchy, in `MemCharge` tag order.
pub(crate) const MEM_LEVELS: [&str; 4] = ["LMEM", "CTM", "IMEM", "EMEM"];

/// Rebuilds one span per gateway `request_id` — submit, execution on a
/// NIC or host core, completion — and folds each closed span into the
/// per-layer series. Every hundredth span is kept to be written out.
pub struct SpanSink {
    nics: HashSet<usize>,
    hosts: HashSet<usize>,
    open: HashMap<u64, OpenSpan>,
    /// In-flight executions by `(component, core)`: start and request.
    running: HashMap<(usize, u32), (SimTime, u64)>,
    kv_open: HashMap<u64, (SimTime, bool)>,
    closed: u64,
    kept: Vec<String>,
    /// Execution times on NIC cores, ns.
    pub nic_exec: Vec<u64>,
    /// Execution times on host worker threads, ns.
    pub host_exec: Vec<u64>,
    /// Wire latency minus execution, per successful request, ns.
    pub wire: Vec<u64>,
    /// Replicated-KV read invocation to response, ns.
    pub kv_read: Vec<u64>,
    /// Replicated-KV write invocation to response, ns.
    pub kv_write: Vec<u64>,
    /// NIC executions finished.
    pub nic_execs: u64,
    /// Fixed overhead cycles over NIC executions.
    pub overhead_cycles: u64,
    /// Instruction cycles over NIC executions.
    pub instr_cycles: u64,
    /// Memory cycles over NIC executions, per `MEM_LEVELS` entry.
    pub mem_cycles: [u64; 4],
    /// Frames links accepted for transmission.
    pub frames: u64,
    /// Wire bytes of those frames.
    pub bytes: u64,
    /// Frames links or switches dropped.
    pub drops: u64,
    /// Membership lease grants.
    pub lease_grants: u64,
    /// Records seen.
    pub records: u64,
}

impl SpanSink {
    /// A sink attributing executions on `nics` and `hosts` (component
    /// indices) to those layers.
    pub fn new(nics: HashSet<usize>, hosts: HashSet<usize>) -> Self {
        SpanSink {
            nics,
            hosts,
            open: HashMap::new(),
            running: HashMap::new(),
            kv_open: HashMap::new(),
            closed: 0,
            kept: Vec::new(),
            nic_exec: Vec::new(),
            host_exec: Vec::new(),
            wire: Vec::new(),
            kv_read: Vec::new(),
            kv_write: Vec::new(),
            nic_execs: 0,
            overhead_cycles: 0,
            instr_cycles: 0,
            mem_cycles: [0; 4],
            frames: 0,
            bytes: 0,
            drops: 0,
            lease_grants: 0,
            records: 0,
        }
    }

    /// Writes the kept spans as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Returns the error from creating or writing the file.
    pub fn write_kept(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in &self.kept {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }

    /// Spans kept for the spans file.
    pub fn kept(&self) -> usize {
        self.kept.len()
    }

    fn executor(&self, src: ComponentId) -> Executor {
        if self.nics.contains(&src.index()) {
            Executor::Nic
        } else if self.hosts.contains(&src.index()) {
            Executor::Host
        } else {
            Executor::None
        }
    }

    fn close(&mut self, at: SimTime, request_id: u64, latency_ns: u64, failed: bool) {
        let Some(span) = self.open.remove(&request_id) else {
            return;
        };
        if !failed {
            self.wire.push(latency_ns.saturating_sub(span.exec_ns));
        }
        self.closed += 1;
        if self.closed.is_multiple_of(KEEP_EVERY) {
            let mut line = String::with_capacity(200);
            let _ = write!(
                line,
                "{{\"request_id\":{request_id},\"submitted_ns\":{},\"completed_ns\":{},\
                 \"latency_ns\":{latency_ns},\"exec_ns\":{},\"exec_on\":\"{}\",\
                 \"mem_cycles\":{},\"retransmits\":{},\"failed\":{failed}}}",
                span.submitted.as_nanos(),
                at.as_nanos(),
                span.exec_ns,
                span.exec_on.name(),
                span.mem_cycles,
                span.retransmits,
            );
            self.kept.push(line);
        }
    }
}

impl TraceSink for SpanSink {
    fn on_record(&mut self, rec: &TraceRecord) {
        self.records += 1;
        match rec.event {
            TraceEvent::RequestSubmitted { request_id, .. } => {
                self.open.insert(
                    request_id,
                    OpenSpan {
                        submitted: rec.at,
                        exec_ns: 0,
                        exec_on: Executor::None,
                        mem_cycles: 0,
                        retransmits: 0,
                    },
                );
            }
            TraceEvent::RequestRetransmit { request_id, .. } => {
                if let Some(span) = self.open.get_mut(&request_id) {
                    span.retransmits += 1;
                }
            }
            TraceEvent::ExecStart {
                core, request_id, ..
            } => {
                self.running
                    .insert((rec.src.index(), core), (rec.at, request_id));
            }
            TraceEvent::ExecFinish {
                core,
                request_id,
                overhead_cycles,
                instr_cycles,
                ..
            } => {
                let Some((start, _)) = self.running.remove(&(rec.src.index(), core)) else {
                    return;
                };
                let ns = rec.at.saturating_duration_since(start).as_nanos();
                let executor = self.executor(rec.src);
                match executor {
                    Executor::Nic => {
                        self.nic_exec.push(ns);
                        self.nic_execs += 1;
                        self.overhead_cycles += overhead_cycles;
                        self.instr_cycles += instr_cycles;
                    }
                    Executor::Host => self.host_exec.push(ns),
                    Executor::None => {}
                }
                if let Some(span) = self.open.get_mut(&request_id) {
                    span.exec_ns = ns;
                    span.exec_on = executor;
                }
            }
            TraceEvent::MemCharge {
                request_id,
                level,
                cycles,
                ..
            } => {
                if let Some(i) = MEM_LEVELS.iter().position(|&l| l == level) {
                    self.mem_cycles[i] += cycles;
                }
                if let Some(span) = self.open.get_mut(&request_id) {
                    span.mem_cycles += cycles;
                }
            }
            TraceEvent::RequestCompleted {
                request_id,
                latency_ns,
                failed,
                ..
            } => self.close(rec.at, request_id, latency_ns, failed),
            TraceEvent::KvInvoke {
                request_id, write, ..
            } => {
                self.kv_open.insert(request_id, (rec.at, write));
            }
            TraceEvent::KvResponse { request_id, .. } => {
                if let Some((start, write)) = self.kv_open.remove(&request_id) {
                    let ns = rec.at.saturating_duration_since(start).as_nanos();
                    if write {
                        self.kv_write.push(ns);
                    } else {
                        self.kv_read.push(ns);
                    }
                }
            }
            TraceEvent::LinkTx { bytes } => {
                self.frames += 1;
                self.bytes += bytes;
            }
            TraceEvent::LinkDrop { .. } | TraceEvent::SwitchDrop { .. } => self.drops += 1,
            TraceEvent::LeaseGrant { .. } => self.lease_grants += 1,
            _ => {}
        }
    }
}

/// What the interpreter pass measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct InterpPass {
    /// Calls made.
    pub calls: u64,
    /// Host time per call, µs.
    pub us_per_call: f64,
    /// Instructions interpreted per call.
    pub instrs_per_call: f64,
    /// Calls whose return code or response bytes differed from the
    /// native reference.
    pub mismatches: u64,
}

/// Runs the workload's lambda `calls` times on payloads its own
/// generator draws from `seed`, through the compiled firmware the NICs
/// execute, and checks each response against the native reference.
/// `None` for workloads without a single reference lambda.
pub fn interp_pass(
    workload: Workload,
    program: &Program,
    seed: u64,
    calls: u64,
) -> Option<InterpPass> {
    let id = match workload {
        Workload::WebNicOpen | Workload::WebBaremetalOpen => WEB_ID,
        Workload::ImageNicClosed => IMAGE_ID,
        Workload::KvRepRw | Workload::TierChaos => return None,
    };
    let firmware = compile(program, &CompileOptions::optimized()).expect("program compiles");
    let fw_program = Arc::new(firmware.program);
    let idx = lambda_index(&fw_program, id);
    let spec = workload.payload_spec();
    let mut rng = SmallRng::seed_from_u64(seed);
    let payloads: Vec<_> = (0..calls).map(|_| spec.generate(&mut rng)).collect();
    let web = default_web_content(&SuiteConfig::default());
    let mut mem = ObjectMemory::for_lambda(&fw_program.lambdas[idx]);
    let mut pass = InterpPass {
        calls,
        ..InterpPass::default()
    };
    let mut instrs = 0;
    let mut elapsed = Duration::ZERO;
    for payload in payloads {
        let ctx = RequestCtx {
            payload: payload.clone(),
            ..RequestCtx::default()
        };
        let t = Instant::now();
        let done = run_to_completion(&fw_program, idx, ctx, &mut mem, u64::MAX, |_, _| {
            bytes::Bytes::new()
        });
        elapsed += t.elapsed();
        let Ok(done) = done else {
            pass.mismatches += 1;
            continue;
        };
        instrs += done.stats.instrs;
        let expected = if id == WEB_ID {
            web.reference_response(&payload)
        } else {
            image::reference_response(&payload)
        };
        if done.return_code != u64::from(RC_OK) || done.response[..] != expected[..] {
            pass.mismatches += 1;
        }
    }
    if calls > 0 {
        pass.us_per_call = elapsed.as_secs_f64() * 1e6 / calls as f64;
        pass.instrs_per_call = instrs as f64 / calls as f64;
    }
    Some(pass)
}

fn lambda_index(program: &Program, id: WorkloadId) -> usize {
    program
        .lambdas
        .iter()
        .position(|l| l.id == id)
        .expect("workload's lambda is deployed")
}
