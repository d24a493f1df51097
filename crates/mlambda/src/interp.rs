//! The reference interpreter for Match+Lambda programs.
//!
//! The interpreter gives lambdas real semantics: the same IR both produces
//! functional results (web pages, key-value responses, transformed images)
//! and yields the execution statistics ([`ExecStats`]) that the NIC and
//! host models convert into virtual time. Execution is resumable across
//! [`Instr::NetRpc`] suspension points so the discrete-event simulation
//! can park an NPU thread while a dependent RPC is in flight.
//!
//! A program is decoded once into [`Code`], a flat op stream, much as
//! λ-NIC compiles lambdas into firmware once and then runs them to
//! completion on every packet; each [`Execution`] runs over that stream.

use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;

use crate::ir::{
    AluOp, Cmp, FuncRef, Function, HeaderField, Instr, Reg, Width, NUM_REGISTERS, RET_REG,
};
use crate::program::{check_operands, Lambda, Loc, Program, ValidateError};

/// Maximum call depth (NPUs have a tiny fixed call stack).
pub const MAX_CALL_DEPTH: usize = 16;

/// The header values visible to a lambda for one request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeaderValues {
    /// λ-NIC workload id.
    pub workload_id: u32,
    /// λ-NIC request id.
    pub request_id: u64,
    /// Fragment index.
    pub frag_index: u16,
    /// Fragment count.
    pub frag_count: u16,
    /// Return code (responses only).
    pub return_code: u16,
    /// IPv4 source.
    pub src_ip: u32,
    /// IPv4 destination.
    pub dst_ip: u32,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
}

impl HeaderValues {
    /// Reads one field (payload length comes from the request context).
    fn field(&self, field: HeaderField, payload_len: usize) -> u64 {
        use HeaderField as F;
        match field {
            F::WorkloadId => self.workload_id as u64,
            F::RequestId => self.request_id,
            F::FragIndex => self.frag_index as u64,
            F::FragCount => self.frag_count as u64,
            F::ReturnCode => self.return_code as u64,
            F::SrcIp => self.src_ip as u64,
            F::DstIp => self.dst_ip as u64,
            F::SrcPort => self.src_port as u64,
            F::DstPort => self.dst_port as u64,
            F::PayloadLen => payload_len as u64,
        }
    }
}

/// One request as seen by a lambda: parsed headers, payload, and the
/// match-data parameters attached by the match stage.
#[derive(Clone, Debug, Default)]
pub struct RequestCtx {
    /// Parsed header fields.
    pub headers: HeaderValues,
    /// Request payload bytes.
    pub payload: Bytes,
    /// `MATCH_DATA_T` parameters from the matched entry.
    pub match_data: Vec<u64>,
}

/// Persistent object storage for one deployed lambda instance. Global
/// objects keep their contents across requests (§4.1, "global objects
/// that persist state across runs").
#[derive(Clone, Debug)]
pub struct ObjectMemory {
    storage: Vec<Vec<u8>>,
}

impl ObjectMemory {
    /// Allocates and initializes storage for `lambda`'s declared objects.
    pub fn for_lambda(lambda: &Lambda) -> Self {
        let storage = lambda
            .objects
            .iter()
            .map(|o| {
                let mut v = o.init.clone();
                v.resize(o.size as usize, 0);
                v
            })
            .collect();
        ObjectMemory { storage }
    }

    /// Borrows an object's bytes.
    pub fn object(&self, idx: usize) -> &[u8] {
        &self.storage[idx]
    }

    /// Mutably borrows an object's bytes.
    pub fn object_mut(&mut self, idx: usize) -> &mut [u8] {
        &mut self.storage[idx]
    }

    /// Total bytes held.
    pub fn total_bytes(&self) -> usize {
        self.storage.iter().map(|s| s.len()).sum()
    }
}

/// Counters describing one lambda execution; the timing models translate
/// these into NPU or CPU cycles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed.
    pub instrs: u64,
    /// Scalar accesses per object.
    pub obj_scalar: Vec<u64>,
    /// Bulk bytes moved per object.
    pub obj_bulk_bytes: Vec<u64>,
    /// Bulk operations (copies/RPC reads) per object.
    pub obj_bulk_ops: Vec<u64>,
    /// Scalar reads of the request payload.
    pub payload_scalar: u64,
    /// Bulk bytes read from the request payload.
    pub payload_bulk_bytes: u64,
    /// Bytes appended to the response.
    pub emitted_bytes: u64,
    /// Network RPCs issued.
    pub net_rpcs: u64,
    /// Deepest call nesting observed.
    pub max_call_depth: usize,
}

impl ExecStats {
    fn with_objects(objects: usize) -> Self {
        ExecStats {
            obj_scalar: vec![0; objects],
            obj_bulk_bytes: vec![0; objects],
            obj_bulk_ops: vec![0; objects],
            ..Default::default()
        }
    }
}

/// A finished execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The lambda's return code (`r0` at entry `Ret`).
    pub return_code: u64,
    /// The response payload built with `Emit*` instructions.
    pub response: Bytes,
    /// Execution counters.
    pub stats: ExecStats,
}

/// Why an execution step returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The lambda finished.
    Done(Completion),
    /// The lambda issued a [`Instr::NetRpc`] and is suspended until
    /// [`Execution::resume`] provides the response.
    NetCall {
        /// Logical service id.
        service: u16,
        /// Request payload.
        payload: Bytes,
    },
}

/// Runtime faults. The compiler's isolation story (§4.2-D2) maps memory
/// violations to a fault instead of letting a lambda escape its objects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// An object access fell outside the object's bounds.
    ObjOutOfBounds {
        /// The object index.
        obj: u16,
        /// Attempted offset.
        offset: u64,
        /// Attempted length.
        len: u64,
    },
    /// A payload access fell outside the request payload.
    PayloadOutOfBounds {
        /// Attempted offset.
        offset: u64,
        /// Attempted length.
        len: u64,
    },
    /// The per-invocation instruction budget was exhausted (the serverless
    /// compute-time limit, §2.1).
    FuelExhausted,
    /// Call nesting exceeded [`MAX_CALL_DEPTH`].
    CallDepthExceeded,
    /// `resume` was called while the lambda was not awaiting a response.
    NotAwaitingResponse,
    /// `run` was called while the lambda *was* awaiting a response.
    AwaitingResponse,
    /// The program failed to decode (see [`Code::decode`]); only the
    /// one-shot [`run_to_completion`] reports this.
    InvalidProgram(ValidateError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ObjOutOfBounds { obj, offset, len } => {
                write!(f, "object {obj} access out of bounds at {offset}+{len}")
            }
            ExecError::PayloadOutOfBounds { offset, len } => {
                write!(f, "payload access out of bounds at {offset}+{len}")
            }
            ExecError::FuelExhausted => write!(f, "instruction budget exhausted"),
            ExecError::CallDepthExceeded => write!(f, "call depth exceeded"),
            ExecError::NotAwaitingResponse => write!(f, "resume without pending rpc"),
            ExecError::AwaitingResponse => write!(f, "run while awaiting rpc response"),
            ExecError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One decoded instruction. Branch, jump and call targets are absolute
/// indices into [`Code::ops`]; ALU ops and branches carry their operation
/// in the opcode, so each instruction costs a single dispatch.
#[rustfmt::skip]
#[derive(Clone, Copy, Debug)]
enum Op {
    Const { dst: Reg, value: u64 },
    Mov { dst: Reg, src: Reg },
    Add { dst: Reg, a: Reg, b: Reg },
    Sub { dst: Reg, a: Reg, b: Reg },
    Mul { dst: Reg, a: Reg, b: Reg },
    And { dst: Reg, a: Reg, b: Reg },
    Or { dst: Reg, a: Reg, b: Reg },
    Xor { dst: Reg, a: Reg, b: Reg },
    Shl { dst: Reg, a: Reg, b: Reg },
    Shr { dst: Reg, a: Reg, b: Reg },
    Div { dst: Reg, a: Reg, b: Reg },
    Mod { dst: Reg, a: Reg, b: Reg },
    AddImm { dst: Reg, a: Reg, imm: u64 },
    SubImm { dst: Reg, a: Reg, imm: u64 },
    MulImm { dst: Reg, a: Reg, imm: u64 },
    AndImm { dst: Reg, a: Reg, imm: u64 },
    OrImm { dst: Reg, a: Reg, imm: u64 },
    XorImm { dst: Reg, a: Reg, imm: u64 },
    ShlImm { dst: Reg, a: Reg, imm: u64 },
    ShrImm { dst: Reg, a: Reg, imm: u64 },
    DivImm { dst: Reg, a: Reg, imm: u64 },
    ModImm { dst: Reg, a: Reg, imm: u64 },
    LoadHdr { dst: Reg, field: HeaderField },
    LoadMatchData { dst: Reg, idx: u8 },
    Load { dst: Reg, obj: u16, addr: Reg, width: Width },
    Store { obj: u16, addr: Reg, src: Reg, width: Width },
    LoadPayload { dst: Reg, addr: Reg, width: Width },
    Emit { src: Reg, width: Width },
    EmitObj { obj: u16, off: Reg, len: Reg },
    PayloadToObj { obj: u16, src_off: Reg, dst_off: Reg, len: Reg },
    BranchEq { a: Reg, b: Reg, target: u32 },
    BranchNe { a: Reg, b: Reg, target: u32 },
    BranchLt { a: Reg, b: Reg, target: u32 },
    BranchGe { a: Reg, b: Reg, target: u32 },
    Jump { target: u32 },
    Call { target: u32 },
    Ret,
    /// `Code::rpcs[rpc]`.
    NetRpc { rpc: u32 },
    /// The end of a function body: reached by running past its last
    /// instruction or by an out-of-range branch target. Returns like
    /// `Ret` but is not an instruction, so it costs no fuel.
    End,
    // Fused pairs: each stands for its op and the op after it, which
    // stays in place, so an entry at the second op still runs it alone.
    /// `ShrImm` then `AndImm` of its result in place (byte extract).
    ShrAndImm { dst: Reg, a: Reg, shift: u8, mask: u64 },
    /// `Const` into `dst`, then `Mul` of `dst` and `a` into `dst`.
    MulConst { dst: Reg, a: Reg, value: u64 },
    /// `Add` of `a` and `b` into `dst`, then `Add` of `dst` and `c` into `dst`.
    Add3 { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `Store` of `src`, then `Emit` of `src` at width `emit`.
    StoreEmit { obj: u16, addr: Reg, src: Reg, width: Width, emit: Width },
    /// `Const` into `dst`, then `BranchEq` of `a` and `dst`.
    ConstBranchEq { dst: Reg, a: Reg, target: u32, value: u64 },
}

const _: () = assert!(std::mem::size_of::<Op>() <= 16);
const _: () = assert!(NUM_REGISTERS.is_power_of_two());

impl Op {
    /// Whether the op ends a straight-line run: it may move the pc
    /// elsewhere, or suspend the execution.
    fn ends_run(self) -> bool {
        matches!(
            self,
            Op::BranchEq { .. }
                | Op::BranchNe { .. }
                | Op::BranchLt { .. }
                | Op::BranchGe { .. }
                | Op::Jump { .. }
                | Op::Call { .. }
                | Op::Ret
                | Op::NetRpc { .. }
                | Op::End
        )
    }

    /// The fused op standing for `self` then `next`, for the pairs that
    /// dominate the dynamic pair counts of the suite lambdas.
    fn fuse(self, next: Op) -> Option<Op> {
        Some(match (self, next) {
            (
                Op::ShrImm { dst, a, imm },
                Op::AndImm {
                    dst: d,
                    a: x,
                    imm: mask,
                },
            ) if d == dst && x == dst => {
                // `Shr` uses the low six bits of its shift.
                let shift = (imm & 63) as u8;
                Op::ShrAndImm {
                    dst,
                    a,
                    shift,
                    mask,
                }
            }
            (Op::Const { dst, value }, Op::Mul { dst: d, a, b }) if d == dst && a != b => {
                let a = match (a == dst, b == dst) {
                    (true, _) => b,
                    (_, true) => a,
                    _ => return None,
                };
                Op::MulConst { dst, a, value }
            }
            (Op::Add { dst, a, b }, Op::Add { dst: d, a: x, b: y }) if d == dst && x != y => {
                let c = match (x == dst, y == dst) {
                    (true, _) => y,
                    (_, true) => x,
                    _ => return None,
                };
                Op::Add3 { dst, a, b, c }
            }
            (
                Op::Store {
                    obj,
                    addr,
                    src,
                    width,
                },
                Op::Emit {
                    src: s,
                    width: emit,
                },
            ) if s == src => Op::StoreEmit {
                obj,
                addr,
                src,
                width,
                emit,
            },
            (Op::Const { dst, value }, Op::BranchEq { a, b, target }) if a != b => {
                let a = match (a == dst, b == dst) {
                    (true, _) => b,
                    (_, true) => a,
                    _ => return None,
                };
                Op::ConstBranchEq {
                    dst,
                    a,
                    target,
                    value,
                }
            }
            _ => return None,
        })
    }

    /// The first op a fused op stands for; any other op unchanged.
    fn first_half(self) -> Op {
        match self {
            Op::ShrAndImm { dst, a, shift, .. } => Op::ShrImm {
                dst,
                a,
                imm: u64::from(shift),
            },
            Op::MulConst { dst, value, .. } => Op::Const { dst, value },
            Op::Add3 { dst, a, b, .. } => Op::Add { dst, a, b },
            Op::StoreEmit {
                obj,
                addr,
                src,
                width,
                ..
            } => Op::Store {
                obj,
                addr,
                src,
                width,
            },
            Op::ConstBranchEq { dst, value, .. } => Op::Const { dst, value },
            op => op,
        }
    }
}

/// A register index as an array index. Decoding rejects registers
/// `>= NUM_REGISTERS`, so the mask never changes a decoded index; it
/// lets the compiler drop the register file's bounds check.
#[inline(always)]
fn r(reg: Reg) -> usize {
    usize::from(reg) & (NUM_REGISTERS - 1)
}

/// The operands of a decoded [`Instr::NetRpc`], kept out of line so the
/// common ops stay small.
#[derive(Clone, Copy, Debug)]
struct RpcOp {
    service: u16,
    req_obj: u16,
    req_off: Reg,
    req_len: Reg,
    resp_obj: u16,
    resp_off: Reg,
    resp_cap: Reg,
    resp_len_dst: Reg,
}

#[derive(Clone, Copy, Debug)]
struct LambdaCode {
    /// Index of the entry function's first op.
    entry: u32,
    /// Declared objects (sizes the per-object counters).
    objects: usize,
}

/// A [`Program`] decoded once for execution.
///
/// Every lambda's functions, then the shared functions, are laid out in
/// one flat op stream with absolute branch, jump and call targets; each
/// function body is followed by an end-of-function op. Each op also
/// records how much fuel the straight-line run from it costs, so the
/// interpreter charges a run at once, and the hottest op pairs are fused
/// into single ops. Decoding checks everything execution relies on to
/// never panic — register indices, object ids, call targets, entry
/// functions and match-table lambda references — so a runtime decodes a
/// program once when it is installed and then starts any number of
/// [`Execution`]s from it.
///
/// # Examples
///
/// ```
/// use lnic_mlambda::interp::Code;
/// use lnic_mlambda::ir::{Function, Instr};
/// use lnic_mlambda::program::{Lambda, Program, ValidateError, WorkloadId};
///
/// let mut p = Program::new();
/// let bad = Function::new("entry", vec![Instr::Const { dst: 40, value: 0 }, Instr::Ret]);
/// p.add_lambda(Lambda::new("bad", WorkloadId(1), bad), vec![]);
/// assert!(matches!(Code::decode(&p), Err(ValidateError::BadRegister { reg: 40, .. })));
/// ```
#[derive(Debug)]
pub struct Code {
    ops: Vec<Op>,
    /// `runs[i]`: the fuel-costing ops from `ops[i]` through the end of
    /// its straight-line run, which ends at an op that
    /// [ends the run](Op::ends_run). `End` costs nothing.
    runs: Vec<u32>,
    rpcs: Vec<RpcOp>,
    lambdas: Vec<LambdaCode>,
}

/// Where a function being decoded lives.
struct Scope<'a> {
    lambda: usize,
    function: usize,
    /// Op index of each local function; `None` for shared functions,
    /// which may not call lambda-local code.
    locals: Option<&'a [u32]>,
    shared: &'a [u32],
    /// Declared objects; `None` for shared functions, whose object ids
    /// are checked against every calling lambda instead.
    objects: Option<usize>,
}

impl Code {
    /// Decodes `program`.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] that would make execution
    /// unsafe: a register `>= NUM_REGISTERS`, an undeclared object
    /// (also through a shared function), a call to a missing function
    /// or from a shared function into lambda-local code, a lambda
    /// without an entry function, or a match entry naming a missing
    /// lambda. Unlike [`Program::validate`] it accepts out-of-range
    /// branch targets and missing terminators: both end the function.
    pub fn decode(program: &Program) -> Result<Code, ValidateError> {
        program.check_lambda_refs()?;
        program.check_shared_objects()?;
        let mut next = 0u32;
        let mut place = |f: &Function| {
            let start = next;
            next += f.body.len() as u32 + 1;
            start
        };
        let local_starts: Vec<Vec<u32>> = program
            .lambdas
            .iter()
            .map(|l| l.functions.iter().map(&mut place).collect())
            .collect();
        let shared_starts: Vec<u32> = program.shared.iter().map(&mut place).collect();
        let mut code = Code {
            ops: Vec::with_capacity(next as usize),
            runs: vec![0; next as usize],
            rpcs: Vec::new(),
            lambdas: Vec::with_capacity(program.lambdas.len()),
        };
        for (li, (lambda, locals)) in program.lambdas.iter().zip(&local_starts).enumerate() {
            let entry = *locals.first().ok_or(ValidateError::BadFunctionRef {
                loc: Loc {
                    lambda: li,
                    function: 0,
                    pc: 0,
                },
            })?;
            code.lambdas.push(LambdaCode {
                entry,
                objects: lambda.objects.len(),
            });
            for (fi, function) in lambda.functions.iter().enumerate() {
                let scope = Scope {
                    lambda: li,
                    function: fi,
                    locals: Some(locals),
                    shared: &shared_starts,
                    objects: Some(lambda.objects.len()),
                };
                code.push_function(function, &scope)?;
            }
        }
        for (si, function) in program.shared.iter().enumerate() {
            let scope = Scope {
                lambda: usize::MAX,
                function: si,
                locals: None,
                shared: &shared_starts,
                objects: None,
            };
            code.push_function(function, &scope)?;
        }
        Ok(code)
    }

    fn push_function(
        &mut self,
        function: &Function,
        scope: &Scope<'_>,
    ) -> Result<(), ValidateError> {
        let base = self.ops.len() as u32;
        let len = function.body.len() as u32;
        // Out-of-range targets land on the function's `End`.
        let at = |target: u32| base + target.min(len);
        for (pc, instr) in function.body.iter().enumerate() {
            let loc = Loc {
                lambda: scope.lambda,
                function: scope.function,
                pc,
            };
            check_operands(instr, loc, scope.objects)?;
            let op = match *instr {
                Instr::Const { dst, value } => Op::Const { dst, value },
                Instr::Mov { dst, src } => Op::Mov { dst, src },
                Instr::Alu { op, dst, a, b } => match op {
                    AluOp::Add => Op::Add { dst, a, b },
                    AluOp::Sub => Op::Sub { dst, a, b },
                    AluOp::Mul => Op::Mul { dst, a, b },
                    AluOp::And => Op::And { dst, a, b },
                    AluOp::Or => Op::Or { dst, a, b },
                    AluOp::Xor => Op::Xor { dst, a, b },
                    AluOp::Shl => Op::Shl { dst, a, b },
                    AluOp::Shr => Op::Shr { dst, a, b },
                    AluOp::Div => Op::Div { dst, a, b },
                    AluOp::Mod => Op::Mod { dst, a, b },
                },
                Instr::AluImm { op, dst, a, imm } => match op {
                    AluOp::Add => Op::AddImm { dst, a, imm },
                    AluOp::Sub => Op::SubImm { dst, a, imm },
                    AluOp::Mul => Op::MulImm { dst, a, imm },
                    AluOp::And => Op::AndImm { dst, a, imm },
                    AluOp::Or => Op::OrImm { dst, a, imm },
                    AluOp::Xor => Op::XorImm { dst, a, imm },
                    AluOp::Shl => Op::ShlImm { dst, a, imm },
                    AluOp::Shr => Op::ShrImm { dst, a, imm },
                    AluOp::Div => Op::DivImm { dst, a, imm },
                    AluOp::Mod => Op::ModImm { dst, a, imm },
                },
                Instr::LoadHdr { dst, field } => Op::LoadHdr { dst, field },
                Instr::LoadMatchData { dst, idx } => Op::LoadMatchData { dst, idx },
                Instr::Load {
                    dst,
                    obj,
                    addr,
                    width,
                } => Op::Load {
                    dst,
                    obj: obj.0,
                    addr,
                    width,
                },
                Instr::Store {
                    obj,
                    addr,
                    src,
                    width,
                } => Op::Store {
                    obj: obj.0,
                    addr,
                    src,
                    width,
                },
                Instr::LoadPayload { dst, addr, width } => Op::LoadPayload { dst, addr, width },
                Instr::Emit { src, width } => Op::Emit { src, width },
                Instr::EmitObj { obj, off, len } => Op::EmitObj {
                    obj: obj.0,
                    off,
                    len,
                },
                Instr::PayloadToObj {
                    obj,
                    src_off,
                    dst_off,
                    len,
                } => Op::PayloadToObj {
                    obj: obj.0,
                    src_off,
                    dst_off,
                    len,
                },
                Instr::Branch { cmp, a, b, target } => {
                    let target = at(target);
                    match cmp {
                        Cmp::Eq => Op::BranchEq { a, b, target },
                        Cmp::Ne => Op::BranchNe { a, b, target },
                        Cmp::Lt => Op::BranchLt { a, b, target },
                        Cmp::Ge => Op::BranchGe { a, b, target },
                    }
                }
                Instr::Jump { target } => Op::Jump { target: at(target) },
                Instr::Call { func } => {
                    let target = match (func, scope.locals) {
                        (FuncRef::Local(_), None) => {
                            return Err(ValidateError::SharedFunctionCallsLocal {
                                shared: scope.function as u16,
                            })
                        }
                        (FuncRef::Local(i), Some(locals)) => locals.get(usize::from(i)),
                        (FuncRef::Shared(i), _) => scope.shared.get(usize::from(i)),
                    };
                    Op::Call {
                        target: *target.ok_or(ValidateError::BadFunctionRef { loc })?,
                    }
                }
                Instr::Ret => Op::Ret,
                Instr::NetRpc {
                    service,
                    req_obj,
                    req_off,
                    req_len,
                    resp_obj,
                    resp_off,
                    resp_cap,
                    resp_len_dst,
                } => {
                    self.rpcs.push(RpcOp {
                        service,
                        req_obj: req_obj.0,
                        req_off,
                        req_len,
                        resp_obj: resp_obj.0,
                        resp_off,
                        resp_cap,
                        resp_len_dst,
                    });
                    Op::NetRpc {
                        rpc: self.rpcs.len() as u32 - 1,
                    }
                }
            };
            self.ops.push(op);
        }
        self.ops.push(Op::End);
        let ops = &mut self.ops[base as usize..];
        let runs = &mut self.runs[base as usize..][..ops.len()];
        // Backwards, so each run count builds on the next op's. The next
        // op may already be fused; its first half is the original op, so
        // fused ops may overlap and each still runs its own two ops.
        for i in (0..ops.len() - 1).rev() {
            let (op, next) = (ops[i], ops[i + 1]);
            runs[i] = if op.ends_run() { 1 } else { runs[i + 1] + 1 };
            if let Some(fused) = op.fuse(next.first_half()) {
                ops[i] = fused;
            }
        }
        Ok(())
    }
}

#[derive(Clone, Debug)]
struct PendingNet {
    resp_obj: u16,
    resp_off: u64,
    resp_cap: u64,
    resp_len_dst: u8,
}

/// A (possibly suspended) execution of one lambda over one request.
///
/// # Examples
///
/// ```
/// use lnic_mlambda::interp::{Code, Execution, ObjectMemory, RequestCtx, StepOutcome};
/// use lnic_mlambda::ir::{Function, Instr};
/// use lnic_mlambda::program::{Lambda, Program, WorkloadId};
///
/// let entry = Function::new(
///     "entry",
///     vec![
///         Instr::Const { dst: 1, value: 0xAB },
///         Instr::Emit { src: 1, width: lnic_mlambda::ir::Width::B1 },
///         Instr::Const { dst: 0, value: 0 },
///         Instr::Ret,
///     ],
/// );
/// let mut p = Program::new();
/// let idx = p.add_lambda(Lambda::new("one", WorkloadId(1), entry), vec![]);
/// let mut mem = ObjectMemory::for_lambda(&p.lambdas[idx]);
/// let code = std::sync::Arc::new(Code::decode(&p).expect("decodes"));
/// let mut exec = Execution::start(code, idx, RequestCtx::default(), 1_000);
/// match exec.run(&mut mem).expect("executes") {
///     StepOutcome::Done(done) => assert_eq!(&done.response[..], &[0xAB]),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct Execution {
    code: Arc<Code>,
    ctx: RequestCtx,
    regs: [u64; NUM_REGISTERS],
    /// Index of the next op.
    pc: u32,
    /// Return indices of the suspended callers, innermost last.
    frames: Vec<u32>,
    emitted: Vec<u8>,
    stats: ExecStats,
    fuel: u64,
    pending: Option<PendingNet>,
    finished: bool,
}

impl Execution {
    /// Begins executing lambda `lambda_idx` of the decoded program over
    /// `ctx` with an instruction budget of `fuel`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_idx` is out of range.
    pub fn start(code: Arc<Code>, lambda_idx: usize, ctx: RequestCtx, fuel: u64) -> Self {
        let lambda = code.lambdas[lambda_idx];
        Execution {
            pc: lambda.entry,
            stats: ExecStats::with_objects(lambda.objects),
            code,
            ctx,
            regs: [0; NUM_REGISTERS],
            frames: Vec::new(),
            emitted: Vec::new(),
            fuel,
            pending: None,
            finished: false,
        }
    }

    /// Runs until completion or the next suspension point.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on a memory fault, exhausted fuel, call
    /// overflow, or when the execution is currently awaiting a response.
    pub fn run(&mut self, mem: &mut ObjectMemory) -> Result<StepOutcome, ExecError> {
        if self.pending.is_some() {
            return Err(ExecError::AwaitingResponse);
        }
        self.step_loop(mem)
    }

    /// Delivers the response of the pending [`Instr::NetRpc`] and
    /// continues execution.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NotAwaitingResponse`] when no RPC is pending,
    /// plus any error [`Execution::run`] can produce.
    pub fn resume(
        &mut self,
        mem: &mut ObjectMemory,
        response: &[u8],
    ) -> Result<StepOutcome, ExecError> {
        let pending = self.pending.take().ok_or(ExecError::NotAwaitingResponse)?;
        let n = (response.len() as u64).min(pending.resp_cap);
        self.write_obj_bulk(
            mem,
            pending.resp_obj,
            pending.resp_off,
            &response[..n as usize],
        )?;
        self.regs[r(pending.resp_len_dst)] = n;
        self.step_loop(mem)
    }

    /// Whether the execution is suspended on a network RPC.
    pub fn is_awaiting(&self) -> bool {
        self.pending.is_some()
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The interpreter loop. The pc, the register file and the fuel live
    /// in locals and are written back once, when the loop stops;
    /// `stats.instrs` grows by the fuel the stretch consumed.
    ///
    /// Fuel is charged per straight-line run: on entering a run whose
    /// fuel is covered, its ops run with no per-op fuel check, and a
    /// fault part-way gives back the fuel of the ops after the faulting
    /// one. When the fuel ends inside the run, exactly that many of its
    /// ops run, each fused op as its first half, and the loop stops
    /// where a per-op charge would have stopped it.
    fn step_loop(&mut self, mem: &mut ObjectMemory) -> Result<StepOutcome, ExecError> {
        debug_assert!(!self.finished, "execution already finished");
        let code = Arc::clone(&self.code);
        let (ops, runs) = (&code.ops[..], &code.runs[..]);
        let mut pc = self.pc as usize;
        let mut regs = self.regs;
        let mut fuel = self.fuel;
        let request = self.ctx.payload.clone();
        let payload: &[u8] = &request;
        let stop: Result<Option<(u16, Bytes)>, ExecError> = 'run: loop {
            // Stops on a fault raised by the op just fetched, leaving the
            // pc on that op. In a prepaid run, the ops after it are
            // refunded; the faulting op stays counted.
            macro_rules! fault {
                ($prepaid:expr, $err:expr) => {{
                    pc -= 1;
                    if $prepaid {
                        fuel += u64::from(runs[pc]) - 1;
                    }
                    break 'run Err($err);
                }};
            }
            macro_rules! check {
                ($prepaid:expr, $result:expr) => {
                    match $result {
                        Ok(v) => v,
                        Err(e) => fault!($prepaid, e),
                    }
                };
            }
            // Runs the op just fetched (the pc already points past it).
            // An op that ends the run goes back to the run entry.
            macro_rules! exec {
                ($op:expr, $prepaid:expr) => {
                    match $op {
                        Op::Const { dst, value } => regs[r(dst)] = value,
                        Op::Mov { dst, src } => regs[r(dst)] = regs[r(src)],
                        Op::Add { dst, a, b } => {
                            regs[r(dst)] = AluOp::Add.apply(regs[r(a)], regs[r(b)])
                        }
                        Op::Sub { dst, a, b } => {
                            regs[r(dst)] = AluOp::Sub.apply(regs[r(a)], regs[r(b)])
                        }
                        Op::Mul { dst, a, b } => {
                            regs[r(dst)] = AluOp::Mul.apply(regs[r(a)], regs[r(b)])
                        }
                        Op::And { dst, a, b } => {
                            regs[r(dst)] = AluOp::And.apply(regs[r(a)], regs[r(b)])
                        }
                        Op::Or { dst, a, b } => {
                            regs[r(dst)] = AluOp::Or.apply(regs[r(a)], regs[r(b)])
                        }
                        Op::Xor { dst, a, b } => {
                            regs[r(dst)] = AluOp::Xor.apply(regs[r(a)], regs[r(b)])
                        }
                        Op::Shl { dst, a, b } => {
                            regs[r(dst)] = AluOp::Shl.apply(regs[r(a)], regs[r(b)])
                        }
                        Op::Shr { dst, a, b } => {
                            regs[r(dst)] = AluOp::Shr.apply(regs[r(a)], regs[r(b)])
                        }
                        Op::Div { dst, a, b } => {
                            regs[r(dst)] = AluOp::Div.apply(regs[r(a)], regs[r(b)])
                        }
                        Op::Mod { dst, a, b } => {
                            regs[r(dst)] = AluOp::Mod.apply(regs[r(a)], regs[r(b)])
                        }
                        Op::AddImm { dst, a, imm } => {
                            regs[r(dst)] = AluOp::Add.apply(regs[r(a)], imm)
                        }
                        Op::SubImm { dst, a, imm } => {
                            regs[r(dst)] = AluOp::Sub.apply(regs[r(a)], imm)
                        }
                        Op::MulImm { dst, a, imm } => {
                            regs[r(dst)] = AluOp::Mul.apply(regs[r(a)], imm)
                        }
                        Op::AndImm { dst, a, imm } => {
                            regs[r(dst)] = AluOp::And.apply(regs[r(a)], imm)
                        }
                        Op::OrImm { dst, a, imm } => {
                            regs[r(dst)] = AluOp::Or.apply(regs[r(a)], imm)
                        }
                        Op::XorImm { dst, a, imm } => {
                            regs[r(dst)] = AluOp::Xor.apply(regs[r(a)], imm)
                        }
                        Op::ShlImm { dst, a, imm } => {
                            regs[r(dst)] = AluOp::Shl.apply(regs[r(a)], imm)
                        }
                        Op::ShrImm { dst, a, imm } => {
                            regs[r(dst)] = AluOp::Shr.apply(regs[r(a)], imm)
                        }
                        Op::DivImm { dst, a, imm } => {
                            regs[r(dst)] = AluOp::Div.apply(regs[r(a)], imm)
                        }
                        Op::ModImm { dst, a, imm } => {
                            regs[r(dst)] = AluOp::Mod.apply(regs[r(a)], imm)
                        }
                        Op::LoadHdr { dst, field } => {
                            regs[r(dst)] = self.ctx.headers.field(field, payload.len());
                        }
                        Op::LoadMatchData { dst, idx } => {
                            regs[r(dst)] =
                                self.ctx.match_data.get(idx as usize).copied().unwrap_or(0);
                        }
                        Op::Load {
                            dst,
                            obj,
                            addr,
                            width,
                        } => {
                            regs[r(dst)] = check!(
                                $prepaid,
                                self.read_obj_scalar(mem, obj, regs[r(addr)], width)
                            )
                        }
                        Op::Store {
                            obj,
                            addr,
                            src,
                            width,
                        } => check!(
                            $prepaid,
                            self.write_obj_scalar(mem, obj, regs[r(addr)], regs[r(src)], width)
                        ),
                        Op::LoadPayload { dst, addr, width } => {
                            regs[r(dst)] = check!(
                                $prepaid,
                                read_payload_scalar(payload, regs[r(addr)], width)
                            );
                            self.stats.payload_scalar += 1;
                        }
                        Op::Emit { src, width } => {
                            be_append(&mut self.emitted, regs[r(src)], width);
                            self.stats.emitted_bytes += width.bytes() as u64;
                        }
                        Op::EmitObj { obj, off, len } => {
                            let (off, len) = (regs[r(off)], regs[r(len)]);
                            let data = mem.object(obj as usize);
                            let range = check!($prepaid, obj_range(data.len(), obj, off, len));
                            self.emitted.extend_from_slice(&data[range]);
                            self.stats.obj_bulk_bytes[obj as usize] += len;
                            self.stats.obj_bulk_ops[obj as usize] += 1;
                            self.stats.emitted_bytes += len;
                        }
                        Op::PayloadToObj {
                            obj,
                            src_off,
                            dst_off,
                            len,
                        } => {
                            let (src, dst, len) =
                                (regs[r(src_off)], regs[r(dst_off)], regs[r(len)]);
                            if src
                                .checked_add(len)
                                .map(|e| e as usize > self.ctx.payload.len())
                                != Some(false)
                            {
                                fault!(
                                    $prepaid,
                                    ExecError::PayloadOutOfBounds { offset: src, len }
                                );
                            }
                            let data = self.ctx.payload.slice(src as usize..(src + len) as usize);
                            check!($prepaid, self.write_obj_bulk(mem, obj, dst, &data));
                            self.stats.payload_bulk_bytes += len;
                        }
                        Op::ShrAndImm {
                            dst,
                            a,
                            shift,
                            mask,
                        } => {
                            let shifted = AluOp::Shr.apply(regs[r(a)], u64::from(shift));
                            regs[r(dst)] = AluOp::And.apply(shifted, mask);
                            pc += 1;
                        }
                        Op::MulConst { dst, a, value } => {
                            regs[r(dst)] = AluOp::Mul.apply(regs[r(a)], value);
                            pc += 1;
                        }
                        Op::Add3 { dst, a, b, c } => {
                            let sum = AluOp::Add.apply(regs[r(a)], regs[r(b)]);
                            regs[r(dst)] = AluOp::Add.apply(sum, regs[r(c)]);
                            pc += 1;
                        }
                        Op::StoreEmit {
                            obj,
                            addr,
                            src,
                            width,
                            emit,
                        } => {
                            let value = regs[r(src)];
                            check!(
                                $prepaid,
                                self.write_obj_scalar(mem, obj, regs[r(addr)], value, width)
                            );
                            be_append(&mut self.emitted, value, emit);
                            self.stats.emitted_bytes += emit.bytes() as u64;
                            pc += 1;
                        }
                        Op::BranchEq { a, b, target } => {
                            if Cmp::Eq.test(regs[r(a)], regs[r(b)]) {
                                pc = target as usize;
                            }
                            continue 'run;
                        }
                        Op::ConstBranchEq {
                            dst,
                            a,
                            target,
                            value,
                        } => {
                            regs[r(dst)] = value;
                            pc = if Cmp::Eq.test(regs[r(a)], value) {
                                target as usize
                            } else {
                                pc + 1
                            };
                            continue 'run;
                        }
                        Op::BranchNe { a, b, target } => {
                            if Cmp::Ne.test(regs[r(a)], regs[r(b)]) {
                                pc = target as usize;
                            }
                            continue 'run;
                        }
                        Op::BranchLt { a, b, target } => {
                            if Cmp::Lt.test(regs[r(a)], regs[r(b)]) {
                                pc = target as usize;
                            }
                            continue 'run;
                        }
                        Op::BranchGe { a, b, target } => {
                            if Cmp::Ge.test(regs[r(a)], regs[r(b)]) {
                                pc = target as usize;
                            }
                            continue 'run;
                        }
                        Op::Jump { target } => {
                            pc = target as usize;
                            continue 'run;
                        }
                        Op::Call { target } => {
                            // The running function is not in `frames`.
                            if self.frames.len() + 1 >= MAX_CALL_DEPTH {
                                fault!($prepaid, ExecError::CallDepthExceeded);
                            }
                            self.frames.push(pc as u32);
                            pc = target as usize;
                            let depth = self.frames.len() + 1;
                            self.stats.max_call_depth = self.stats.max_call_depth.max(depth);
                            continue 'run;
                        }
                        Op::Ret | Op::End => match self.frames.pop() {
                            Some(ret) => {
                                pc = ret as usize;
                                continue 'run;
                            }
                            None => break 'run Ok(None),
                        },
                        Op::NetRpc { rpc } => {
                            let rpc = code.rpcs[rpc as usize];
                            let (off, len) = (regs[r(rpc.req_off)], regs[r(rpc.req_len)]);
                            let data = mem.object(rpc.req_obj as usize);
                            let range =
                                check!($prepaid, obj_range(data.len(), rpc.req_obj, off, len));
                            let payload = Bytes::copy_from_slice(&data[range]);
                            self.stats.obj_bulk_bytes[rpc.req_obj as usize] += len;
                            self.stats.obj_bulk_ops[rpc.req_obj as usize] += 1;
                            self.stats.net_rpcs += 1;
                            self.pending = Some(PendingNet {
                                resp_obj: rpc.resp_obj,
                                resp_off: regs[r(rpc.resp_off)],
                                resp_cap: regs[r(rpc.resp_cap)],
                                resp_len_dst: rpc.resp_len_dst,
                            });
                            break 'run Ok(Some((rpc.service, payload)));
                        }
                    }
                };
            }
            let run = u64::from(runs[pc]);
            if run <= fuel {
                fuel -= run;
                loop {
                    let op = ops[pc];
                    pc += 1;
                    exec!(op, true);
                }
            }
            // The fuel ends before this run's last op, so every op left
            // to run here is straight-line.
            while fuel > 0 {
                let op = ops[pc].first_half();
                fuel -= 1;
                pc += 1;
                exec!(op, false);
            }
            break Err(ExecError::FuelExhausted);
        };
        self.pc = pc as u32;
        self.regs = regs;
        self.stats.instrs += self.fuel - fuel;
        self.fuel = fuel;
        match stop? {
            None => {
                self.finished = true;
                Ok(StepOutcome::Done(Completion {
                    return_code: regs[r(RET_REG)],
                    response: Bytes::from(std::mem::take(&mut self.emitted)),
                    stats: self.stats.clone(),
                }))
            }
            Some((service, payload)) => Ok(StepOutcome::NetCall { service, payload }),
        }
    }

    #[inline(always)]
    fn read_obj_scalar(
        &mut self,
        mem: &ObjectMemory,
        obj: u16,
        off: u64,
        width: Width,
    ) -> Result<u64, ExecError> {
        let data = mem.object(obj as usize);
        let range = obj_range(data.len(), obj, off, width.bytes() as u64)?;
        self.stats.obj_scalar[obj as usize] += 1;
        Ok(be_read(&data[range], width))
    }

    #[inline(always)]
    fn write_obj_scalar(
        &mut self,
        mem: &mut ObjectMemory,
        obj: u16,
        off: u64,
        value: u64,
        width: Width,
    ) -> Result<(), ExecError> {
        let data = mem.object_mut(obj as usize);
        let range = obj_range(data.len(), obj, off, width.bytes() as u64)?;
        self.stats.obj_scalar[obj as usize] += 1;
        be_write(&mut data[range], value, width);
        Ok(())
    }

    fn write_obj_bulk(
        &mut self,
        mem: &mut ObjectMemory,
        obj: u16,
        off: u64,
        data: &[u8],
    ) -> Result<(), ExecError> {
        let object = mem.object_mut(obj as usize);
        let range = obj_range(object.len(), obj, off, data.len() as u64)?;
        self.stats.obj_bulk_bytes[obj as usize] += data.len() as u64;
        self.stats.obj_bulk_ops[obj as usize] += 1;
        object[range].copy_from_slice(data);
        Ok(())
    }
}

/// `off..off + len` when it lies within object `obj` of `size` bytes.
#[inline(always)]
fn obj_range(size: usize, obj: u16, off: u64, len: u64) -> Result<Range<usize>, ExecError> {
    match off.checked_add(len) {
        Some(end) if end <= size as u64 => Ok(off as usize..end as usize),
        _ => Err(ExecError::ObjOutOfBounds {
            obj,
            offset: off,
            len,
        }),
    }
}

/// Reads a `width`-byte big-endian scalar of the request payload.
#[inline(always)]
fn read_payload_scalar(payload: &[u8], off: u64, width: Width) -> Result<u64, ExecError> {
    let len = width.bytes() as u64;
    match off.checked_add(len) {
        Some(end) if end <= payload.len() as u64 => Ok(be_read(&payload[off as usize..], width)),
        _ => Err(ExecError::PayloadOutOfBounds { offset: off, len }),
    }
}

/// Evaluates `$body` with `$n` bound to `$width`'s byte count as a
/// constant, so scalar accesses compile to fixed-size copies instead of
/// `memcpy` calls.
macro_rules! by_width {
    ($width:expr, $n:ident => $body:expr) => {
        match $width {
            Width::B1 => {
                const $n: usize = 1;
                $body
            }
            Width::B2 => {
                const $n: usize = 2;
                $body
            }
            Width::B4 => {
                const $n: usize = 4;
                $body
            }
            Width::B8 => {
                const $n: usize = 8;
                $body
            }
        }
    };
}

/// Reads `width` big-endian bytes from the front of `data`.
#[inline(always)]
fn be_read(data: &[u8], width: Width) -> u64 {
    by_width!(width, N => {
        let mut padded = [0u8; 8];
        padded[8 - N..].copy_from_slice(&data[..N]);
        u64::from_be_bytes(padded)
    })
}

/// Writes the low `width` bytes of `value`, big-endian, to the front of
/// `data`.
#[inline(always)]
fn be_write(data: &mut [u8], value: u64, width: Width) {
    by_width!(width, N => data[..N].copy_from_slice(&value.to_be_bytes()[8 - N..]))
}

/// Appends the low `width` bytes of `value`, big-endian, to `out`.
#[inline(always)]
fn be_append(out: &mut Vec<u8>, value: u64, width: Width) {
    by_width!(width, N => out.extend_from_slice(&value.to_be_bytes()[8 - N..]))
}

/// Runs a lambda to completion, answering network RPCs with `serve`.
///
/// This is the one-shot path: it decodes `program` on every call. A
/// runtime serving many requests decodes once with [`Code::decode`] and
/// drives [`Execution`]s itself, as the NIC and host backends do.
///
/// # Errors
///
/// Returns [`ExecError::InvalidProgram`] when `program` does not decode,
/// and propagates any [`ExecError`] from the execution.
pub fn run_to_completion(
    program: &Arc<Program>,
    lambda_idx: usize,
    ctx: RequestCtx,
    mem: &mut ObjectMemory,
    fuel: u64,
    mut serve: impl FnMut(u16, Bytes) -> Bytes,
) -> Result<Completion, ExecError> {
    let code = Code::decode(program).map_err(ExecError::InvalidProgram)?;
    let mut exec = Execution::start(Arc::new(code), lambda_idx, ctx, fuel);
    let mut outcome = exec.run(mem)?;
    loop {
        match outcome {
            StepOutcome::Done(done) => return Ok(done),
            StepOutcome::NetCall { service, payload } => {
                let response = serve(service, payload);
                outcome = exec.resume(mem, &response)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ObjId;
    use crate::program::{Lambda, MemObject, Program, WorkloadId};

    fn one_lambda(entry: Function, objects: Vec<MemObject>) -> Arc<Program> {
        let mut l = Lambda::new("test", WorkloadId(1), entry);
        for o in objects {
            l.add_object(o);
        }
        let mut p = Program::new();
        p.add_lambda(l, vec![]);
        p.validate().expect("test programs are well-formed");
        Arc::new(p)
    }

    fn p_with(l: Lambda) -> Program {
        let mut p = Program::new();
        p.add_lambda(l, vec![]);
        p.validate().unwrap();
        p
    }

    fn run(p: &Arc<Program>, ctx: RequestCtx) -> Completion {
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        run_to_completion(p, 0, ctx, &mut mem, 100_000, |_, _| Bytes::new())
            .expect("runs to completion")
    }

    fn start(p: &Arc<Program>, idx: usize, ctx: RequestCtx, fuel: u64) -> Execution {
        let code = Code::decode(p).expect("test programs decode");
        Execution::start(Arc::new(code), idx, ctx, fuel)
    }

    /// A one-lambda program, left unvalidated.
    fn single(entry: Function) -> Program {
        let mut p = Program::new();
        p.add_lambda(Lambda::new("t", WorkloadId(1), entry), vec![]);
        p
    }

    #[test]
    fn arithmetic_and_emit() {
        let entry = Function::new(
            "entry",
            vec![
                Instr::Const { dst: 1, value: 6 },
                Instr::Const { dst: 2, value: 7 },
                Instr::Alu {
                    op: AluOp::Mul,
                    dst: 3,
                    a: 1,
                    b: 2,
                },
                Instr::Emit {
                    src: 3,
                    width: Width::B2,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        let done = run(&one_lambda(entry, vec![]), RequestCtx::default());
        assert_eq!(&done.response[..], &42u16.to_be_bytes());
        assert_eq!(done.return_code, 0);
        assert_eq!(done.stats.instrs, 6);
    }

    #[test]
    fn header_and_match_data_reads() {
        let entry = Function::new(
            "entry",
            vec![
                Instr::LoadHdr {
                    dst: 1,
                    field: HeaderField::SrcPort,
                },
                Instr::LoadMatchData { dst: 2, idx: 0 },
                Instr::Alu {
                    op: AluOp::Add,
                    dst: 3,
                    a: 1,
                    b: 2,
                },
                Instr::Emit {
                    src: 3,
                    width: Width::B4,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        let ctx = RequestCtx {
            headers: HeaderValues {
                src_port: 1000,
                ..Default::default()
            },
            match_data: vec![234],
            ..Default::default()
        };
        let done = run(&one_lambda(entry, vec![]), ctx);
        assert_eq!(&done.response[..], &1234u32.to_be_bytes());
    }

    #[test]
    fn loops_branches_and_object_memory() {
        // Sum payload bytes into obj[0..8], then emit it.
        let entry = Function::new(
            "entry",
            vec![
                // r1 = i = 0, r2 = len, r3 = acc
                Instr::Const { dst: 1, value: 0 },
                Instr::LoadHdr {
                    dst: 2,
                    field: HeaderField::PayloadLen,
                },
                Instr::Const { dst: 3, value: 0 },
                // loop: if i >= len -> done(6)
                Instr::Branch {
                    cmp: Cmp::Ge,
                    a: 1,
                    b: 2,
                    target: 7,
                },
                Instr::LoadPayload {
                    dst: 4,
                    addr: 1,
                    width: Width::B1,
                },
                Instr::Alu {
                    op: AluOp::Add,
                    dst: 3,
                    a: 3,
                    b: 4,
                },
                Instr::AluImm {
                    op: AluOp::Add,
                    dst: 1,
                    a: 1,
                    imm: 1,
                },
                // (target adjusted below)
                Instr::Jump { target: 3 },
                // done: store acc and emit
                Instr::Const { dst: 5, value: 0 },
                Instr::Store {
                    obj: ObjId(0),
                    addr: 5,
                    src: 3,
                    width: Width::B8,
                },
                Instr::Load {
                    dst: 6,
                    obj: ObjId(0),
                    addr: 5,
                    width: Width::B8,
                },
                Instr::Emit {
                    src: 6,
                    width: Width::B8,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        // Fix branch targets: loop head at 3, exit at 8.
        let mut entry = entry;
        entry.body[3] = Instr::Branch {
            cmp: Cmp::Ge,
            a: 1,
            b: 2,
            target: 8,
        };
        entry.body[7] = Instr::Jump { target: 3 };
        let p = one_lambda(entry, vec![MemObject::zeroed("acc", 8)]);
        let ctx = RequestCtx {
            payload: Bytes::from_static(&[1, 2, 3, 4, 5]),
            ..Default::default()
        };
        let done = run(&p, ctx);
        assert_eq!(&done.response[..], &15u64.to_be_bytes());
        assert_eq!(done.stats.payload_scalar, 5);
        assert_eq!(done.stats.obj_scalar[0], 2);
    }

    #[test]
    fn emit_obj_bulk_copies_web_content() {
        // Listing 2's web server: copy object bytes into the response.
        let content = b"<html>hello lambda</html>".to_vec();
        let len = content.len() as u64;
        let entry = Function::new(
            "web",
            vec![
                Instr::Const { dst: 1, value: 0 },
                Instr::Const { dst: 2, value: len },
                Instr::EmitObj {
                    obj: ObjId(0),
                    off: 1,
                    len: 2,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        let p = one_lambda(
            entry,
            vec![MemObject::with_data("content", content.clone())],
        );
        let done = run(&p, RequestCtx::default());
        assert_eq!(&done.response[..], &content[..]);
        assert_eq!(done.stats.obj_bulk_bytes[0], len);
        assert_eq!(done.stats.emitted_bytes, len);
    }

    #[test]
    fn payload_to_obj_and_state_persists_across_requests() {
        // Store request payload into the object; next request reads it.
        let entry = Function::new(
            "entry",
            vec![
                Instr::Const { dst: 1, value: 0 },
                Instr::LoadHdr {
                    dst: 2,
                    field: HeaderField::PayloadLen,
                },
                // If empty payload, emit stored byte instead.
                Instr::Branch {
                    cmp: Cmp::Eq,
                    a: 2,
                    b: 1,
                    target: 6,
                },
                Instr::PayloadToObj {
                    obj: ObjId(0),
                    src_off: 1,
                    dst_off: 1,
                    len: 2,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
                Instr::Const { dst: 3, value: 4 },
                Instr::EmitObj {
                    obj: ObjId(0),
                    off: 1,
                    len: 3,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        let p = one_lambda(entry, vec![MemObject::zeroed("store", 16)]);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let write_ctx = RequestCtx {
            payload: Bytes::from_static(b"wxyz"),
            ..Default::default()
        };
        let d1 = run_to_completion(&p, 0, write_ctx, &mut mem, 1_000, |_, _| Bytes::new()).unwrap();
        assert!(d1.response.is_empty());
        let read_ctx = RequestCtx::default();
        let d2 = run_to_completion(&p, 0, read_ctx, &mut mem, 1_000, |_, _| Bytes::new()).unwrap();
        assert_eq!(&d2.response[..], b"wxyz");
    }

    #[test]
    fn calls_nest_and_return() {
        let mut l = Lambda::new(
            "nested",
            WorkloadId(1),
            Function::new(
                "entry",
                vec![
                    Instr::Call {
                        func: FuncRef::Local(1),
                    },
                    Instr::Emit {
                        src: 5,
                        width: Width::B1,
                    },
                    Instr::Const { dst: 0, value: 0 },
                    Instr::Ret,
                ],
            ),
        );
        l.add_function(Function::new(
            "helper",
            vec![
                Instr::Const {
                    dst: 5,
                    value: 0x7f,
                },
                Instr::Ret,
            ],
        ));
        let p = Arc::new(p_with(l));
        let done = run(&p, RequestCtx::default());
        assert_eq!(&done.response[..], &[0x7f]);
        assert_eq!(done.stats.max_call_depth, 2);
    }

    #[test]
    fn net_rpc_suspends_and_resumes() {
        let entry = Function::new(
            "kv",
            vec![
                // request bytes = obj[0..3]
                Instr::Const { dst: 1, value: 0 },
                Instr::Const { dst: 2, value: 3 },
                Instr::Const { dst: 3, value: 8 }, // resp off
                Instr::Const { dst: 4, value: 8 }, // resp cap
                Instr::NetRpc {
                    service: 9,
                    req_obj: ObjId(0),
                    req_off: 1,
                    req_len: 2,
                    resp_obj: ObjId(0),
                    resp_off: 3,
                    resp_cap: 4,
                    resp_len_dst: 5,
                },
                Instr::EmitObj {
                    obj: ObjId(0),
                    off: 3,
                    len: 5,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        let p = one_lambda(
            entry,
            vec![MemObject::with_data("buf", b"get into the buffer".to_vec())],
        );
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let mut exec = start(&p, 0, RequestCtx::default(), 1_000);
        match exec.run(&mut mem).unwrap() {
            StepOutcome::NetCall { service, payload } => {
                assert_eq!(service, 9);
                assert_eq!(&payload[..], b"get");
            }
            other => panic!("expected NetCall, got {other:?}"),
        }
        assert!(exec.is_awaiting());
        // Running while suspended is an error.
        assert_eq!(exec.run(&mut mem), Err(ExecError::AwaitingResponse));
        match exec.resume(&mut mem, b"VALUE").unwrap() {
            StepOutcome::Done(done) => {
                assert_eq!(&done.response[..], b"VALUE");
                assert_eq!(done.stats.net_rpcs, 1);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn rpc_response_truncated_to_capacity() {
        let entry = Function::new(
            "kv",
            vec![
                Instr::Const { dst: 1, value: 0 },
                Instr::Const { dst: 2, value: 1 },
                Instr::Const { dst: 3, value: 0 },
                Instr::Const { dst: 4, value: 2 }, // cap = 2
                Instr::NetRpc {
                    service: 1,
                    req_obj: ObjId(0),
                    req_off: 1,
                    req_len: 2,
                    resp_obj: ObjId(0),
                    resp_off: 3,
                    resp_cap: 4,
                    resp_len_dst: 5,
                },
                Instr::EmitObj {
                    obj: ObjId(0),
                    off: 3,
                    len: 5,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        let p = one_lambda(entry, vec![MemObject::zeroed("buf", 8)]);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let done = run_to_completion(&p, 0, RequestCtx::default(), &mut mem, 1_000, |_, _| {
            Bytes::from_static(b"LONG RESPONSE")
        })
        .unwrap();
        assert_eq!(&done.response[..], b"LO");
    }

    #[test]
    fn out_of_bounds_object_access_faults() {
        let entry = Function::new(
            "bad",
            vec![
                Instr::Const { dst: 1, value: 100 },
                Instr::Load {
                    dst: 2,
                    obj: ObjId(0),
                    addr: 1,
                    width: Width::B8,
                },
                Instr::Ret,
            ],
        );
        let p = one_lambda(entry, vec![MemObject::zeroed("small", 16)]);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let err = run_to_completion(&p, 0, RequestCtx::default(), &mut mem, 1_000, |_, _| {
            Bytes::new()
        })
        .unwrap_err();
        assert!(matches!(err, ExecError::ObjOutOfBounds { obj: 0, .. }));
    }

    #[test]
    fn payload_out_of_bounds_faults() {
        let entry = Function::new(
            "bad",
            vec![
                Instr::Const { dst: 1, value: 0 },
                Instr::LoadPayload {
                    dst: 2,
                    addr: 1,
                    width: Width::B4,
                },
                Instr::Ret,
            ],
        );
        let p = one_lambda(entry, vec![]);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let ctx = RequestCtx {
            payload: Bytes::from_static(b"ab"),
            ..Default::default()
        };
        let err = run_to_completion(&p, 0, ctx, &mut mem, 1_000, |_, _| Bytes::new()).unwrap_err();
        assert!(matches!(err, ExecError::PayloadOutOfBounds { .. }));
    }

    #[test]
    fn fuel_exhaustion_faults() {
        let entry = Function::new("spin", vec![Instr::Jump { target: 0 }]);
        let p = one_lambda(entry, vec![]);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let err = run_to_completion(&p, 0, RequestCtx::default(), &mut mem, 100, |_, _| {
            Bytes::new()
        })
        .unwrap_err();
        assert_eq!(err, ExecError::FuelExhausted);
    }

    #[test]
    fn object_memory_initialization() {
        let mut l = Lambda::new("m", WorkloadId(1), Function::new("e", vec![Instr::Ret]));
        l.add_object(MemObject::with_data("d", vec![1, 2, 3]));
        let mut padded = MemObject::with_data("p", vec![9]);
        padded.size = 4;
        l.add_object(padded);
        let mem = ObjectMemory::for_lambda(&l);
        assert_eq!(mem.object(0), &[1, 2, 3]);
        assert_eq!(mem.object(1), &[9, 0, 0, 0]);
        assert_eq!(mem.total_bytes(), 7);
    }

    #[test]
    fn call_depth_exceeded_faults() {
        // A linear chain of MAX_CALL_DEPTH+1 calls (no recursion, so
        // validation accepts it) overflows the call stack at runtime.
        let mut l = Lambda::new(
            "deep",
            WorkloadId(1),
            Function::new(
                "entry",
                vec![
                    Instr::Call {
                        func: FuncRef::Local(1),
                    },
                    Instr::Ret,
                ],
            ),
        );
        for i in 1..=MAX_CALL_DEPTH as u16 {
            l.add_function(Function::new(
                format!("f{i}"),
                vec![
                    Instr::Call {
                        func: FuncRef::Local(i + 1),
                    },
                    Instr::Ret,
                ],
            ));
        }
        l.add_function(Function::new("leaf", vec![Instr::Ret]));
        let mut p = Program::new();
        p.add_lambda(l, vec![]);
        p.validate().expect("linear chains are not recursion");
        let p = Arc::new(p);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let err = run_to_completion(&p, 0, RequestCtx::default(), &mut mem, 10_000, |_, _| {
            Bytes::new()
        })
        .unwrap_err();
        assert_eq!(err, ExecError::CallDepthExceeded);
    }

    #[test]
    fn resume_without_pending_is_error() {
        let p = one_lambda(
            Function::new("e", vec![Instr::Const { dst: 0, value: 0 }, Instr::Ret]),
            vec![],
        );
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let mut exec = start(&p, 0, RequestCtx::default(), 10);
        assert_eq!(
            exec.resume(&mut mem, b"x"),
            Err(ExecError::NotAwaitingResponse)
        );
    }

    /// A `NetRpc` issued inside a callee suspends the whole call stack;
    /// the response resumes the callee right after the RPC and its `Ret`
    /// returns through the caller.
    #[test]
    fn net_rpc_in_callee_resumes_and_returns_through_caller() {
        let mut l = Lambda::new(
            "rpc_in_callee",
            WorkloadId(1),
            Function::new(
                "entry",
                vec![
                    Instr::Const { dst: 6, value: 0 },
                    Instr::Call {
                        func: FuncRef::Local(1),
                    },
                    Instr::Emit {
                        src: 6,
                        width: Width::B1,
                    },
                    Instr::Const { dst: 0, value: 0 },
                    Instr::Ret,
                ],
            ),
        );
        l.add_function(Function::new(
            "fetch",
            vec![
                Instr::Const { dst: 1, value: 0 },
                Instr::Const { dst: 2, value: 3 },
                Instr::Const { dst: 3, value: 8 },
                Instr::Const { dst: 4, value: 8 },
                Instr::NetRpc {
                    service: 7,
                    req_obj: ObjId(0),
                    req_off: 1,
                    req_len: 2,
                    resp_obj: ObjId(0),
                    resp_off: 3,
                    resp_cap: 4,
                    resp_len_dst: 5,
                },
                Instr::EmitObj {
                    obj: ObjId(0),
                    off: 3,
                    len: 5,
                },
                Instr::Const {
                    dst: 6,
                    value: 0x99,
                },
                Instr::Ret,
            ],
        ));
        l.add_object(MemObject::with_data("buf", b"get into the buffer".to_vec()));
        let p = Arc::new(p_with(l));
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let mut exec = start(&p, 0, RequestCtx::default(), 1_000);
        match exec.run(&mut mem).unwrap() {
            StepOutcome::NetCall { service, payload } => {
                assert_eq!(service, 7);
                assert_eq!(&payload[..], b"get");
            }
            other => panic!("expected NetCall, got {other:?}"),
        }
        assert_eq!(
            *exec.stats(),
            ExecStats {
                instrs: 7,
                obj_scalar: vec![0],
                obj_bulk_bytes: vec![3],
                obj_bulk_ops: vec![1],
                net_rpcs: 1,
                max_call_depth: 2,
                ..Default::default()
            }
        );
        let StepOutcome::Done(done) = exec.resume(&mut mem, b"VALUE").unwrap() else {
            panic!("expected Done");
        };
        assert_eq!(&done.response[..], b"VALUE\x99");
        assert_eq!(done.return_code, 0);
        assert_eq!(
            done.stats,
            ExecStats {
                instrs: 13,
                obj_scalar: vec![0],
                obj_bulk_bytes: vec![13],
                obj_bulk_ops: vec![3],
                emitted_bytes: 6,
                net_rpcs: 1,
                max_call_depth: 2,
                ..Default::default()
            }
        );
    }

    /// An object fault part-way through a loop stops the run with the
    /// faulting instruction counted and every earlier access recorded.
    #[test]
    fn object_fault_mid_loop_leaves_exact_stats() {
        let entry = Function::new(
            "overrun",
            vec![
                Instr::Const { dst: 1, value: 0 },
                Instr::Const { dst: 2, value: 7 },
                Instr::Store {
                    obj: ObjId(0),
                    addr: 1,
                    src: 2,
                    width: Width::B4,
                },
                Instr::Load {
                    dst: 3,
                    obj: ObjId(0),
                    addr: 1,
                    width: Width::B4,
                },
                Instr::Emit {
                    src: 3,
                    width: Width::B1,
                },
                Instr::AluImm {
                    op: AluOp::Add,
                    dst: 1,
                    a: 1,
                    imm: 4,
                },
                Instr::Jump { target: 2 },
            ],
        );
        let p = one_lambda(entry, vec![MemObject::zeroed("small", 10)]);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let mut exec = start(&p, 0, RequestCtx::default(), 1_000);
        assert_eq!(
            exec.run(&mut mem),
            Err(ExecError::ObjOutOfBounds {
                obj: 0,
                offset: 8,
                len: 4
            })
        );
        assert_eq!(
            *exec.stats(),
            ExecStats {
                instrs: 13,
                obj_scalar: vec![4],
                obj_bulk_bytes: vec![0],
                obj_bulk_ops: vec![0],
                emitted_bytes: 2,
                ..Default::default()
            }
        );
        assert_eq!(mem.object(0), &[0, 0, 0, 7, 0, 0, 0, 7, 0, 0]);
    }

    /// Unvalidated bodies keep their lenient meaning: running off the end
    /// of a function, or jumping past it, returns without spending fuel.
    #[test]
    fn falling_off_a_function_returns_without_fuel() {
        let mut l = Lambda::new(
            "lenient",
            WorkloadId(1),
            Function::new(
                "entry",
                vec![
                    Instr::Call {
                        func: FuncRef::Local(1),
                    },
                    Instr::Const { dst: 0, value: 5 },
                ],
            ),
        );
        l.add_function(Function::new(
            "skip",
            vec![
                Instr::Const { dst: 1, value: 1 },
                Instr::Jump { target: 99 },
                Instr::Const { dst: 1, value: 2 },
            ],
        ));
        let mut p = Program::new();
        p.add_lambda(l, vec![]);
        assert!(p.validate().is_err());
        let p = Arc::new(p);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let mut exec = start(&p, 0, RequestCtx::default(), 4);
        let StepOutcome::Done(done) = exec.run(&mut mem).unwrap() else {
            panic!("expected Done");
        };
        assert_eq!(done.return_code, 5);
        assert_eq!(done.stats.instrs, 4);
        assert_eq!(done.stats.max_call_depth, 2);
    }

    #[test]
    fn decode_rejects_what_would_panic_at_run_time() {
        let bad_reg = single(Function::new(
            "entry",
            vec![Instr::Mov { dst: 0, src: 32 }, Instr::Ret],
        ));
        assert!(matches!(
            Code::decode(&bad_reg),
            Err(ValidateError::BadRegister { reg: 32, .. })
        ));
        let bad_obj = single(Function::new(
            "entry",
            vec![
                Instr::EmitObj {
                    obj: ObjId(0),
                    off: 1,
                    len: 2,
                },
                Instr::Ret,
            ],
        ));
        assert!(matches!(
            Code::decode(&bad_obj),
            Err(ValidateError::BadObject { obj: ObjId(0), .. })
        ));
        let bad_call = single(Function::new(
            "entry",
            vec![
                Instr::Call {
                    func: FuncRef::Shared(0),
                },
                Instr::Ret,
            ],
        ));
        assert!(matches!(
            Code::decode(&bad_call),
            Err(ValidateError::BadFunctionRef { .. })
        ));
        // A shared function is laid out once for every caller, so it may
        // not call lambda-local code; its registers are checked too.
        let mut shared_local = single(Function::new("entry", vec![Instr::Ret]));
        shared_local.shared.push(Function::new(
            "s",
            vec![
                Instr::Call {
                    func: FuncRef::Local(0),
                },
                Instr::Ret,
            ],
        ));
        assert_eq!(
            Code::decode(&shared_local).unwrap_err(),
            ValidateError::SharedFunctionCallsLocal { shared: 0 }
        );
        shared_local.shared[0].body[0] = Instr::Const { dst: 99, value: 1 };
        assert!(matches!(
            Code::decode(&shared_local),
            Err(ValidateError::BadRegister { reg: 99, .. })
        ));
        let mut no_entry = single(Function::new("entry", vec![Instr::Ret]));
        no_entry.lambdas[0].functions.clear();
        assert!(matches!(
            Code::decode(&no_entry),
            Err(ValidateError::BadFunctionRef { .. })
        ));
        let mut dangling = single(Function::new("entry", vec![Instr::Ret]));
        dangling.tables[0].entries[0].action = crate::program::MatchAction::Invoke {
            lambda: 3,
            params: vec![],
        };
        assert!(matches!(
            Code::decode(&dangling),
            Err(ValidateError::BadLambdaRef { lambda: 3, .. })
        ));
        // The one-shot path reports the decode failure as a typed error.
        let mut mem = ObjectMemory::for_lambda(&bad_reg.lambdas[0]);
        let err = run_to_completion(
            &Arc::new(bad_reg),
            0,
            RequestCtx::default(),
            &mut mem,
            10,
            |_, _| Bytes::new(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ExecError::InvalidProgram(ValidateError::BadRegister { reg: 32, .. })
        ));
    }

    /// What stepping `body` one instruction at a time with `fuel` leaves:
    /// registers, object 0, emitted bytes, instructions counted, scalar
    /// accesses, and the fault that stopped it (`None` at `Ret`).
    /// Covers the ops [`random_body`] generates.
    #[allow(clippy::type_complexity)]
    fn reference(
        body: &[Instr],
        obj_size: usize,
        mut fuel: u64,
    ) -> (
        [u64; NUM_REGISTERS],
        Vec<u8>,
        Vec<u8>,
        u64,
        u64,
        Option<ExecError>,
    ) {
        let (mut regs, mut obj, mut out) = ([0u64; NUM_REGISTERS], vec![0u8; obj_size], vec![]);
        let (mut pc, mut instrs, mut scalar) = (0, 0, 0);
        let fault = loop {
            if fuel == 0 {
                break Some(ExecError::FuelExhausted);
            }
            fuel -= 1;
            instrs += 1;
            let range = |off: u64, width: Width| obj_range(obj_size, 0, off, width.bytes() as u64);
            match body[pc] {
                Instr::Const { dst, value } => regs[r(dst)] = value,
                Instr::Alu { op, dst, a, b } => regs[r(dst)] = op.apply(regs[r(a)], regs[r(b)]),
                Instr::AluImm { op, dst, a, imm } => regs[r(dst)] = op.apply(regs[r(a)], imm),
                Instr::Store {
                    addr, src, width, ..
                } => match range(regs[r(addr)], width) {
                    Ok(at) => {
                        be_write(&mut obj[at], regs[r(src)], width);
                        scalar += 1;
                    }
                    Err(e) => break Some(e),
                },
                Instr::Load {
                    dst, addr, width, ..
                } => match range(regs[r(addr)], width) {
                    Ok(at) => {
                        regs[r(dst)] = be_read(&obj[at], width);
                        scalar += 1;
                    }
                    Err(e) => break Some(e),
                },
                Instr::Emit { src, width } => be_append(&mut out, regs[r(src)], width),
                Instr::Jump { target } => {
                    pc = target as usize;
                    continue;
                }
                Instr::Branch { cmp, a, b, target } if cmp.test(regs[r(a)], regs[r(b)]) => {
                    pc = target as usize;
                    continue;
                }
                Instr::Branch { .. } => {}
                Instr::Ret => break None,
                ref other => unreachable!("not generated: {other:?}"),
            }
            pc += 1;
        };
        (regs, obj, out, instrs, scalar, fault)
    }

    /// A body over registers 1–4 that forms every fusable pair often,
    /// sometimes faults on an object access, branches only forwards, and
    /// sometimes starts with a jump into its middle (possibly onto the
    /// second op of a fused pair).
    fn random_body(rng: &mut rand::rngs::SmallRng, obj_size: u64) -> Vec<Instr> {
        use rand::Rng;
        let widths = [Width::B1, Width::B2, Width::B4, Width::B8];
        let len = rng.gen_range(2u32..14);
        let mut body = vec![Instr::Const {
            dst: 4,
            value: rng.gen_range(0..obj_size + 2),
        }];
        if rng.gen_bool(0.3) {
            // Past the `Const`, the jump itself and at least one op.
            body.push(Instr::Jump { target: 0 });
        }
        for _ in 0..len {
            let (dst, a, b) = (
                rng.gen_range(1..4),
                rng.gen_range(1..4),
                rng.gen_range(1..4),
            );
            let width = widths[rng.gen_range(0usize..4)];
            let (shr, and) = (AluOp::Shr, AluOp::And);
            let (mul, add) = (AluOp::Mul, AluOp::Add);
            let (x, y) = (rng.gen_range(1..4), rng.gen_range(1..4));
            match rng.gen_range(0..13) {
                0 => body.push(Instr::Const {
                    dst,
                    value: rng.gen(),
                }),
                1 => body.push(Instr::AluImm {
                    op: shr,
                    dst,
                    a,
                    imm: rng.gen_range(0..80),
                }),
                2 => body.push(Instr::AluImm {
                    op: and,
                    dst,
                    a: dst,
                    imm: rng.gen(),
                }),
                3 => body.push(Instr::Alu { op: mul, dst, a, b }),
                4 => body.push(Instr::Alu { op: add, dst, a, b }),
                5 => body.push(Instr::Store {
                    obj: ObjId(0),
                    addr: 4,
                    src: a,
                    width,
                }),
                6 => body.push(Instr::Emit { src: a, width }),
                7 => body.push(Instr::Load {
                    dst,
                    obj: ObjId(0),
                    addr: 4,
                    width,
                }),
                // The fusable shapes, with operands that sometimes alias.
                8 => body.extend([
                    Instr::AluImm {
                        op: shr,
                        dst,
                        a,
                        imm: rng.gen_range(0..80),
                    },
                    Instr::AluImm {
                        op: and,
                        dst,
                        a: dst,
                        imm: rng.gen(),
                    },
                ]),
                9 => body.extend([
                    Instr::Const {
                        dst,
                        value: rng.gen(),
                    },
                    Instr::Alu {
                        op: mul,
                        dst,
                        a: x,
                        b: y,
                    },
                ]),
                10 => body.extend([
                    Instr::Alu { op: add, dst, a, b },
                    Instr::Alu {
                        op: add,
                        dst,
                        a: x,
                        b: y,
                    },
                ]),
                11 => body.extend([
                    Instr::Store {
                        obj: ObjId(0),
                        addr: 4,
                        src: a,
                        width,
                    },
                    Instr::Emit {
                        src: a,
                        width: widths[rng.gen_range(0usize..4)],
                    },
                ]),
                // Small constants, so the registers (zero at start) often match.
                _ => body.extend([
                    Instr::Const {
                        dst,
                        value: rng.gen_range(0..3),
                    },
                    Instr::Branch {
                        cmp: Cmp::Eq,
                        a: x,
                        b: y,
                        target: u32::MAX,
                    },
                ]),
            }
        }
        body.push(Instr::Ret);
        let end = body.len() as u32;
        if let Instr::Jump { target } = &mut body[1] {
            *target = rng.gen_range(3..end);
        }
        for (at, instr) in body.iter_mut().enumerate() {
            if let Instr::Branch { target, .. } = instr {
                *target = rng.gen_range(at as u32 + 1..end);
            }
        }
        body
    }

    /// Per-run fuel and fused pairs change nothing observable: at every
    /// fuel limit, on random bodies, the loop leaves exactly the state of
    /// a one-instruction-at-a-time reference, faults and jumps included.
    #[test]
    fn fused_runs_match_single_stepping_at_every_fuel_limit() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(28);
        // Fused ops of each kind, then jumps onto a fused pair's second op.
        let mut fused = [0usize; 6];
        for case in 0..400 {
            let body = random_body(&mut rng, 16);
            let p = one_lambda(
                Function::new("f", body.clone()),
                vec![MemObject::zeroed("o", 16)],
            );
            let code = Arc::new(Code::decode(&p).expect("generated bodies decode"));
            for op in &code.ops {
                match op {
                    Op::ShrAndImm { .. } => fused[0] += 1,
                    Op::MulConst { .. } => fused[1] += 1,
                    Op::Add3 { .. } => fused[2] += 1,
                    Op::StoreEmit { .. } => fused[3] += 1,
                    Op::ConstBranchEq { .. } => fused[4] += 1,
                    _ => {}
                }
            }
            if let Instr::Jump { target } = body[1] {
                fused[5] += usize::from(matches!(
                    code.ops[target as usize - 1],
                    Op::ShrAndImm { .. }
                        | Op::MulConst { .. }
                        | Op::Add3 { .. }
                        | Op::StoreEmit { .. }
                        | Op::ConstBranchEq { .. }
                ));
            }
            for fuel in 0..=body.len() as u64 + 1 {
                let (regs, obj, out, instrs, scalar, fault) = reference(&body, 16, fuel);
                let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
                let mut exec = Execution::start(Arc::clone(&code), 0, RequestCtx::default(), fuel);
                let emitted = match exec.run(&mut mem) {
                    Ok(StepOutcome::Done(done)) => {
                        assert_eq!(fault, None, "case {case} fuel {fuel}");
                        done.response.to_vec()
                    }
                    Ok(other) => panic!("case {case}: unexpected {other:?}"),
                    Err(e) => {
                        assert_eq!(Some(e), fault, "case {case} fuel {fuel}");
                        exec.emitted.clone()
                    }
                };
                let at = format!("case {case} fuel {fuel}: {body:?}");
                assert_eq!(exec.regs, regs, "{at}");
                assert_eq!(mem.object(0), &obj[..], "{at}");
                assert_eq!(emitted, out, "{at}");
                assert_eq!(exec.stats.instrs, instrs, "{at}");
                assert_eq!(exec.stats.obj_scalar, [scalar], "{at}");
                assert_eq!(exec.stats.emitted_bytes, out.len() as u64, "{at}");
            }
        }
        assert!(
            fused.iter().all(|&n| n >= 10),
            "every case often: {fused:?}"
        );
    }

    #[test]
    fn scalar_io_is_big_endian_and_width_masked() {
        let data = [1, 2, 3, 4, 5, 6, 7, 8, 9];
        assert_eq!(be_read(&data, Width::B1), 0x01);
        assert_eq!(be_read(&data, Width::B2), 0x0102);
        assert_eq!(be_read(&data, Width::B4), 0x0102_0304);
        assert_eq!(be_read(&data, Width::B8), 0x0102_0304_0506_0708);
        let mut out = [0u8; 4];
        be_write(&mut out, 0xAABB_CCDD, Width::B2);
        assert_eq!(out, [0xCC, 0xDD, 0, 0]);
        let mut emitted = Vec::new();
        be_append(&mut emitted, 0xAABB_CCDD, Width::B4);
        be_append(&mut emitted, 0x1FF, Width::B1);
        assert_eq!(emitted, [0xAA, 0xBB, 0xCC, 0xDD, 0xFF]);
    }
}
