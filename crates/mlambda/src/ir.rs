//! The Match+Lambda intermediate representation.
//!
//! Lambdas are authored (or generated) as small register-machine programs,
//! standing in for the paper's Micro-C functions (§4.1). The instruction
//! set deliberately mirrors what NPU cores support: integer ALU ops,
//! header/metadata access, bounded memory objects, bulk copies, and an
//! explicit network RPC — and deliberately omits what they do *not*
//! support (§3.1b): floating point, dynamic memory allocation, and
//! recursion (rejected at validation time).

use std::fmt;

/// A general-purpose register index. NPU threads expose
/// [`NUM_REGISTERS`] registers.
pub type Reg = u8;

/// Number of general-purpose registers per thread (Netronome NPUs expose
/// 32 per-thread GPRs).
pub const NUM_REGISTERS: usize = 32;

/// By convention, a function's return value (and the lambda's return code)
/// is left in register 0.
pub const RET_REG: Reg = 0;

/// Access width of a scalar memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Width {
    /// One byte.
    B1,
    /// Two bytes (big-endian).
    B2,
    /// Four bytes (big-endian).
    B4,
    /// Eight bytes (big-endian).
    B8,
}

impl Width {
    /// Width in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            Width::B1 => 1,
            Width::B2 => 2,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }
}

/// Integer ALU operations (wrapping semantics, as on the NPU).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (by `b & 63`).
    Shl,
    /// Logical shift right (by `b & 63`).
    Shr,
    /// Unsigned division (x / 0 = 0, as NPU helper libraries define it).
    Div,
    /// Unsigned remainder (x % 0 = x).
    Mod,
}

impl AluOp {
    /// Applies the operation.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Div => a.checked_div(b).unwrap_or(0),
            AluOp::Mod => a.checked_rem(b).unwrap_or(a),
        }
    }
}

/// Branch comparison predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b` (unsigned)
    Lt,
    /// `a >= b` (unsigned)
    Ge,
}

impl Cmp {
    /// Evaluates the predicate.
    pub fn test(self, a: u64, b: u64) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Ge => a >= b,
        }
    }
}

/// A parsed header field readable by a lambda (the `EXTRACTED_HEADERS_T`
/// of Listing 1). The parser stage extracts exactly the fields a program
/// uses (§4, "λ-NIC infers which packet headers are used by each lambda").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HeaderField {
    /// λ-NIC header: target workload id.
    WorkloadId,
    /// λ-NIC header: request id.
    RequestId,
    /// λ-NIC header: fragment index.
    FragIndex,
    /// λ-NIC header: fragment count.
    FragCount,
    /// λ-NIC header: return code.
    ReturnCode,
    /// IPv4 source address.
    SrcIp,
    /// IPv4 destination address.
    DstIp,
    /// UDP source port.
    SrcPort,
    /// UDP destination port.
    DstPort,
    /// Length of the request payload in bytes.
    PayloadLen,
}

impl HeaderField {
    /// All fields, in a stable order.
    pub const ALL: [HeaderField; 10] = [
        HeaderField::WorkloadId,
        HeaderField::RequestId,
        HeaderField::FragIndex,
        HeaderField::FragCount,
        HeaderField::ReturnCode,
        HeaderField::SrcIp,
        HeaderField::DstIp,
        HeaderField::SrcPort,
        HeaderField::DstPort,
        HeaderField::PayloadLen,
    ];

    /// Which protocol header this field belongs to (used by the generated
    /// parser to decide which headers must be extracted).
    pub fn header_class(self) -> HeaderClass {
        match self {
            HeaderField::WorkloadId
            | HeaderField::RequestId
            | HeaderField::FragIndex
            | HeaderField::FragCount
            | HeaderField::ReturnCode => HeaderClass::Lambda,
            HeaderField::SrcIp | HeaderField::DstIp => HeaderClass::Ipv4,
            HeaderField::SrcPort | HeaderField::DstPort => HeaderClass::Udp,
            HeaderField::PayloadLen => HeaderClass::Udp,
        }
    }
}

/// Protocol headers the generated parser can extract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HeaderClass {
    /// Ethernet (always parsed).
    Ethernet,
    /// IPv4.
    Ipv4,
    /// UDP.
    Udp,
    /// λ-NIC lambda header.
    Lambda,
}

/// Index of a memory object within its lambda's object table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u16);

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Reference to a callable function: local to the lambda, or in the
/// program-level shared library produced by lambda coalescing (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FuncRef {
    /// `functions[i]` of the current lambda.
    Local(u16),
    /// `shared[i]` of the program.
    Shared(u16),
}

/// One IR instruction.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `r[dst] = value`
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: u64,
    },
    /// `r[dst] = r[src]`
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `r[dst] = r[a] op r[b]`
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// `r[dst] = r[a] op imm`
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Immediate right operand.
        imm: u64,
    },
    /// `r[dst] = headers[field]`
    LoadHdr {
        /// Destination register.
        dst: Reg,
        /// Header field to read.
        field: HeaderField,
    },
    /// `r[dst] = match_data[idx]` — parameters attached to the matched
    /// table entry (the `MATCH_DATA_T` of Listing 1).
    LoadMatchData {
        /// Destination register.
        dst: Reg,
        /// Parameter index.
        idx: u8,
    },
    /// Scalar load from a memory object at byte offset `r[addr]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Object to read.
        obj: ObjId,
        /// Register holding the byte offset.
        addr: Reg,
        /// Access width.
        width: Width,
    },
    /// Scalar store to a memory object at byte offset `r[addr]`.
    Store {
        /// Object to write.
        obj: ObjId,
        /// Register holding the byte offset.
        addr: Reg,
        /// Source register.
        src: Reg,
        /// Access width.
        width: Width,
    },
    /// `r[dst] = request_payload[r[addr] ..][..width]` (big-endian).
    LoadPayload {
        /// Destination register.
        dst: Reg,
        /// Register holding the byte offset.
        addr: Reg,
        /// Access width.
        width: Width,
    },
    /// Appends the low `width` bytes of `r[src]` (big-endian) to the
    /// response payload.
    Emit {
        /// Source register.
        src: Reg,
        /// Bytes to append.
        width: Width,
    },
    /// Bulk copy: appends `r[len]` bytes of `obj` starting at `r[off]` to
    /// the response payload (the `memcpy` of Listing 2).
    EmitObj {
        /// Source object.
        obj: ObjId,
        /// Register holding the start offset.
        off: Reg,
        /// Register holding the byte count.
        len: Reg,
    },
    /// Bulk copy: reads `r[len]` bytes of the request payload starting at
    /// `r[src_off]` into `obj` at `r[dst_off]`.
    PayloadToObj {
        /// Destination object.
        obj: ObjId,
        /// Register holding the payload start offset.
        src_off: Reg,
        /// Register holding the object start offset.
        dst_off: Reg,
        /// Register holding the byte count.
        len: Reg,
    },
    /// Conditional branch within the current function.
    Branch {
        /// Predicate.
        cmp: Cmp,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Unconditional jump within the current function.
    Jump {
        /// Target instruction index.
        target: u32,
    },
    /// Calls another function; its `Ret` resumes after this instruction.
    Call {
        /// Callee.
        func: FuncRef,
    },
    /// Returns from the current function (from the entry function: ends
    /// the lambda with return code `r[0]`).
    Ret,
    /// Synchronous RPC to an external service (§4.2-D3): sends
    /// `r[req_len]` bytes of `req_obj` at `r[req_off]`, then writes the
    /// response into `resp_obj` at `r[resp_off]` (truncated to
    /// `r[resp_cap]` bytes) and its length into `r[resp_len_dst]`.
    NetRpc {
        /// Logical service id (resolved by the runtime).
        service: u16,
        /// Object holding the request bytes.
        req_obj: ObjId,
        /// Register holding the request start offset.
        req_off: Reg,
        /// Register holding the request length.
        req_len: Reg,
        /// Object receiving the response bytes.
        resp_obj: ObjId,
        /// Register holding the response start offset.
        resp_off: Reg,
        /// Register holding the response capacity.
        resp_cap: Reg,
        /// Register receiving the response length.
        resp_len_dst: Reg,
    },
}

impl Instr {
    /// Registers read by this instruction (at most four; no allocation).
    pub fn reads(&self) -> impl Iterator<Item = Reg> {
        let (regs, n) = match *self {
            Instr::Const { .. }
            | Instr::LoadHdr { .. }
            | Instr::LoadMatchData { .. }
            | Instr::Jump { .. }
            | Instr::Call { .. } => ([0; 4], 0),
            Instr::Mov { src: r, .. }
            | Instr::AluImm { a: r, .. }
            | Instr::Load { addr: r, .. }
            | Instr::LoadPayload { addr: r, .. }
            | Instr::Emit { src: r, .. } => ([r, 0, 0, 0], 1),
            Instr::Alu { a, b, .. }
            | Instr::Branch { a, b, .. }
            | Instr::Store {
                addr: a, src: b, ..
            }
            | Instr::EmitObj { off: a, len: b, .. } => ([a, b, 0, 0], 2),
            Instr::PayloadToObj {
                src_off,
                dst_off,
                len,
                ..
            } => ([src_off, dst_off, len, 0], 3),
            Instr::Ret => ([RET_REG, 0, 0, 0], 1),
            Instr::NetRpc {
                req_off,
                req_len,
                resp_off,
                resp_cap,
                ..
            } => ([req_off, req_len, resp_off, resp_cap], 4),
        };
        regs.into_iter().take(n)
    }

    /// Register written by this instruction, if any.
    pub fn writes(&self) -> Option<Reg> {
        match *self {
            Instr::Const { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Alu { dst, .. }
            | Instr::AluImm { dst, .. }
            | Instr::LoadHdr { dst, .. }
            | Instr::LoadMatchData { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::LoadPayload { dst, .. } => Some(dst),
            Instr::NetRpc { resp_len_dst, .. } => Some(resp_len_dst),
            _ => None,
        }
    }

    /// The memory object this instruction touches, with its access kind,
    /// if any. `NetRpc` touches two objects; this returns the request
    /// object (callers that need both use [`Instr::objects`]).
    pub fn object(&self) -> Option<(ObjId, Access)> {
        self.objects().next()
    }

    /// All memory objects this instruction touches (no allocation).
    pub fn objects(&self) -> impl Iterator<Item = (ObjId, Access)> {
        let objs = match *self {
            Instr::Load { obj, .. } | Instr::EmitObj { obj, .. } => {
                [Some((obj, Access::Read)), None]
            }
            Instr::Store { obj, .. } | Instr::PayloadToObj { obj, .. } => {
                [Some((obj, Access::Write)), None]
            }
            Instr::NetRpc {
                req_obj, resp_obj, ..
            } => [
                Some((req_obj, Access::Read)),
                Some((resp_obj, Access::Write)),
            ],
            _ => [None, None],
        };
        objs.into_iter().flatten()
    }

    /// The header field read, if any (drives parser inference).
    pub fn header_field(&self) -> Option<HeaderField> {
        match *self {
            Instr::LoadHdr { field, .. } => Some(field),
            Instr::LoadPayload { .. } | Instr::PayloadToObj { .. } => Some(HeaderField::PayloadLen),
            _ => None,
        }
    }

    /// `true` for instructions that unconditionally leave the current
    /// straight-line position (jump or return).
    pub fn is_terminator(&self) -> bool {
        matches!(self, Instr::Jump { .. } | Instr::Ret)
    }
}

/// Memory access direction for analysis (§4, "λ-NIC analyzes the
/// memory-access patterns (i.e., read, write, or both)").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// The object is read.
    Read,
    /// The object is written.
    Write,
}

/// A function: a named straight-line/branching body of instructions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Function {
    /// Name (for diagnostics and deduplication reports).
    pub name: String,
    /// Instruction body; execution begins at index 0.
    pub body: Vec<Instr>,
}

impl Function {
    /// Creates a function.
    pub fn new(name: impl Into<String>, body: Vec<Instr>) -> Self {
        Function {
            name: name.into(),
            body,
        }
    }
}

/// Lambda return codes (mirrors `RETURN_FORWARD` etc. of Listing 2).
pub mod retcode {
    /// Forward the built response back to the requester.
    pub const FORWARD: u64 = 0;
    /// Drop the request silently.
    pub const DROP: u64 = 1;
    /// Punt the request to the host OS.
    pub const TO_HOST: u64 = 2;
    /// The lambda observed an application-level error.
    pub const ERROR: u64 = 3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_semantics() {
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u64::MAX);
        assert_eq!(AluOp::Mul.apply(3, 5), 15);
        assert_eq!(AluOp::Shl.apply(1, 65), 2); // shift modulo 64
        assert_eq!(AluOp::Shr.apply(8, 2), 2);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Div.apply(17, 5), 3);
        assert_eq!(AluOp::Div.apply(17, 0), 0);
        assert_eq!(AluOp::Mod.apply(17, 5), 2);
        assert_eq!(AluOp::Mod.apply(17, 0), 17);
    }

    #[test]
    fn cmp_predicates() {
        assert!(Cmp::Eq.test(4, 4));
        assert!(Cmp::Ne.test(4, 5));
        assert!(Cmp::Lt.test(4, 5));
        assert!(Cmp::Ge.test(5, 5));
        assert!(!Cmp::Lt.test(5, 5));
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::B1.bytes(), 1);
        assert_eq!(Width::B8.bytes(), 8);
    }

    #[test]
    fn reads_and_writes_are_reported() {
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: 3,
            a: 1,
            b: 2,
        };
        assert_eq!(i.reads().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(i.writes(), Some(3));
        assert!(Instr::Ret.reads().any(|r| r == RET_REG));
        assert_eq!(Instr::Ret.writes(), None);
    }

    #[test]
    fn net_rpc_touches_both_objects() {
        let i = Instr::NetRpc {
            service: 1,
            req_obj: ObjId(0),
            req_off: 1,
            req_len: 2,
            resp_obj: ObjId(1),
            resp_off: 3,
            resp_cap: 4,
            resp_len_dst: 5,
        };
        assert_eq!(
            i.objects().collect::<Vec<_>>(),
            vec![(ObjId(0), Access::Read), (ObjId(1), Access::Write)]
        );
        assert_eq!(i.writes(), Some(5));
    }

    #[test]
    fn header_classes() {
        assert_eq!(HeaderField::WorkloadId.header_class(), HeaderClass::Lambda);
        assert_eq!(HeaderField::SrcIp.header_class(), HeaderClass::Ipv4);
        assert_eq!(HeaderField::DstPort.header_class(), HeaderClass::Udp);
    }

    #[test]
    fn terminators() {
        assert!(Instr::Ret.is_terminator());
        assert!(Instr::Jump { target: 0 }.is_terminator());
        assert!(!Instr::Const { dst: 0, value: 0 }.is_terminator());
    }
}
