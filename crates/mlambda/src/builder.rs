//! An ergonomic assembler for authoring Match+Lambda functions.
//!
//! Hand-writing `Vec<Instr>` with numeric branch targets is error-prone;
//! [`FnBuilder`] provides named labels with backpatching so the workloads
//! crate can express lambdas readably.
//!
//! # Examples
//!
//! ```
//! use lnic_mlambda::builder::FnBuilder;
//! use lnic_mlambda::ir::{AluOp, Cmp, Width};
//!
//! // Emit payload_len * 2 as a 4-byte value.
//! let f = FnBuilder::new("double")
//!     .load_payload_len(1)
//!     .alu_imm(AluOp::Mul, 1, 1, 2)
//!     .emit(1, Width::B4)
//!     .ret_const(0)
//!     .build();
//! assert_eq!(f.name, "double");
//! ```

use std::collections::HashMap;

use crate::ir::{AluOp, Cmp, FuncRef, Function, HeaderField, Instr, ObjId, Reg, Width};

/// A named jump target within a function being built.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Builds one [`Function`] with symbolic labels.
#[derive(Debug)]
pub struct FnBuilder {
    name: String,
    body: Vec<Instr>,
    /// Label definitions: label -> instruction index.
    defs: HashMap<Label, u32>,
    /// Uses awaiting backpatch: instruction index -> label.
    uses: Vec<(usize, Label)>,
    next_label: usize,
}

impl FnBuilder {
    /// Starts building a function.
    pub fn new(name: impl Into<String>) -> Self {
        FnBuilder {
            name: name.into(),
            body: Vec::new(),
            defs: HashMap::new(),
            uses: Vec::new(),
            next_label: 0,
        }
    }

    /// Allocates a fresh, not-yet-placed label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Places `label` at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already placed.
    pub fn place(mut self, label: Label) -> Self {
        let prev = self.defs.insert(label, self.body.len() as u32);
        assert!(prev.is_none(), "label placed twice");
        self
    }

    /// Appends a raw instruction.
    pub fn instr(mut self, i: Instr) -> Self {
        self.body.push(i);
        self
    }

    /// `r[dst] = value`
    pub fn constant(self, dst: Reg, value: u64) -> Self {
        self.instr(Instr::Const { dst, value })
    }

    /// `r[dst] = r[src]`
    pub fn mov(self, dst: Reg, src: Reg) -> Self {
        self.instr(Instr::Mov { dst, src })
    }

    /// `r[dst] = r[a] op r[b]`
    pub fn alu(self, op: AluOp, dst: Reg, a: Reg, b: Reg) -> Self {
        self.instr(Instr::Alu { op, dst, a, b })
    }

    /// `r[dst] = r[a] op imm`
    pub fn alu_imm(self, op: AluOp, dst: Reg, a: Reg, imm: u64) -> Self {
        self.instr(Instr::AluImm { op, dst, a, imm })
    }

    /// `r[dst] = headers[field]`
    pub fn load_hdr(self, dst: Reg, field: HeaderField) -> Self {
        self.instr(Instr::LoadHdr { dst, field })
    }

    /// `r[dst] = payload length`
    pub fn load_payload_len(self, dst: Reg) -> Self {
        self.load_hdr(dst, HeaderField::PayloadLen)
    }

    /// Scalar object load.
    pub fn load(self, dst: Reg, obj: ObjId, addr: Reg, width: Width) -> Self {
        self.instr(Instr::Load {
            dst,
            obj,
            addr,
            width,
        })
    }

    /// Scalar object store.
    pub fn store(self, obj: ObjId, addr: Reg, src: Reg, width: Width) -> Self {
        self.instr(Instr::Store {
            obj,
            addr,
            src,
            width,
        })
    }

    /// Scalar payload load.
    pub fn load_payload(self, dst: Reg, addr: Reg, width: Width) -> Self {
        self.instr(Instr::LoadPayload { dst, addr, width })
    }

    /// Appends register bytes to the response.
    pub fn emit(self, src: Reg, width: Width) -> Self {
        self.instr(Instr::Emit { src, width })
    }

    /// Appends object bytes to the response.
    pub fn emit_obj(self, obj: ObjId, off: Reg, len: Reg) -> Self {
        self.instr(Instr::EmitObj { obj, off, len })
    }

    /// Copies payload bytes into an object.
    pub fn payload_to_obj(self, obj: ObjId, src_off: Reg, dst_off: Reg, len: Reg) -> Self {
        self.instr(Instr::PayloadToObj {
            obj,
            src_off,
            dst_off,
            len,
        })
    }

    /// Conditional branch to `label`.
    pub fn branch(mut self, cmp: Cmp, a: Reg, b: Reg, label: Label) -> Self {
        self.uses.push((self.body.len(), label));
        self.body.push(Instr::Branch {
            cmp,
            a,
            b,
            target: u32::MAX,
        });
        self
    }

    /// Unconditional jump to `label`.
    pub fn jump(mut self, label: Label) -> Self {
        self.uses.push((self.body.len(), label));
        self.body.push(Instr::Jump { target: u32::MAX });
        self
    }

    /// Calls a lambda-local function.
    pub fn call_local(self, func: u16) -> Self {
        self.instr(Instr::Call {
            func: FuncRef::Local(func),
        })
    }

    /// Issues a network RPC (see [`Instr::NetRpc`]).
    #[allow(clippy::too_many_arguments)]
    pub fn net_rpc(
        self,
        service: u16,
        req_obj: ObjId,
        req_off: Reg,
        req_len: Reg,
        resp_obj: ObjId,
        resp_off: Reg,
        resp_cap: Reg,
        resp_len_dst: Reg,
    ) -> Self {
        self.instr(Instr::NetRpc {
            service,
            req_obj,
            req_off,
            req_len,
            resp_obj,
            resp_off,
            resp_cap,
            resp_len_dst,
        })
    }

    /// Returns with `r0` unchanged.
    pub fn ret(self) -> Self {
        self.instr(Instr::Ret)
    }

    /// Sets `r0 = code` and returns.
    pub fn ret_const(self, code: u64) -> Self {
        self.constant(crate::ir::RET_REG, code).ret()
    }

    /// Finishes the function, backpatching all label uses.
    ///
    /// # Panics
    ///
    /// Panics if any used label was never placed.
    pub fn build(self) -> Function {
        let mut body = self.body;
        for (idx, label) in self.uses {
            let target = *self
                .defs
                .get(&label)
                .unwrap_or_else(|| panic!("label {label:?} used but never placed"));
            match &mut body[idx] {
                Instr::Branch { target: t, .. } | Instr::Jump { target: t } => *t = target,
                other => unreachable!("label use recorded on non-branch {other:?}"),
            }
        }
        Function::new(self.name, body)
    }
}

/// Builds a counted loop: `for i in 0..r[count]` running `body` with the
/// loop index in `idx_reg`. `scratch` must differ from `idx_reg`.
///
/// This is a convenience for the common memcpy/transform loops in the
/// benchmark lambdas.
pub fn counted_loop(
    mut b: FnBuilder,
    idx_reg: Reg,
    count_reg: Reg,
    body: impl FnOnce(FnBuilder) -> FnBuilder,
) -> FnBuilder {
    let head = b.label();
    let exit = b.label();
    b = b
        .constant(idx_reg, 0)
        .place(head)
        .branch(Cmp::Ge, idx_reg, count_reg, exit);
    b = body(b);
    b.alu_imm(AluOp::Add, idx_reg, idx_reg, 1)
        .jump(head)
        .place(exit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_to_completion, ObjectMemory, RequestCtx};
    use crate::program::{Lambda, MemObject, Program, WorkloadId};
    use bytes::Bytes;

    fn run_one(entry: Function, objects: Vec<MemObject>, ctx: RequestCtx) -> Bytes {
        let mut l = Lambda::new("t", WorkloadId(1), entry);
        for o in objects {
            l.add_object(o);
        }
        let mut p = Program::new();
        p.add_lambda(l, vec![]);
        p.validate().expect("valid");
        let p = std::sync::Arc::new(p);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        run_to_completion(&p, 0, ctx, &mut mem, 1_000_000, |_, _| Bytes::new())
            .expect("completes")
            .response
    }

    #[test]
    fn labels_backpatch_forward_and_backward() {
        // Sum 0..5 via a backward loop label and a forward exit label.
        let mut b = FnBuilder::new("sum");
        let head = b.label();
        let exit = b.label();
        let f = b
            .constant(1, 0) // i
            .constant(2, 5) // n
            .constant(3, 0) // acc
            .place(head)
            .branch(Cmp::Ge, 1, 2, exit)
            .alu(AluOp::Add, 3, 3, 1)
            .alu_imm(AluOp::Add, 1, 1, 1)
            .jump(head)
            .place(exit)
            .emit(3, Width::B1)
            .ret_const(0)
            .build();
        let out = run_one(f, vec![], RequestCtx::default());
        assert_eq!(&out[..], &[10]);
    }

    #[test]
    fn counted_loop_helper_runs_body_n_times() {
        let b = FnBuilder::new("loop").constant(2, 4).constant(3, 0);
        let b = counted_loop(b, 1, 2, |b| b.alu_imm(AluOp::Add, 3, 3, 2));
        let f = b.emit(3, Width::B1).ret_const(0).build();
        let out = run_one(f, vec![], RequestCtx::default());
        assert_eq!(&out[..], &[8]);
    }

    #[test]
    #[should_panic(expected = "used but never placed")]
    fn unplaced_label_panics() {
        let mut b = FnBuilder::new("bad");
        let l = b.label();
        let _ = b.jump(l).ret().build();
    }

    #[test]
    #[should_panic(expected = "label placed twice")]
    fn double_place_panics() {
        let mut b = FnBuilder::new("bad");
        let l = b.label();
        let _ = b.place(l).place(l);
    }

    #[test]
    fn emit_obj_via_builder() {
        let f = FnBuilder::new("web")
            .constant(1, 0)
            .constant(2, 3)
            .emit_obj(ObjId(0), 1, 2)
            .ret_const(0)
            .build();
        let out = run_one(
            f,
            vec![MemObject::with_data("c", b"abc".to_vec())],
            RequestCtx::default(),
        );
        assert_eq!(&out[..], b"abc");
    }
}
