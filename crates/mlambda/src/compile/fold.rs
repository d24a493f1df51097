//! Constant folding and peephole simplification (an extension beyond the
//! paper's three passes; off by default so Figure 9 is reproduced with
//! exactly the paper's pipeline).
//!
//! Within each basic block the pass tracks registers holding known
//! constants and:
//!
//! - folds `Alu`/`AluImm` over known operands into `Const`;
//! - resolves `Branch` over known operands into `Jump` (or removes it);
//! - drops no-ops (`Mov r, r`, `x+0`, `x*1`, `x|0`, `x<<0`, …).
//!
//! Knowledge is reset at branch-target boundaries and across `Call`s
//! (callees share the register file on NPUs) and `NetRpc`s.

use std::collections::{HashMap, HashSet};

use crate::ir::{AluOp, Function, Instr};
use crate::program::Program;

/// Statistics reported by the folding pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoldReport {
    /// ALU instructions folded into constants.
    pub folded: usize,
    /// Branches resolved statically.
    pub branches_resolved: usize,
    /// No-op instructions removed.
    pub noops_removed: usize,
    /// Side-effect-free writes shadowed by a later write (no intervening
    /// read) removed.
    pub shadowed_removed: usize,
}

/// Runs the pass over every function of every lambda (and the shared
/// library). Returns the transformed program and a report.
pub fn fold_constants(program: &Program) -> (Program, FoldReport) {
    let mut p = program.clone();
    let mut report = FoldReport::default();
    let pass = |f: &mut Function, report: &mut FoldReport| {
        // Fold and clean up the dead chains folding exposes; a few
        // rounds reach a fixpoint on realistic code.
        for _ in 0..4 {
            let before = (report.folded, report.shadowed_removed, report.noops_removed);
            fold_function(f, report);
            report.shadowed_removed += eliminate_shadowed_writes(f);
            if (report.folded, report.shadowed_removed, report.noops_removed) == before {
                break;
            }
        }
    };
    for lambda in &mut p.lambdas {
        for f in &mut lambda.functions {
            pass(f, &mut report);
        }
    }
    for f in &mut p.shared {
        pass(f, &mut report);
    }
    (p, report)
}

/// Removes side-effect-free register writes that are overwritten later in
/// the same basic block with no intervening read, call, or block
/// boundary. Returns the number removed.
fn eliminate_shadowed_writes(f: &mut Function) -> usize {
    let targets: HashSet<u32> = f
        .body
        .iter()
        .filter_map(|i| match i {
            Instr::Branch { target, .. } | Instr::Jump { target } => Some(*target),
            _ => None,
        })
        .collect();

    let n = f.body.len();
    let mut dead = vec![false; n];
    #[allow(clippy::needless_range_loop)] // pc also indexes `dead`
    for pc in 0..n {
        let instr = &f.body[pc];
        // Only pure register writes are candidates.
        let candidate = matches!(
            instr,
            Instr::Const { .. } | Instr::Mov { .. } | Instr::Alu { .. } | Instr::AluImm { .. }
        );
        if !candidate {
            continue;
        }
        let Some(reg) = instr.writes() else { continue };
        // Scan forward within the block for a shadowing write before any
        // read/boundary.
        for (later_off, later) in f.body[pc + 1..].iter().enumerate() {
            let later_pc = (pc + 1 + later_off) as u32;
            if targets.contains(&later_pc) {
                break; // another block may read the value
            }
            if later.reads().any(|r| r == reg) {
                break;
            }
            // Calls/RPCs may read any register (helpers take register
            // arguments); branches may leave the block.
            if matches!(
                later,
                Instr::Call { .. }
                    | Instr::NetRpc { .. }
                    | Instr::Branch { .. }
                    | Instr::Jump { .. }
                    | Instr::Ret
            ) {
                break;
            }
            if later.writes() == Some(reg) {
                dead[pc] = true;
                break;
            }
        }
    }

    let removed = dead.iter().filter(|&&d| d).count();
    if removed == 0 {
        return 0;
    }
    // Rebuild with target remapping (same technique as folding).
    let mut remap = vec![0u32; n + 1];
    let mut next = 0u32;
    for pc in 0..n {
        remap[pc] = next;
        if !dead[pc] {
            next += 1;
        }
    }
    remap[n] = next;
    let old = std::mem::take(&mut f.body);
    for (pc, instr) in old.into_iter().enumerate() {
        if dead[pc] {
            continue;
        }
        let rewritten = match instr {
            Instr::Jump { target } => Instr::Jump {
                target: remap[target as usize],
            },
            Instr::Branch { cmp, a, b, target } => Instr::Branch {
                cmp,
                a,
                b,
                target: remap[target as usize],
            },
            other => other,
        };
        f.body.push(rewritten);
    }
    removed
}

/// Is this `AluImm` a no-op for any left operand?
fn is_noop_imm(op: AluOp, imm: u64) -> bool {
    matches!(
        (op, imm),
        (AluOp::Add, 0)
            | (AluOp::Sub, 0)
            | (AluOp::Mul, 1)
            | (AluOp::Or, 0)
            | (AluOp::Xor, 0)
            | (AluOp::Shl, 0)
            | (AluOp::Shr, 0)
            | (AluOp::Div, 1)
    )
}

fn fold_function(f: &mut Function, report: &mut FoldReport) {
    // Branch targets open new basic blocks: constant knowledge cannot
    // flow into them (a jump from elsewhere may arrive with different
    // register contents).
    let targets: HashSet<u32> = f
        .body
        .iter()
        .filter_map(|i| match i {
            Instr::Branch { target, .. } | Instr::Jump { target } => Some(*target),
            _ => None,
        })
        .collect();

    let mut known: HashMap<u8, u64> = HashMap::new();
    let mut out: Vec<Instr> = Vec::with_capacity(f.body.len());
    // Map old index -> new index, for target rewriting. Removed
    // instructions map to the next surviving instruction.
    let mut remap: Vec<u32> = Vec::with_capacity(f.body.len());

    for (pc, instr) in f.body.iter().enumerate() {
        if targets.contains(&(pc as u32)) {
            known.clear();
        }
        remap.push(out.len() as u32);

        let rewritten: Option<Instr> = match *instr {
            Instr::Const { dst, value } => {
                known.insert(dst, value);
                Some(instr.clone())
            }
            Instr::Mov { dst, src } => {
                if dst == src {
                    report.noops_removed += 1;
                    None
                } else {
                    match known.get(&src).copied() {
                        Some(v) => {
                            known.insert(dst, v);
                            report.folded += 1;
                            Some(Instr::Const { dst, value: v })
                        }
                        None => {
                            known.remove(&dst);
                            Some(instr.clone())
                        }
                    }
                }
            }
            Instr::Alu { op, dst, a, b } => {
                match (known.get(&a).copied(), known.get(&b).copied()) {
                    (Some(va), Some(vb)) => {
                        let value = op.apply(va, vb);
                        known.insert(dst, value);
                        report.folded += 1;
                        Some(Instr::Const { dst, value })
                    }
                    _ => {
                        known.remove(&dst);
                        Some(instr.clone())
                    }
                }
            }
            Instr::AluImm { op, dst, a, imm } => {
                if let Some(va) = known.get(&a).copied() {
                    let value = op.apply(va, imm);
                    known.insert(dst, value);
                    report.folded += 1;
                    Some(Instr::Const { dst, value })
                } else if dst == a && is_noop_imm(op, imm) {
                    report.noops_removed += 1;
                    None
                } else {
                    known.remove(&dst);
                    Some(instr.clone())
                }
            }
            Instr::Branch { cmp, a, b, target } => {
                match (known.get(&a).copied(), known.get(&b).copied()) {
                    (Some(va), Some(vb)) => {
                        report.branches_resolved += 1;
                        if cmp.test(va, vb) {
                            Some(Instr::Jump { target })
                        } else {
                            None // never taken: fall through
                        }
                    }
                    _ => Some(instr.clone()),
                }
            }
            // Calls share the register file with the callee; RPC resumes
            // clobber the response-length register and helpers may write
            // anything.
            Instr::Call { .. } | Instr::NetRpc { .. } => {
                known.clear();
                Some(instr.clone())
            }
            ref other => {
                if let Some(dst) = other.writes() {
                    known.remove(&dst);
                }
                Some(other.clone())
            }
        };
        if let Some(i) = rewritten {
            out.push(i);
        }
    }
    remap.push(out.len() as u32); // virtual end index

    // A removed trailing instruction could leave the function without a
    // terminator (e.g. a never-taken final branch); validation requires
    // one, and semantics are "fall off the end returns".
    if !out.last().is_some_and(Instr::is_terminator) {
        out.push(Instr::Ret);
    }

    // Rewrite targets through the removal map.
    for i in &mut out {
        if let Instr::Branch { target, .. } | Instr::Jump { target } = i {
            *target = remap[*target as usize];
        }
    }
    f.body = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Cmp;

    fn run_fold(body: Vec<Instr>) -> (Vec<Instr>, FoldReport) {
        let mut f = Function::new("t", body);
        let mut r = FoldReport::default();
        fold_function(&mut f, &mut r);
        (f.body, r)
    }

    #[test]
    fn folds_constant_arithmetic_chains() {
        let (out, r) = run_fold(vec![
            Instr::Const { dst: 1, value: 6 },
            Instr::Const { dst: 2, value: 7 },
            Instr::Alu {
                op: AluOp::Mul,
                dst: 3,
                a: 1,
                b: 2,
            },
            Instr::AluImm {
                op: AluOp::Add,
                dst: 3,
                a: 3,
                imm: 8,
            },
            Instr::Ret,
        ]);
        assert_eq!(out[2], Instr::Const { dst: 3, value: 42 });
        assert_eq!(out[3], Instr::Const { dst: 3, value: 50 });
        assert_eq!(r.folded, 2);
    }

    #[test]
    fn removes_noops_and_rewrites_targets() {
        // 0: const; 1: mov r1,r1 (noop); 2: branch -> 4; 3: const; 4: ret
        let (out, r) = run_fold(vec![
            Instr::Const { dst: 5, value: 1 },
            Instr::Mov { dst: 1, src: 1 },
            Instr::Branch {
                cmp: Cmp::Eq,
                a: 9,
                b: 9,
                target: 4,
            },
            Instr::Const { dst: 6, value: 2 },
            Instr::Ret,
        ]);
        assert_eq!(r.noops_removed, 1);
        // The branch now targets index 3 (ret moved up by one).
        assert!(matches!(out[1], Instr::Branch { target: 3, .. }));
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn resolves_known_branches_both_ways() {
        // Taken branch becomes a jump.
        let (out, r) = run_fold(vec![
            Instr::Const { dst: 1, value: 3 },
            Instr::Const { dst: 2, value: 3 },
            Instr::Branch {
                cmp: Cmp::Eq,
                a: 1,
                b: 2,
                target: 4,
            },
            Instr::Const { dst: 9, value: 9 },
            Instr::Ret,
        ]);
        assert!(matches!(out[2], Instr::Jump { target: 4 }));
        assert_eq!(r.branches_resolved, 1);

        // Never-taken branch disappears.
        let (out, r) = run_fold(vec![
            Instr::Const { dst: 1, value: 3 },
            Instr::Const { dst: 2, value: 4 },
            Instr::Branch {
                cmp: Cmp::Eq,
                a: 1,
                b: 2,
                target: 4,
            },
            Instr::Const { dst: 9, value: 9 },
            Instr::Ret,
        ]);
        assert_eq!(out.len(), 4);
        assert_eq!(r.branches_resolved, 1);
    }

    #[test]
    fn knowledge_resets_at_block_boundaries_and_calls() {
        // r1 is constant before the branch target, but index 3 is a
        // target, so the Alu there must not fold.
        let (out, _) = run_fold(vec![
            Instr::Const { dst: 1, value: 1 },
            Instr::Branch {
                cmp: Cmp::Eq,
                a: 8,
                b: 9,
                target: 3,
            },
            Instr::Const { dst: 1, value: 2 },
            Instr::AluImm {
                op: AluOp::Add,
                dst: 2,
                a: 1,
                imm: 1,
            },
            Instr::Ret,
        ]);
        assert!(matches!(out[3], Instr::AluImm { .. }), "{out:?}");

        // Calls clobber knowledge.
        let (out, _) = run_fold(vec![
            Instr::Const { dst: 1, value: 1 },
            Instr::Call {
                func: crate::ir::FuncRef::Local(1),
            },
            Instr::AluImm {
                op: AluOp::Add,
                dst: 2,
                a: 1,
                imm: 1,
            },
            Instr::Ret,
        ]);
        assert!(matches!(out[2], Instr::AluImm { .. }));
    }

    #[test]
    fn shadowed_writes_are_removed() {
        let mut f = Function::new(
            "t",
            vec![
                Instr::Const { dst: 1, value: 1 }, // shadowed by pc 1
                Instr::Const { dst: 1, value: 2 },
                Instr::Alu {
                    op: AluOp::Add,
                    dst: 2,
                    a: 1,
                    b: 1,
                }, // reads r1: pc 1 lives
                Instr::Ret,
            ],
        );
        let removed = eliminate_shadowed_writes(&mut f);
        assert_eq!(removed, 1);
        assert_eq!(f.body.len(), 3);
        assert_eq!(f.body[0], Instr::Const { dst: 1, value: 2 });
    }

    #[test]
    fn reads_calls_and_boundaries_protect_writes() {
        // A read in between protects.
        let mut f = Function::new(
            "t",
            vec![
                Instr::Const { dst: 1, value: 1 },
                Instr::Emit {
                    src: 1,
                    width: crate::ir::Width::B1,
                },
                Instr::Const { dst: 1, value: 2 },
                Instr::Ret,
            ],
        );
        assert_eq!(eliminate_shadowed_writes(&mut f), 0);

        // A call in between protects (callee may read r1).
        let mut f = Function::new(
            "t",
            vec![
                Instr::Const { dst: 1, value: 1 },
                Instr::Call {
                    func: crate::ir::FuncRef::Local(1),
                },
                Instr::Const { dst: 1, value: 2 },
                Instr::Ret,
            ],
        );
        assert_eq!(eliminate_shadowed_writes(&mut f), 0);

        // A branch target in between protects (another block reads it).
        let mut f = Function::new(
            "t",
            vec![
                Instr::Jump { target: 2 },
                Instr::Const { dst: 1, value: 1 },
                Instr::Const { dst: 1, value: 2 },
                Instr::Ret,
            ],
        );
        assert_eq!(eliminate_shadowed_writes(&mut f), 0);
    }

    #[test]
    fn fold_plus_shadow_collapses_constant_chains() {
        let mut p = Program::new();
        let f = crate::builder::FnBuilder::new("chain")
            .constant(1, 14)
            .alu_imm(AluOp::Add, 1, 1, 20)
            .alu_imm(AluOp::Add, 1, 1, 8)
            .emit(1, crate::ir::Width::B1)
            .ret_const(0)
            .build();
        p.add_lambda(
            crate::program::Lambda::new("c", crate::program::WorkloadId(1), f),
            vec![],
        );
        let (out, report) = fold_constants(&p);
        // The chain collapses to a single Const feeding the emit.
        let body = &out.lambdas[0].functions[0].body;
        assert_eq!(
            body,
            &vec![
                Instr::Const { dst: 1, value: 42 },
                Instr::Emit {
                    src: 1,
                    width: crate::ir::Width::B1
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ]
        );
        assert!(
            report.folded >= 2 && report.shadowed_removed >= 2,
            "{report:?}"
        );
    }

    #[test]
    fn trailing_removed_terminator_is_replaced() {
        // A never-taken branch at the end leaves a naked body; the pass
        // appends Ret.
        let (out, _) = run_fold(vec![
            Instr::Const { dst: 1, value: 1 },
            Instr::Const { dst: 2, value: 2 },
            Instr::Branch {
                cmp: Cmp::Eq,
                a: 1,
                b: 2,
                target: 0,
            },
        ]);
        assert_eq!(out.last(), Some(&Instr::Ret));
    }
}
