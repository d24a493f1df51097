//! Match+Lambda programs: lambdas, memory objects, and the match stage.
//!
//! A [`Program`] bundles everything the workload manager compiles into one
//! SmartNIC firmware image (§4.1): the lambdas (Micro-C in the paper, IR
//! functions here), their declared memory objects, and the P4-style match
//! stage that dispatches incoming requests by workload id.

use std::collections::HashSet;
use std::fmt;

use crate::ir::{FuncRef, Function, HeaderField, Instr, ObjId, NUM_REGISTERS};

/// A user hint about an object's access frequency (§4.2-D2 pragmas).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Pragma {
    /// No hint; the compiler decides from static analysis.
    #[default]
    None,
    /// Read or written on (nearly) every request: prefer near memory.
    Hot,
    /// Rarely accessed: far memory is fine.
    Cold,
}

/// A declared memory object: a fixed-size byte array in the lambda's flat
/// virtual address space (§4.2-D2).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MemObject {
    /// Name for diagnostics.
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Initial contents (zero-padded to `size`); e.g. static web content.
    pub init: Vec<u8>,
    /// Placement hint.
    pub pragma: Pragma,
}

impl MemObject {
    /// Creates a zero-initialized object.
    pub fn zeroed(name: impl Into<String>, size: u32) -> Self {
        MemObject {
            name: name.into(),
            size,
            init: Vec::new(),
            pragma: Pragma::None,
        }
    }

    /// Creates an object initialized with `data` (its size).
    pub fn with_data(name: impl Into<String>, data: Vec<u8>) -> Self {
        MemObject {
            name: name.into(),
            size: data.len() as u32,
            init: data,
            pragma: Pragma::None,
        }
    }

    /// Sets the placement pragma.
    pub fn pragma(mut self, pragma: Pragma) -> Self {
        self.pragma = pragma;
        self
    }
}

/// A workload identifier assigned by the workload manager (§4.1,
/// "assigns unique identifiers (IDs) to each of these lambdas").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkloadId(pub u32);

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// One lambda: an entry function, helper functions, and memory objects.
#[derive(Clone, Debug, PartialEq)]
pub struct Lambda {
    /// Human-readable name.
    pub name: String,
    /// The id the match stage dispatches on.
    pub id: WorkloadId,
    /// `functions[0]` is the entry point.
    pub functions: Vec<Function>,
    /// Declared memory objects.
    pub objects: Vec<MemObject>,
}

impl Lambda {
    /// Creates a lambda with the given entry function.
    pub fn new(name: impl Into<String>, id: WorkloadId, entry: Function) -> Self {
        Lambda {
            name: name.into(),
            id,
            functions: vec![entry],
            objects: Vec::new(),
        }
    }

    /// Adds a helper function, returning its local index.
    pub fn add_function(&mut self, f: Function) -> u16 {
        self.functions.push(f);
        (self.functions.len() - 1) as u16
    }

    /// Adds a memory object, returning its id.
    pub fn add_object(&mut self, obj: MemObject) -> ObjId {
        self.objects.push(obj);
        ObjId((self.objects.len() - 1) as u16)
    }

    /// Iterates over every instruction in every function.
    pub fn instrs(&self) -> impl Iterator<Item = &Instr> {
        self.functions.iter().flat_map(|f| f.body.iter())
    }

    /// The header fields this lambda reads (drives parser generation).
    pub fn used_header_fields(&self) -> HashSet<HeaderField> {
        self.instrs().filter_map(|i| i.header_field()).collect()
    }
}

/// Key column of a match table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchKey {
    /// Match on the λ-NIC workload id.
    WorkloadId,
    /// Match on the UDP destination port.
    DstPort,
    /// Match on the IPv4 destination address.
    DstIp,
}

impl MatchKey {
    /// Extracts this key's value from a dispatch context.
    pub fn extract(self, ctx: &DispatchCtx) -> u64 {
        match self {
            MatchKey::WorkloadId => ctx.workload_id as u64,
            MatchKey::DstPort => ctx.dst_port as u64,
            MatchKey::DstIp => ctx.dst_ip as u64,
        }
    }
}

/// What a matching entry does with the packet (Listing 3).
#[derive(Clone, Debug, PartialEq)]
pub enum MatchAction {
    /// Invoke `lambdas[i]`, passing the entry's `params` as match data.
    Invoke {
        /// Index into [`Program::lambdas`].
        lambda: usize,
        /// `MATCH_DATA_T` parameters handed to the lambda.
        params: Vec<u64>,
    },
    /// Punt the packet to the host OS networking stack.
    SendToHost,
}

/// One row of a match table.
#[derive(Clone, Debug, PartialEq)]
pub struct MatchEntry {
    /// Values compared against the table's keys (same arity).
    pub values: Vec<u64>,
    /// Action taken on match.
    pub action: MatchAction,
}

/// A P4-style match-action table.
#[derive(Clone, Debug, PartialEq)]
pub struct MatchTable {
    /// Name for diagnostics.
    pub name: String,
    /// Key columns.
    pub keys: Vec<MatchKey>,
    /// Rows, evaluated in order (first match wins).
    pub entries: Vec<MatchEntry>,
}

impl MatchTable {
    /// Looks up `ctx`, returning the first matching entry.
    pub fn lookup(&self, ctx: &DispatchCtx) -> Option<&MatchEntry> {
        let key_vals: Vec<u64> = self.keys.iter().map(|k| k.extract(ctx)).collect();
        self.entries.iter().find(|e| e.values == key_vals)
    }
}

/// The packet fields the match stage can key on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchCtx {
    /// λ-NIC workload id (0 when the header is absent).
    pub workload_id: u32,
    /// UDP destination port.
    pub dst_port: u16,
    /// IPv4 destination address bits.
    pub dst_ip: u32,
    /// Whether the packet carried a λ-NIC header.
    pub has_lambda_hdr: bool,
}

/// The outcome of running the match stage over a packet.
#[derive(Clone, Debug, PartialEq)]
pub enum DispatchResult {
    /// Run `lambdas[i]` with the given match data.
    Invoke {
        /// Index into [`Program::lambdas`].
        lambda: usize,
        /// Match-data parameters.
        params: Vec<u64>,
    },
    /// Forward to the host OS (Listing 3's `send_pkt_to_host`).
    ToHost,
}

/// A complete Match+Lambda program.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// The lambdas.
    pub lambdas: Vec<Lambda>,
    /// Shared-library functions produced by lambda coalescing; empty in
    /// naive programs.
    pub shared: Vec<Function>,
    /// Match-stage tables, evaluated in order.
    pub tables: Vec<MatchTable>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Adds a lambda together with the two tables a naive build emits for
    /// it: a dispatch entry and a per-lambda route-management table (the
    /// duplicated state that *match reduction* later merges, §5.1/§6.4).
    pub fn add_lambda(&mut self, lambda: Lambda, route_params: Vec<u64>) -> usize {
        let idx = self.lambdas.len();
        let id = lambda.id;
        self.lambdas.push(lambda);
        self.tables.push(MatchTable {
            name: format!("dispatch_{id}"),
            keys: vec![MatchKey::WorkloadId],
            entries: vec![MatchEntry {
                values: vec![id.0 as u64],
                action: MatchAction::Invoke {
                    lambda: idx,
                    params: vec![],
                },
            }],
        });
        self.tables.push(MatchTable {
            name: format!("route_{id}"),
            keys: vec![MatchKey::WorkloadId],
            entries: vec![MatchEntry {
                values: vec![id.0 as u64],
                action: MatchAction::Invoke {
                    lambda: idx,
                    params: route_params,
                },
            }],
        });
        idx
    }

    /// Runs the match stage: consults tables in order; the first
    /// `dispatch` hit selects the lambda and the route tables supply its
    /// match data. Packets without a λ-NIC header, or with an unknown id,
    /// go to the host (Listing 3).
    pub fn dispatch(&self, ctx: &DispatchCtx) -> DispatchResult {
        if !ctx.has_lambda_hdr {
            return DispatchResult::ToHost;
        }
        let mut selected: Option<usize> = None;
        let mut params: Vec<u64> = Vec::new();
        for table in &self.tables {
            if let Some(entry) = table.lookup(ctx) {
                match &entry.action {
                    MatchAction::Invoke {
                        lambda,
                        params: entry_params,
                    } => {
                        if selected.is_none() {
                            selected = Some(*lambda);
                        }
                        if selected == Some(*lambda) && !entry_params.is_empty() {
                            params = entry_params.clone();
                        }
                    }
                    MatchAction::SendToHost => return DispatchResult::ToHost,
                }
            }
        }
        match selected {
            Some(lambda) => DispatchResult::Invoke { lambda, params },
            None => DispatchResult::ToHost,
        }
    }

    /// Validates structural well-formedness; see [`ValidateError`].
    ///
    /// # Errors
    ///
    /// Returns the first violation found: out-of-range registers, branch
    /// targets, object or function references, recursion (unsupported on
    /// NPUs, §3.1b), bad match arity, or duplicate workload ids.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let mut seen_ids = HashSet::new();
        for l in &self.lambdas {
            if !seen_ids.insert(l.id) {
                return Err(ValidateError::DuplicateWorkloadId(l.id));
            }
        }
        for (li, lambda) in self.lambdas.iter().enumerate() {
            for (fi, function) in lambda.functions.iter().enumerate() {
                self.validate_function(li, fi, function, lambda)?;
            }
        }
        for (si, function) in self.shared.iter().enumerate() {
            // Shared functions may not call lambda-local functions (their
            // meaning must be lambda-independent up to object indices).
            for instr in &function.body {
                if let Instr::Call {
                    func: FuncRef::Local(_),
                } = instr
                {
                    return Err(ValidateError::SharedFunctionCallsLocal { shared: si as u16 });
                }
            }
            self.validate_body(&function.body, None, si)?;
        }
        self.check_shared_objects()?;
        for lambda in &self.lambdas {
            self.check_no_recursion(lambda)?;
        }
        for table in &self.tables {
            for entry in &table.entries {
                if entry.values.len() != table.keys.len() {
                    return Err(ValidateError::MatchArity {
                        table: table.name.clone(),
                    });
                }
            }
        }
        self.check_lambda_refs()
    }

    /// Shared functions resolve object ids against the *calling* lambda;
    /// every caller must declare compatible objects.
    pub(crate) fn check_shared_objects(&self) -> Result<(), ValidateError> {
        for (li, lambda) in self.lambdas.iter().enumerate() {
            for si in self.reachable_shared(lambda) {
                for instr in &self.shared[si as usize].body {
                    for (obj, _) in instr.objects() {
                        if obj.0 as usize >= lambda.objects.len() {
                            return Err(ValidateError::SharedObjectMissing {
                                lambda: li,
                                shared: si,
                                obj,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Every match entry must invoke an existing lambda.
    pub(crate) fn check_lambda_refs(&self) -> Result<(), ValidateError> {
        for table in &self.tables {
            for entry in &table.entries {
                if let MatchAction::Invoke { lambda, .. } = entry.action {
                    if lambda >= self.lambdas.len() {
                        return Err(ValidateError::BadLambdaRef {
                            table: table.name.clone(),
                            lambda,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_function(
        &self,
        li: usize,
        fi: usize,
        function: &Function,
        lambda: &Lambda,
    ) -> Result<(), ValidateError> {
        for (pc, instr) in function.body.iter().enumerate() {
            let loc = Loc {
                lambda: li,
                function: fi,
                pc,
            };
            check_operands(instr, loc, Some(lambda.objects.len()))?;
            match *instr {
                Instr::Branch { target, .. } | Instr::Jump { target }
                    if target as usize >= function.body.len() =>
                {
                    return Err(ValidateError::BadBranchTarget { loc, target });
                }
                Instr::Call { func } => match func {
                    FuncRef::Local(i) => {
                        if i as usize >= lambda.functions.len() {
                            return Err(ValidateError::BadFunctionRef { loc });
                        }
                    }
                    FuncRef::Shared(i) => {
                        if i as usize >= self.shared.len() {
                            return Err(ValidateError::BadFunctionRef { loc });
                        }
                    }
                },
                _ => {}
            }
        }
        match function.body.last() {
            Some(i) if i.is_terminator() => Ok(()),
            _ => Err(ValidateError::MissingTerminator {
                lambda: li,
                function: fi,
            }),
        }
    }

    /// Validation used for shared functions (no lambda context).
    fn validate_body(
        &self,
        body: &[Instr],
        _lambda: Option<&Lambda>,
        si: usize,
    ) -> Result<(), ValidateError> {
        for (pc, instr) in body.iter().enumerate() {
            let loc = Loc {
                lambda: usize::MAX,
                function: si,
                pc,
            };
            check_operands(instr, loc, None)?;
            if let Instr::Branch { target, .. } | Instr::Jump { target } = *instr {
                if target as usize >= body.len() {
                    return Err(ValidateError::BadBranchTarget { loc, target });
                }
            }
        }
        match body.last() {
            Some(i) if i.is_terminator() => Ok(()),
            _ => Err(ValidateError::MissingTerminator {
                lambda: usize::MAX,
                function: si,
            }),
        }
    }

    /// Shared-function indices reachable from a lambda's local functions
    /// (including shared-to-shared calls).
    pub fn reachable_shared(&self, lambda: &Lambda) -> Vec<u16> {
        let mut seen = Vec::new();
        let mut stack: Vec<u16> = lambda
            .instrs()
            .filter_map(|i| match i {
                Instr::Call {
                    func: FuncRef::Shared(s),
                } => Some(*s),
                _ => None,
            })
            .collect();
        while let Some(s) = stack.pop() {
            if seen.contains(&s) || s as usize >= self.shared.len() {
                continue;
            }
            seen.push(s);
            for instr in &self.shared[s as usize].body {
                if let Instr::Call {
                    func: FuncRef::Shared(t),
                } = *instr
                {
                    stack.push(t);
                }
            }
        }
        seen.sort_unstable();
        seen
    }

    /// Rejects call cycles: NPUs have no stack for recursion (§3.1b).
    fn check_no_recursion(&self, lambda: &Lambda) -> Result<(), ValidateError> {
        // DFS over local call edges (shared functions cannot call local
        // ones, and shared→shared calls are checked per shared function).
        fn visit(lambda: &Lambda, f: u16, visiting: &mut Vec<bool>, done: &mut Vec<bool>) -> bool {
            if done[f as usize] {
                return true;
            }
            if visiting[f as usize] {
                return false; // cycle
            }
            visiting[f as usize] = true;
            for instr in &lambda.functions[f as usize].body {
                if let Instr::Call {
                    func: FuncRef::Local(callee),
                } = *instr
                {
                    if !visit(lambda, callee, visiting, done) {
                        return false;
                    }
                }
            }
            visiting[f as usize] = false;
            done[f as usize] = true;
            true
        }
        let n = lambda.functions.len();
        let mut visiting = vec![false; n];
        let mut done = vec![false; n];
        for f in 0..n as u16 {
            if !visit(lambda, f, &mut visiting, &mut done) {
                return Err(ValidateError::Recursion {
                    lambda: lambda.name.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Checks an instruction's register indices and, when the declaring
/// lambda's object count is given, its object ids.
pub(crate) fn check_operands(
    instr: &Instr,
    loc: Loc,
    objects: Option<usize>,
) -> Result<(), ValidateError> {
    if let Some(reg) = instr
        .reads()
        .chain(instr.writes())
        .find(|&r| r as usize >= NUM_REGISTERS)
    {
        return Err(ValidateError::BadRegister { loc, reg });
    }
    match objects {
        Some(n) => match instr.objects().find(|(o, _)| o.0 as usize >= n) {
            Some((obj, _)) => Err(ValidateError::BadObject { loc, obj }),
            None => Ok(()),
        },
        None => Ok(()),
    }
}

/// Location of a validation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Loc {
    /// Lambda index (`usize::MAX` for shared functions).
    pub lambda: usize,
    /// Function index.
    pub function: usize,
    /// Instruction index.
    pub pc: usize,
}

/// Structural validation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// A register index exceeds [`NUM_REGISTERS`].
    BadRegister {
        /// Where.
        loc: Loc,
        /// The offending register.
        reg: u8,
    },
    /// An object reference is out of range.
    BadObject {
        /// Where.
        loc: Loc,
        /// The offending object id.
        obj: ObjId,
    },
    /// A branch or jump target is out of range.
    BadBranchTarget {
        /// Where.
        loc: Loc,
        /// The offending target.
        target: u32,
    },
    /// A call references a missing function.
    BadFunctionRef {
        /// Where.
        loc: Loc,
    },
    /// A function does not end in a terminator.
    MissingTerminator {
        /// Lambda index (`usize::MAX` for shared).
        lambda: usize,
        /// Function index.
        function: usize,
    },
    /// The local call graph contains a cycle.
    Recursion {
        /// The offending lambda.
        lambda: String,
    },
    /// A match entry's value arity differs from the table's key arity.
    MatchArity {
        /// The offending table.
        table: String,
    },
    /// A match entry invokes a non-existent lambda.
    BadLambdaRef {
        /// The offending table.
        table: String,
        /// The dangling index.
        lambda: usize,
    },
    /// Two lambdas share a workload id.
    DuplicateWorkloadId(WorkloadId),
    /// A lambda calls a shared function that references an object the
    /// lambda does not declare.
    SharedObjectMissing {
        /// The calling lambda.
        lambda: usize,
        /// The shared function.
        shared: u16,
        /// The missing object.
        obj: ObjId,
    },
    /// A shared function calls a lambda-local function.
    SharedFunctionCallsLocal {
        /// Shared function index.
        shared: u16,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadRegister { loc, reg } => {
                write!(f, "register r{reg} out of range at {loc:?}")
            }
            ValidateError::BadObject { loc, obj } => {
                write!(f, "unknown object {obj} at {loc:?}")
            }
            ValidateError::BadBranchTarget { loc, target } => {
                write!(f, "branch target {target} out of range at {loc:?}")
            }
            ValidateError::BadFunctionRef { loc } => {
                write!(f, "call to unknown function at {loc:?}")
            }
            ValidateError::MissingTerminator { lambda, function } => write!(
                f,
                "function {function} of lambda {lambda} does not end in jump/ret"
            ),
            ValidateError::Recursion { lambda } => {
                write!(
                    f,
                    "recursion detected in lambda {lambda} (unsupported on NPUs)"
                )
            }
            ValidateError::MatchArity { table } => {
                write!(f, "match entry arity mismatch in table {table}")
            }
            ValidateError::BadLambdaRef { table, lambda } => {
                write!(f, "table {table} references unknown lambda {lambda}")
            }
            ValidateError::DuplicateWorkloadId(id) => {
                write!(f, "duplicate workload id {id}")
            }
            ValidateError::SharedObjectMissing {
                lambda,
                shared,
                obj,
            } => write!(
                f,
                "lambda {lambda} calls shared function {shared} but lacks object {obj}"
            ),
            ValidateError::SharedFunctionCallsLocal { shared } => {
                write!(f, "shared function {shared} calls a lambda-local function")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AluOp, Cmp};

    fn ret_fn() -> Function {
        Function::new("entry", vec![Instr::Const { dst: 0, value: 0 }, Instr::Ret])
    }

    #[test]
    fn add_lambda_emits_dispatch_and_route_tables() {
        let mut p = Program::new();
        p.add_lambda(Lambda::new("w", WorkloadId(5), ret_fn()), vec![42]);
        assert_eq!(p.tables.len(), 2);
        let ctx = DispatchCtx {
            workload_id: 5,
            has_lambda_hdr: true,
            ..Default::default()
        };
        assert_eq!(
            p.dispatch(&ctx),
            DispatchResult::Invoke {
                lambda: 0,
                params: vec![42]
            }
        );
    }

    #[test]
    fn dispatch_unknown_id_goes_to_host() {
        let mut p = Program::new();
        p.add_lambda(Lambda::new("w", WorkloadId(5), ret_fn()), vec![]);
        let ctx = DispatchCtx {
            workload_id: 99,
            has_lambda_hdr: true,
            ..Default::default()
        };
        assert_eq!(p.dispatch(&ctx), DispatchResult::ToHost);
        let no_hdr = DispatchCtx::default();
        assert_eq!(p.dispatch(&no_hdr), DispatchResult::ToHost);
    }

    #[test]
    fn validate_accepts_well_formed() {
        let mut p = Program::new();
        let mut l = Lambda::new("w", WorkloadId(1), ret_fn());
        let obj = l.add_object(MemObject::zeroed("buf", 64));
        let helper = l.add_function(Function::new(
            "helper",
            vec![
                Instr::Load {
                    dst: 1,
                    obj,
                    addr: 2,
                    width: crate::ir::Width::B4,
                },
                Instr::Ret,
            ],
        ));
        l.functions[0].body.insert(
            0,
            Instr::Call {
                func: FuncRef::Local(helper),
            },
        );
        p.add_lambda(l, vec![]);
        p.validate().expect("well-formed program validates");
    }

    #[test]
    fn validate_rejects_bad_register() {
        let mut p = Program::new();
        let f = Function::new(
            "entry",
            vec![Instr::Const { dst: 200, value: 0 }, Instr::Ret],
        );
        p.add_lambda(Lambda::new("w", WorkloadId(1), f), vec![]);
        assert!(matches!(
            p.validate(),
            Err(ValidateError::BadRegister { reg: 200, .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_object_and_target() {
        let mut p = Program::new();
        let f = Function::new(
            "entry",
            vec![
                Instr::Load {
                    dst: 0,
                    obj: ObjId(3),
                    addr: 1,
                    width: crate::ir::Width::B1,
                },
                Instr::Ret,
            ],
        );
        p.add_lambda(Lambda::new("w", WorkloadId(1), f), vec![]);
        assert!(matches!(p.validate(), Err(ValidateError::BadObject { .. })));

        let mut p2 = Program::new();
        let f2 = Function::new(
            "entry",
            vec![
                Instr::Branch {
                    cmp: Cmp::Eq,
                    a: 0,
                    b: 0,
                    target: 99,
                },
                Instr::Ret,
            ],
        );
        p2.add_lambda(Lambda::new("w", WorkloadId(1), f2), vec![]);
        assert!(matches!(
            p2.validate(),
            Err(ValidateError::BadBranchTarget { target: 99, .. })
        ));
    }

    #[test]
    fn validate_rejects_recursion() {
        let mut p = Program::new();
        let mut l = Lambda::new("w", WorkloadId(1), ret_fn());
        // helper calls itself.
        let idx = l.functions.len() as u16;
        l.add_function(Function::new(
            "rec",
            vec![
                Instr::Call {
                    func: FuncRef::Local(idx),
                },
                Instr::Ret,
            ],
        ));
        p.add_lambda(l, vec![]);
        assert!(matches!(p.validate(), Err(ValidateError::Recursion { .. })));
    }

    #[test]
    fn validate_rejects_mutual_recursion() {
        let mut p = Program::new();
        let mut l = Lambda::new("w", WorkloadId(1), ret_fn());
        // f1 <-> f2
        l.add_function(Function::new(
            "f1",
            vec![
                Instr::Call {
                    func: FuncRef::Local(2),
                },
                Instr::Ret,
            ],
        ));
        l.add_function(Function::new(
            "f2",
            vec![
                Instr::Call {
                    func: FuncRef::Local(1),
                },
                Instr::Ret,
            ],
        ));
        p.add_lambda(l, vec![]);
        assert!(matches!(p.validate(), Err(ValidateError::Recursion { .. })));
    }

    #[test]
    fn validate_rejects_missing_terminator() {
        let mut p = Program::new();
        let f = Function::new("entry", vec![Instr::Const { dst: 0, value: 0 }]);
        p.add_lambda(Lambda::new("w", WorkloadId(1), f), vec![]);
        assert!(matches!(
            p.validate(),
            Err(ValidateError::MissingTerminator { .. })
        ));
    }

    #[test]
    fn validate_rejects_duplicate_ids() {
        let mut p = Program::new();
        p.add_lambda(Lambda::new("a", WorkloadId(1), ret_fn()), vec![]);
        p.add_lambda(Lambda::new("b", WorkloadId(1), ret_fn()), vec![]);
        assert_eq!(
            p.validate(),
            Err(ValidateError::DuplicateWorkloadId(WorkloadId(1)))
        );
    }

    #[test]
    fn shared_function_object_compat_checked_per_caller() {
        let mut p = Program::new();
        // Lambda without objects calls a shared function that stores to
        // obj 0: rejected.
        let mut l = Lambda::new("a", WorkloadId(1), ret_fn());
        l.functions[0].body.insert(
            0,
            Instr::Call {
                func: FuncRef::Shared(0),
            },
        );
        p.add_lambda(l, vec![]);
        p.shared.push(Function::new(
            "touches",
            vec![
                Instr::Store {
                    obj: ObjId(0),
                    addr: 0,
                    src: 1,
                    width: crate::ir::Width::B1,
                },
                Instr::Ret,
            ],
        ));
        assert!(matches!(
            p.validate(),
            Err(ValidateError::SharedObjectMissing { .. })
        ));
        // Give the lambda a compatible object: accepted.
        p.lambdas[0].add_object(MemObject::zeroed("buf", 8));
        p.validate().expect("compatible caller validates");
        // An *unreferenced* shared function with object refs is fine even
        // if no lambda declares objects.
        let mut p2 = Program::new();
        p2.add_lambda(Lambda::new("a", WorkloadId(1), ret_fn()), vec![]);
        p2.shared.push(Function::new(
            "orphan",
            vec![
                Instr::Store {
                    obj: ObjId(3),
                    addr: 0,
                    src: 1,
                    width: crate::ir::Width::B1,
                },
                Instr::Ret,
            ],
        ));
        p2.validate().expect("unreachable shared function is fine");
    }

    #[test]
    fn lambda_used_header_fields() {
        let f = Function::new(
            "entry",
            vec![
                Instr::LoadHdr {
                    dst: 1,
                    field: HeaderField::SrcPort,
                },
                Instr::AluImm {
                    op: AluOp::Add,
                    dst: 1,
                    a: 1,
                    imm: 1,
                },
                Instr::Ret,
            ],
        );
        let l = Lambda::new("w", WorkloadId(1), f);
        let used = l.used_header_fields();
        assert!(used.contains(&HeaderField::SrcPort));
        assert_eq!(used.len(), 1);
    }
}
