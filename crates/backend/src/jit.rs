//! JIT compilation of element plans (the policy half of `adn-jit`).
//!
//! The mechanism crate (`adn-jit`) knows nothing about messages or state
//! tables: it executes a linear op IR with two escape thunks. This module
//! owns everything element-specific:
//!
//! * **Type inference** ([`STy`]): a sound static type for each plan
//!   expression. `None` means "boxed or unknown" and forces an escape.
//! * **Lowering**: each statement list becomes one [`Program`]. Numeric and
//!   boolean work (conditions, fault-injection draws, arithmetic, casts)
//!   lowers to inline ops; everything touching boxed values or state tables
//!   escapes through a `ThunkSpec` that calls straight back into the
//!   *same* interpreter functions (`exec`, `exec_pred`, `exec_stmt`,
//!   `exec_select`) the tree-walker uses — the two tiers cannot diverge on
//!   escaped constructs by construction.
//! * **Schema specialization**: field types are unknown until the first
//!   message arrives, so [`JitEngine`] re-lowers a direction the first time
//!   it sees a schema (and again if the schema ever changes). Classic
//!   type-feedback specialization, one recompile per direction in practice.
//! * **Tier selection** ([`compile_engine`]): `Auto` picks the x86-64
//!   template JIT where available and the direct-threaded tier elsewhere;
//!   `ADN_JIT=interp|threaded|native` overrides per process.
//!
//! Semantic contract: a `JitEngine` must be observably identical to the
//! `NativeEngine`/`FusedEngine` it replaces — verdicts, message mutations,
//! RNG streams, fault messages, and exported state images byte-for-byte.
//! The three-way differential suite in `crates/jit/tests` enforces this.

use std::ffi::c_void;
use std::sync::OnceLock;

use adn_ir::element::{ElementIr, JoinStrategy};
use adn_ir::expr::{EvalError, IrBinOp, IrUnOp};
use adn_rpc::engine::{Engine, Verdict};
use adn_rpc::message::{MessageKind, RpcMessage};
use adn_rpc::schema::RpcSchema;
use adn_rpc::transport::EndpointAddr;
use adn_rpc::value::{Value, ValueType};
use adn_wire::codec::{Decoder, Encoder};

use adn_jit::disasm::Listing;
use adn_jit::mem::AlignedMemory;
use adn_jit::program::{ArithKind, CmpKind, Label, NegKind, Program, ProgramBuilder, Slot};
use adn_jit::threaded::ThreadedProgram;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use adn_jit::x86::NativeProgram;
pub use adn_jit::{native_available, JitTier};
use adn_jit::{ret, VmCtx};

use crate::eval::ExecError;
use crate::native::{
    coerce_store, compile_element, compile_fused, element_seed, exec_select, exec_stmt,
    CompileOpts, SelectFail, StepOutcome, ABORT_INTERNAL,
};
use crate::plan::{compile_stmt_for, exec, exec_pred, CExpr, CJoin, CRef, CStmt, UdfId};
use crate::state::StateTable;
use crate::udf_impl::UdfRuntime;

// ---------------------------------------------------------------------------
// Static types
// ---------------------------------------------------------------------------

/// Unboxed static type of a lowered expression slot. Expressions whose
/// value cannot be proven to stay in one of these four shapes never get a
/// slot — they escape whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum STy {
    U64,
    I64,
    F64,
    Bool,
}

fn sty_of(t: ValueType) -> Option<STy> {
    match t {
        ValueType::U64 => Some(STy::U64),
        ValueType::I64 => Some(STy::I64),
        ValueType::F64 => Some(STy::F64),
        ValueType::Bool => Some(STy::Bool),
        _ => None,
    }
}

fn bits_of(v: &Value) -> Option<(u64, STy)> {
    match v {
        Value::U64(x) => Some((*x, STy::U64)),
        Value::I64(x) => Some((*x as u64, STy::I64)),
        Value::F64(x) => Some((x.to_bits(), STy::F64)),
        Value::Bool(b) => Some((*b as u64, STy::Bool)),
        _ => None,
    }
}

fn value_from_bits(bits: u64, sty: STy) -> Value {
    match sty {
        STy::U64 => Value::U64(bits),
        STy::I64 => Value::I64(bits as i64),
        STy::F64 => Value::F64(f64::from_bits(bits)),
        STy::Bool => Value::Bool(bits != 0),
    }
}

fn bits_from_value(v: &Value, sty: STy) -> Result<u64, ExecError> {
    match (sty, v) {
        (STy::U64, Value::U64(x)) => Ok(*x),
        (STy::I64, Value::I64(x)) => Ok(*x as u64),
        (STy::F64, Value::F64(x)) => Ok(x.to_bits()),
        (STy::Bool, Value::Bool(b)) => Ok(*b as u64),
        _ => Err(EvalError::TypeError(format!("jit: expected {sty:?}, got {v}")).into()),
    }
}

// ---------------------------------------------------------------------------
// Thunk specs
// ---------------------------------------------------------------------------

/// What a failed SELECT produces, owned by the spec table.
#[derive(Debug, Clone)]
enum OwnedFail {
    Drop,
    Dynamic { code: CExpr, message: Option<CExpr> },
    Prebuilt(Verdict),
}

/// A precompiled INSERT column source: how to produce one row value
/// without walking a `CExpr`. Only sources that are side-effect-free
/// clones (plus the `now()` logical-clock tick) qualify — anything else
/// keeps the generic interpreter escape.
#[derive(Debug, Clone)]
enum ColSrc {
    /// `now()` into a `u64` column.
    Now,
    /// A literal, store-coerced at compile time.
    Const(Value),
    /// A message field whose schema type equals the column type exactly
    /// (so the interpreter's store coercion is the identity).
    Field(usize),
}

/// One leaf equality in a precompiled SELECT filter, checked with the
/// interpreter's own `dsl_eq` so the tiers agree bit-for-bit.
#[derive(Debug, Clone)]
enum EqCheck {
    /// `input.f == tab.c`
    FieldCol(usize, usize),
    /// `tab.c == <literal>`
    ColConst(usize, Value),
    /// `input.f == <literal>`
    FieldConst(usize, Value),
}

impl EqCheck {
    #[inline]
    fn eval(&self, fields: &[Value], row: &[Value]) -> bool {
        match self {
            EqCheck::FieldCol(f, c) => fields[*f].dsl_eq(&row[*c]),
            EqCheck::ColConst(c, v) => row[*c].dsl_eq(v),
            EqCheck::FieldConst(f, v) => fields[*f].dsl_eq(v),
        }
    }
}

/// One escape point. Spec ids are `CallExpr`/`CallStmt` immediates indexing
/// the per-direction spec table.
#[derive(Debug, Clone)]
enum ThunkSpec {
    /// Interpret a subtree via `exec`, return unboxed bits.
    ExprEval { elem: usize, expr: CExpr, out: STy },
    /// Interpret a predicate via `exec_pred`, return a bool bit.
    PredEval { elem: usize, expr: CExpr },
    /// One f64 draw from the element RNG (fault-injection fast path).
    RandomF64 { elem: usize },
    /// Raw bits of a message field whose schema type is unboxed.
    FieldBits { idx: usize, out: STy },
    /// `SET field = <arg>` with store coercion (condition checked inline).
    StoreField { field: usize, aty: STy },
    /// Whole-statement escape through the shared interpreter step.
    Stmt { elem: usize, stmt: CStmt },
    /// Specialized INSERT: build the row from precompiled column sources
    /// (no expression walk, no runtime coercion) and recycle the
    /// allocations of whatever row the insert displaces. The log-table
    /// hot path (`INSERT INTO log_tab VALUES (now(), 'req', ...)`).
    InsertRow {
        elem: usize,
        table: usize,
        cols: Vec<ColSrc>,
    },
    /// Specialized keyed-join filter SELECT (the ACL shape): one hash
    /// lookup plus leaf equality checks, no assignments, no expression
    /// walk. Anything more general keeps the `Select` escape.
    KeyJoinFilter {
        elem: usize,
        table: usize,
        /// Message fields forming the key, in key-column order.
        input_fields: Vec<usize>,
        /// The ON conjuncts followed by the WHERE conjuncts, in the
        /// interpreter's evaluation order.
        checks: Vec<EqCheck>,
        fail: OwnedFail,
    },
    /// SELECT via the shared `exec_select`, with a possibly prebuilt
    /// failure verdict.
    Select {
        elem: usize,
        assignments: Vec<(usize, CExpr)>,
        join: Option<CJoin>,
        condition: Option<CExpr>,
        fail: OwnedFail,
    },
    /// ROUTE key hashing (condition checked inline; replica emptiness
    /// checked here so rebinding stays possible).
    Route { elem: usize, key: CExpr },
    /// ABORT with dynamic code/message (condition checked inline).
    AbortBuild {
        elem: usize,
        code: CExpr,
        message: Option<CExpr>,
    },
    /// A verdict fully computed at compile time.
    Halt { verdict: Verdict },
}

// ---------------------------------------------------------------------------
// Runtime env + trampolines
// ---------------------------------------------------------------------------

/// Per-element runtime state (tables, RNG, replicas).
struct ElemState {
    name: String,
    request: Vec<CStmt>,
    response: Vec<CStmt>,
    tables: Vec<StateTable>,
    udf: UdfRuntime,
    replicas: Vec<EndpointAddr>,
}

fn build_elem(element: &ElementIr, seed: u64, replicas: Vec<EndpointAddr>) -> ElemState {
    let compile_all = |stmts: &[adn_ir::IrStmt]| -> Vec<CStmt> {
        stmts
            .iter()
            .map(|s| compile_stmt_for(s, &element.tables).expect("typechecked element compiles"))
            .collect()
    };
    ElemState {
        name: element.name.clone(),
        request: compile_all(&element.request),
        response: compile_all(&element.response),
        tables: element
            .tables
            .iter()
            .map(|t| StateTable::new(t.clone()))
            .collect(),
        udf: UdfRuntime::new(seed),
        replicas,
    }
}

/// The embedder env handed to generated code via [`VmCtx`]. Lives on the
/// `process()` stack for exactly one message.
///
/// `repr(C)` with the fault flag as the FIRST byte — the executors read it
/// through `VmCtx::env` at offset [`adn_jit::ENV_FAULT_OFFSET`].
#[repr(C)]
struct JitEnv {
    fault: u8,
    msg: *mut RpcMessage,
    elems: *mut ElemState,
    n_elems: usize,
    specs: *const ThunkSpec,
    n_specs: usize,
    /// Per-spec recycled-row storage (`InsertRow` keeps the displaced
    /// row's allocations here between messages); one slot per spec.
    scratch: *mut Vec<Value>,
    fault_err: Option<ExecError>,
    verdict: Option<Verdict>,
}

impl JitEnv {
    /// # Safety
    /// Caller guarantees `elem < n_elems` (spec tables are built against
    /// the same element list).
    unsafe fn elem_mut(&mut self, elem: usize) -> &mut ElemState {
        debug_assert!(elem < self.n_elems);
        &mut *self.elems.add(elem)
    }
}

extern "C" fn expr_tramp(env: *mut c_void, spec: u64, args: *const u64, argc: u64) -> u64 {
    // SAFETY: env points at the JitEnv on the process() stack; spec ids
    // were generated against this spec table.
    let env = unsafe { &mut *(env as *mut JitEnv) };
    debug_assert!((spec as usize) < env.n_specs);
    let spec = unsafe { &*env.specs.add(spec as usize) };
    let arg_bits = unsafe { std::slice::from_raw_parts(args, argc as usize) };
    match run_expr_spec(env, spec, arg_bits) {
        Ok(bits) => bits,
        Err(e) => {
            env.fault_err = Some(e);
            env.fault = 1;
            0
        }
    }
}

fn run_expr_spec(env: &mut JitEnv, spec: &ThunkSpec, args: &[u64]) -> Result<u64, ExecError> {
    // SAFETY: msg outlives the program run; elem indices are in range.
    let msg = unsafe { &mut *env.msg };
    match spec {
        ThunkSpec::ExprEval { elem, expr, out } => {
            let st = unsafe { env.elem_mut(*elem) };
            let v = exec(expr, &msg.fields, None, &mut st.udf)?;
            bits_from_value(v.as_ref(), *out)
        }
        ThunkSpec::PredEval { elem, expr } => {
            let st = unsafe { env.elem_mut(*elem) };
            Ok(exec_pred(expr, &msg.fields, None, &mut st.udf)? as u64)
        }
        ThunkSpec::RandomF64 { elem } => {
            let st = unsafe { env.elem_mut(*elem) };
            Ok(st.udf.random_f64().to_bits())
        }
        ThunkSpec::FieldBits { idx, out } => bits_from_value(&msg.fields[*idx], *out),
        ThunkSpec::StoreField { field, aty } => {
            let v = value_from_bits(args[0], *aty);
            let ty = msg.schema.fields()[*field].ty;
            msg.fields[*field] = coerce_store(v, ty)?;
            Ok(0)
        }
        _ => Err(EvalError::TypeError("jit: statement spec in expr thunk".into()).into()),
    }
}

extern "C" fn stmt_tramp(env: *mut c_void, spec: u64) -> u64 {
    // SAFETY: as expr_tramp.
    let env = unsafe { &mut *(env as *mut JitEnv) };
    debug_assert!((spec as usize) < env.n_specs);
    let idx = spec as usize;
    let spec = unsafe { &*env.specs.add(idx) };
    let elem = spec_elem(spec);
    match run_stmt_spec(env, spec, idx) {
        Ok(code) => code,
        Err(e) => {
            env.fault_err = Some(e);
            env.fault = 1;
            ret::encode_fault(elem, ret::FAULT_ENV)
        }
    }
}

fn spec_elem(spec: &ThunkSpec) -> usize {
    match spec {
        ThunkSpec::ExprEval { elem, .. }
        | ThunkSpec::PredEval { elem, .. }
        | ThunkSpec::RandomF64 { elem }
        | ThunkSpec::Stmt { elem, .. }
        | ThunkSpec::InsertRow { elem, .. }
        | ThunkSpec::KeyJoinFilter { elem, .. }
        | ThunkSpec::Select { elem, .. }
        | ThunkSpec::Route { elem, .. }
        | ThunkSpec::AbortBuild { elem, .. } => *elem,
        ThunkSpec::FieldBits { .. } | ThunkSpec::StoreField { .. } | ThunkSpec::Halt { .. } => 0,
    }
}

/// Clone-from that reuses the destination's heap allocations (the scratch
/// row carries String/Bytes buffers from the last displaced row).
fn write_reusing(slot: &mut Value, src: &Value) {
    match (&mut *slot, src) {
        (Value::Str(d), Value::Str(s)) => {
            d.clear();
            d.push_str(s);
        }
        (Value::Bytes(d), Value::Bytes(s)) => {
            d.clear();
            d.extend_from_slice(s);
        }
        (d, s) => *d = s.clone(),
    }
}

fn col_value(c: &ColSrc, msg: &RpcMessage, udf: &mut UdfRuntime) -> Value {
    match c {
        ColSrc::Now => Value::U64(udf.now()),
        ColSrc::Const(v) => v.clone(),
        ColSrc::Field(i) => msg.fields[*i].clone(),
    }
}

/// Fills `row` from the column sources, left to right (the interpreter's
/// evaluation order — `now()` draws must interleave identically).
fn fill_row(row: &mut Vec<Value>, cols: &[ColSrc], msg: &RpcMessage, udf: &mut UdfRuntime) {
    if row.len() != cols.len() {
        row.clear();
        row.reserve(cols.len());
        for c in cols {
            row.push(col_value(c, msg, udf));
        }
        return;
    }
    for (slot, c) in row.iter_mut().zip(cols) {
        match c {
            ColSrc::Now => *slot = Value::U64(udf.now()),
            ColSrc::Const(v) => write_reusing(slot, v),
            ColSrc::Field(i) => write_reusing(slot, &msg.fields[*i]),
        }
    }
}

fn run_stmt_spec(env: &mut JitEnv, spec: &ThunkSpec, idx: usize) -> Result<u64, ExecError> {
    // SAFETY: as run_expr_spec.
    let msg = unsafe { &mut *env.msg };
    match spec {
        ThunkSpec::InsertRow { elem, table, cols } => {
            let scratch = unsafe { &mut *env.scratch.add(idx) };
            let st = unsafe { env.elem_mut(*elem) };
            let mut row = std::mem::take(scratch);
            fill_row(&mut row, cols, msg, &mut st.udf);
            if let Some(displaced) = st.tables[*table].insert_if_absent_reclaim(row) {
                *scratch = displaced;
            }
            Ok(0)
        }
        ThunkSpec::KeyJoinFilter {
            elem,
            table,
            input_fields,
            checks,
            fail,
        } => {
            let st = unsafe { env.elem_mut(*elem) };
            let t = &st.tables[*table];
            let h = t.key_hash_of_iter(input_fields.iter().map(|&i| &msg.fields[i]));
            let pass = match t.lookup(h) {
                Some(row) => checks.iter().all(|c| c.eval(&msg.fields, row)),
                None => false,
            };
            if pass {
                Ok(0)
            } else {
                let fail = match fail {
                    OwnedFail::Drop => SelectFail::Drop,
                    OwnedFail::Dynamic { code, message } => SelectFail::Dynamic {
                        code,
                        message: message.as_ref(),
                        name: &st.name,
                    },
                    OwnedFail::Prebuilt(v) => SelectFail::Prebuilt(v),
                };
                env.verdict = Some(fail.verdict(msg, &mut st.udf)?);
                Ok(ret::VERDICT)
            }
        }
        ThunkSpec::Stmt { elem, stmt } => {
            let st = unsafe { env.elem_mut(*elem) };
            match exec_stmt(
                stmt,
                msg,
                &mut st.tables,
                &mut st.udf,
                &st.replicas,
                &st.name,
            )? {
                StepOutcome::Continue => Ok(0),
                StepOutcome::Verdict(v) => {
                    env.verdict = Some(v);
                    Ok(ret::VERDICT)
                }
            }
        }
        ThunkSpec::Select {
            elem,
            assignments,
            join,
            condition,
            fail,
        } => {
            let st = unsafe { env.elem_mut(*elem) };
            let fail = match fail {
                OwnedFail::Drop => SelectFail::Drop,
                OwnedFail::Dynamic { code, message } => SelectFail::Dynamic {
                    code,
                    message: message.as_ref(),
                    name: &st.name,
                },
                OwnedFail::Prebuilt(v) => SelectFail::Prebuilt(v),
            };
            match exec_select(
                assignments,
                join,
                condition,
                fail,
                msg,
                &mut st.tables,
                &mut st.udf,
            )? {
                StepOutcome::Continue => Ok(0),
                StepOutcome::Verdict(v) => {
                    env.verdict = Some(v);
                    Ok(ret::VERDICT)
                }
            }
        }
        ThunkSpec::Route { elem, key } => {
            let st = unsafe { env.elem_mut(*elem) };
            if !st.replicas.is_empty() {
                let k = exec(key, &msg.fields, None, &mut st.udf)?.into_owned();
                let idx = (k.stable_hash() % st.replicas.len() as u64) as usize;
                msg.dst = st.replicas[idx];
            }
            Ok(0)
        }
        ThunkSpec::AbortBuild {
            elem,
            code,
            message,
        } => {
            let st = unsafe { env.elem_mut(*elem) };
            let code_v = exec(code, &msg.fields, None, &mut st.udf)?.into_owned();
            let code = code_v.as_u64().unwrap_or(ABORT_INTERNAL as u64) as u32;
            let message = match message {
                Some(m) => match exec(m, &msg.fields, None, &mut st.udf)?.into_owned() {
                    Value::Str(s) => s,
                    other => other.to_string(),
                },
                None => format!("aborted by {}", st.name),
            };
            env.verdict = Some(Verdict::Abort { code, message });
            Ok(ret::VERDICT)
        }
        ThunkSpec::Halt { verdict } => {
            env.verdict = Some(verdict.clone());
            Ok(ret::VERDICT)
        }
        _ => Err(EvalError::TypeError("jit: expr spec in stmt thunk".into()).into()),
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Lowering counters, surfaced by `adn-lint --jit-dump` and the V0006
/// eligibility lint.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowerStats {
    /// Ops executed without leaving generated code.
    pub inline_ops: usize,
    /// Escape calls back into the interpreter (expr or stmt thunks).
    pub escapes: usize,
    /// No-op `SELECT * FROM input` statements deleted outright.
    pub eliminated: usize,
    /// Statements replaced by specialized fast-path thunks (e.g. the
    /// precompiled INSERT row build) — not interpreter escapes.
    pub fast_stmts: usize,
}

struct Lowerer<'a> {
    b: ProgramBuilder,
    specs: Vec<ThunkSpec>,
    schema: Option<&'a RpcSchema>,
    elem: usize,
    elem_name: String,
    /// The current element's state tables (layouts drive the specialized
    /// INSERT lowering).
    tables: &'a [StateTable],
    // Lazily created per-element fault landing blocks, bound at the end.
    f_env: Option<Label>,
    f_of: Option<Label>,
    f_dz: Option<Label>,
    pending_blocks: Vec<(Label, u64)>,
    scratch: Slot,
    stats: LowerStats,
}

impl<'a> Lowerer<'a> {
    fn new(schema: Option<&'a RpcSchema>) -> Lowerer<'a> {
        let mut b = ProgramBuilder::new();
        let scratch = b.alloc_slot();
        Lowerer {
            b,
            specs: Vec::new(),
            schema,
            elem: 0,
            elem_name: String::new(),
            tables: &[],
            f_env: None,
            f_of: None,
            f_dz: None,
            pending_blocks: Vec::new(),
            scratch,
            stats: LowerStats::default(),
        }
    }

    fn spec(&mut self, s: ThunkSpec) -> u32 {
        self.specs.push(s);
        self.stats.escapes += 1;
        (self.specs.len() - 1) as u32
    }

    /// A spec that is a specialized fast path, not an interpreter escape.
    fn fast_spec(&mut self, s: ThunkSpec) -> u32 {
        self.specs.push(s);
        self.stats.fast_stmts += 1;
        (self.specs.len() - 1) as u32
    }

    fn fault_block(
        slot: &mut Option<Label>,
        b: &mut ProgramBuilder,
        pend: &mut Vec<(Label, u64)>,
        code: u64,
    ) -> Label {
        *slot.get_or_insert_with(|| {
            let l = b.new_label();
            pend.push((l, code));
            l
        })
    }

    fn f_env(&mut self) -> Label {
        Self::fault_block(
            &mut self.f_env,
            &mut self.b,
            &mut self.pending_blocks,
            ret::encode_fault(self.elem, ret::FAULT_ENV),
        )
    }

    fn f_of(&mut self) -> Label {
        Self::fault_block(
            &mut self.f_of,
            &mut self.b,
            &mut self.pending_blocks,
            ret::encode_fault(self.elem, ret::FAULT_OVERFLOW),
        )
    }

    fn f_dz(&mut self) -> Label {
        Self::fault_block(
            &mut self.f_dz,
            &mut self.b,
            &mut self.pending_blocks,
            ret::encode_fault(self.elem, ret::FAULT_DIV_ZERO),
        )
    }

    fn field_sty(&self, idx: usize) -> Option<STy> {
        self.schema.and_then(|s| sty_of(s.fields()[idx].ty))
    }

    /// Sound static type: `Some(t)` means every non-faulting evaluation of
    /// `e` yields exactly a `t`-typed value.
    fn infer(&self, e: &CExpr) -> Option<STy> {
        match e {
            CExpr::Const(v) => sty_of(v.value_type()),
            CExpr::Field(i) => self.field_sty(*i),
            CExpr::Col(_) => None,
            CExpr::Cmp { .. } | CExpr::RandomBelow(_) => Some(STy::Bool),
            CExpr::Udf { id, args } => match (id, args.len()) {
                (UdfId::Random, 0) => Some(STy::F64),
                (UdfId::Now, 0) => Some(STy::U64),
                (UdfId::Hash, 1) => Some(STy::U64),
                _ => None,
            },
            CExpr::Cast { to, .. } => sty_of(*to),
            CExpr::Unary { op, operand } => match op {
                IrUnOp::Not => Some(STy::Bool),
                IrUnOp::Neg => match self.infer(operand)? {
                    STy::I64 | STy::U64 => Some(STy::I64),
                    STy::F64 => Some(STy::F64),
                    STy::Bool => None,
                },
            },
            CExpr::Binary { op, left, right } => match op {
                IrBinOp::And
                | IrBinOp::Or
                | IrBinOp::Eq
                | IrBinOp::NotEq
                | IrBinOp::Lt
                | IrBinOp::Le
                | IrBinOp::Gt
                | IrBinOp::Ge => Some(STy::Bool),
                IrBinOp::Add | IrBinOp::Sub | IrBinOp::Mul | IrBinOp::Div | IrBinOp::Mod => {
                    let (l, r) = (self.infer(left)?, self.infer(right)?);
                    if l == STy::Bool || r == STy::Bool {
                        return None; // arithmetic on bools always faults
                    }
                    match (l, r) {
                        (STy::F64, _) | (_, STy::F64) => Some(STy::F64),
                        (STy::I64, _) | (_, STy::I64) => Some(STy::I64),
                        (STy::U64, STy::U64) => {
                            // U64 - U64 may go negative (I64 result): boxed.
                            if *op == IrBinOp::Sub {
                                None
                            } else {
                                Some(STy::U64)
                            }
                        }
                        _ => unreachable!("bool filtered above"),
                    }
                }
            },
            CExpr::Case { .. } => None,
        }
    }

    /// Escape: interpret `e` whole, producing `out` bits.
    fn escape_expr(&mut self, e: &CExpr, out: STy) -> Slot {
        let dst = self.b.alloc_slot();
        let spec = self.spec(ThunkSpec::ExprEval {
            elem: self.elem,
            expr: e.clone(),
            out,
        });
        let f = self.f_env();
        self.b.call_expr(spec, dst, &[], f);
        dst
    }

    fn inline(&mut self, n: usize) {
        self.stats.inline_ops += n;
    }

    fn lower_typed(&mut self, e: &CExpr, sty: STy) -> Slot {
        match e {
            CExpr::Const(v) => {
                let (bits, _) = bits_of(v).expect("infer guarantees unboxed const");
                let dst = self.b.alloc_slot();
                self.b.const_bits(dst, bits);
                self.inline(1);
                dst
            }
            CExpr::Field(i) => {
                let dst = self.b.alloc_slot();
                let spec = self.spec(ThunkSpec::FieldBits { idx: *i, out: sty });
                let f = self.f_env();
                self.b.call_expr(spec, dst, &[], f);
                dst
            }
            CExpr::RandomBelow(p) => self.lower_random_below(*p),
            CExpr::Cmp { op, left, right } => self.lower_cmp(e, *op, left, right),
            CExpr::Unary { op, operand } => match op {
                IrUnOp::Not => {
                    if self.infer(operand) == Some(STy::Bool) {
                        let s = self.lower_typed(operand, STy::Bool);
                        let dst = self.b.alloc_slot();
                        self.b.not_bool(dst, s);
                        self.inline(1);
                        dst
                    } else {
                        // NOT on a non-bool faults; interpret to reproduce
                        // the exact error.
                        self.escape_expr(e, sty)
                    }
                }
                IrUnOp::Neg => match self.infer(operand) {
                    Some(STy::I64) => {
                        let s = self.lower_typed(operand, STy::I64);
                        let dst = self.b.alloc_slot();
                        let of = self.f_of();
                        self.b.neg(NegKind::I64, dst, s, of);
                        self.inline(1);
                        dst
                    }
                    Some(STy::F64) => {
                        let s = self.lower_typed(operand, STy::F64);
                        let dst = self.b.alloc_slot();
                        let of = self.f_of();
                        self.b.neg(NegKind::F64, dst, s, of);
                        self.inline(1);
                        dst
                    }
                    Some(STy::U64) => {
                        // -(x as i64) after the range check; the negation
                        // itself cannot overflow once x <= i64::MAX.
                        let s = self.lower_typed(operand, STy::U64);
                        let cast = self.b.alloc_slot();
                        let of = self.f_of();
                        self.b.cast_u64_i64(cast, s, of);
                        let dst = self.b.alloc_slot();
                        let of = self.f_of();
                        self.b.neg(NegKind::I64, dst, cast, of);
                        self.inline(2);
                        dst
                    }
                    _ => self.escape_expr(e, sty),
                },
            },
            CExpr::Binary { op, left, right } => match op {
                IrBinOp::And | IrBinOp::Or => {
                    if self.infer(left) == Some(STy::Bool) && self.infer(right) == Some(STy::Bool) {
                        let dst = self.b.alloc_slot();
                        let l = self.lower_typed(left, STy::Bool);
                        self.b.mov(dst, l);
                        let done = self.b.new_label();
                        if *op == IrBinOp::And {
                            self.b.jump_if_false(dst, done);
                        } else {
                            self.b.jump_if_true(dst, done);
                        }
                        let r = self.lower_typed(right, STy::Bool);
                        self.b.mov(dst, r);
                        self.b.bind(done);
                        self.inline(3);
                        dst
                    } else {
                        self.escape_expr(e, sty)
                    }
                }
                IrBinOp::Eq
                | IrBinOp::NotEq
                | IrBinOp::Lt
                | IrBinOp::Le
                | IrBinOp::Gt
                | IrBinOp::Ge => self.escape_expr(e, STy::Bool),
                IrBinOp::Add | IrBinOp::Sub | IrBinOp::Mul | IrBinOp::Div | IrBinOp::Mod => {
                    self.lower_arith(*op, left, right, sty)
                }
            },
            CExpr::Cast { to, inner } => {
                let inner_sty = match self.infer(inner) {
                    Some(s) => s,
                    None => return self.escape_expr(e, sty),
                };
                let to_sty = sty_of(*to);
                match (to_sty, inner_sty) {
                    (Some(t), i) if t == i => self.lower_typed(inner, i), // identity
                    (Some(STy::I64), STy::U64) => {
                        let s = self.lower_typed(inner, STy::U64);
                        let dst = self.b.alloc_slot();
                        let of = self.f_of();
                        self.b.cast_u64_i64(dst, s, of);
                        self.inline(1);
                        dst
                    }
                    (Some(STy::F64), STy::U64) => {
                        let s = self.lower_typed(inner, STy::U64);
                        let dst = self.b.alloc_slot();
                        self.b.cast_u64_f64(dst, s);
                        self.inline(1);
                        dst
                    }
                    (Some(STy::F64), STy::I64) => {
                        let s = self.lower_typed(inner, STy::I64);
                        let dst = self.b.alloc_slot();
                        self.b.cast_i64_f64(dst, s);
                        self.inline(1);
                        dst
                    }
                    // Unsupported combos fault at runtime; interpret for
                    // the exact "cannot cast" message.
                    _ => self.escape_expr(e, sty),
                }
            }
            CExpr::Udf { .. } | CExpr::Case { .. } | CExpr::Col(_) => self.escape_expr(e, sty),
        }
    }

    /// `random() < p`: one RNG thunk call plus an inline float compare.
    /// The draw is in `[0, 1)` (never NaN/-0), so the total-order compare
    /// agrees with the interpreter's plain `<` for every constant except a
    /// NaN threshold, which plain `<` answers `false`.
    fn lower_random_below(&mut self, p: f64) -> Slot {
        let draw = self.b.alloc_slot();
        let spec = self.spec(ThunkSpec::RandomF64 { elem: self.elem });
        let f = self.f_env();
        self.b.call_expr(spec, draw, &[], f);
        let dst = self.b.alloc_slot();
        if p.is_nan() {
            self.b.const_bits(dst, 0);
            self.inline(1);
        } else {
            let pc = self.b.alloc_slot();
            self.b.const_bits(pc, p.to_bits());
            self.b.cmp(CmpKind::LtF, dst, draw, pc);
            self.inline(2);
        }
        dst
    }

    fn cref_sty(&self, r: &CRef) -> Option<STy> {
        match r {
            CRef::Field(i) => self.field_sty(*i),
            CRef::Const(v) => sty_of(v.value_type()),
            CRef::Col(_) => None,
        }
    }

    fn lower_cref(&mut self, r: &CRef, sty: STy) -> Slot {
        match r {
            CRef::Const(v) => {
                let (bits, _) = bits_of(v).expect("unboxed cref const");
                let dst = self.b.alloc_slot();
                self.b.const_bits(dst, bits);
                self.inline(1);
                dst
            }
            CRef::Field(i) => {
                let dst = self.b.alloc_slot();
                let spec = self.spec(ThunkSpec::FieldBits { idx: *i, out: sty });
                let f = self.f_env();
                self.b.call_expr(spec, dst, &[], f);
                dst
            }
            CRef::Col(_) => unreachable!("cref_sty filtered cols"),
        }
    }

    /// Leaf-vs-leaf comparison: inline when both sides have the same
    /// unboxed static type (same-type `total_cmp` is a plain scalar
    /// compare, and same-type `dsl_eq` is bit equality).
    fn lower_cmp(&mut self, whole: &CExpr, op: IrBinOp, left: &CRef, right: &CRef) -> Slot {
        let (Some(l), Some(r)) = (self.cref_sty(left), self.cref_sty(right)) else {
            return self.escape_expr(whole, STy::Bool);
        };
        if l != r {
            // Cross-type numeric compares have sign-aware semantics;
            // interpret them.
            return self.escape_expr(whole, STy::Bool);
        }
        let kind = match (op, l) {
            (IrBinOp::Eq, _) => CmpKind::EqBits,
            (IrBinOp::NotEq, _) => CmpKind::NeBits,
            (IrBinOp::Lt, STy::U64 | STy::Bool) => CmpKind::LtU,
            (IrBinOp::Le, STy::U64 | STy::Bool) => CmpKind::LeU,
            (IrBinOp::Gt, STy::U64 | STy::Bool) => CmpKind::GtU,
            (IrBinOp::Ge, STy::U64 | STy::Bool) => CmpKind::GeU,
            (IrBinOp::Lt, STy::I64) => CmpKind::LtI,
            (IrBinOp::Le, STy::I64) => CmpKind::LeI,
            (IrBinOp::Gt, STy::I64) => CmpKind::GtI,
            (IrBinOp::Ge, STy::I64) => CmpKind::GeI,
            (IrBinOp::Lt, STy::F64) => CmpKind::LtF,
            (IrBinOp::Le, STy::F64) => CmpKind::LeF,
            (IrBinOp::Gt, STy::F64) => CmpKind::GtF,
            (IrBinOp::Ge, STy::F64) => CmpKind::GeF,
            _ => return self.escape_expr(whole, STy::Bool),
        };
        let a = self.lower_cref(left, l);
        let b = self.lower_cref(right, r);
        let dst = self.b.alloc_slot();
        self.b.cmp(kind, dst, a, b);
        self.inline(1);
        dst
    }

    fn lower_arith(&mut self, op: IrBinOp, left: &CExpr, right: &CExpr, sty: STy) -> Slot {
        let (Some(l), Some(r)) = (self.infer(left), self.infer(right)) else {
            return self.escape_expr(
                &CExpr::Binary {
                    op,
                    left: Box::new(left.clone()),
                    right: Box::new(right.clone()),
                },
                sty,
            );
        };
        // Operands evaluate fully (left then right) before any conversion
        // faults, matching `exec` + `eval_arith`.
        let ls = self.lower_typed(left, l);
        let rs = self.lower_typed(right, r);
        let is_divmod = matches!(op, IrBinOp::Div | IrBinOp::Mod);
        match sty {
            STy::F64 => {
                let lf = self.coerce_f64(ls, l);
                let rf = self.coerce_f64(rs, r);
                let kind = match op {
                    IrBinOp::Add => ArithKind::AddF,
                    IrBinOp::Sub => ArithKind::SubF,
                    IrBinOp::Mul => ArithKind::MulF,
                    IrBinOp::Div => ArithKind::DivF,
                    IrBinOp::Mod => ArithKind::ModF,
                    _ => unreachable!(),
                };
                let dst = self.b.alloc_slot();
                let of = self.f_of();
                let dz = if is_divmod { self.f_dz() } else { of };
                self.b.arith(kind, dst, lf, rf, of, dz);
                self.inline(1);
                dst
            }
            STy::I64 => {
                // as_i64 converts the left operand first, then the right.
                let li = self.coerce_i64(ls, l);
                let ri = self.coerce_i64(rs, r);
                let kind = match op {
                    IrBinOp::Add => ArithKind::AddI,
                    IrBinOp::Sub => ArithKind::SubI,
                    IrBinOp::Mul => ArithKind::MulI,
                    IrBinOp::Div => ArithKind::DivI,
                    IrBinOp::Mod => ArithKind::ModI,
                    _ => unreachable!(),
                };
                let dst = self.b.alloc_slot();
                let of = self.f_of();
                let dz = if is_divmod { self.f_dz() } else { of };
                self.b.arith(kind, dst, li, ri, of, dz);
                self.inline(1);
                dst
            }
            STy::U64 => {
                let kind = match op {
                    IrBinOp::Add => ArithKind::AddU,
                    IrBinOp::Mul => ArithKind::MulU,
                    IrBinOp::Div => ArithKind::DivU,
                    IrBinOp::Mod => ArithKind::ModU,
                    _ => unreachable!("U64 Sub is boxed"),
                };
                let dst = self.b.alloc_slot();
                let of = self.f_of();
                let dz = if is_divmod { self.f_dz() } else { of };
                self.b.arith(kind, dst, ls, rs, of, dz);
                self.inline(1);
                dst
            }
            STy::Bool => unreachable!("bool arith filtered by infer"),
        }
    }

    fn coerce_f64(&mut self, s: Slot, from: STy) -> Slot {
        match from {
            STy::F64 => s,
            STy::U64 => {
                let dst = self.b.alloc_slot();
                self.b.cast_u64_f64(dst, s);
                self.inline(1);
                dst
            }
            STy::I64 => {
                let dst = self.b.alloc_slot();
                self.b.cast_i64_f64(dst, s);
                self.inline(1);
                dst
            }
            STy::Bool => unreachable!(),
        }
    }

    fn coerce_i64(&mut self, s: Slot, from: STy) -> Slot {
        match from {
            STy::I64 => s,
            STy::U64 => {
                let dst = self.b.alloc_slot();
                let of = self.f_of();
                self.b.cast_u64_i64(dst, s, of);
                self.inline(1);
                dst
            }
            _ => unreachable!(),
        }
    }

    /// Lowers a statement condition with `exec_pred` semantics. Total: a
    /// non-inlinable predicate escapes through `PredEval` (which also
    /// reproduces the "predicate yielded X, not bool" error).
    fn lower_pred(&mut self, e: &CExpr) -> Slot {
        match e {
            CExpr::Cmp { .. } | CExpr::RandomBelow(_) => self.lower_typed(e, STy::Bool),
            other => {
                if self.infer(other) == Some(STy::Bool) {
                    self.lower_typed(other, STy::Bool)
                } else {
                    let dst = self.b.alloc_slot();
                    let spec = self.spec(ThunkSpec::PredEval {
                        elem: self.elem,
                        expr: other.clone(),
                    });
                    let f = self.f_env();
                    self.b.call_expr(spec, dst, &[], f);
                    dst
                }
            }
        }
    }

    fn make_fail(&self, else_abort: &Option<(CExpr, Option<CExpr>)>) -> OwnedFail {
        match else_abort {
            None => OwnedFail::Drop,
            Some((code, message)) => {
                if let CExpr::Const(cv) = code {
                    let msg_const = match message {
                        None => Some(None),
                        Some(CExpr::Const(mv)) => Some(Some(match mv {
                            Value::Str(s) => s.clone(),
                            other => other.to_string(),
                        })),
                        _ => None,
                    };
                    if let Some(m) = msg_const {
                        let code = cv.as_u64().unwrap_or(ABORT_INTERNAL as u64) as u32;
                        let message =
                            m.unwrap_or_else(|| format!("rejected by {}", self.elem_name));
                        return OwnedFail::Prebuilt(Verdict::Abort { code, message });
                    }
                }
                OwnedFail::Dynamic {
                    code: code.clone(),
                    message: message.clone(),
                }
            }
        }
    }

    /// Emits the SELECT-failure tail: a plain drop returns inline; abort
    /// verdicts go through a halt/build thunk (which always terminates).
    fn emit_fail(&mut self, fail: OwnedFail) {
        match fail {
            OwnedFail::Drop => {
                self.b.ret(ret::DROP);
                self.inline(1);
            }
            OwnedFail::Prebuilt(verdict) => {
                let spec = self.spec(ThunkSpec::Halt { verdict });
                self.b.call_stmt(spec);
                // Unreachable (Halt always returns VERDICT); keeps the
                // block structurally terminated.
                self.b.ret(ret::VERDICT);
            }
            OwnedFail::Dynamic { code, message } => {
                let spec = self.spec(ThunkSpec::AbortBuild {
                    elem: self.elem,
                    code,
                    message,
                });
                self.b.call_stmt(spec);
                self.b.ret(ret::VERDICT);
            }
        }
    }

    fn lower_element(
        &mut self,
        elem: usize,
        name: &str,
        tables: &'a [StateTable],
        stmts: &[CStmt],
    ) {
        self.elem = elem;
        self.elem_name = name.to_string();
        self.tables = tables;
        self.f_env = None;
        self.f_of = None;
        self.f_dz = None;
        for stmt in stmts {
            self.lower_stmt(stmt);
        }
    }

    /// Tries to lower INSERT column expressions to precompiled sources.
    /// Every column must be a side-effect-free clone (a literal, or a
    /// field whose schema type equals the column type) or a `now()` call
    /// into a `u64` column; literals are store-coerced here, at compile
    /// time. Anything else — including a literal that would fail coercion
    /// — keeps the interpreter escape so errors reproduce exactly.
    fn insert_cols(&self, table: usize, values: &[CExpr]) -> Option<Vec<ColSrc>> {
        let layout = self.tables.get(table)?.layout();
        let schema = self.schema?;
        if values.len() != layout.column_types.len() {
            return None;
        }
        values
            .iter()
            .zip(&layout.column_types)
            .map(|(e, &ty)| match e {
                CExpr::Const(v) => coerce_store(v.clone(), ty).ok().map(ColSrc::Const),
                CExpr::Field(i) if schema.fields()[*i].ty == ty => Some(ColSrc::Field(*i)),
                CExpr::Udf {
                    id: UdfId::Now,
                    args,
                } if args.is_empty() && ty == ValueType::U64 => Some(ColSrc::Now),
                _ => None,
            })
            .collect()
    }

    fn lower_stmt(&mut self, stmt: &CStmt) {
        match stmt {
            CStmt::Select {
                assignments,
                join,
                condition,
                else_abort,
            } => {
                if assignments.is_empty() && join.is_none() && condition.is_none() {
                    // `SELECT * FROM input`: a no-op the interpreter still
                    // steps through. Delete it.
                    self.stats.eliminated += 1;
                    return;
                }
                let fail = self.make_fail(else_abort);
                if join.is_none() && assignments.is_empty() {
                    // Pure filter: inline the condition, branch to the
                    // failure tail.
                    let cond = condition.as_ref().expect("non-noop select has cond");
                    self.b.note(format!("{}: select filter", self.elem_name));
                    let s = self.lower_pred(cond);
                    let cont = self.b.new_label();
                    self.b.jump_if_true(s, cont);
                    self.inline(1);
                    self.emit_fail(fail);
                    self.b.bind(cont);
                    return;
                }
                if assignments.is_empty() {
                    if let Some(j) = join {
                        if let JoinStrategy::KeyLookup { input_fields } = &j.strategy {
                            let mut checks = Vec::new();
                            let ok = collect_eq_checks(&j.on, &mut checks)
                                && condition
                                    .as_ref()
                                    .is_none_or(|c| collect_eq_checks(c, &mut checks));
                            if ok {
                                self.b.note(format!(
                                    "{}: select (keyed join filter)",
                                    self.elem_name
                                ));
                                let spec = self.fast_spec(ThunkSpec::KeyJoinFilter {
                                    elem: self.elem,
                                    table: j.table,
                                    input_fields: input_fields.clone(),
                                    checks,
                                    fail,
                                });
                                self.b.call_stmt(spec);
                                return;
                            }
                        }
                    }
                }
                self.b
                    .note(format!("{}: select (join/projection)", self.elem_name));
                let spec = self.spec(ThunkSpec::Select {
                    elem: self.elem,
                    assignments: assignments.clone(),
                    join: join.clone(),
                    condition: condition.clone(),
                    fail,
                });
                self.b.call_stmt(spec);
            }
            CStmt::Drop { condition } => {
                self.b.note(format!("{}: drop", self.elem_name));
                match condition {
                    None => {
                        self.b.ret(ret::DROP);
                        self.inline(1);
                    }
                    Some(c) => {
                        let s = self.lower_pred(c);
                        let cont = self.b.new_label();
                        self.b.jump_if_false(s, cont);
                        self.b.ret(ret::DROP);
                        self.inline(2);
                        self.b.bind(cont);
                    }
                }
            }
            CStmt::Abort {
                code,
                message,
                condition,
            } => {
                self.b.note(format!("{}: abort", self.elem_name));
                let halt = match (code, message) {
                    (CExpr::Const(cv), m) => {
                        let msg_const = match m {
                            None => Some(format!("aborted by {}", self.elem_name)),
                            Some(CExpr::Const(mv)) => Some(match mv {
                                Value::Str(s) => s.clone(),
                                other => other.to_string(),
                            }),
                            _ => None,
                        };
                        match msg_const {
                            Some(message) => ThunkSpec::Halt {
                                verdict: Verdict::Abort {
                                    code: cv.as_u64().unwrap_or(ABORT_INTERNAL as u64) as u32,
                                    message,
                                },
                            },
                            None => ThunkSpec::AbortBuild {
                                elem: self.elem,
                                code: code.clone(),
                                message: message.clone(),
                            },
                        }
                    }
                    _ => ThunkSpec::AbortBuild {
                        elem: self.elem,
                        code: code.clone(),
                        message: message.clone(),
                    },
                };
                let spec = self.spec(halt);
                match condition {
                    None => self.b.call_stmt(spec),
                    Some(c) => {
                        let s = self.lower_pred(c);
                        let cont = self.b.new_label();
                        self.b.jump_if_false(s, cont);
                        self.inline(1);
                        self.b.call_stmt(spec);
                        self.b.bind(cont);
                    }
                }
            }
            CStmt::Set {
                field,
                value,
                condition,
            } => {
                if let Some(vsty) = self.infer(value) {
                    self.b
                        .note(format!("{}: set field {}", self.elem_name, field));
                    let cont = condition.as_ref().map(|c| {
                        let s = self.lower_pred(c);
                        let cont = self.b.new_label();
                        self.b.jump_if_false(s, cont);
                        self.inline(1);
                        cont
                    });
                    let vs = self.lower_typed(value, vsty);
                    let spec = self.spec(ThunkSpec::StoreField {
                        field: *field,
                        aty: vsty,
                    });
                    let f = self.f_env();
                    let scratch = self.scratch;
                    self.b.call_expr(spec, scratch, &[vs], f);
                    if let Some(cont) = cont {
                        self.b.bind(cont);
                    }
                } else {
                    // Boxed value: run the whole statement interpreted.
                    self.b.note(format!("{}: set (escape)", self.elem_name));
                    let spec = self.spec(ThunkSpec::Stmt {
                        elem: self.elem,
                        stmt: stmt.clone(),
                    });
                    self.b.call_stmt(spec);
                }
            }
            CStmt::Route { key, condition } => {
                self.b.note(format!("{}: route", self.elem_name));
                let spec = self.spec(ThunkSpec::Route {
                    elem: self.elem,
                    key: key.clone(),
                });
                match condition {
                    None => self.b.call_stmt(spec),
                    Some(c) => {
                        let s = self.lower_pred(c);
                        let cont = self.b.new_label();
                        self.b.jump_if_false(s, cont);
                        self.inline(1);
                        self.b.call_stmt(spec);
                        self.b.bind(cont);
                    }
                }
            }
            CStmt::Insert { table, values } => {
                if let Some(cols) = self.insert_cols(*table, values) {
                    self.b
                        .note(format!("{}: insert (precompiled row)", self.elem_name));
                    let spec = self.fast_spec(ThunkSpec::InsertRow {
                        elem: self.elem,
                        table: *table,
                        cols,
                    });
                    self.b.call_stmt(spec);
                } else {
                    self.b.note(format!("{}: insert (state)", self.elem_name));
                    let spec = self.spec(ThunkSpec::Stmt {
                        elem: self.elem,
                        stmt: stmt.clone(),
                    });
                    self.b.call_stmt(spec);
                }
            }
            CStmt::Update { .. } | CStmt::UpdateKeyed { .. } | CStmt::Delete { .. } => {
                self.b
                    .note(format!("{}: {} (state)", self.elem_name, stmt_kind(stmt)));
                let spec = self.spec(ThunkSpec::Stmt {
                    elem: self.elem,
                    stmt: stmt.clone(),
                });
                self.b.call_stmt(spec);
            }
        }
    }

    fn finish(mut self) -> (Program, Vec<ThunkSpec>, LowerStats) {
        self.b.ret(ret::FORWARD);
        for (label, code) in std::mem::take(&mut self.pending_blocks) {
            self.b.bind(label);
            self.b.ret(code);
        }
        let p = self.b.finish();
        p.validate();
        (p, self.specs, self.stats)
    }
}

/// Decomposes a predicate into a conjunction of leaf equalities, in the
/// interpreter's left-to-right evaluation order. Returns `false` (leaving
/// `out` unusable) when any conjunct is not a leaf `==`.
fn collect_eq_checks(e: &CExpr, out: &mut Vec<EqCheck>) -> bool {
    match e {
        CExpr::Binary {
            op: IrBinOp::And,
            left,
            right,
        } => collect_eq_checks(left, out) && collect_eq_checks(right, out),
        CExpr::Cmp {
            op: IrBinOp::Eq,
            left,
            right,
        } => {
            let check = match (left, right) {
                (CRef::Field(f), CRef::Col(c)) | (CRef::Col(c), CRef::Field(f)) => {
                    EqCheck::FieldCol(*f, *c)
                }
                (CRef::Col(c), CRef::Const(v)) | (CRef::Const(v), CRef::Col(c)) => {
                    EqCheck::ColConst(*c, v.clone())
                }
                (CRef::Field(f), CRef::Const(v)) | (CRef::Const(v), CRef::Field(f)) => {
                    EqCheck::FieldConst(*f, v.clone())
                }
                _ => return false,
            };
            out.push(check);
            true
        }
        _ => false,
    }
}

fn stmt_kind(s: &CStmt) -> &'static str {
    match s {
        CStmt::Select { .. } => "select",
        CStmt::Insert { .. } => "insert",
        CStmt::Update { .. } => "update",
        CStmt::UpdateKeyed { .. } => "update-keyed",
        CStmt::Delete { .. } => "delete",
        CStmt::Drop { .. } => "drop",
        CStmt::Route { .. } => "route",
        CStmt::Abort { .. } => "abort",
        CStmt::Set { .. } => "set",
    }
}

// ---------------------------------------------------------------------------
// Compiled engine
// ---------------------------------------------------------------------------

enum Artifact {
    Threaded(ThreadedProgram),
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Native(NativeProgram),
}

impl Artifact {
    fn run(&self, ctx: &mut VmCtx, slots: &mut [u64], args: &mut [u64]) -> u64 {
        match self {
            Artifact::Threaded(p) => p.run(ctx, slots, args),
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Artifact::Native(p) => p.run(ctx, slots, args),
        }
    }

    fn tier(&self) -> JitTier {
        match self {
            Artifact::Threaded(_) => JitTier::Threaded,
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Artifact::Native(_) => JitTier::Native,
        }
    }
}

fn build_artifact(p: &Program, tier: JitTier) -> Artifact {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    if tier == JitTier::Native {
        // On error, fall through to the portable tier.
        if let Ok(np) = NativeProgram::compile(p) {
            return Artifact::Native(np);
        }
    }
    let _ = tier;
    Artifact::Threaded(ThreadedProgram::compile(p))
}

/// One compiled direction (request or response).
struct CompiledDir {
    program: Program,
    specs: Vec<ThunkSpec>,
    /// One recycled-row slot per spec (only `InsertRow` specs use theirs).
    scratch: Vec<Vec<Value>>,
    artifact: Artifact,
    mem: AlignedMemory,
    /// `Arc::as_ptr` of the schema this direction was specialized against
    /// (`None` until the first message re-lowers with field types).
    bound_schema: Option<usize>,
    stats: LowerStats,
}

fn lower_direction(
    elems: &[ElemState],
    kind: MessageKind,
    schema: Option<&RpcSchema>,
    tier: JitTier,
) -> CompiledDir {
    let mut lw = Lowerer::new(schema);
    for (i, e) in elems.iter().enumerate() {
        let stmts = match kind {
            MessageKind::Request => &e.request,
            MessageKind::Response => &e.response,
        };
        lw.lower_element(i, &e.name, &e.tables, stmts);
    }
    let (program, specs, stats) = lw.finish();
    let artifact = build_artifact(&program, tier);
    let mem = AlignedMemory::new(program.slot_count as usize, program.arg_buf_len as usize);
    let scratch = vec![Vec::new(); specs.len()];
    CompiledDir {
        program,
        specs,
        scratch,
        artifact,
        mem,
        bound_schema: schema.map(|s| s as *const RpcSchema as usize),
        stats,
    }
}

/// An element (or fused chain) compiled to a JIT execution tier.
///
/// Drop-in replacement for `NativeEngine`/`FusedEngine`: same name, same
/// verdicts, same exported state encoding.
pub struct JitEngine {
    name: String,
    fused: bool,
    tier: JitTier,
    elems: Vec<ElemState>,
    request: CompiledDir,
    response: CompiledDir,
}

impl JitEngine {
    /// Compiles one element at `tier` (`Threaded` or `Native`).
    pub fn single(element: &ElementIr, opts: &CompileOpts, tier: JitTier) -> JitEngine {
        let elems = vec![build_elem(element, opts.seed, opts.replicas.clone())];
        Self::from_elems(element.name.clone(), false, elems, tier)
    }

    /// Compiles a fused chain: one program runs every element's statements
    /// with per-element RNG streams and fault attribution.
    pub fn fused(elements: &[ElementIr], opts: &CompileOpts, tier: JitTier) -> JitEngine {
        let elems = elements
            .iter()
            .enumerate()
            .map(|(i, e)| build_elem(e, element_seed(opts.seed, i), opts.replicas.clone()))
            .collect();
        let name = format!(
            "fused[{}]",
            elements
                .iter()
                .map(|e| e.name.as_str())
                .collect::<Vec<_>>()
                .join("+")
        );
        Self::from_elems(name, true, elems, tier)
    }

    fn from_elems(name: String, fused: bool, elems: Vec<ElemState>, tier: JitTier) -> JitEngine {
        let request = lower_direction(&elems, MessageKind::Request, None, tier);
        let response = lower_direction(&elems, MessageKind::Response, None, tier);
        JitEngine {
            name,
            fused,
            tier,
            elems,
            request,
            response,
        }
    }

    /// The execution tier actually in use for the request direction (the
    /// native emitter can decline a program and fall back).
    pub fn effective_tier(&self) -> JitTier {
        self.request.artifact.tier()
    }

    /// Lowering statistics for one direction.
    pub fn stats(&self, kind: MessageKind) -> LowerStats {
        match kind {
            MessageKind::Request => self.request.stats,
            MessageKind::Response => self.response.stats,
        }
    }

    /// Annotated listing of one direction: plan notes, op IR, and (on the
    /// native tier) the machine code bytes per op.
    pub fn listing(&self, kind: MessageKind) -> String {
        let dir = match kind {
            MessageKind::Request => &self.request,
            MessageKind::Response => &self.response,
        };
        match &dir.artifact {
            Artifact::Threaded(_) => Listing::of_program(&dir.program).to_string(),
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Artifact::Native(np) => {
                Listing::with_code(&dir.program, np.code(), np.spans()).to_string()
            }
        }
    }

    fn dir_and_elems(&mut self, kind: MessageKind) -> (&mut CompiledDir, &mut Vec<ElemState>) {
        match kind {
            MessageKind::Request => (&mut self.request, &mut self.elems),
            MessageKind::Response => (&mut self.response, &mut self.elems),
        }
    }

    /// Pre-binds `schema` for one direction, exactly as processing the
    /// first message of that direction would, so [`Self::stats`] and
    /// [`Self::listing`] reflect the type-specialized lowering that runs
    /// in steady state (field loads with static types, the precompiled
    /// INSERT row build, the keyed join filter).
    pub fn bind_schema(&mut self, kind: MessageKind, schema: &RpcSchema) {
        let tier = self.tier;
        let (dir, elems) = self.dir_and_elems(kind);
        *dir = lower_direction(elems, kind, Some(schema), tier);
    }
}

impl Engine for JitEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, msg: &mut RpcMessage) -> Verdict {
        let tier = self.tier;
        let kind = msg.kind;
        let (dir, elems) = self.dir_and_elems(kind);
        // Type-feedback specialization: (re)lower against the message
        // schema the first time we see it, so field reads and compares get
        // static types. One recompile per direction in steady state.
        let schema_key = msg.schema.as_ref() as *const RpcSchema as usize;
        if dir.bound_schema != Some(schema_key) {
            *dir = lower_direction(elems, kind, Some(msg.schema.as_ref()), tier);
        }
        let mut env = JitEnv {
            fault: 0,
            msg: msg as *mut RpcMessage,
            elems: elems.as_mut_ptr(),
            n_elems: elems.len(),
            specs: dir.specs.as_ptr(),
            n_specs: dir.specs.len(),
            scratch: dir.scratch.as_mut_ptr(),
            fault_err: None,
            verdict: None,
        };
        let mut ctx = VmCtx::new(
            &mut env as *mut JitEnv as *mut c_void,
            expr_tramp,
            stmt_tramp,
        );
        let (slots, args) = dir.mem.regions_mut();
        let code = dir.artifact.run(&mut ctx, slots, args);
        if let Err(which) = dir.mem.check() {
            panic!("jit memory corruption in {}: {which}", self.name);
        }
        match code {
            ret::FORWARD => Verdict::Forward,
            ret::VERDICT => env.verdict.take().unwrap_or(Verdict::Forward),
            ret::DROP => Verdict::Drop,
            other => match ret::decode_fault(other) {
                Some((elem, kind)) => {
                    let e: ExecError = match kind {
                        ret::FAULT_OVERFLOW => EvalError::Overflow.into(),
                        ret::FAULT_DIV_ZERO => EvalError::DivideByZero.into(),
                        _ => env.fault_err.take().unwrap_or_else(|| {
                            EvalError::TypeError("unknown jit fault".into()).into()
                        }),
                    };
                    let name = self
                        .elems
                        .get(elem)
                        .map(|s| s.name.as_str())
                        .unwrap_or(&self.name);
                    Verdict::Abort {
                        code: ABORT_INTERNAL,
                        message: format!("element {name} fault: {e}"),
                    }
                }
                None => Verdict::Abort {
                    code: ABORT_INTERNAL,
                    message: format!("jit: invalid return code {other}"),
                },
            },
        }
    }

    fn export_state(&self) -> Vec<u8> {
        let export_one = |st: &ElemState| {
            let mut enc = Encoder::new();
            enc.put_varint(st.tables.len() as u64);
            for t in &st.tables {
                enc.put_bytes(&t.snapshot());
            }
            enc.into_bytes()
        };
        if self.fused {
            // Mirror FusedEngine: outer count, then one image per element.
            let mut enc = Encoder::new();
            enc.put_varint(self.elems.len() as u64);
            for st in &self.elems {
                enc.put_bytes(&export_one(st));
            }
            enc.into_bytes()
        } else {
            export_one(&self.elems[0])
        }
    }

    fn import_state(&mut self, image: &[u8]) -> Result<(), String> {
        fn import_one(st: &mut ElemState, image: &[u8]) -> Result<(), String> {
            let mut dec = Decoder::new(image);
            let count = dec.get_varint().map_err(|e| e.to_string())?;
            if count as usize != st.tables.len() {
                return Err(format!(
                    "image has {count} tables, engine has {}",
                    st.tables.len()
                ));
            }
            for t in &mut st.tables {
                let bytes = dec.get_bytes().map_err(|e| e.to_string())?;
                t.restore(bytes).map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        if self.fused {
            let mut dec = Decoder::new(image);
            let count = dec.get_varint().map_err(|e| e.to_string())?;
            if count as usize != self.elems.len() {
                return Err("fused state arity mismatch".into());
            }
            for st in &mut self.elems {
                let bytes = dec.get_bytes().map_err(|e| e.to_string())?;
                import_one(st, bytes)?;
            }
            Ok(())
        } else {
            import_one(&mut self.elems[0], image)
        }
    }
}

// ---------------------------------------------------------------------------
// Tier selection
// ---------------------------------------------------------------------------

/// Resolves the effective tier: the `ADN_JIT` env var overrides the
/// requested tier; `Auto` means native where available, else threaded.
pub fn resolve_tier(requested: JitTier) -> JitTier {
    static ENV: OnceLock<Option<JitTier>> = OnceLock::new();
    let over = *ENV.get_or_init(|| {
        std::env::var("ADN_JIT")
            .ok()
            .and_then(|s| JitTier::from_env_str(&s))
    });
    match over.unwrap_or(requested) {
        JitTier::Auto => {
            if native_available() {
                JitTier::Native
            } else {
                JitTier::Threaded
            }
        }
        t => t,
    }
}

/// Compiles one element at the tier chosen by `opts.jit` / `ADN_JIT`.
/// This is the production entry point; `compile_element` remains for code
/// that needs the concrete interpreter type.
pub fn compile_engine(element: &ElementIr, opts: &CompileOpts) -> Box<dyn Engine> {
    match resolve_tier(opts.jit) {
        JitTier::Interp => Box::new(compile_element(element, opts)),
        tier => Box::new(JitEngine::single(element, opts, tier)),
    }
}

/// Compiles a fused chain at the tier chosen by `opts.jit` / `ADN_JIT`.
pub fn compile_fused_engine(elements: &[ElementIr], opts: &CompileOpts) -> Box<dyn Engine> {
    match resolve_tier(opts.jit) {
        JitTier::Interp => Box::new(compile_fused(elements, opts)),
        tier => Box::new(JitEngine::fused(elements, opts, tier)),
    }
}

/// JIT eligibility report for one element, used by the V0006 lint: how
/// much of each direction runs inline vs escapes to interpreter thunks.
/// Pass the message schemas when known — type-specialized lowering (fast
/// INSERT rows, keyed join filters) only engages against a schema, so
/// stats without one overstate the escape count.
pub fn jit_eligibility(
    element: &ElementIr,
    req: Option<&RpcSchema>,
    resp: Option<&RpcSchema>,
) -> (LowerStats, LowerStats) {
    let opts = CompileOpts::default();
    let mut e = JitEngine::single(element, &opts, JitTier::Threaded);
    if let Some(s) = req {
        e.bind_schema(MessageKind::Request, s);
    }
    if let Some(s) = resp {
        e.bind_schema(MessageKind::Response, s);
    }
    (
        e.stats(MessageKind::Request),
        e.stats(MessageKind::Response),
    )
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use adn_dsl::parser::parse_element;
    use adn_dsl::typecheck::check_element;

    fn schemas() -> (Arc<RpcSchema>, Arc<RpcSchema>) {
        (
            Arc::new(
                RpcSchema::builder()
                    .field("object_id", ValueType::U64)
                    .field("username", ValueType::Str)
                    .field("payload", ValueType::Bytes)
                    .build()
                    .unwrap(),
            ),
            Arc::new(
                RpcSchema::builder()
                    .field("ok", ValueType::Bool)
                    .field("payload", ValueType::Bytes)
                    .build()
                    .unwrap(),
            ),
        )
    }

    fn lower_src(src: &str) -> ElementIr {
        let (req, resp) = schemas();
        let checked = check_element(&parse_element(src).unwrap(), &req, &resp).unwrap();
        adn_ir::lower_element(&checked, &[], &req, &resp).unwrap()
    }

    fn request(object_id: u64, username: &str, payload: &[u8]) -> RpcMessage {
        let (req, _) = schemas();
        RpcMessage::request(1, 1, req)
            .with("object_id", object_id)
            .with("username", username)
            .with("payload", payload.to_vec())
    }

    const ACL: &str = r#"
        element Acl() {
            state ac_tab(username: string key, permission: string) init {
                ('alice', 'W'), ('bob', 'R')
            };
            on request {
                SELECT * FROM input JOIN ac_tab ON input.username == ac_tab.username
                WHERE ac_tab.permission == 'W';
            }
        }
    "#;

    fn tiers() -> Vec<JitTier> {
        let mut t = vec![JitTier::Threaded];
        if native_available() {
            t.push(JitTier::Native);
        }
        t
    }

    #[test]
    fn jit_engine_matches_interpreter_on_acl() {
        for tier in tiers() {
            let ir = lower_src(ACL);
            let mut interp = compile_element(&ir, &CompileOpts::default());
            let mut jit = JitEngine::single(&ir, &CompileOpts::default(), tier);
            for (i, user) in ["alice", "bob", "eve", "alice"].iter().enumerate() {
                let mut a = request(i as u64, user, b"x");
                let mut b = a.clone();
                assert_eq!(
                    Engine::process(&mut interp, &mut a),
                    jit.process(&mut b),
                    "verdict diverged for {user} on {tier:?}"
                );
                assert_eq!(a.fields, b.fields);
            }
            assert_eq!(interp.export_state(), jit.export_state());
        }
    }

    #[test]
    fn jit_matches_interpreter_rng_stream() {
        let src = "element F(p: f64 = 0.3) { on request { ABORT(3, 'fault') WHERE random() < p; SELECT * FROM input; } }";
        for tier in tiers() {
            let ir = lower_src(src);
            let opts = CompileOpts {
                seed: 7,
                ..Default::default()
            };
            let mut interp = compile_element(&ir, &opts);
            let mut jit = JitEngine::single(&ir, &opts, tier);
            for i in 0..500 {
                let mut a = request(i, "alice", b"x");
                let mut b = a.clone();
                assert_eq!(
                    Engine::process(&mut interp, &mut a),
                    jit.process(&mut b),
                    "rng stream diverged at {i} on {tier:?}"
                );
            }
        }
    }

    #[test]
    fn jit_inline_arithmetic_and_faults() {
        // Overflow and division faults must carry the interpreter's exact
        // abort message.
        let src = "element E() { on request { SET object_id = input.object_id / 0; SELECT * FROM input; } }";
        for tier in tiers() {
            let ir = lower_src(src);
            let mut interp = compile_element(&ir, &CompileOpts::default());
            let mut jit = JitEngine::single(&ir, &CompileOpts::default(), tier);
            let mut a = request(1, "alice", b"x");
            let mut b = a.clone();
            let va = Engine::process(&mut interp, &mut a);
            let vb = jit.process(&mut b);
            assert_eq!(va, vb, "fault verdicts diverge on {tier:?}");
            assert!(matches!(vb, Verdict::Abort { code: 13, .. }));
        }
    }

    #[test]
    fn jit_set_field_with_inline_value() {
        let src = "element E() { on request { SET object_id = input.object_id * 2 WHERE input.object_id > 10; SELECT * FROM input; } }";
        for tier in tiers() {
            let ir = lower_src(src);
            let mut interp = compile_element(&ir, &CompileOpts::default());
            let mut jit = JitEngine::single(&ir, &CompileOpts::default(), tier);
            for v in [0u64, 10, 11, 1000, u64::MAX / 2 + 5] {
                let mut a = request(v, "alice", b"x");
                let mut b = a.clone();
                assert_eq!(Engine::process(&mut interp, &mut a), jit.process(&mut b));
                assert_eq!(a.fields, b.fields, "fields diverge for {v}");
            }
        }
    }

    #[test]
    fn fused_jit_matches_fused_interpreter() {
        let elements = vec![
            lower_src(ACL),
            lower_src("element C() { on request { SET payload = compress(input.payload); SELECT * FROM input; } }"),
        ];
        for tier in tiers() {
            let mut interp = compile_fused(&elements, &CompileOpts::default());
            let mut jit = JitEngine::fused(&elements, &CompileOpts::default(), tier);
            assert_eq!(Engine::name(&interp), jit.name());
            for i in 0..50 {
                let user = if i % 3 == 0 { "alice" } else { "bob" };
                let mut a = request(i, user, &[i as u8; 64]);
                let mut b = a.clone();
                assert_eq!(Engine::process(&mut interp, &mut a), jit.process(&mut b));
                assert_eq!(a.fields, b.fields);
            }
            assert_eq!(interp.export_state(), jit.export_state());
            // And the images are interchangeable.
            let img = jit.export_state();
            let mut fresh = JitEngine::fused(&elements, &CompileOpts::default(), tier);
            fresh.import_state(&img).unwrap();
            assert_eq!(fresh.export_state(), img);
        }
    }

    #[test]
    fn noop_selects_are_eliminated() {
        let ir = lower_src("element N() { on request { SELECT * FROM input; } }");
        let e = JitEngine::single(&ir, &CompileOpts::default(), JitTier::Threaded);
        assert_eq!(e.stats(MessageKind::Request).eliminated, 1);
        assert_eq!(e.stats(MessageKind::Request).escapes, 0);
    }

    #[test]
    fn listing_has_notes_and_code() {
        let ir = lower_src(
            "element E() { on request { DROP WHERE input.object_id > 100; SELECT * FROM input; } }",
        );
        let mut e = JitEngine::single(&ir, &CompileOpts::default(), *tiers().last().unwrap());
        // Bind the schema so the compare inlines.
        let mut msg = request(5, "alice", b"x");
        assert_eq!(e.process(&mut msg), Verdict::Forward);
        let text = e.listing(MessageKind::Request);
        assert!(text.contains("drop"), "{text}");
        if e.effective_tier() == JitTier::Native {
            assert!(
                text.contains('|'),
                "native listing should carry bytes: {text}"
            );
        }
    }

    #[test]
    fn tier_resolution_respects_interp() {
        let ir = lower_src("element N() { on request { SELECT * FROM input; } }");
        let eng = compile_engine(
            &ir,
            &CompileOpts {
                jit: JitTier::Interp,
                ..Default::default()
            },
        );
        assert_eq!(eng.name(), "N");
    }
}
