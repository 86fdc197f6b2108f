//! The register-bytecode dispatch loop.
//!
//! Executes a [`CompiledProgram`] with semantics bit-identical to the
//! tree-walking interpreter in [`machine`](crate::machine): the same
//! `dynamic_instructions` / `dynamic_progress` / `dynamic_checks` /
//! `dynamic_guard_ops` counters, the same trap points, the same errors
//! (see the [`bytecode`](crate::bytecode) module docs for the one
//! pathological error-ordering divergence on unchecked multi-dimensional
//! accesses). Strings for traps and errors are materialized only at the
//! point a trap or error actually fires — never on the hot path.
//!
//! The hot path works exclusively on two flat register banks (`i64` and
//! `f64`) and typed array storage; the interpreter's `Value` enum appears
//! only at frame boundaries (parameter binding, `print` output) and in
//! the two residual tree evaluations (opaque check atoms, adjustable
//! array bounds).

use nascent_ir::{expr::eval_int_binop, BinOp, Expr, FuncId, Param, Ty};

use crate::bytecode::{
    ArgSpec, AtomSpec, CompiledFunction, CompiledProgram, Instr, LinCheck, TermSpec,
};
use crate::machine::{apply_binop, apply_unop, Limits, RunError, RunResult, Trap, Value};

/// Runs a compiled program's main function to completion, trap, or error.
///
/// # Errors
///
/// See [`RunError`].
pub fn run_compiled(prog: &CompiledProgram, limits: &Limits) -> Result<RunResult, RunError> {
    // soundness of the unchecked dispatch accesses: `CompiledProgram`'s
    // fields are `pub(crate)`, so every program reaching here was built
    // (and validated instruction-by-instruction) by `bytecode::lower`
    let mut vm = Vm {
        prog,
        limits,
        instructions: 0,
        progress: 0,
        checks: 0,
        guard_ops: 0,
        output: Vec::new(),
        arrays: Vec::new(),
    };
    let trap = vm.call(prog.main, &[], 0)?;
    Ok(RunResult {
        dynamic_instructions: vm.instructions,
        dynamic_progress: vm.progress,
        dynamic_checks: vm.checks,
        dynamic_guard_ops: vm.guard_ops,
        trap,
        output: vm.output,
    })
}

/// Heap-allocated array object (shared by reference across calls).
/// Storage is typed by the declared element type — the frontend enforces
/// that arrays are always passed to parameters of the same element type,
/// so exactly one of `data_i`/`data_f` is in use.
struct ArrayObj {
    dims: Vec<(i64, i64)>,
    /// Cached `dims[0].0` for the rank-1/rank-2 fast paths.
    lo0: i64,
    /// Cached extent of dimension 0 for the rank-1/rank-2 fast paths.
    ext0: usize,
    /// Cached `dims[1].0` (0 when rank < 2).
    lo1: i64,
    /// Cached extent of dimension 1 (0 when rank < 2).
    ext1: usize,
    data_i: Vec<i64>,
    data_f: Vec<f64>,
}

enum CallArg {
    Scalar(Value),
    Array(usize),
}

struct Vm<'a> {
    prog: &'a CompiledProgram,
    limits: &'a Limits,
    instructions: u64,
    progress: u64,
    checks: u64,
    guard_ops: u64,
    output: Vec<Value>,
    arrays: Vec<ArrayObj>,
}

/// Pure tree evaluation against the typed register banks (variables
/// resolve through `var_slots`). Used for adjustable array bounds at
/// frame setup and for opaque check atoms — the only places the VM still
/// walks an expression tree.
fn eval_pure_slots(
    iregs: &[i64],
    fregs: &[f64],
    var_slots: &[(Ty, u32)],
    e: &Expr,
) -> Option<Value> {
    match e {
        Expr::IntConst(v) => Some(Value::Int(*v)),
        Expr::RealConst(r) => Some(Value::Real(r.value())),
        Expr::Var(v) => Some(match var_slots[v.index()] {
            (Ty::Int, r) => Value::Int(iregs[r as usize]),
            (Ty::Real, r) => Value::Real(fregs[r as usize]),
        }),
        Expr::Unary(op, inner) => Some(apply_unop(
            *op,
            eval_pure_slots(iregs, fregs, var_slots, inner)?,
        )),
        Expr::Binary(op, l, r) => {
            let l = eval_pure_slots(iregs, fregs, var_slots, l)?;
            let r = eval_pure_slots(iregs, fregs, var_slots, r)?;
            apply_binop(*op, l, r)
        }
    }
}

/// Builds the out-of-bounds error off the hot path.
#[cold]
#[inline(never)]
fn oob(f: &CompiledFunction, arr: u32, dim: usize, index: i64, lo: i64, hi: i64) -> RunError {
    RunError::UndetectedViolation {
        function: f.name.clone(),
        array: f.arrays[arr as usize].name.clone(),
        dim,
        index,
        lo,
        hi,
    }
}

/// Materializes a trap (strings allocated off the hot path): a general
/// check prints the source check it keeps, a fast check the text
/// rebuilt from its fields.
#[cold]
#[inline(never)]
fn make_trap(
    f: &CompiledFunction,
    check: Fired<'_>,
    at_instruction: u64,
    at_progress: u64,
) -> Trap {
    Trap {
        function: f.name.clone(),
        check: match check {
            Fired::Check(id) => f.checks[id as usize].display.to_string(),
            Fired::Fast(terms, base, bound) => f.fast_check_text(terms, base, bound),
        },
        at_instruction,
        at_progress,
    }
}

/// The check a trap names: a compiled check's id, or a fast check's
/// `(register, coefficient)` terms, base and bound.
enum Fired<'a> {
    Check(u32),
    Fast(&'a [(u32, i64)], i64, i64),
}

/// Unchecked register-bank read.
///
/// Soundness: every register operand in a compiled function was
/// range-validated against its bank by `bytecode`'s lowering-time
/// validator, each frame's banks are clones of the validated `*_init`
/// vectors, and `CompiledProgram` cannot be built or mutated outside
/// this crate (its fields are `pub(crate)`).
#[inline(always)]
fn rd<T: Copy>(bank: &[T], r: u32) -> T {
    debug_assert!((r as usize) < bank.len());
    unsafe { *bank.get_unchecked(r as usize) }
}

/// Unchecked register-bank write (see [`rd`] for soundness).
#[inline(always)]
fn wr<T>(bank: &mut [T], r: u32, v: T) {
    debug_assert!((r as usize) < bank.len());
    unsafe { *bank.get_unchecked_mut(r as usize) = v }
}

impl<'a> Vm<'a> {
    /// Evaluates one fused inequality (wrapping arithmetic, opaque atoms
    /// tree-walked with division-by-zero-as-zero — exactly the
    /// tree-walker's `eval_linform`).
    fn eval_lincheck(
        &self,
        iregs: &[i64],
        fregs: &[f64],
        var_slots: &[(Ty, u32)],
        lc: &LinCheck,
    ) -> bool {
        match lc {
            LinCheck::Const(b) => *b,
            LinCheck::Dynamic { bound, base, terms } => {
                let mut acc = *base;
                for t in terms {
                    let prod: i64 = match &t.spec {
                        TermSpec::IVar(r) => iregs[*r as usize],
                        TermSpec::Prod(atoms) => atoms.iter().fold(1i64, |p, a| {
                            p.wrapping_mul(match a {
                                AtomSpec::I(r) => iregs[*r as usize],
                                AtomSpec::F(r) => fregs[*r as usize] as i64,
                                AtomSpec::Opaque(e) => eval_pure_slots(iregs, fregs, var_slots, e)
                                    .map_or(0, Value::as_int),
                            })
                        }),
                    };
                    acc = acc.wrapping_add(t.coeff.wrapping_mul(prod));
                }
                acc <= *bound
            }
        }
    }

    /// Executes one function. Returns a trap if one fired.
    #[allow(clippy::too_many_lines)]
    fn call(
        &mut self,
        fid: FuncId,
        args: &[CallArg],
        depth: usize,
    ) -> Result<Option<Trap>, RunError> {
        if depth > self.limits.max_call_depth {
            return Err(RunError::CallDepth);
        }
        let f = &self.prog.functions[fid.index()];
        let mut iregs = f.ireg_init.clone();
        let mut fregs = f.freg_init.clone();
        let mut arrays = vec![usize::MAX; f.arrays.len()];
        // bind parameters (coerced to the declared type's bank)
        for (p, a) in f.params.iter().zip(args.iter()) {
            match (p, a) {
                (Param::Scalar(v), CallArg::Scalar(val)) => match f.var_slots[v.index()] {
                    (Ty::Int, r) => iregs[r as usize] = val.as_int(),
                    (Ty::Real, r) => fregs[r as usize] = val.as_real(),
                },
                (Param::Array(slot), CallArg::Array(obj)) => {
                    arrays[slot.index()] = *obj;
                }
                _ => unreachable!("frontend checked call kinds"),
            }
        }
        // allocate local (non-parameter) arrays, bounds evaluated on entry
        for (i, spec) in f.arrays.iter().enumerate() {
            if arrays[i] != usize::MAX {
                continue;
            }
            let mut dims = Vec::with_capacity(spec.dims.len());
            let mut len: usize = 1;
            for (lo, hi) in &spec.dims {
                let lo = self.eval_entry(&iregs, &fregs, f, lo)?.as_int();
                let hi = self.eval_entry(&iregs, &fregs, f, hi)?.as_int();
                if hi < lo - 1 {
                    return Err(RunError::BadBounds {
                        function: f.name.clone(),
                        array: spec.name.clone(),
                    });
                }
                let extent = (hi - lo + 1).max(0) as usize;
                len = len.saturating_mul(extent);
                dims.push((lo, hi));
            }
            let (data_i, data_f) = match spec.ty {
                Ty::Int => (vec![0i64; len], Vec::new()),
                Ty::Real => (Vec::new(), vec![0f64; len]),
            };
            let idx = self.arrays.len();
            let (lo1, ext1) = dims
                .get(1)
                .map_or((0, 0), |&(lo, hi)| (lo, (hi - lo + 1).max(0) as usize));
            self.arrays.push(ArrayObj {
                lo0: dims[0].0,
                ext0: (dims[0].1 - dims[0].0 + 1).max(0) as usize,
                lo1,
                ext1,
                dims,
                data_i,
                data_f,
            });
            arrays[i] = idx;
        }

        // dispatch loop — instruction fetch, register-bank and
        // array-table accesses are unchecked; the lowering-time validator
        // (re-run by `run_compiled`) established every index, and control
        // flow can't run off the end of `code` (blocks end in
        // terminators, which never fall through)
        let code = &*f.code;
        let mut pc = f.entry as usize;
        loop {
            debug_assert!(pc < code.len());
            let instr = unsafe { *code.get_unchecked(pc) };
            match instr {
                Instr::Charge { cost, progress } => {
                    self.instructions += cost;
                    if self.instructions + self.checks > self.limits.max_steps {
                        return Err(RunError::StepLimit);
                    }
                    if progress {
                        self.progress += 1;
                    }
                }
                Instr::ICopy { dst, src } => {
                    let v = rd(&iregs, src);
                    wr(&mut iregs, dst, v);
                }
                Instr::FCopy { dst, src } => {
                    let v = rd(&fregs, src);
                    wr(&mut fregs, dst, v);
                }
                Instr::ItoF { dst, src } => {
                    let v = rd(&iregs, src) as f64;
                    wr(&mut fregs, dst, v);
                }
                Instr::FtoI { dst, src } => {
                    let v = rd(&fregs, src) as i64;
                    wr(&mut iregs, dst, v);
                }
                Instr::INeg { dst, src } => {
                    let v = rd(&iregs, src).wrapping_neg();
                    wr(&mut iregs, dst, v);
                }
                Instr::INot { dst, src } => {
                    let v = i64::from(rd(&iregs, src) == 0);
                    wr(&mut iregs, dst, v);
                }
                Instr::FNeg { dst, src } => {
                    let v = -rd(&fregs, src);
                    wr(&mut fregs, dst, v);
                }
                Instr::IAdd { dst, lhs, rhs } => {
                    let v = rd(&iregs, lhs).wrapping_add(rd(&iregs, rhs));
                    wr(&mut iregs, dst, v);
                }
                Instr::ISub { dst, lhs, rhs } => {
                    let v = rd(&iregs, lhs).wrapping_sub(rd(&iregs, rhs));
                    wr(&mut iregs, dst, v);
                }
                Instr::IMul { dst, lhs, rhs } => {
                    let v = rd(&iregs, lhs).wrapping_mul(rd(&iregs, rhs));
                    wr(&mut iregs, dst, v);
                }
                Instr::IBin { op, dst, lhs, rhs } => {
                    match eval_int_binop(op, rd(&iregs, lhs), rd(&iregs, rhs)) {
                        Some(v) => wr(&mut iregs, dst, v),
                        None => {
                            return Err(RunError::DivisionByZero {
                                function: f.name.clone(),
                            })
                        }
                    }
                }
                Instr::FArith { op, dst, lhs, rhs } => {
                    let (a, b) = (rd(&fregs, lhs), rd(&fregs, rhs));
                    let v = match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => a / b,
                        BinOp::Mod => a % b,
                        BinOp::Min => a.min(b),
                        BinOp::Max => a.max(b),
                        _ => unreachable!("non-arithmetic op in FArith"),
                    };
                    wr(&mut fregs, dst, v);
                }
                Instr::FCmp { op, dst, lhs, rhs } => {
                    let (a, b) = (rd(&fregs, lhs), rd(&fregs, rhs));
                    let v = i64::from(match op {
                        BinOp::Lt => a < b,
                        BinOp::Le => a <= b,
                        BinOp::Gt => a > b,
                        BinOp::Ge => a >= b,
                        BinOp::Eq => a == b,
                        BinOp::Ne => a != b,
                        BinOp::And => a != 0.0 && b != 0.0,
                        BinOp::Or => a != 0.0 || b != 0.0,
                        _ => unreachable!("non-comparison op in FCmp"),
                    });
                    wr(&mut iregs, dst, v);
                }
                Instr::LoadI1 { dst, arr, idx } => {
                    let obj = &self.arrays[rd(&arrays, arr)];
                    let i = rd(&iregs, idx);
                    let off = i.wrapping_sub(obj.lo0) as usize;
                    if off >= obj.ext0 {
                        let (lo, hi) = obj.dims[0];
                        return Err(oob(f, arr, 0, i, lo, hi));
                    }
                    let v = obj.data_i[off];
                    wr(&mut iregs, dst, v);
                }
                Instr::LoadF1 { dst, arr, idx } => {
                    let obj = &self.arrays[rd(&arrays, arr)];
                    let i = rd(&iregs, idx);
                    let off = i.wrapping_sub(obj.lo0) as usize;
                    if off >= obj.ext0 {
                        let (lo, hi) = obj.dims[0];
                        return Err(oob(f, arr, 0, i, lo, hi));
                    }
                    let v = obj.data_f[off];
                    wr(&mut fregs, dst, v);
                }
                Instr::StoreI1 { arr, idx, src } => {
                    let v = rd(&iregs, src);
                    let i = rd(&iregs, idx);
                    let obj = &mut self.arrays[rd(&arrays, arr)];
                    let off = i.wrapping_sub(obj.lo0) as usize;
                    if off >= obj.ext0 {
                        let (lo, hi) = obj.dims[0];
                        return Err(oob(f, arr, 0, i, lo, hi));
                    }
                    obj.data_i[off] = v;
                }
                Instr::StoreF1 { arr, idx, src } => {
                    let v = rd(&fregs, src);
                    let i = rd(&iregs, idx);
                    let obj = &mut self.arrays[rd(&arrays, arr)];
                    let off = i.wrapping_sub(obj.lo0) as usize;
                    if off >= obj.ext0 {
                        let (lo, hi) = obj.dims[0];
                        return Err(oob(f, arr, 0, i, lo, hi));
                    }
                    obj.data_f[off] = v;
                }
                Instr::LoadI2 { dst, arr, i0, i1 } => {
                    let obj = &self.arrays[rd(&arrays, arr)];
                    let (a, b) = (rd(&iregs, i0), rd(&iregs, i1));
                    let off0 = a.wrapping_sub(obj.lo0) as usize;
                    if off0 >= obj.ext0 {
                        let (lo, hi) = obj.dims[0];
                        return Err(oob(f, arr, 0, a, lo, hi));
                    }
                    let off1 = b.wrapping_sub(obj.lo1) as usize;
                    if off1 >= obj.ext1 {
                        let (lo, hi) = obj.dims[1];
                        return Err(oob(f, arr, 1, b, lo, hi));
                    }
                    let v = obj.data_i[off0 * obj.ext1 + off1];
                    wr(&mut iregs, dst, v);
                }
                Instr::LoadF2 { dst, arr, i0, i1 } => {
                    let obj = &self.arrays[rd(&arrays, arr)];
                    let (a, b) = (rd(&iregs, i0), rd(&iregs, i1));
                    let off0 = a.wrapping_sub(obj.lo0) as usize;
                    if off0 >= obj.ext0 {
                        let (lo, hi) = obj.dims[0];
                        return Err(oob(f, arr, 0, a, lo, hi));
                    }
                    let off1 = b.wrapping_sub(obj.lo1) as usize;
                    if off1 >= obj.ext1 {
                        let (lo, hi) = obj.dims[1];
                        return Err(oob(f, arr, 1, b, lo, hi));
                    }
                    let v = obj.data_f[off0 * obj.ext1 + off1];
                    wr(&mut fregs, dst, v);
                }
                Instr::StoreI2 { arr, i0, i1, src } => {
                    let v = rd(&iregs, src);
                    let (a, b) = (rd(&iregs, i0), rd(&iregs, i1));
                    let obj = &mut self.arrays[rd(&arrays, arr)];
                    let off0 = a.wrapping_sub(obj.lo0) as usize;
                    if off0 >= obj.ext0 {
                        let (lo, hi) = obj.dims[0];
                        return Err(oob(f, arr, 0, a, lo, hi));
                    }
                    let off1 = b.wrapping_sub(obj.lo1) as usize;
                    if off1 >= obj.ext1 {
                        let (lo, hi) = obj.dims[1];
                        return Err(oob(f, arr, 1, b, lo, hi));
                    }
                    obj.data_i[off0 * obj.ext1 + off1] = v;
                }
                Instr::StoreF2 { arr, i0, i1, src } => {
                    let v = rd(&fregs, src);
                    let (a, b) = (rd(&iregs, i0), rd(&iregs, i1));
                    let obj = &mut self.arrays[rd(&arrays, arr)];
                    let off0 = a.wrapping_sub(obj.lo0) as usize;
                    if off0 >= obj.ext0 {
                        let (lo, hi) = obj.dims[0];
                        return Err(oob(f, arr, 0, a, lo, hi));
                    }
                    let off1 = b.wrapping_sub(obj.lo1) as usize;
                    if off1 >= obj.ext1 {
                        let (lo, hi) = obj.dims[1];
                        return Err(oob(f, arr, 1, b, lo, hi));
                    }
                    obj.data_f[off0 * obj.ext1 + off1] = v;
                }
                Instr::LoadIN {
                    dst,
                    arr,
                    idx,
                    rank,
                } => {
                    let g = arrays[arr as usize];
                    let off = element_offset(f, &iregs, &self.arrays[g], arr, idx, rank)?;
                    let v = self.arrays[g].data_i[off];
                    wr(&mut iregs, dst, v);
                }
                Instr::LoadFN {
                    dst,
                    arr,
                    idx,
                    rank,
                } => {
                    let g = arrays[arr as usize];
                    let off = element_offset(f, &iregs, &self.arrays[g], arr, idx, rank)?;
                    let v = self.arrays[g].data_f[off];
                    wr(&mut fregs, dst, v);
                }
                Instr::StoreIN {
                    arr,
                    idx,
                    rank,
                    src,
                } => {
                    let g = arrays[arr as usize];
                    let off = element_offset(f, &iregs, &self.arrays[g], arr, idx, rank)?;
                    self.arrays[g].data_i[off] = rd(&iregs, src);
                }
                Instr::StoreFN {
                    arr,
                    idx,
                    rank,
                    src,
                } => {
                    let g = arrays[arr as usize];
                    let off = element_offset(f, &iregs, &self.arrays[g], arr, idx, rank)?;
                    self.arrays[g].data_f[off] = rd(&fregs, src);
                }
                Instr::Check1 { fast } => {
                    debug_assert!((fast as usize) < f.fast_checks.len());
                    let fc = unsafe { f.fast_checks.get_unchecked(fast as usize) };
                    self.checks += 1;
                    if self.checks + self.instructions > self.limits.max_steps {
                        return Err(RunError::StepLimit);
                    }
                    let v = fc
                        .base
                        .wrapping_add(fc.coeff.wrapping_mul(rd(&iregs, fc.reg)));
                    if v > fc.bound {
                        return Ok(Some(make_trap(
                            f,
                            Fired::Fast(&[(fc.reg, fc.coeff)], fc.base, fc.bound),
                            self.instructions,
                            self.progress,
                        )));
                    }
                    // fused charge of the following statement
                    if fc.charge != 0 {
                        self.instructions += fc.charge;
                        if self.instructions + self.checks > self.limits.max_steps {
                            return Err(RunError::StepLimit);
                        }
                        if fc.progress {
                            self.progress += 1;
                        }
                    }
                }
                Instr::Check2 { fast } => {
                    debug_assert!((fast as usize) < f.fast2_checks.len());
                    let fc = unsafe { f.fast2_checks.get_unchecked(fast as usize) };
                    self.checks += 1;
                    if self.checks + self.instructions > self.limits.max_steps {
                        return Err(RunError::StepLimit);
                    }
                    let v = fc
                        .base
                        .wrapping_add(fc.c0.wrapping_mul(rd(&iregs, fc.r0)))
                        .wrapping_add(fc.c1.wrapping_mul(rd(&iregs, fc.r1)));
                    if v > fc.bound {
                        return Ok(Some(make_trap(
                            f,
                            Fired::Fast(&[(fc.r0, fc.c0), (fc.r1, fc.c1)], fc.base, fc.bound),
                            self.instructions,
                            self.progress,
                        )));
                    }
                    if fc.charge != 0 {
                        self.instructions += fc.charge;
                        if self.instructions + self.checks > self.limits.max_steps {
                            return Err(RunError::StepLimit);
                        }
                        if fc.progress {
                            self.progress += 1;
                        }
                    }
                }
                Instr::CheckN { fast } => {
                    debug_assert!((fast as usize) < f.fastn_checks.len());
                    let fc = unsafe { f.fastn_checks.get_unchecked(fast as usize) };
                    self.checks += 1;
                    if self.checks + self.instructions > self.limits.max_steps {
                        return Err(RunError::StepLimit);
                    }
                    let mut v = fc.base;
                    for &(r, c) in fc.terms.iter() {
                        v = v.wrapping_add(c.wrapping_mul(rd(&iregs, r)));
                    }
                    if v > fc.bound {
                        return Ok(Some(make_trap(
                            f,
                            Fired::Fast(&fc.terms, fc.base, fc.bound),
                            self.instructions,
                            self.progress,
                        )));
                    }
                    if fc.charge != 0 {
                        self.instructions += fc.charge;
                        if self.instructions + self.checks > self.limits.max_steps {
                            return Err(RunError::StepLimit);
                        }
                        if fc.progress {
                            self.progress += 1;
                        }
                    }
                }
                Instr::Check { id } => {
                    let check = &f.checks[id as usize];
                    let mut suppressed = false;
                    for g in &check.guards {
                        self.guard_ops += 1;
                        if !self.eval_lincheck(&iregs, &fregs, &f.var_slots, g) {
                            suppressed = true; // guard failed: check not performed
                            break;
                        }
                    }
                    if !suppressed {
                        self.checks += 1;
                        if self.checks + self.instructions > self.limits.max_steps {
                            return Err(RunError::StepLimit);
                        }
                        if !self.eval_lincheck(&iregs, &fregs, &f.var_slots, &check.cond) {
                            return Ok(Some(make_trap(
                                f,
                                Fired::Check(id),
                                self.instructions,
                                self.progress,
                            )));
                        }
                    }
                    // fused charge: the next statement runs whether the
                    // check passed or was guard-suppressed
                    if check.charge != 0 {
                        self.instructions += check.charge;
                        if self.instructions + self.checks > self.limits.max_steps {
                            return Err(RunError::StepLimit);
                        }
                        if check.progress {
                            self.progress += 1;
                        }
                    }
                }
                Instr::Trap { id } => {
                    return Ok(Some(Trap {
                        function: f.name.clone(),
                        check: format!("TRAP \"{}\"", f.traps[id as usize]),
                        at_instruction: self.instructions,
                        at_progress: self.progress,
                    }));
                }
                Instr::Call { id } => {
                    let spec = &f.calls[id as usize];
                    let call_args: Vec<CallArg> = spec
                        .args
                        .iter()
                        .map(|a| match a {
                            ArgSpec::I(r) => CallArg::Scalar(Value::Int(iregs[*r as usize])),
                            ArgSpec::F(r) => CallArg::Scalar(Value::Real(fregs[*r as usize])),
                            ArgSpec::Array(slot) => CallArg::Array(arrays[*slot as usize]),
                        })
                        .collect();
                    if let Some(trap) = self.call(spec.callee, &call_args, depth + 1)? {
                        return Ok(Some(trap));
                    }
                }
                Instr::EmitI { src } => self.output.push(Value::Int(rd(&iregs, src))),
                Instr::EmitF { src } => self.output.push(Value::Real(rd(&fregs, src))),
                Instr::Jump { target } => {
                    self.instructions += 1;
                    if self.instructions + self.checks > self.limits.max_steps {
                        return Err(RunError::StepLimit);
                    }
                    pc = target as usize;
                    continue;
                }
                Instr::Branch {
                    cond,
                    then_t,
                    else_t,
                } => {
                    pc = if rd(&iregs, cond) != 0 {
                        then_t as usize
                    } else {
                        else_t as usize
                    };
                    continue;
                }
                Instr::BrICmp {
                    op,
                    lhs,
                    rhs,
                    then_t,
                    else_t,
                } => {
                    let (a, b) = (rd(&iregs, lhs), rd(&iregs, rhs));
                    let taken = match op {
                        BinOp::Lt => a < b,
                        BinOp::Le => a <= b,
                        BinOp::Gt => a > b,
                        BinOp::Ge => a >= b,
                        BinOp::Eq => a == b,
                        BinOp::Ne => a != b,
                        _ => unreachable!("non-relational op in BrICmp"),
                    };
                    pc = if taken {
                        then_t as usize
                    } else {
                        else_t as usize
                    };
                    continue;
                }
                Instr::Return => {
                    self.instructions += 1;
                    if self.instructions + self.checks > self.limits.max_steps {
                        return Err(RunError::StepLimit);
                    }
                    return Ok(None);
                }
            }
            pc += 1;
        }
    }

    /// Expression evaluation at frame setup (adjustable array bounds).
    fn eval_entry(
        &self,
        iregs: &[i64],
        fregs: &[f64],
        f: &CompiledFunction,
        e: &Expr,
    ) -> Result<Value, RunError> {
        eval_pure_slots(iregs, fregs, &f.var_slots, e).ok_or_else(|| RunError::DivisionByZero {
            function: f.name.clone(),
        })
    }
}

/// Row-major element offset with per-dimension bounds checking over
/// pre-evaluated subscript registers (the rank-≥2 path).
fn element_offset(
    f: &CompiledFunction,
    iregs: &[i64],
    obj: &ArrayObj,
    arr: u32,
    idx: u32,
    rank: u32,
) -> Result<usize, RunError> {
    let mut offset: usize = 0;
    for d in 0..rank as usize {
        let i = iregs[f.idx_regs[idx as usize + d] as usize];
        let (lo, hi) = obj.dims[d];
        if i < lo || i > hi {
            return Err(oob(f, arr, d, i, lo, hi));
        }
        let extent = (hi - lo + 1) as usize;
        offset = offset * extent + (i - lo) as usize;
    }
    Ok(offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::lower;
    use crate::machine::run;
    use nascent_frontend::{compile, compile_with, CheckInsertion};

    fn both(src: &str) -> (Result<RunResult, RunError>, Result<RunResult, RunError>) {
        let p = compile(src).unwrap();
        let tree = run(&p, &Limits::default());
        let vm = run_compiled(&lower(&p), &Limits::default());
        (tree, vm)
    }

    fn assert_agree(src: &str) {
        let (tree, vm) = both(src);
        assert_eq!(tree, vm, "engines disagree on {src:?}");
    }

    #[test]
    fn straightline_and_loops_agree() {
        assert_agree("program p\n integer x\n x = 2 + 3 * 4\n print x\nend\n");
        assert_agree(
            "program p\n integer a(1:10)\n integer i, s\n s = 0\n do i = 1, 10\n a(i) = i\n enddo\n do i = 1, 10\n s = s + a(i)\n enddo\n print s\nend\n",
        );
        assert_agree(
            "program p\n real x\n integer i\n x = 1.0\n i = 0\n while (i < 3)\n x = x * 2.0\n i = i + 1\n endwhile\n print x\nend\n",
        );
    }

    #[test]
    fn mixed_type_programs_agree() {
        // int↔real conversions on assignment, loads, stores, calls,
        // print, and real-typed branch conditions
        assert_agree(
            "program p\n real a(1:8)\n integer i\n real s\n s = 0.0\n do i = 1, 8\n a(i) = i * 0.5\n s = s + a(i)\n enddo\n print s\nend\n",
        );
        assert_agree(
            "program p\n real x\n x = 7.9\n print -x\n print x / 0.0\n print x + 1\nend\n",
        );
        assert_agree(
            "program p\n real x\n integer i\n x = 2.5\n i = 0\n while (x < 40.0)\n x = x * 3.0\n i = i + 1\n endwhile\n print i\n print x\nend\n",
        );
        assert_agree("subroutine s(x)\n real x\n print x * 2.0\nend\nprogram p\n call s(3)\nend\n");
    }

    #[test]
    fn traps_agree_exactly() {
        for src in [
            "program p\n integer a(1:5)\n integer i\n i = 7\n a(i) = 1\nend\n",
            "program p\n integer a(3:5)\n integer i\n i = 1\n a(i) = 1\nend\n",
            "program p\n integer a(1:5)\n integer i\n i = 9\n print 1\n a(i) = 0\n print 2\nend\n",
        ] {
            let (tree, vm) = both(src);
            let t = tree.unwrap();
            let v = vm.unwrap();
            assert_eq!(t.trap, v.trap);
            assert_eq!(t.output, v.output);
            assert_eq!(t.dynamic_instructions, v.dynamic_instructions);
            assert_eq!(t.dynamic_progress, v.dynamic_progress);
            assert_eq!(t.dynamic_checks, v.dynamic_checks);
        }
    }

    #[test]
    fn calls_and_adjustable_arrays_agree() {
        assert_agree(
            "subroutine fill(n, a)\n integer n\n integer a(1:10)\n integer i\n do i = 1, n\n a(i) = i * i\n enddo\nend\nprogram p\n integer b(1:10)\n call fill(4, b)\n print b(4)\nend\n",
        );
        assert_agree(
            "subroutine s(n)\n integer n\n integer a(1:n)\n a(n) = 42\n print a(n)\nend\nprogram p\n call s(3)\nend\n",
        );
        assert_agree(
            "subroutine s(x)\n integer x\n x = 99\nend\nprogram p\n integer y\n y = 5\n call s(y)\n print y\nend\n",
        );
    }

    #[test]
    fn division_by_zero_agrees() {
        let (tree, vm) = both("program p\n integer x\n x = 0\n x = 1 / x\nend\n");
        assert_eq!(tree, vm);
        assert!(matches!(vm, Err(RunError::DivisionByZero { .. })));
    }

    #[test]
    fn step_limit_agrees() {
        let p =
            compile("program p\n integer i\n i = 0\n while (0 == 0)\n i = i + 1\n endwhile\nend\n")
                .unwrap();
        let limits = Limits {
            max_steps: 10_000,
            max_call_depth: 8,
        };
        assert_eq!(run(&p, &limits), Err(RunError::StepLimit));
        assert_eq!(run_compiled(&lower(&p), &limits), Err(RunError::StepLimit));
    }

    #[test]
    fn unchecked_violation_agrees() {
        let p = compile_with(
            "program p\n integer a(1:5)\n integer i\n i = 7\n a(i) = 1\nend\n",
            CheckInsertion::None,
        )
        .unwrap();
        let tree = run(&p, &Limits::default());
        let vm = run_compiled(&lower(&p), &Limits::default());
        assert_eq!(tree, vm);
        assert!(matches!(
            vm,
            Err(RunError::UndetectedViolation { index: 7, .. })
        ));
    }

    #[test]
    fn multi_dim_addressing_agrees() {
        assert_agree(
            "program p\n integer a(1:3, 1:4)\n integer i, j\n do i = 1, 3\n do j = 1, 4\n a(i, j) = 10 * i + j\n enddo\n enddo\n print a(2, 3)\n print a(3, 1)\nend\n",
        );
    }

    #[test]
    fn recursion_depth_agrees() {
        // `call` recursion to the depth limit needs more than the test
        // harness's default 2 MiB thread stack in unoptimized builds
        // (debug frames of the dispatch loop are large)
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(|| {
                let p = compile(
                    "subroutine r(x)\n integer x\n call r(x)\nend\nprogram p\n call r(1)\nend\n",
                )
                .unwrap();
                let tree = run(&p, &Limits::default());
                let vm = run_compiled(&lower(&p), &Limits::default());
                assert_eq!(tree, vm);
            })
            .expect("spawn")
            .join()
            .expect("join");
    }
}
