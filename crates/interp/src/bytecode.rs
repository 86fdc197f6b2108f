//! Register bytecode: one-time lowering of [`nascent_ir`] functions into
//! flat, *type-specialized* instruction streams the [`vm`](crate::vm)
//! dispatch loop executes.
//!
//! Lowering resolves everything that the tree-walking interpreter
//! re-derives on every visit:
//!
//! * **slots** — scalar variables become indices into one of two typed
//!   register banks (`i64` and `f64`), chosen by declared type;
//!   integer/real literals are deduplicated into per-bank constant pools
//!   loaded once per frame; expression temporaries reuse a small
//!   per-statement scratch window in each bank;
//! * **types** — the static type of every subexpression is inferred at
//!   lowering time (the interpreter's promotion rules are static: see
//!   `infer_ty`), so the `Value` enum disappears from the hot path
//!   entirely.  Arithmetic lowers to `IAdd`/`FArith`/… on the right
//!   bank, with explicit `ItoF`/`FtoI` conversions exactly where the
//!   tree-walker's `coerce`/`as_int`/`as_real` calls sit;
//! * **cost** — every statement's dynamic-instruction cost
//!   ([`Stmt::cost`]) is folded into a single [`Instr::Charge`] emitted
//!   ahead of the statement's body (checks and compile-time traps cost 0
//!   and charge nothing — a zero charge can never newly exceed the step
//!   limit, so eliding it is behavior-preserving);
//! * **checks** — each canonical check becomes *one* instruction.
//!   No-guard checks whose terms are all integer variables take a fast
//!   path specialized by term count: [`Instr::Check1`] (one term, the
//!   overwhelmingly common shape), [`Instr::Check2`] (two terms — every
//!   bound check against an adjustable array extent), or
//!   [`Instr::CheckN`]; everything else goes through [`Instr::Check`]
//!   over a [`CompiledCheck`] with the `LinForm` walk flattened into
//!   coefficient/register pairs and the constant part folded at
//!   lowering time;
//! * **jumps** — block ids become direct code offsets, with the
//!   terminator's unit cost fused into [`Instr::Jump`]/[`Instr::Return`]
//!   and integer comparisons fused into the branch
//!   ([`Instr::BrICmp`]).
//!
//! Counter and trap semantics are bit-identical to the tree-walker; the
//! only known divergence is pathological and affects *errors* only: for a
//! multi-dimensional access the tree-walker interleaves per-dimension
//! bounds checking with subscript evaluation, while the VM evaluates all
//! subscripts before checking, so a program whose dimension-`d` subscript
//! is out of bounds *and* whose dimension-`d+1` subscript divides by zero
//! reports `DivisionByZero` instead of `UndetectedViolation`. Checked
//! compiles trap before either error can occur.

use std::collections::HashMap;

use nascent_ir::{
    Arg, Atom, BinOp, Check, CheckExpr, Expr, FuncId, Function, Param, Program, Stmt, Terminator,
    Ty, UnOp,
};

/// Index of a virtual register within one of a frame's typed banks.
pub type Reg = u32;

/// A flat VM instruction. `I`-prefixed operands index the frame's `i64`
/// bank, `F`-prefixed ones the `f64` bank; each bank is laid out
/// `[variables][constant pool][temporaries]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Charge `cost` dynamic instructions (step-limit checked) and, when
    /// `progress` holds, advance the comparable-execution-point counter.
    /// Emitted once per non-check statement and before `Branch`
    /// condition evaluation — unless the immediately preceding
    /// instruction of the same block is a check, in which case the
    /// charge is folded into it (see [`FastCheck::charge`] and
    /// [`CompiledCheck::charge`]); in fully checked code nearly every
    /// statement charge fuses away.
    Charge { cost: u64, progress: bool },
    /// `i[dst] = i[src]`.
    ICopy { dst: Reg, src: Reg },
    /// `f[dst] = f[src]`.
    FCopy { dst: Reg, src: Reg },
    /// `f[dst] = i[src] as f64` (the tree-walker's `as_real`).
    ItoF { dst: Reg, src: Reg },
    /// `i[dst] = f[src] as i64` (the tree-walker's `as_int`, truncating
    /// toward zero).
    FtoI { dst: Reg, src: Reg },
    /// `i[dst] = i[src].wrapping_neg()`.
    INeg { dst: Reg, src: Reg },
    /// `i[dst] = (i[src] == 0) as i64`.
    INot { dst: Reg, src: Reg },
    /// `f[dst] = -f[src]`.
    FNeg { dst: Reg, src: Reg },
    /// `i[dst] = i[lhs].wrapping_add(i[rhs])`.
    IAdd { dst: Reg, lhs: Reg, rhs: Reg },
    /// `i[dst] = i[lhs].wrapping_sub(i[rhs])`.
    ISub { dst: Reg, lhs: Reg, rhs: Reg },
    /// `i[dst] = i[lhs].wrapping_mul(i[rhs])`.
    IMul { dst: Reg, lhs: Reg, rhs: Reg },
    /// Remaining integer binary ops via [`nascent_ir::expr::eval_int_binop`]
    /// (division/remainder by zero errors the run).
    IBin {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    /// Real arithmetic `f[dst] = f[lhs] op f[rhs]` (never errors:
    /// division by zero follows IEEE).
    FArith {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    /// Real comparison/logic `i[dst] = (f[lhs] op f[rhs]) as i64`.
    FCmp {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    /// Rank-1 load `i[dst] = int_array[i[idx]]` (bounds-checked; an
    /// out-of-range subscript is an undetected violation).
    LoadI1 { dst: Reg, arr: u32, idx: Reg },
    /// Rank-1 load `f[dst] = real_array[i[idx]]`.
    LoadF1 { dst: Reg, arr: u32, idx: Reg },
    /// Rank-1 store `int_array[i[idx]] = i[src]`.
    StoreI1 { arr: u32, idx: Reg, src: Reg },
    /// Rank-1 store `real_array[i[idx]] = f[src]`.
    StoreF1 { arr: u32, idx: Reg, src: Reg },
    /// Rank-2 load `i[dst] = int_array[i[i0], i[i1]]` (both dimensions
    /// bounds-checked in declaration order, row-major addressing).
    LoadI2 {
        dst: Reg,
        arr: u32,
        i0: Reg,
        i1: Reg,
    },
    /// Rank-2 load from a real array.
    LoadF2 {
        dst: Reg,
        arr: u32,
        i0: Reg,
        i1: Reg,
    },
    /// Rank-2 store to an integer array.
    StoreI2 {
        arr: u32,
        i0: Reg,
        i1: Reg,
        src: Reg,
    },
    /// Rank-2 store to a real array.
    StoreF2 {
        arr: u32,
        i0: Reg,
        i1: Reg,
        src: Reg,
    },
    /// General load from an integer array; the `rank` subscript registers
    /// live at `idx_regs[idx..idx+rank]`.
    LoadIN {
        dst: Reg,
        arr: u32,
        idx: u32,
        rank: u32,
    },
    /// General load from a real array.
    LoadFN {
        dst: Reg,
        arr: u32,
        idx: u32,
        rank: u32,
    },
    /// General store to an integer array.
    StoreIN {
        arr: u32,
        idx: u32,
        rank: u32,
        src: Reg,
    },
    /// General store to a real array.
    StoreFN {
        arr: u32,
        idx: u32,
        rank: u32,
        src: Reg,
    },
    /// Fast path for the overwhelmingly common check shape: no guards,
    /// one integer-variable term (see [`FastCheck`]).
    Check1 { fast: u32 },
    /// Fast path for no-guard checks with exactly two integer-variable
    /// terms — the shape of every upper-bound check against an
    /// adjustable array extent (`i <= n`; see [`FastCheck2`]).
    Check2 { fast: u32 },
    /// Fast path for no-guard checks whose terms are all integer
    /// variables (three or more; see [`FastCheckN`]).
    CheckN { fast: u32 },
    /// Perform compiled check `id` (guards, counters, trap) — one
    /// instruction per canonical check.
    Check { id: u32 },
    /// Unconditional compile-time trap `id`.
    Trap { id: u32 },
    /// Call site `id` (arguments already evaluated into registers).
    Call { id: u32 },
    /// Append `i[src]` to the output stream as an integer value.
    EmitI { src: Reg },
    /// Append `f[src]` to the output stream as a real value.
    EmitF { src: Reg },
    /// Jump to code offset `target` (terminator cost 1 fused in).
    Jump { target: u32 },
    /// Branch on `i[cond] != 0` to a code offset (its charge is a
    /// separate preceding [`Instr::Charge`], before condition evaluation,
    /// matching the tree-walker's order of step-limit vs. division
    /// errors).
    Branch { cond: Reg, then_t: u32, else_t: u32 },
    /// Fused integer compare-and-branch: `if i[lhs] op i[rhs] then
    /// then_t else else_t` for a relational `op`.
    BrICmp {
        op: BinOp,
        lhs: Reg,
        rhs: Reg,
        then_t: u32,
        else_t: u32,
    },
    /// Return from the function (terminator cost 1 fused in).
    Return,
}

/// The fused evaluator for a no-guard single-integer-variable check:
/// trap iff `base + coeff·i[reg] > bound` (wrapping arithmetic, exactly
/// the tree-walker's `eval_linform`).
#[derive(Debug, Clone, PartialEq)]
pub struct FastCheck {
    /// The (integer-bank) variable register.
    pub reg: Reg,
    /// Its coefficient.
    pub coeff: i64,
    /// The form's folded constant part.
    pub base: i64,
    /// The range constant.
    pub bound: i64,
    /// Index into `CompiledFunction::checks` for the trap display.
    pub check: u32,
    /// Fused [`Instr::Charge`] of the *following* statement (0 = none):
    /// applied after the check completes without trapping, preserving the
    /// tree-walker's exact counter/step-limit ordering while saving a
    /// dispatch.
    pub charge: u64,
    /// The fused charge's progress flag.
    pub progress: bool,
}

/// The fused evaluator for a no-guard two-integer-variable check: trap
/// iff `base + c0·i[r0] + c1·i[r1] > bound` (wrapping arithmetic). This
/// is the shape of every bound check against an adjustable array extent
/// (subscript variable vs. extent variable).
#[derive(Debug, Clone, PartialEq)]
pub struct FastCheck2 {
    /// First term's variable register / coefficient.
    pub r0: Reg,
    /// First coefficient.
    pub c0: i64,
    /// Second term's variable register.
    pub r1: Reg,
    /// Second coefficient.
    pub c1: i64,
    /// The form's folded constant part.
    pub base: i64,
    /// The range constant.
    pub bound: i64,
    /// Index into `CompiledFunction::checks` for the trap display.
    pub check: u32,
    /// Fused charge of the following statement (0 = none).
    pub charge: u64,
    /// The fused charge's progress flag.
    pub progress: bool,
}

/// The fused evaluator for a no-guard check whose terms are all integer
/// variables (three or more): trap iff
/// `base + Σ cᵢ·i[rᵢ] > bound` (wrapping arithmetic).
#[derive(Debug, Clone, PartialEq)]
pub struct FastCheckN {
    /// `(register, coefficient)` summands.
    pub terms: Box<[(Reg, i64)]>,
    /// The form's folded constant part.
    pub base: i64,
    /// The range constant.
    pub bound: i64,
    /// Index into `CompiledFunction::checks` for the trap display.
    pub check: u32,
    /// Fused charge of the following statement (0 = none).
    pub charge: u64,
    /// The fused charge's progress flag.
    pub progress: bool,
}

/// A multiplicative factor of a compiled check term.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomSpec {
    /// An integer-bank variable register.
    I(Reg),
    /// A real-bank variable register (truncated toward zero, like the
    /// tree-walker's `as_int`).
    F(Reg),
    /// An opaque subexpression, tree-evaluated against the register
    /// banks (division by zero yields 0, as in the tree-walker).
    Opaque(Expr),
}

/// How one `coeff · term` of a compiled check is evaluated.
#[derive(Debug, Clone, PartialEq)]
pub enum TermSpec {
    /// `coeff · i[r]` — the overwhelmingly common case.
    IVar(Reg),
    /// `coeff · Π atom` for anything else.
    Prod(Vec<AtomSpec>),
}

/// One `coeff · term` summand.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTerm {
    /// The coefficient.
    pub coeff: i64,
    /// The term evaluator.
    pub spec: TermSpec,
}

/// A canonical inequality `Σ coeffᵢ·termᵢ + base <= bound`, pre-resolved
/// to registers and constant-folded at lowering time.
#[derive(Debug, Clone, PartialEq)]
pub enum LinCheck {
    /// The inequality is a compile-time constant.
    Const(bool),
    /// Evaluate the flattened form (wrapping arithmetic, like the
    /// tree-walker's `eval_linform`).
    Dynamic {
        /// The range constant.
        bound: i64,
        /// The form's folded constant part.
        base: i64,
        /// The symbolic summands, in canonical order.
        terms: Vec<CompiledTerm>,
    },
}

/// A fused check: guards, the check proper, and the source check kept for
/// rendering the trap message (materialized only when the check fires).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCheck {
    /// Guard inequalities, evaluated in order; a failing guard
    /// suppresses the check.
    pub guards: Vec<LinCheck>,
    /// The check proper.
    pub cond: LinCheck,
    /// The source check, for `Trap::check` display.
    pub display: Check,
    /// Fused charge of the following statement (0 = none), as in
    /// [`FastCheck::charge`]. Applied whether the check passed or was
    /// guard-suppressed — either way the next statement executes.
    pub charge: u64,
    /// The fused charge's progress flag.
    pub progress: bool,
}

/// One argument of a compiled call site.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgSpec {
    /// Integer scalar already evaluated into `i[reg]`.
    I(Reg),
    /// Real scalar already evaluated into `f[reg]`.
    F(Reg),
    /// Caller array slot passed by reference.
    Array(u32),
}

/// A compiled call site.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSpec {
    /// The callee.
    pub callee: FuncId,
    /// Arguments, in call order.
    pub args: Vec<ArgSpec>,
}

/// Array metadata the VM needs at frame setup (declared bounds stay
/// symbolic — Fortran adjustable arrays are evaluated on entry).
#[derive(Debug, Clone, PartialEq)]
pub struct ArraySpec {
    /// Source-level name (for error messages).
    pub name: String,
    /// Element type.
    pub ty: Ty,
    /// `(lower, upper)` declared bounds per dimension.
    pub dims: Vec<(Expr, Expr)>,
}

/// One function lowered to bytecode.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFunction {
    /// Source-level name (error/trap messages only).
    pub(crate) name: String,
    /// Formal parameters.
    pub(crate) params: Vec<Param>,
    /// For each IR variable: its declared type and its slot in the
    /// corresponding register bank. Used for parameter binding and for
    /// the residual tree evaluations (opaque check atoms, adjustable
    /// array bounds).
    pub(crate) var_slots: Vec<(Ty, Reg)>,
    /// Array table.
    pub(crate) arrays: Vec<ArraySpec>,
    /// Initial `i64` bank: variable zeros, the integer constant pool,
    /// zeroed temporaries. Cloned (memcpy) per frame.
    pub(crate) ireg_init: Vec<i64>,
    /// Initial `f64` bank.
    pub(crate) freg_init: Vec<f64>,
    /// The instruction stream.
    pub(crate) code: Vec<Instr>,
    /// Code offset of the entry block.
    pub(crate) entry: u32,
    /// Subscript register lists for the rank-≥2 load/store forms.
    pub(crate) idx_regs: Vec<Reg>,
    /// Compiled checks, indexed by [`Instr::Check`] (and referenced by
    /// [`FastCheck::check`] for display).
    pub(crate) checks: Vec<CompiledCheck>,
    /// Fast-path checks, indexed by [`Instr::Check1`].
    pub(crate) fast_checks: Vec<FastCheck>,
    /// Two-term fast-path checks, indexed by [`Instr::Check2`].
    pub(crate) fast2_checks: Vec<FastCheck2>,
    /// All-variable fast-path checks, indexed by [`Instr::CheckN`].
    pub(crate) fastn_checks: Vec<FastCheckN>,
    /// Compiled call sites, indexed by [`Instr::Call`].
    pub(crate) calls: Vec<CallSpec>,
    /// Trap messages, indexed by [`Instr::Trap`].
    pub(crate) traps: Vec<String>,
}

/// A whole program lowered to bytecode.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// All functions; [`FuncId`] indexes into this vector.
    pub(crate) functions: Vec<CompiledFunction>,
    /// The entry function.
    pub(crate) main: FuncId,
}

/// Lowers a program into bytecode. Pure function of the IR: lower once,
/// run many times.
pub fn lower(prog: &Program) -> CompiledProgram {
    CompiledProgram {
        functions: prog.functions.iter().map(lower_function).collect(),
        main: prog.main,
    }
}

/// The static type of an expression's runtime value.
///
/// This mirrors the interpreter's promotion rules exactly: variables
/// always hold their declared type (assignments, loads and parameter
/// binding coerce), comparisons and logic produce integers, arithmetic
/// is real iff either operand is real. The lowering uses it to pick the
/// register bank for every subexpression.
fn infer_ty(e: &Expr, var_tys: &[Ty]) -> Ty {
    match e {
        Expr::IntConst(_) => Ty::Int,
        Expr::RealConst(_) => Ty::Real,
        Expr::Var(v) => var_tys[v.index()],
        Expr::Unary(UnOp::Neg, inner) => infer_ty(inner, var_tys),
        Expr::Unary(UnOp::Not, _) => Ty::Int,
        Expr::Binary(op, l, r) => {
            if is_cmp_or_logic(*op) {
                Ty::Int
            } else if infer_ty(l, var_tys) == Ty::Real || infer_ty(r, var_tys) == Ty::Real {
                Ty::Real
            } else {
                Ty::Int
            }
        }
    }
}

/// Operators that produce a 0/1 integer regardless of operand types.
fn is_cmp_or_logic(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::Eq
            | BinOp::Ne
            | BinOp::And
            | BinOp::Or
    )
}

/// Relational operators eligible for branch fusion.
fn is_relational(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
    )
}

/// Collects every literal in the expression into the per-bank pools.
///
/// Integer literals are *also* pooled into the real bank (as their
/// promoted `f64` value) so that a literal used in a real context — e.g.
/// `x + 1` with `x` real — resolves to a pooled constant at lowering
/// time instead of emitting an `ItoF` on every evaluation.
fn collect_consts(
    e: &Expr,
    ipool: &mut Vec<i64>,
    imap: &mut HashMap<i64, u32>,
    fpool: &mut Vec<f64>,
    fmap: &mut HashMap<u64, u32>,
) {
    match e {
        Expr::IntConst(v) => {
            imap.entry(*v).or_insert_with(|| {
                ipool.push(*v);
                (ipool.len() - 1) as u32
            });
            let promoted = *v as f64;
            fmap.entry(promoted.to_bits()).or_insert_with(|| {
                fpool.push(promoted);
                (fpool.len() - 1) as u32
            });
        }
        Expr::RealConst(r) => {
            fmap.entry(r.value().to_bits()).or_insert_with(|| {
                fpool.push(r.value());
                (fpool.len() - 1) as u32
            });
        }
        Expr::Var(_) => {}
        Expr::Unary(_, inner) => collect_consts(inner, ipool, imap, fpool, fmap),
        Expr::Binary(_, l, r) => {
            collect_consts(l, ipool, imap, fpool, fmap);
            collect_consts(r, ipool, imap, fpool, fmap);
        }
    }
}

struct Lowerer<'a> {
    f: &'a Function,
    var_tys: Vec<Ty>,
    var_slots: Vec<(Ty, Reg)>,
    n_ivars: u32,
    n_fvars: u32,
    /// Constant pools, in first-appearance order.
    ipool: Vec<i64>,
    fpool: Vec<f64>,
    imap: HashMap<i64, u32>,
    fmap: HashMap<u64, u32>,
    code: Vec<Instr>,
    idx_regs: Vec<Reg>,
    checks: Vec<CompiledCheck>,
    fast_checks: Vec<FastCheck>,
    fast2_checks: Vec<FastCheck2>,
    fastn_checks: Vec<FastCheckN>,
    calls: Vec<CallSpec>,
    traps: Vec<String>,
    /// Next free temporaries (reset per statement), counted from the
    /// bank's temp base.
    next_itemp: u32,
    next_ftemp: u32,
    max_itemps: u32,
    max_ftemps: u32,
    /// Code offset where the current basic block began. Charge fusion
    /// must not reach across this boundary: a jump entering the block
    /// would skip a charge folded into the previous block's last check.
    block_start: usize,
}

impl<'a> Lowerer<'a> {
    fn itemp_base(&self) -> u32 {
        self.n_ivars + self.ipool.len() as u32
    }

    fn ftemp_base(&self) -> u32 {
        self.n_fvars + self.fpool.len() as u32
    }

    fn reset_temps(&mut self) {
        self.next_itemp = 0;
        self.next_ftemp = 0;
    }

    fn alloc_temp(&mut self, ty: Ty) -> Reg {
        match ty {
            Ty::Int => {
                let r = self.itemp_base() + self.next_itemp;
                self.next_itemp += 1;
                self.max_itemps = self.max_itemps.max(self.next_itemp);
                r
            }
            Ty::Real => {
                let r = self.ftemp_base() + self.next_ftemp;
                self.next_ftemp += 1;
                self.max_ftemps = self.max_ftemps.max(self.next_ftemp);
                r
            }
        }
    }

    fn iconst(&self, v: i64) -> Reg {
        self.n_ivars + self.imap[&v]
    }

    fn fconst(&self, bits: u64) -> Reg {
        self.n_fvars + self.fmap[&bits]
    }

    fn ty_of(&self, e: &Expr) -> Ty {
        infer_ty(e, &self.var_tys)
    }

    /// Emits a statement charge, folding it into an immediately
    /// preceding check of the same block when possible (the dominant
    /// pattern in checked code: `CHECK …; stmt` lowers to one fused
    /// check instruction plus the statement body).
    fn push_charge(&mut self, cost: u64, progress: bool) {
        if self.code.len() > self.block_start {
            match self.code.last() {
                Some(Instr::Check1 { fast }) => {
                    let fc = &mut self.fast_checks[*fast as usize];
                    if fc.charge == 0 {
                        fc.charge = cost;
                        fc.progress = progress;
                        return;
                    }
                }
                Some(Instr::Check2 { fast }) => {
                    let fc = &mut self.fast2_checks[*fast as usize];
                    if fc.charge == 0 {
                        fc.charge = cost;
                        fc.progress = progress;
                        return;
                    }
                }
                Some(Instr::CheckN { fast }) => {
                    let fc = &mut self.fastn_checks[*fast as usize];
                    if fc.charge == 0 {
                        fc.charge = cost;
                        fc.progress = progress;
                        return;
                    }
                }
                Some(Instr::Check { id }) => {
                    let c = &mut self.checks[*id as usize];
                    if c.charge == 0 {
                        c.charge = cost;
                        c.progress = progress;
                        return;
                    }
                }
                _ => {}
            }
        }
        self.code.push(Instr::Charge { cost, progress });
    }

    /// Lowers an expression into its *natural* bank (per [`infer_ty`]);
    /// returns the register holding its value. With `dst` (which must be
    /// a slot in the natural bank), the value lands in `dst`, emitting a
    /// copy when the expression is a bare variable or literal.
    fn lower_expr(&mut self, e: &Expr, dst: Option<Reg>) -> Reg {
        match e {
            Expr::IntConst(v) => {
                let src = self.iconst(*v);
                self.place(Ty::Int, src, dst)
            }
            Expr::RealConst(r) => {
                let src = self.fconst(r.value().to_bits());
                self.place(Ty::Real, src, dst)
            }
            Expr::Var(v) => {
                let (ty, slot) = self.var_slots[v.index()];
                self.place(ty, slot, dst)
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let ty = self.ty_of(inner);
                let src = self.lower_expr(inner, None);
                let d = dst.unwrap_or_else(|| self.alloc_temp(ty));
                self.code.push(match ty {
                    Ty::Int => Instr::INeg { dst: d, src },
                    Ty::Real => Instr::FNeg { dst: d, src },
                });
                d
            }
            Expr::Unary(UnOp::Not, inner) => {
                // `Not` truncates a real operand toward zero first
                // (`as_int() == 0` in the tree-walker)
                let src = self.lower_as(Ty::Int, inner);
                let d = dst.unwrap_or_else(|| self.alloc_temp(Ty::Int));
                self.code.push(Instr::INot { dst: d, src });
                d
            }
            Expr::Binary(op, l, r) => {
                let promote = self.ty_of(l) == Ty::Real || self.ty_of(r) == Ty::Real;
                if is_cmp_or_logic(*op) {
                    let d = dst.unwrap_or_else(|| self.alloc_temp(Ty::Int));
                    if promote {
                        let lhs = self.lower_as(Ty::Real, l);
                        let rhs = self.lower_as(Ty::Real, r);
                        self.code.push(Instr::FCmp {
                            op: *op,
                            dst: d,
                            lhs,
                            rhs,
                        });
                    } else {
                        let lhs = self.lower_expr(l, None);
                        let rhs = self.lower_expr(r, None);
                        self.code.push(Instr::IBin {
                            op: *op,
                            dst: d,
                            lhs,
                            rhs,
                        });
                    }
                    d
                } else if promote {
                    let lhs = self.lower_as(Ty::Real, l);
                    let rhs = self.lower_as(Ty::Real, r);
                    let d = dst.unwrap_or_else(|| self.alloc_temp(Ty::Real));
                    self.code.push(Instr::FArith {
                        op: *op,
                        dst: d,
                        lhs,
                        rhs,
                    });
                    d
                } else {
                    let lhs = self.lower_expr(l, None);
                    let rhs = self.lower_expr(r, None);
                    let d = dst.unwrap_or_else(|| self.alloc_temp(Ty::Int));
                    self.code.push(match op {
                        BinOp::Add => Instr::IAdd { dst: d, lhs, rhs },
                        BinOp::Sub => Instr::ISub { dst: d, lhs, rhs },
                        BinOp::Mul => Instr::IMul { dst: d, lhs, rhs },
                        _ => Instr::IBin {
                            op: *op,
                            dst: d,
                            lhs,
                            rhs,
                        },
                    });
                    d
                }
            }
        }
    }

    /// Lowers an expression and converts it into the `want` bank if its
    /// natural type differs (`ItoF`/`FtoI`, matching the tree-walker's
    /// `as_real`/`as_int`).
    fn lower_as(&mut self, want: Ty, e: &Expr) -> Reg {
        // integer literal in a real context: the promoted value is
        // already pooled in the real bank (see `collect_consts`)
        if let (Ty::Real, Expr::IntConst(v)) = (want, e) {
            return self.fconst((*v as f64).to_bits());
        }
        let natural = self.ty_of(e);
        let src = self.lower_expr(e, None);
        if natural == want {
            return src;
        }
        let d = self.alloc_temp(want);
        self.code.push(match want {
            Ty::Int => Instr::FtoI { dst: d, src },
            Ty::Real => Instr::ItoF { dst: d, src },
        });
        d
    }

    fn place(&mut self, ty: Ty, src: Reg, dst: Option<Reg>) -> Reg {
        match dst {
            Some(d) if d != src => {
                self.code.push(match ty {
                    Ty::Int => Instr::ICopy { dst: d, src },
                    Ty::Real => Instr::FCopy { dst: d, src },
                });
                d
            }
            _ => src,
        }
    }

    /// Lowers the value of an assignment into `var`'s slot, fusing the
    /// coercion when the static type already matches.
    fn lower_assign(&mut self, var: usize, value: &Expr) {
        let (vty, slot) = self.var_slots[var];
        if self.ty_of(value) == vty {
            self.lower_expr(value, Some(slot));
        } else {
            let src = self.lower_expr(value, None);
            self.code.push(match vty {
                Ty::Int => Instr::FtoI { dst: slot, src },
                Ty::Real => Instr::ItoF { dst: slot, src },
            });
        }
    }

    /// Lowers subscripts into integer registers (truncating real-typed
    /// subscripts toward zero, like the tree-walker's `as_int`).
    fn lower_index_regs(&mut self, index: &[Expr]) -> Vec<Reg> {
        index.iter().map(|e| self.lower_as(Ty::Int, e)).collect()
    }

    fn lower_stmt(&mut self, stmt: &Stmt) {
        self.reset_temps();
        match stmt {
            Stmt::Check(_) | Stmt::Trap { .. } => {} // cost 0: no charge
            _ => self.push_charge(stmt.cost(), true),
        }
        match stmt {
            Stmt::Assign { var, value } => self.lower_assign(var.index(), value),
            Stmt::Load { var, array, index } => {
                let regs = self.lower_index_regs(index);
                // the loaded cell is coerced to the *variable's* type
                // (`v.coerce(var_ty)` in the tree-walker); the array's
                // element type decides which bank holds the cell
                let ety = self.f.arrays[array.index()].ty;
                let (vty, vslot) = self.var_slots[var.index()];
                let dst = if ety == vty {
                    vslot
                } else {
                    self.alloc_temp(ety)
                };
                self.push_access(*array, &regs, ety, AccessKind::Load { dst });
                if ety != vty {
                    self.code.push(match vty {
                        Ty::Int => Instr::FtoI {
                            dst: vslot,
                            src: dst,
                        },
                        Ty::Real => Instr::ItoF {
                            dst: vslot,
                            src: dst,
                        },
                    });
                }
            }
            Stmt::Store {
                array,
                index,
                value,
            } => {
                // value first, then subscripts — the tree-walker's order,
                // so a division by zero in the value beats one in an index
                let ety = self.f.arrays[array.index()].ty;
                let src = self.lower_as(ety, value);
                let regs = self.lower_index_regs(index);
                self.push_access(*array, &regs, ety, AccessKind::Store { src });
            }
            Stmt::Check(check) => {
                let compiled = compile_check(check, &self.var_slots);
                let id = self.checks.len() as u32;
                // fast paths: no guards, all terms integer variables
                if let (true, LinCheck::Dynamic { bound, base, terms }) =
                    (compiled.guards.is_empty(), &compiled.cond)
                {
                    let ivar = |t: &CompiledTerm| match t.spec {
                        TermSpec::IVar(r) => Some((r, t.coeff)),
                        TermSpec::Prod(_) => None,
                    };
                    match terms.as_slice() {
                        [t0] => {
                            if let Some((reg, coeff)) = ivar(t0) {
                                let fast = self.fast_checks.len() as u32;
                                self.fast_checks.push(FastCheck {
                                    reg,
                                    coeff,
                                    base: *base,
                                    bound: *bound,
                                    check: id,
                                    charge: 0,
                                    progress: false,
                                });
                                self.checks.push(compiled);
                                self.code.push(Instr::Check1 { fast });
                                return;
                            }
                        }
                        [t0, t1] => {
                            if let (Some((r0, c0)), Some((r1, c1))) = (ivar(t0), ivar(t1)) {
                                let fast = self.fast2_checks.len() as u32;
                                self.fast2_checks.push(FastCheck2 {
                                    r0,
                                    c0,
                                    r1,
                                    c1,
                                    base: *base,
                                    bound: *bound,
                                    check: id,
                                    charge: 0,
                                    progress: false,
                                });
                                self.checks.push(compiled);
                                self.code.push(Instr::Check2 { fast });
                                return;
                            }
                        }
                        ts => {
                            if let Some(pairs) = ts.iter().map(ivar).collect::<Option<Vec<_>>>() {
                                let fast = self.fastn_checks.len() as u32;
                                self.fastn_checks.push(FastCheckN {
                                    terms: pairs.into_boxed_slice(),
                                    base: *base,
                                    bound: *bound,
                                    check: id,
                                    charge: 0,
                                    progress: false,
                                });
                                self.checks.push(compiled);
                                self.code.push(Instr::CheckN { fast });
                                return;
                            }
                        }
                    }
                }
                self.checks.push(compiled);
                self.code.push(Instr::Check { id });
            }
            Stmt::Trap { message } => {
                let id = self.traps.len() as u32;
                self.traps.push(message.clone());
                self.code.push(Instr::Trap { id });
            }
            Stmt::Call { callee, args } => {
                let specs: Vec<ArgSpec> = args
                    .iter()
                    .map(|a| match a {
                        Arg::Scalar(e) => {
                            let ty = self.ty_of(e);
                            let r = self.lower_expr(e, None);
                            match ty {
                                Ty::Int => ArgSpec::I(r),
                                Ty::Real => ArgSpec::F(r),
                            }
                        }
                        Arg::Array(id) => ArgSpec::Array(id.0),
                    })
                    .collect();
                let id = self.calls.len() as u32;
                self.calls.push(CallSpec {
                    callee: *callee,
                    args: specs,
                });
                self.code.push(Instr::Call { id });
            }
            Stmt::Emit(e) => {
                let ty = self.ty_of(e);
                let src = self.lower_expr(e, None);
                self.code.push(match ty {
                    Ty::Int => Instr::EmitI { src },
                    Ty::Real => Instr::EmitF { src },
                });
            }
        }
    }

    /// Emits the element access instruction: the rank-1 forms carry the
    /// subscript register inline, rank-≥2 goes through `idx_regs`.
    fn push_access(&mut self, array: nascent_ir::ArrayId, regs: &[Reg], ety: Ty, kind: AccessKind) {
        let arr = array.0;
        if let [i0, i1] = regs {
            self.code.push(match (ety, kind) {
                (Ty::Int, AccessKind::Load { dst }) => Instr::LoadI2 {
                    dst,
                    arr,
                    i0: *i0,
                    i1: *i1,
                },
                (Ty::Real, AccessKind::Load { dst }) => Instr::LoadF2 {
                    dst,
                    arr,
                    i0: *i0,
                    i1: *i1,
                },
                (Ty::Int, AccessKind::Store { src }) => Instr::StoreI2 {
                    arr,
                    i0: *i0,
                    i1: *i1,
                    src,
                },
                (Ty::Real, AccessKind::Store { src }) => Instr::StoreF2 {
                    arr,
                    i0: *i0,
                    i1: *i1,
                    src,
                },
            });
            return;
        }
        if let [idx] = regs {
            self.code.push(match (ety, kind) {
                (Ty::Int, AccessKind::Load { dst }) => Instr::LoadI1 {
                    dst,
                    arr,
                    idx: *idx,
                },
                (Ty::Real, AccessKind::Load { dst }) => Instr::LoadF1 {
                    dst,
                    arr,
                    idx: *idx,
                },
                (Ty::Int, AccessKind::Store { src }) => Instr::StoreI1 {
                    arr,
                    idx: *idx,
                    src,
                },
                (Ty::Real, AccessKind::Store { src }) => Instr::StoreF1 {
                    arr,
                    idx: *idx,
                    src,
                },
            });
            return;
        }
        let idx = self.idx_regs.len() as u32;
        self.idx_regs.extend_from_slice(regs);
        let rank = regs.len() as u32;
        self.code.push(match (ety, kind) {
            (Ty::Int, AccessKind::Load { dst }) => Instr::LoadIN {
                dst,
                arr,
                idx,
                rank,
            },
            (Ty::Real, AccessKind::Load { dst }) => Instr::LoadFN {
                dst,
                arr,
                idx,
                rank,
            },
            (Ty::Int, AccessKind::Store { src }) => Instr::StoreIN {
                arr,
                idx,
                rank,
                src,
            },
            (Ty::Real, AccessKind::Store { src }) => Instr::StoreFN {
                arr,
                idx,
                rank,
                src,
            },
        });
    }
}

#[derive(Clone, Copy)]
enum AccessKind {
    Load { dst: Reg },
    Store { src: Reg },
}

/// Compiles one canonical inequality into its fused evaluator.
fn compile_check_expr(ce: &CheckExpr, var_slots: &[(Ty, Reg)]) -> LinCheck {
    let form = ce.form();
    if form.is_constant() {
        return LinCheck::Const(form.constant_part() <= ce.bound());
    }
    let terms = form
        .terms()
        .map(|(term, coeff)| {
            let atoms = term.atoms();
            let spec = match atoms {
                [Atom::Var(v)] if var_slots[v.index()].0 == Ty::Int => {
                    TermSpec::IVar(var_slots[v.index()].1)
                }
                _ => TermSpec::Prod(
                    atoms
                        .iter()
                        .map(|a| match a {
                            Atom::Var(v) => match var_slots[v.index()] {
                                (Ty::Int, r) => AtomSpec::I(r),
                                (Ty::Real, r) => AtomSpec::F(r),
                            },
                            Atom::Opaque(e) => AtomSpec::Opaque(e.clone()),
                        })
                        .collect(),
                ),
            };
            CompiledTerm { coeff, spec }
        })
        .collect();
    LinCheck::Dynamic {
        bound: ce.bound(),
        base: form.constant_part(),
        terms,
    }
}

fn compile_check(check: &Check, var_slots: &[(Ty, Reg)]) -> CompiledCheck {
    CompiledCheck {
        guards: check
            .guards
            .iter()
            .map(|g| compile_check_expr(g, var_slots))
            .collect(),
        cond: compile_check_expr(&check.cond, var_slots),
        display: check.clone(),
        charge: 0,
        progress: false,
    }
}

fn lower_function(f: &Function) -> CompiledFunction {
    let var_tys: Vec<Ty> = f.vars.iter().map(|v| v.ty).collect();
    // assign bank slots in declaration order
    let mut n_ivars = 0u32;
    let mut n_fvars = 0u32;
    let var_slots: Vec<(Ty, Reg)> = var_tys
        .iter()
        .map(|ty| match ty {
            Ty::Int => {
                let r = n_ivars;
                n_ivars += 1;
                (Ty::Int, r)
            }
            Ty::Real => {
                let r = n_fvars;
                n_fvars += 1;
                (Ty::Real, r)
            }
        })
        .collect();

    // pass 1: constant pools over every expression the code evaluates
    let mut ipool = Vec::new();
    let mut fpool = Vec::new();
    let mut imap = HashMap::new();
    let mut fmap = HashMap::new();
    {
        let mut cc = |e: &Expr| collect_consts(e, &mut ipool, &mut imap, &mut fpool, &mut fmap);
        for b in &f.blocks {
            for s in &b.stmts {
                match s {
                    Stmt::Assign { value, .. } => cc(value),
                    Stmt::Load { index, .. } => {
                        for e in index {
                            cc(e);
                        }
                    }
                    Stmt::Store { index, value, .. } => {
                        cc(value);
                        for e in index {
                            cc(e);
                        }
                    }
                    Stmt::Call { args, .. } => {
                        for a in args {
                            if let Arg::Scalar(e) = a {
                                cc(e);
                            }
                        }
                    }
                    Stmt::Emit(e) => cc(e),
                    Stmt::Check(_) | Stmt::Trap { .. } => {} // fused, no pool use
                }
            }
            if let Terminator::Branch { cond, .. } = &b.term {
                cc(cond);
            }
        }
    }

    // pass 2: lower blocks in index order, recording block offsets
    let mut lw = Lowerer {
        f,
        var_tys,
        var_slots,
        n_ivars,
        n_fvars,
        ipool,
        fpool,
        imap,
        fmap,
        code: Vec::new(),
        idx_regs: Vec::new(),
        checks: Vec::new(),
        fast_checks: Vec::new(),
        fast2_checks: Vec::new(),
        fastn_checks: Vec::new(),
        calls: Vec::new(),
        traps: Vec::new(),
        next_itemp: 0,
        next_ftemp: 0,
        max_itemps: 0,
        max_ftemps: 0,
        block_start: 0,
    };
    let mut block_offsets = Vec::with_capacity(f.blocks.len());
    for b in &f.blocks {
        lw.block_start = lw.code.len();
        block_offsets.push(lw.code.len() as u32);
        for s in &b.stmts {
            lw.lower_stmt(s);
        }
        lw.reset_temps();
        match &b.term {
            Terminator::Jump(t) => lw.code.push(Instr::Jump { target: t.0 }),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                // charge before condition evaluation, as the tree-walker
                lw.push_charge(cond.cost() + 1, false);
                // fuse integer comparisons straight into the branch
                let fused = match cond {
                    Expr::Binary(op, l, r)
                        if is_relational(*op)
                            && lw.ty_of(l) == Ty::Int
                            && lw.ty_of(r) == Ty::Int =>
                    {
                        let lhs = lw.lower_expr(l, None);
                        let rhs = lw.lower_expr(r, None);
                        Some(Instr::BrICmp {
                            op: *op,
                            lhs,
                            rhs,
                            then_t: then_bb.0,
                            else_t: else_bb.0,
                        })
                    }
                    _ => None,
                };
                let instr = fused.unwrap_or_else(|| {
                    // non-relational or real-typed: evaluate to a 0/1
                    // integer (truncating a real condition, matching
                    // `as_int() != 0`)
                    let c = lw.lower_as(Ty::Int, cond);
                    Instr::Branch {
                        cond: c,
                        then_t: then_bb.0,
                        else_t: else_bb.0,
                    }
                });
                lw.code.push(instr);
            }
            Terminator::Return => lw.code.push(Instr::Return),
        }
    }

    // pass 3: rewrite block ids into code offsets
    for instr in &mut lw.code {
        match instr {
            Instr::Jump { target } => *target = block_offsets[*target as usize],
            Instr::Branch { then_t, else_t, .. } | Instr::BrICmp { then_t, else_t, .. } => {
                *then_t = block_offsets[*then_t as usize];
                *else_t = block_offsets[*else_t as usize];
            }
            _ => {}
        }
    }

    let mut ireg_init = vec![0i64; lw.n_ivars as usize];
    ireg_init.extend_from_slice(&lw.ipool);
    ireg_init.resize(ireg_init.len() + lw.max_itemps as usize, 0);
    let mut freg_init = vec![0f64; lw.n_fvars as usize];
    freg_init.extend_from_slice(&lw.fpool);
    freg_init.resize(freg_init.len() + lw.max_ftemps as usize, 0.0);

    let cf = CompiledFunction {
        name: f.name.clone(),
        params: f.params.clone(),
        var_slots: lw.var_slots,
        arrays: f
            .arrays
            .iter()
            .map(|a| ArraySpec {
                name: a.name.clone(),
                ty: a.ty,
                dims: a.dims.clone(),
            })
            .collect(),
        ireg_init,
        freg_init,
        code: lw.code,
        entry: block_offsets[f.entry.index()],
        idx_regs: lw.idx_regs,
        checks: lw.checks,
        fast_checks: lw.fast_checks,
        fast2_checks: lw.fast2_checks,
        fastn_checks: lw.fastn_checks,
        calls: lw.calls,
        traps: lw.traps,
    };
    validate(&cf);
    cf
}

/// Asserts the structural invariants the dispatch loop's unchecked
/// accesses rely on: every register operand indexes within its bank,
/// every table id is in range, every jump target is a valid code offset,
/// and control can never fall off the end of the stream (the last
/// instruction of every block is a terminator). Runs once per lowered
/// function; a violation is a lowering bug, so it panics.
#[allow(clippy::too_many_lines)]
pub(crate) fn validate(cf: &CompiledFunction) {
    let ni = cf.ireg_init.len();
    let nf = cf.freg_init.len();
    let nc = cf.code.len();
    let na = cf.arrays.len();
    let ir = |r: Reg| assert!((r as usize) < ni, "i-reg {r} out of bank {ni}");
    let fr = |r: Reg| assert!((r as usize) < nf, "f-reg {r} out of bank {nf}");
    let ar = |a: u32| assert!((a as usize) < na, "array id {a} out of table {na}");
    let off = |t: u32| assert!((t as usize) < nc, "code offset {t} out of {nc}");
    assert!(nc > 0, "empty code stream");
    off(cf.entry);
    for (pos, instr) in cf.code.iter().enumerate() {
        // every fallthrough instruction must have a successor
        if !matches!(
            instr,
            Instr::Jump { .. }
                | Instr::Branch { .. }
                | Instr::BrICmp { .. }
                | Instr::Return
                | Instr::Trap { .. }
        ) {
            assert!(pos + 1 < nc, "fallthrough off the end at {pos}");
        }
        match instr {
            Instr::Charge { .. } | Instr::Return | Instr::Trap { .. } => {}
            Instr::ICopy { dst, src } | Instr::INeg { dst, src } | Instr::INot { dst, src } => {
                ir(*dst);
                ir(*src);
            }
            Instr::FCopy { dst, src } | Instr::FNeg { dst, src } => {
                fr(*dst);
                fr(*src);
            }
            Instr::ItoF { dst, src } => {
                fr(*dst);
                ir(*src);
            }
            Instr::FtoI { dst, src } => {
                ir(*dst);
                fr(*src);
            }
            Instr::IAdd { dst, lhs, rhs }
            | Instr::ISub { dst, lhs, rhs }
            | Instr::IMul { dst, lhs, rhs }
            | Instr::IBin { dst, lhs, rhs, .. } => {
                ir(*dst);
                ir(*lhs);
                ir(*rhs);
            }
            Instr::FArith { dst, lhs, rhs, .. } => {
                fr(*dst);
                fr(*lhs);
                fr(*rhs);
            }
            Instr::FCmp { dst, lhs, rhs, .. } => {
                ir(*dst);
                fr(*lhs);
                fr(*rhs);
            }
            Instr::LoadI1 { dst, arr, idx } => {
                ir(*dst);
                ar(*arr);
                ir(*idx);
            }
            Instr::LoadF1 { dst, arr, idx } => {
                fr(*dst);
                ar(*arr);
                ir(*idx);
            }
            Instr::StoreI1 { arr, idx, src } => {
                ar(*arr);
                ir(*idx);
                ir(*src);
            }
            Instr::StoreF1 { arr, idx, src } => {
                ar(*arr);
                ir(*idx);
                fr(*src);
            }
            Instr::LoadI2 { dst, arr, i0, i1 } => {
                ir(*dst);
                ar(*arr);
                ir(*i0);
                ir(*i1);
            }
            Instr::LoadF2 { dst, arr, i0, i1 } => {
                fr(*dst);
                ar(*arr);
                ir(*i0);
                ir(*i1);
            }
            Instr::StoreI2 { arr, i0, i1, src } => {
                ar(*arr);
                ir(*i0);
                ir(*i1);
                ir(*src);
            }
            Instr::StoreF2 { arr, i0, i1, src } => {
                ar(*arr);
                ir(*i0);
                ir(*i1);
                fr(*src);
            }
            Instr::LoadIN {
                dst,
                arr,
                idx,
                rank,
            }
            | Instr::LoadFN {
                dst,
                arr,
                idx,
                rank,
            } => {
                match instr {
                    Instr::LoadIN { .. } => ir(*dst),
                    _ => fr(*dst),
                }
                ar(*arr);
                assert!((*idx as usize + *rank as usize) <= cf.idx_regs.len());
            }
            Instr::StoreIN {
                arr,
                idx,
                rank,
                src,
            }
            | Instr::StoreFN {
                arr,
                idx,
                rank,
                src,
            } => {
                match instr {
                    Instr::StoreIN { .. } => ir(*src),
                    _ => fr(*src),
                }
                ar(*arr);
                assert!((*idx as usize + *rank as usize) <= cf.idx_regs.len());
            }
            Instr::Check1 { fast } => {
                let fc = &cf.fast_checks[*fast as usize];
                ir(fc.reg);
                assert!((fc.check as usize) < cf.checks.len());
            }
            Instr::Check2 { fast } => {
                let fc = &cf.fast2_checks[*fast as usize];
                ir(fc.r0);
                ir(fc.r1);
                assert!((fc.check as usize) < cf.checks.len());
            }
            Instr::CheckN { fast } => {
                let fc = &cf.fastn_checks[*fast as usize];
                for (r, _) in fc.terms.iter() {
                    ir(*r);
                }
                assert!((fc.check as usize) < cf.checks.len());
            }
            Instr::Check { id } => assert!((*id as usize) < cf.checks.len()),
            Instr::Call { id } => assert!((*id as usize) < cf.calls.len()),
            Instr::EmitI { src } => ir(*src),
            Instr::EmitF { src } => fr(*src),
            Instr::Jump { target } => off(*target),
            Instr::Branch {
                cond,
                then_t,
                else_t,
            } => {
                ir(*cond);
                off(*then_t);
                off(*else_t);
            }
            Instr::BrICmp {
                lhs,
                rhs,
                then_t,
                else_t,
                ..
            } => {
                ir(*lhs);
                ir(*rhs);
                off(*then_t);
                off(*else_t);
            }
        }
    }
    for r in &cf.idx_regs {
        ir(*r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_frontend::compile;

    #[test]
    fn checks_become_single_fast_instructions() {
        let p =
            compile("program p\n integer a(1:10)\n integer i\n i = 1\n a(i) = 0\nend\n").unwrap();
        let cp = lower(&p);
        let f = &cp.functions[0];
        let check1 = f
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Check1 { .. }))
            .count();
        assert_eq!(check1, 2); // lower + upper, both on plain `i`
        assert_eq!(f.fast_checks.len(), 2);
        assert_eq!(f.checks.len(), 2); // display entries kept for traps
    }

    #[test]
    fn constants_are_pooled_and_deduplicated() {
        let p = compile("program p\n integer x, y\n x = 7\n y = 7\n print x + y\nend\n").unwrap();
        let f = &lower(&p).functions[0];
        let sevens = f.ireg_init.iter().filter(|v| **v == 7).count();
        assert_eq!(sevens, 1, "literal 7 pooled once");
        assert!(f.code.iter().any(|i| matches!(i, Instr::ICopy { .. })));
    }

    #[test]
    fn jumps_resolve_to_code_offsets() {
        let p = compile(
            "program p\n integer i, s\n s = 0\n do i = 1, 3\n s = s + i\n enddo\n print s\nend\n",
        )
        .unwrap();
        let f = &lower(&p).functions[0];
        for instr in &f.code {
            match instr {
                Instr::Jump { target } => assert!((*target as usize) < f.code.len()),
                Instr::Branch { then_t, else_t, .. } | Instr::BrICmp { then_t, else_t, .. } => {
                    assert!((*then_t as usize) < f.code.len());
                    assert!((*else_t as usize) < f.code.len());
                }
                _ => {}
            }
        }
        assert!((f.entry as usize) < f.code.len());
        // the loop condition is an integer comparison: fused branch
        assert!(f.code.iter().any(|i| matches!(i, Instr::BrICmp { .. })));
    }

    #[test]
    fn conversions_elided_when_types_match() {
        let p = compile("program p\n integer x\n x = 1 + 2\n print x\nend\n").unwrap();
        let f = &lower(&p).functions[0];
        assert!(
            !f.code
                .iter()
                .any(|i| matches!(i, Instr::ItoF { .. } | Instr::FtoI { .. })),
            "int expr into int var needs no conversion"
        );
        let p = compile("program p\n real x\n x = 1 + 2\n print x\nend\n").unwrap();
        let f = &lower(&p).functions[0];
        assert!(
            f.code.iter().any(|i| matches!(i, Instr::ItoF { .. })),
            "int expr into real var converts"
        );
    }

    #[test]
    fn mixed_arithmetic_promotes_to_the_real_bank() {
        let p = compile("program p\n real x\n integer i\n i = 3\n x = i * 2.5\n print x\nend\n")
            .unwrap();
        let f = &lower(&p).functions[0];
        assert!(f.code.iter().any(|i| matches!(i, Instr::ItoF { .. })));
        assert!(f
            .code
            .iter()
            .any(|i| matches!(i, Instr::FArith { op: BinOp::Mul, .. })));
    }
}
