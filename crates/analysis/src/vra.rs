//! Symbolic value-range analysis.
//!
//! A forward data-flow analysis that tracks, per scalar variable, a
//! constant interval and optional *symbolic* bounds (a [`LinForm`] known
//! to be `>=` or `<=` the variable). Facts come from assignments, from
//! performed (unconditional) checks, from branch conditions on each CFG
//! edge, from induction-variable trip-count facts at loop body entries
//! (the body-valid `lower <= iv <= upper` range computed by
//! [`crate::loops`]), and from conservative per-array range summaries of
//! stored values (the subscripted-subscript hook: a load from a private,
//! zero-initialized array is bounded by everything ever stored into it).
//! Loop heads are widened so the fixpoint terminates.
//!
//! The analysis answers one question: is a canonical check
//! `form <= bound` provably true, provably false, or unknown at a
//! program point ([`Env::verdict`]). The `discharge` pre-pass in
//! `nascent-rangecheck` deletes checks this analysis proves true.
//!
//! Like the optimizer's data-flow systems, `Call` statements are assumed
//! not to modify the caller's scalars (the frontend passes scalars by
//! value); `Load` yields the array's range summary when one exists, and
//! unknown otherwise. All interval arithmetic is *checked*: an
//! overflowing bound degrades to "unbounded" rather than wrapping,
//! because the concrete semantics wrap and a wrapped abstract bound
//! would be unsound.
//!
//! The fixpoint itself is not trusted. The certifier (`nascent-verify`)
//! checks each result as an inductive invariant using only the transfer
//! function ([`Env::step_with`], [`Env::assume_cond`]) and the lattice
//! order ([`Env::entails`]), so widening, the worklist order and the
//! iteration cap can be changed without touching its trusted base.

use std::collections::{HashMap, HashSet};

use nascent_ir::{
    Arg, ArrayId, Atom, BinOp, BlockId, CheckExpr, Expr, Function, LinForm, Param, Stmt, Term,
    Terminator, Ty, UnOp, VarId,
};

use crate::loops::LoopForest;

/// A (possibly half-open) constant interval. `None` means unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interval {
    /// Greatest known constant lower bound.
    pub lo: Option<i64>,
    /// Least known constant upper bound.
    pub hi: Option<i64>,
}

impl Interval {
    /// The unbounded interval.
    pub fn top() -> Interval {
        Interval::default()
    }

    /// True when the interval contains no value.
    pub fn is_empty(self) -> bool {
        matches!((self.lo, self.hi), (Some(l), Some(h)) if l > h)
    }

    /// True when `x` lies within the interval.
    pub fn contains(self, x: i64) -> bool {
        self.lo.is_none_or(|l| l <= x) && self.hi.is_none_or(|h| x <= h)
    }

    /// Least interval containing both (convex hull).
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.zip(other.lo).map(|(a, b)| a.min(b)),
            hi: self.hi.zip(other.hi).map(|(a, b)| a.max(b)),
        }
    }
}

/// Recursion budget for chasing symbolic bounds in [`Env::verdict`].
const SYM_DEPTH: u32 = 3;

/// The abstract state at one program point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Env {
    intervals: HashMap<VarId, Interval>,
    /// `v <= form` facts.
    sym_upper: HashMap<VarId, LinForm>,
    /// `form <= v` facts.
    sym_lower: HashMap<VarId, LinForm>,
    /// Unreachable state (e.g. after a `TRAP` or a contradiction).
    pub bottom: bool,
}

impl Env {
    /// The unconstrained, reachable state.
    pub fn top() -> Env {
        Env::default()
    }

    /// The unreachable state.
    pub fn unreachable() -> Env {
        Env {
            bottom: true,
            ..Env::default()
        }
    }

    /// The interval currently known for `v`.
    pub fn interval(&self, v: VarId) -> Interval {
        self.intervals.get(&v).copied().unwrap_or_default()
    }

    fn set_interval(&mut self, v: VarId, i: Interval) {
        if i == Interval::top() {
            self.intervals.remove(&v);
        } else {
            self.intervals.insert(v, i);
        }
    }

    /// Intersects `v`'s interval with `iv` (an externally known fact);
    /// a contradiction makes the state unreachable.
    pub fn assume_interval(&mut self, v: VarId, iv: Interval) {
        if self.bottom {
            return;
        }
        let cur = self.interval(v);
        let met = Interval {
            lo: match (cur.lo, iv.lo) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            hi: match (cur.hi, iv.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        };
        if met.is_empty() {
            self.bottom = true;
        } else {
            self.set_interval(v, met);
        }
    }

    /// Forgets symbolic bounds that mention `v` (on either side).
    fn kill_sym_mentioning(&mut self, v: VarId) {
        self.sym_upper
            .retain(|var, form| *var != v && !form.uses_var(v));
        self.sym_lower
            .retain(|var, form| *var != v && !form.uses_var(v));
    }

    /// Join (control-flow merge). Bottom is the identity.
    pub fn join(&self, other: &Env) -> Env {
        if self.bottom {
            return other.clone();
        }
        if other.bottom {
            return self.clone();
        }
        let mut intervals = HashMap::new();
        for (v, i) in &self.intervals {
            let j = i.join(other.interval(*v));
            if j != Interval::top() {
                intervals.insert(*v, j);
            }
        }
        let keep_equal = |a: &HashMap<VarId, LinForm>, b: &HashMap<VarId, LinForm>| {
            a.iter()
                .filter(|(v, f)| b.get(v) == Some(f))
                .map(|(v, f)| (*v, f.clone()))
                .collect::<HashMap<_, _>>()
        };
        Env {
            intervals,
            sym_upper: keep_equal(&self.sym_upper, &other.sym_upper),
            sym_lower: keep_equal(&self.sym_lower, &other.sym_lower),
            bottom: false,
        }
    }

    /// Widens `self` against the previous fixpoint state: any interval
    /// endpoint that changed goes to unbounded, and symbolic facts not
    /// present identically in both are dropped.
    fn widen_against(&mut self, prev: &Env) {
        if self.bottom || prev.bottom {
            return;
        }
        let vars: Vec<VarId> = self.intervals.keys().copied().collect();
        for v in vars {
            let cur = self.interval(v);
            let old = prev.interval(v);
            let w = Interval {
                lo: if cur.lo == old.lo { cur.lo } else { None },
                hi: if cur.hi == old.hi { cur.hi } else { None },
            };
            self.set_interval(v, w);
        }
        self.sym_upper
            .retain(|v, f| prev.sym_upper.get(v) == Some(f));
        self.sym_lower
            .retain(|v, f| prev.sym_lower.get(v) == Some(f));
    }

    /// Best constant upper bound on the value of `form`, chasing symbolic
    /// bounds up to `depth` substitutions.
    fn upper(&self, form: &LinForm, depth: u32) -> Option<i64> {
        let mut acc: i64 = form.constant_part();
        for (t, c) in form.terms() {
            let var_bound = match t.atoms() {
                [Atom::Var(v)] => {
                    if c > 0 {
                        self.var_upper(*v, depth)
                    } else {
                        self.var_lower(*v, depth)
                    }
                }
                _ => None, // opaque or degree > 1: unbounded
            };
            acc = acc.checked_add(var_bound?.checked_mul(c)?)?;
        }
        Some(acc)
    }

    /// Best constant lower bound on the value of `form`.
    fn lower(&self, form: &LinForm, depth: u32) -> Option<i64> {
        self.upper(&form.neg(), depth)?.checked_neg()
    }

    fn var_upper(&self, v: VarId, depth: u32) -> Option<i64> {
        let mut best = self.interval(v).hi;
        if depth > 0 {
            if let Some(f) = self.sym_upper.get(&v) {
                if let Some(b) = self.upper(f, depth - 1) {
                    best = Some(best.map_or(b, |x| x.min(b)));
                }
            }
        }
        best
    }

    fn var_lower(&self, v: VarId, depth: u32) -> Option<i64> {
        let mut best = self.interval(v).lo;
        if depth > 0 {
            if let Some(f) = self.sym_lower.get(&v) {
                if let Some(b) = self.lower(f, depth - 1) {
                    best = Some(best.map_or(b, |x| x.max(b)));
                }
            }
        }
        best
    }

    /// `Some(true)`/`Some(false)` when `form <= bound` provably holds /
    /// provably fails here, `None` when unknown.
    fn le_verdict(&self, form: &LinForm, bound: i64) -> Option<bool> {
        if let Some(hi) = self.upper(form, SYM_DEPTH) {
            if hi <= bound {
                return Some(true);
            }
        }
        if let Some(lo) = self.lower(form, SYM_DEPTH) {
            if lo > bound {
                return Some(false);
            }
        }
        None
    }

    /// The values `form` can take in this state.
    pub fn range(&self, form: &LinForm) -> Interval {
        Interval {
            lo: self.lower(form, SYM_DEPTH),
            hi: self.upper(form, SYM_DEPTH),
        }
    }

    /// The lattice order: true when every fact of `other` holds in this
    /// state, so every valuation this state describes `other` describes
    /// too. An interval bound holds by a stored or derived bound, a
    /// symbolic fact by an identical fact or by the verdict test
    /// (`le_verdict`). Bottom entails everything; no reachable state
    /// entails bottom.
    pub fn entails(&self, other: &Env) -> bool {
        if self.bottom {
            return true;
        }
        if other.bottom {
            return false;
        }
        let bounded = |(v, iv): (&VarId, &Interval)| {
            let lo = self.var_lower(*v, SYM_DEPTH);
            let hi = self.var_upper(*v, SYM_DEPTH);
            iv.lo.is_none_or(|b| lo.is_some_and(|x| x >= b))
                && iv.hi.is_none_or(|b| hi.is_some_and(|x| x <= b))
        };
        // `le` is the fact as `form <= 0`
        let holds = |mine: &HashMap<VarId, LinForm>, v: &VarId, f: &LinForm, le: LinForm| {
            mine.get(v) == Some(f) || self.le_verdict(&le, 0) == Some(true)
        };
        other.intervals.iter().all(bounded)
            && other
                .sym_upper
                .iter()
                .all(|(v, f)| holds(&self.sym_upper, v, f, LinForm::var(*v).sub(f)))
            && other
                .sym_lower
                .iter()
                .all(|(v, f)| holds(&self.sym_lower, v, f, f.sub(&LinForm::var(*v))))
    }

    /// Decides a canonical check at this point: `Some(true)` when
    /// `form <= bound` always holds here (vacuously so at an unreachable
    /// point), `Some(false)` when it never holds, `None` when unknown.
    pub fn verdict(&self, check: &CheckExpr) -> Option<bool> {
        if self.bottom {
            return Some(true);
        }
        self.le_verdict(check.form(), check.bound())
    }

    /// Decides a branch condition at this point, recursing through `not`,
    /// `and`, `or` and comparisons. `None` when undecidable.
    pub fn cond_verdict(&self, cond: &Expr) -> Option<bool> {
        match cond {
            Expr::Unary(UnOp::Not, inner) => self.cond_verdict(inner).map(|b| !b),
            Expr::Binary(BinOp::And, a, b) => match (self.cond_verdict(a), self.cond_verdict(b)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Expr::Binary(BinOp::Or, a, b) => match (self.cond_verdict(a), self.cond_verdict(b)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Expr::Binary(op, l, r) if op.is_comparison() => {
                let d = LinForm::from_expr(l).sub(&LinForm::from_expr(r));
                match op {
                    BinOp::Le => self.le_verdict(&d, 0),
                    BinOp::Lt => self.le_verdict(&d, -1),
                    BinOp::Ge => self.le_verdict(&d.neg(), 0),
                    BinOp::Gt => self.le_verdict(&d.neg(), -1),
                    BinOp::Eq => match (self.le_verdict(&d, 0), self.le_verdict(&d.neg(), 0)) {
                        (Some(true), Some(true)) => Some(true),
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        _ => None,
                    },
                    BinOp::Ne => match (self.le_verdict(&d, 0), self.le_verdict(&d.neg(), 0)) {
                        (Some(true), Some(true)) => Some(false),
                        (Some(false), _) | (_, Some(false)) => Some(true),
                        _ => None,
                    },
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Records the fact `form <= bound` (a passed check or a taken
    /// branch).
    pub fn assume_le(&mut self, form: &LinForm, bound: i64) {
        if self.bottom {
            return;
        }
        if form.is_constant() {
            if form.constant_part() > bound {
                self.bottom = true;
            }
            return;
        }
        // refine each degree-1 variable using bounds on the other terms
        // (an i64::MIN coefficient has no negation; skip it rather than
        // wrap)
        let targets: Vec<(VarId, i64)> = form
            .terms()
            .filter_map(|(t, c)| match t.atoms() {
                [Atom::Var(v)] if c != i64::MIN => Some((*v, c)),
                _ => None,
            })
            .collect();
        for (v, c) in targets {
            // c*v <= bound - rest, where rest = form - c*v
            let mut rest = form.clone();
            rest.add_term(Term::var(v), -c);
            if let Some(rest_lo) = self.lower(&rest, SYM_DEPTH) {
                if let Some(num) = bound.checked_sub(rest_lo) {
                    let mut iv = self.interval(v);
                    if c > 0 {
                        let b = num.div_euclid(c);
                        iv.hi = Some(iv.hi.map_or(b, |x| x.min(b)));
                    } else {
                        // c < 0:  v >= ceil(num / c); checked, so a bound
                        // near i64::MIN skips the refinement instead of
                        // wrapping
                        if let Some(b) = c
                            .checked_neg()
                            .map(|nc| num.div_euclid(nc))
                            .and_then(i64::checked_neg)
                        {
                            iv.lo = Some(iv.lo.map_or(b, |x| x.max(b)));
                        }
                    }
                    if iv.is_empty() {
                        self.bottom = true;
                        return;
                    }
                    self.set_interval(v, iv);
                }
            }
            // symbolic refinement for unit coefficients
            if c == 1 {
                // v <= bound - rest
                let ub = LinForm::constant(bound).sub(&rest);
                if !ub.uses_var(v) {
                    self.sym_upper.insert(v, ub);
                }
            } else if c == -1 {
                // rest - bound <= v
                let lb = rest.sub(&LinForm::constant(bound));
                if !lb.uses_var(v) {
                    self.sym_lower.insert(v, lb);
                }
            }
        }
    }

    /// Transfer function for one statement, with loads refined by the
    /// per-array range summaries in `load_ranges`.
    pub fn step_with(&mut self, s: &Stmt, load_ranges: &HashMap<ArrayId, Interval>) {
        if self.bottom {
            return;
        }
        match s {
            Stmt::Assign { var, value } => {
                let form = LinForm::from_expr(value);
                // evaluate the rhs in the *pre* state
                let iv = self.range(&form);
                self.kill_sym_mentioning(*var);
                self.set_interval(*var, iv);
                // record the symbolic equality when the rhs is affine in
                // other plain variables only
                if !form.uses_var(*var)
                    && form
                        .terms()
                        .all(|(t, _)| matches!(t.atoms(), [Atom::Var(_)]))
                {
                    self.sym_upper.insert(*var, form.clone());
                    self.sym_lower.insert(*var, form);
                }
            }
            Stmt::Load { var, array, .. } => {
                self.kill_sym_mentioning(*var);
                self.set_interval(*var, load_ranges.get(array).copied().unwrap_or_default());
            }
            Stmt::Check(c) => {
                if c.is_unconditional() {
                    // execution continues only when the check passed
                    self.assume_le(c.cond.form(), c.cond.bound());
                }
            }
            Stmt::Trap { .. } => {
                self.bottom = true;
            }
            Stmt::Store { .. } | Stmt::Call { .. } | Stmt::Emit(_) => {}
        }
    }

    /// [`Env::step_with`] without array range summaries.
    pub fn step(&mut self, s: &Stmt) {
        self.step_with(s, &HashMap::new());
    }

    /// Refines by a branch condition known to have the given truth value.
    pub fn assume_cond(&mut self, cond: &Expr, truth: bool) {
        match cond {
            Expr::Unary(UnOp::Not, inner) => self.assume_cond(inner, !truth),
            Expr::Binary(BinOp::And, a, b) if truth => {
                self.assume_cond(a, true);
                self.assume_cond(b, true);
            }
            Expr::Binary(BinOp::And, a, b) if !truth => {
                // ¬(a ∧ b) is disjunctive; it pins a conjunct only when
                // the other is provably true (both true: contradiction)
                match (self.cond_verdict(a), self.cond_verdict(b)) {
                    (Some(true), Some(true)) => self.bottom = true,
                    (Some(true), _) => self.assume_cond(b, false),
                    (_, Some(true)) => self.assume_cond(a, false),
                    _ => {}
                }
            }
            Expr::Binary(BinOp::Or, a, b) if !truth => {
                self.assume_cond(a, false);
                self.assume_cond(b, false);
            }
            Expr::Binary(BinOp::Or, a, b) if truth => {
                // a ∨ b pins a disjunct only when the other is provably
                // false (both false: contradiction)
                match (self.cond_verdict(a), self.cond_verdict(b)) {
                    (Some(false), Some(false)) => self.bottom = true,
                    (Some(false), _) => self.assume_cond(b, true),
                    (_, Some(false)) => self.assume_cond(a, true),
                    _ => {}
                }
            }
            Expr::Binary(op, l, r) if op.is_comparison() => {
                let d = LinForm::from_expr(l).sub(&LinForm::from_expr(r));
                let op = if truth { *op } else { negated(*op) };
                match op {
                    BinOp::Le => self.assume_le(&d, 0),
                    BinOp::Lt => self.assume_le(&d, -1),
                    BinOp::Ge => self.assume_le(&d.neg(), 0),
                    BinOp::Gt => self.assume_le(&d.neg(), -1),
                    BinOp::Eq => {
                        self.assume_le(&d, 0);
                        self.assume_le(&d.neg(), 0);
                    }
                    _ => {} // Ne carries no convex information
                }
            }
            _ => {}
        }
    }

    /// Concrete containment test (for the soundness property tests): is
    /// the valuation `vals` described by this abstract state? Constrained
    /// variables must be present in `vals`; a symbolic bound that does
    /// not evaluate (opaque term, missing variable, overflow) is skipped,
    /// which only widens the state.
    pub fn models(&self, vals: &HashMap<VarId, i64>) -> bool {
        if self.bottom {
            return false;
        }
        for (v, iv) in &self.intervals {
            match vals.get(v) {
                Some(x) if iv.contains(*x) => {}
                _ => return false,
            }
        }
        for (v, f) in &self.sym_upper {
            if let (Some(x), Some(b)) = (vals.get(v), eval_form(f, vals)) {
                if *x > b {
                    return false;
                }
            }
        }
        for (v, f) in &self.sym_lower {
            if let (Some(x), Some(b)) = (vals.get(v), eval_form(f, vals)) {
                if b > *x {
                    return false;
                }
            }
        }
        true
    }
}

/// Evaluates a linear form under a valuation with checked arithmetic;
/// `None` when a variable is missing, a term is opaque, or the
/// arithmetic overflows.
pub fn eval_form(form: &LinForm, vals: &HashMap<VarId, i64>) -> Option<i64> {
    let mut acc = form.constant_part();
    for (t, c) in form.terms() {
        let mut prod: i64 = 1;
        for a in t.atoms() {
            let Atom::Var(v) = a else { return None };
            prod = prod.checked_mul(*vals.get(v)?)?;
        }
        acc = acc.checked_add(prod.checked_mul(c)?)?;
    }
    Some(acc)
}

/// The comparison that holds when `op` does not.
fn negated(op: BinOp) -> BinOp {
    match op {
        BinOp::Le => BinOp::Gt,
        BinOp::Lt => BinOp::Ge,
        BinOp::Ge => BinOp::Lt,
        BinOp::Gt => BinOp::Le,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

/// Per-block entry states of one function. Trip-count facts are already
/// folded into each body entry's state.
#[derive(Debug, Clone)]
pub struct Vra {
    /// `entry[b.index()]` — the abstract state on entry to block `b`.
    pub entry: Vec<Env>,
    /// Conservative range of every value a `Load` can observe, per
    /// private integer array (see [`analyze`]); the states inside a block
    /// come from stepping its entry state with these summaries.
    pub load_ranges: HashMap<ArrayId, Interval>,
}

/// Trip-count facts per loop body entry: each `(form, bound)` is a fact
/// `form <= bound` that holds on every edge into that block.
pub type TripFacts = HashMap<BlockId, Vec<(LinForm, i64)>>;

/// The body-valid induction-variable range of each loop of `forest`, as
/// facts at the loop's body entry.
pub fn trip_facts(forest: &LoopForest) -> TripFacts {
    let mut facts = TripFacts::new();
    for info in &forest.loops {
        let (Some(body), Some(iv)) = (info.body_entry, info.iv.as_ref()) else {
            continue;
        };
        let at = facts.entry(body).or_default();
        if let Some(up) = &iv.upper {
            // iv - upper <= 0
            at.push((LinForm::var(iv.var).sub(up), 0));
        }
        if let Some(lo) = &iv.lower {
            // lower - iv <= 0
            at.push((lo.sub(&LinForm::var(iv.var)), 0));
        }
    }
    facts
}

/// Number of fact changes at one block before widening kicks in.
const WIDEN_AFTER: u32 = 2;

/// Hard iteration backstop; on overrun every block's fact degrades to
/// top, which is sound (verdicts just become "unknown" more often).
fn iteration_cap(f: &Function) -> u32 {
    (f.blocks.len() as u32 + 8) * 16
}

/// Runs the analysis to a fixpoint over `f`, computing the loop forest
/// itself. Prefer [`crate::context::PassContext::vra`], which caches the
/// result and shares the forest.
pub fn analyze(f: &Function) -> Vra {
    let mut ctx = crate::context::PassContext::new();
    let forest = ctx.loop_forest(f);
    analyze_with_forest(f, &forest)
}

/// [`analyze`] over a precomputed loop forest (trip-count facts come
/// from the forest's induction-variable descriptors).
pub fn analyze_with_forest(f: &Function, forest: &LoopForest) -> Vra {
    let loop_facts = trip_facts(forest);
    // phase 1: loads are unknown
    let entry = fixpoint(f, &loop_facts, &HashMap::new());
    // per-array range summaries from the (sound, load-agnostic) phase-1
    // states
    let load_ranges = array_summaries(f, &entry);
    if load_ranges.is_empty() {
        return Vra { entry, load_ranges };
    }
    // phase 2: loads from summarized arrays are range-refined
    let entry = fixpoint(f, &loop_facts, &load_ranges);
    Vra { entry, load_ranges }
}

/// The integer arrays *private* to `f`: declared locally, not a
/// parameter, and never passed to a callee (arrays flow by reference
/// through calls, so a callee could store anything). Only these get load
/// summaries (intervals describe `i64` values).
pub fn private_int_arrays(f: &Function) -> HashSet<ArrayId> {
    let mut private: HashSet<ArrayId> = (0..f.arrays.len())
        .map(|i| ArrayId(i as u32))
        .filter(|a| f.arrays[a.index()].ty == Ty::Int)
        .collect();
    for p in &f.params {
        if let Param::Array(a) = p {
            private.remove(a);
        }
    }
    for b in &f.blocks {
        for s in &b.stmts {
            if let Stmt::Call { args, .. } = s {
                for arg in args {
                    if let Arg::Array(a) = arg {
                        private.remove(a);
                    }
                }
            }
        }
    }
    private
}

/// Conservative range of every value a `Load` can observe, for each
/// private integer array ([`private_int_arrays`]). Arrays start
/// zero-initialized, so the summary is `{0}` joined with the interval of
/// every stored value, evaluated in the phase-1 entry states. Summaries
/// that degrade to unbounded are dropped.
fn array_summaries(f: &Function, entry: &[Env]) -> HashMap<ArrayId, Interval> {
    let private = private_int_arrays(f);
    if private.is_empty() {
        return HashMap::new();
    }
    let zero = Interval {
        lo: Some(0),
        hi: Some(0),
    };
    let mut out: HashMap<ArrayId, Interval> = private.iter().map(|a| (*a, zero)).collect();
    let no_ranges = HashMap::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        let mut env = entry[bi].clone();
        for s in &b.stmts {
            if let Stmt::Store { array, value, .. } = s {
                if let Some(sum) = out.get_mut(array) {
                    *sum = sum.join(env.range(&LinForm::from_expr(value)));
                }
            }
            env.step_with(s, &no_ranges);
        }
    }
    out.retain(|_, iv| *iv != Interval::top());
    out
}

/// One worklist fixpoint over `f` with the given trip-count facts and
/// load summaries.
fn fixpoint(
    f: &Function,
    loop_facts: &TripFacts,
    load_ranges: &HashMap<ArrayId, Interval>,
) -> Vec<Env> {
    let n = f.blocks.len();
    let mut entry: Vec<Env> = vec![Env::unreachable(); n];
    entry[f.entry.index()] = Env::top();
    let mut changes: Vec<u32> = vec![0; n];
    let mut work: Vec<usize> = vec![f.entry.index()];
    let mut budget = iteration_cap(f);

    while let Some(bi) = work.pop() {
        if budget == 0 {
            // backstop: degrade every block to top and stop. A block the
            // worklist has not reached yet still holds the initial
            // `unreachable` state, which would prove every check in it
            entry.fill(Env::top());
            break;
        }
        budget -= 1;
        let b = BlockId(bi as u32);
        let mut env = entry[bi].clone();
        for s in &f.block(b).stmts {
            env.step_with(s, load_ranges);
        }
        let out: Vec<(usize, Env)> = match &f.block(b).term {
            Terminator::Jump(t) => vec![(t.index(), env)],
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let mut te = env.clone();
                te.assume_cond(cond, true);
                let mut ee = env;
                ee.assume_cond(cond, false);
                vec![(then_bb.index(), te), (else_bb.index(), ee)]
            }
            Terminator::Return => vec![],
        };
        for (succ, e) in out {
            let mut joined = entry[succ].join(&e);
            if changes[succ] >= WIDEN_AFTER {
                joined.widen_against(&entry[succ]);
            }
            // trip-count facts are stable per block: re-asserting them
            // after the join (and after widening) keeps them in the
            // stored entry state without disturbing termination
            if let Some(facts) = loop_facts.get(&BlockId(succ as u32)) {
                for (form, bound) in facts {
                    joined.assume_le(form, *bound);
                }
            }
            if joined != entry[succ] {
                changes[succ] += 1;
                entry[succ] = joined;
                if !work.contains(&succ) {
                    work.push(succ);
                }
            }
        }
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_frontend::compile;

    fn vra_of(src: &str) -> (Function, Vra) {
        let p = compile(src).unwrap();
        let f = p.main_function().clone();
        let v = analyze(&f);
        (f, v)
    }

    /// Verdicts at every unconditional check site, in program order.
    fn check_verdicts(f: &Function, vra: &Vra) -> Vec<Option<bool>> {
        let mut out = Vec::new();
        for b in f.block_ids() {
            let mut env = vra.entry[b.index()].clone();
            for s in &f.block(b).stmts {
                if let Stmt::Check(c) = s {
                    if c.is_unconditional() {
                        out.push(env.verdict(&c.cond));
                    }
                }
                env.step_with(s, &vra.load_ranges);
            }
        }
        out
    }

    #[test]
    fn constant_assignment_discharges_checks() {
        let (f, vra) = vra_of("program p\n integer a(1:10)\n integer i\n i = 3\n a(i) = 0\nend\n");
        assert_eq!(check_verdicts(&f, &vra), vec![Some(true), Some(true)]);
    }

    #[test]
    fn out_of_bounds_constant_is_proven_false() {
        let (f, vra) = vra_of("program p\n integer a(1:10)\n integer i\n i = 15\n a(i) = 0\nend\n");
        let verdicts = check_verdicts(&f, &vra);
        // the lower check (1 <= 15) holds, the upper (15 <= 10) never does
        assert!(verdicts.contains(&Some(false)));
        assert!(verdicts.contains(&Some(true)));
    }

    #[test]
    fn loop_iv_range_discharges_body_checks() {
        let (f, vra) = vra_of(
            "program p\n integer a(1:10)\n integer i\n do i = 1, 10\n a(i) = i\n enddo\nend\n",
        );
        let verdicts = check_verdicts(&f, &vra);
        assert_eq!(verdicts.len(), 2);
        assert!(
            verdicts.iter().all(|v| *v == Some(true)),
            "trip-count facts prove both body checks: {verdicts:?}"
        );
    }

    #[test]
    fn symbolic_loop_bound_stays_unknown() {
        let (f, vra) = vra_of(
            "program p
 integer a(1:10)
 integer i, n
 n = 20
 do i = 1, n
  a(i) = i
 enddo
end
",
        );
        let verdicts = check_verdicts(&f, &vra);
        // the lower check (1 <= i) is provable from the trip-count fact;
        // the upper (i <= 10) must NOT be claimed true, since n = 20 makes
        // late iterations trap
        assert!(verdicts.contains(&Some(true)));
        assert!(!verdicts.iter().all(|v| *v == Some(true)));
    }

    #[test]
    fn branch_refinement_narrows_both_edges() {
        let (f, vra) = vra_of(
            "program p
 integer a(1:10)
 integer i
 i = 0
 if (i < 5) then
  a(i + 1) = 1
 else
  a(i) = 2
 endif
end
",
        );
        let verdicts = check_verdicts(&f, &vra);
        // then-branch: i in [0,0], checks on i+1 hold; the else branch is
        // statically unreachable (0 < 5), so its checks hold vacuously
        assert!(verdicts.iter().all(|v| *v == Some(true)), "{verdicts:?}");
    }

    #[test]
    fn loads_from_private_zero_initialized_arrays_are_bounded() {
        // map holds values in [0, 9] (stores of i - 1 for i in 1..=10,
        // joined with the zero initialization); a(map(j) + 1) is then
        // provably within a(1:10)
        let (f, vra) = vra_of(
            "program p
 integer map(1:10)
 integer a(1:10)
 integer i, j, t
 do i = 1, 10
  map(i) = i - 1
 enddo
 do j = 1, 10
  t = map(j)
  a(t + 1) = j
 enddo
end
",
        );
        let verdicts = check_verdicts(&f, &vra);
        assert!(
            verdicts.iter().all(|v| *v == Some(true)),
            "subscripted-subscript checks all provable: {verdicts:?}"
        );
    }

    #[test]
    fn loads_from_arrays_passed_to_callees_stay_unknown() {
        let (f, vra) = vra_of(
            "program p
 integer map(1:10)
 integer a(1:10)
 integer j, t
 call fill(map)
 do j = 1, 10
  t = map(j)
  a(t + 1) = j
 enddo
end
subroutine fill(m)
 integer m(1:10)
 integer i
 do i = 1, 10
  m(i) = i * 20
 enddo
end
",
        );
        let map_id = (0..f.arrays.len())
            .map(|i| ArrayId(i as u32))
            .find(|a| f.arrays[a.index()].name == "map")
            .unwrap();
        assert!(
            !vra.load_ranges.contains_key(&map_id),
            "map escapes through the call and must not be summarized"
        );
        let verdicts = check_verdicts(&f, &vra);
        assert!(
            verdicts.contains(&None),
            "escaped-array subscripts must stay unknown: {verdicts:?}"
        );
    }

    #[test]
    fn negated_compound_condition_refines_conservatively() {
        // the else edge carries ¬(i <= 7 ∧ j <= 99); j stays in [1, 2],
        // so j <= 99 is provably true and the analysis pins i >= 8 on
        // that edge, proving a(i) safe for a(8:20) (the upper bound
        // comes from the trip-count fact i <= 20)
        let (f, vra) = vra_of(
            "program p
 integer a(8:20)
 integer i, j
 j = 1
 do i = 1, 20
  if (i <= 7 and j <= 99) then
   j = 2
  else
   a(i) = j
  endif
 enddo
end
",
        );
        let verdicts = check_verdicts(&f, &vra);
        assert!(
            verdicts.iter().all(|v| *v == Some(true)),
            "negated conjunction refines the else edge: {verdicts:?}"
        );
    }

    #[test]
    fn assume_le_near_i64_bounds_does_not_wrap() {
        // -v <= i64::MIN used to negate the quotient of div_euclid and
        // overflow; it must now degrade gracefully (no refinement) and
        // stay sound
        let mut env = Env::top();
        let form = LinForm::var(VarId(0)).neg();
        env.assume_le(&form, i64::MIN);
        assert!(!env.bottom);
        // v >= -i64::MIN is unrepresentable: no (wrapped) bound may appear
        assert_eq!(env.interval(VarId(0)).hi, None);

        let mut env = Env::top();
        env.assume_le(&LinForm::var(VarId(0)), i64::MAX);
        assert_eq!(env.interval(VarId(0)).hi, Some(i64::MAX));
        assert!(!env.bottom);
    }

    #[test]
    fn widening_terminates_on_accumulators() {
        let (f, vra) = vra_of(
            "program p
 integer a(1:100)
 integer i, n, s
 n = 50
 s = 0
 do i = 1, n
  s = s + i
  a(i) = s
 enddo
 print s
end
",
        );
        assert_eq!(vra.entry.len(), f.blocks.len());
    }

    #[test]
    fn verdict_agrees_with_constant_folding() {
        for (src, expected) in [
            ("program p\n integer a(1:10)\n a(5) = 0\nend\n", Some(true)),
            (
                "program p\n integer a(1:10)\n a(15) = 0\nend\n",
                Some(false),
            ),
        ] {
            let (f, vra) = vra_of(src);
            let mut seen = 0;
            for b in f.block_ids() {
                let mut env = vra.entry[b.index()].clone();
                for s in &f.block(b).stmts {
                    if let Stmt::Check(c) = s {
                        if c.cond.constant_verdict() == expected {
                            assert_eq!(
                                env.verdict(&c.cond),
                                expected,
                                "VRA must agree with fold on {}",
                                c.cond
                            );
                            seen += 1;
                        }
                    }
                    env.step_with(s, &vra.load_ranges);
                }
            }
            assert!(seen > 0, "no constant check found in {src:?}");
        }
    }
}
