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
//! Component heads are widened so the fixpoint terminates (see
//! *Iteration* below).
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
//!
//! # Iteration
//!
//! Each of the two phases (loads unknown, then loads bounded by the
//! per-array summaries the first phase yields) is one worklist fixpoint
//! over the blocks in Bourdoncle's weak topological order
//! ([`crate::wto`]): each loop's blocks are contiguous, its head first,
//! and the worklist always takes the pending block earliest in that order.
//! So a loop settles before the blocks after it run, and a straight
//! sequence of `k` loops costs a fixed number of visits per loop instead
//! of pushing each loop's still-changing exit state through every later
//! loop. Joins widen only at component heads, which cut every cycle, and
//! only after a head's state has changed twice; other blocks join
//! without widening. Trip-count facts are re-asserted after each join.
//! The second phase makes exactly the first phase's visits up to its
//! first visit to a block that loads from a private array, so it resumes
//! from a copy of the first phase taken there, and does not run when the
//! first phase never visits such a block.
//!
//! A phase stops after `16 × (8 + Σ_b (1 + depth(b)))` block visits, where
//! `depth(b)` counts the components around block `b`: a block is visited
//! again each time a component around it settles anew, so the budget
//! grows with nesting as the iteration does. On overrun every state is
//! set to top and [`Vra::capped`] is set. No suite, scaling-curve,
//! generated or `MAX_NESTING`-deep program comes within a quarter of
//! the cap; a state that keeps changing for longer (a copy chain of
//! hundreds of variables through one loop widens one more variable per
//! iteration) runs into it.
//!
//! # Representation
//!
//! An [`Env`] is a dense vector of per-variable slots indexed by
//! [`VarId`]: a slot holds the variable's interval and its two symbolic
//! bounds, and an empty slot (or one past the end of the vector) means
//! top. Equality compares slot by slot and treats a missing slot as an
//! empty one, so a state whose facts were all removed equals
//! [`Env::top`] however long its vector grew. Symbolic bounds sit behind
//! [`Arc`]: cloning a state, as the fixpoint does at every block visit,
//! copies pointers, and two states derived from one fact compare equal
//! by pointer. (`Arc` rather than `Rc` keeps [`Vra`] `Send` and `Sync`,
//! as the analysis cache's shared results are; the two cost the same
//! here.) Bounds on a form are summed term by term from the stored
//! facts, without building the negated form or the form minus one term,
//! and a symbolic refinement equal to the bound already stored leaves
//! the state untouched. These are the same facts, lattice operations and
//! bound computations as a map-per-fact state, so every result is the
//! same.
//!
//! [`Vra`] also reports how many block visits its two fixpoint phases
//! made and whether either ran into the iteration cap, which sets every
//! state to top; the `vra` analysis span and the certifier's `vra-ref`
//! and `vra-opt` spans carry both as the `visits` and `capped` (0 or 1)
//! attributes.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use nascent_ir::{
    Arg, ArrayId, Atom, BinOp, BlockId, CheckExpr, Expr, Function, LinForm, Param, Stmt,
    Terminator, Ty, UnOp, VarId,
};

use crate::loops::LoopForest;
use crate::wto::Wto;

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

/// A shared symbolic bound.
type Bound = Option<Arc<LinForm>>;

/// What a state knows about one variable; the default slot knows nothing.
#[derive(Debug, Clone, Default, PartialEq)]
struct Slot {
    interval: Interval,
    /// `v <= form`
    upper: Bound,
    /// `form <= v`
    lower: Bound,
}

impl Slot {
    fn is_top(&self) -> bool {
        self.interval == Interval::top() && self.upper.is_none() && self.lower.is_none()
    }
}

/// `a` when both bounds are the same fact, otherwise nothing.
fn same(a: &Bound, b: &Bound) -> Bound {
    if a == b {
        a.clone()
    } else {
        None
    }
}

/// The abstract state at one program point (see the module docs for the
/// representation).
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// `slots[v.index()]`; missing slots are top.
    slots: Vec<Slot>,
    /// Unreachable state (e.g. after a `TRAP` or a contradiction).
    pub bottom: bool,
}

impl PartialEq for Env {
    fn eq(&self, other: &Env) -> bool {
        let n = self.slots.len().max(other.slots.len());
        self.bottom == other.bottom
            && (0..n).all(|i| match (self.slots.get(i), other.slots.get(i)) {
                (Some(a), Some(b)) => a == b,
                (Some(s), None) | (None, Some(s)) => s.is_top(),
                (None, None) => true,
            })
    }
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
        self.slots
            .get(v.index())
            .map_or(Interval::top(), |s| s.interval)
    }

    fn upper_bound(&self, v: VarId) -> Option<&Arc<LinForm>> {
        self.slots.get(v.index())?.upper.as_ref()
    }

    fn lower_bound(&self, v: VarId) -> Option<&Arc<LinForm>> {
        self.slots.get(v.index())?.lower.as_ref()
    }

    /// `v`'s slot, growing the vector when `v` has none yet.
    fn slot_mut(&mut self, v: VarId) -> &mut Slot {
        let i = v.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, Slot::default);
        }
        &mut self.slots[i]
    }

    fn set_interval(&mut self, v: VarId, i: Interval) {
        if i != Interval::top() || v.index() < self.slots.len() {
            self.slot_mut(v).interval = i;
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
        let mentions = |own: bool, b: &Bound| b.as_ref().is_some_and(|f| own || f.uses_var(v));
        for (i, s) in self.slots.iter_mut().enumerate() {
            let own = i == v.index();
            if mentions(own, &s.upper) {
                s.upper = None;
            }
            if mentions(own, &s.lower) {
                s.lower = None;
            }
        }
    }

    /// Join (control-flow merge). Bottom is the identity.
    pub fn join(&self, other: &Env) -> Env {
        if self.bottom {
            return other.clone();
        }
        if other.bottom {
            return self.clone();
        }
        // a variable with a slot on one side only is top on the other, and
        // joins to top
        let slots = self
            .slots
            .iter()
            .zip(&other.slots)
            .map(|(a, b)| Slot {
                interval: a.interval.join(b.interval),
                upper: same(&a.upper, &b.upper),
                lower: same(&a.lower, &b.lower),
            })
            .collect();
        Env {
            slots,
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
        for (i, s) in self.slots.iter_mut().enumerate() {
            let old = prev.slots.get(i);
            let old_iv = old.map_or(Interval::top(), |o| o.interval);
            let cur = s.interval;
            s.interval = Interval {
                lo: if cur.lo == old_iv.lo { cur.lo } else { None },
                hi: if cur.hi == old_iv.hi { cur.hi } else { None },
            };
            if old.and_then(|o| o.upper.as_ref()) != s.upper.as_ref() {
                s.upper = None;
            }
            if old.and_then(|o| o.lower.as_ref()) != s.lower.as_ref() {
                s.lower = None;
            }
        }
    }

    /// Best constant upper bound on `sign·form`, chasing symbolic bounds
    /// up to `depth` substitutions. `sign` is 1 or -1 and negates the
    /// constant and each coefficient with the wrapping of
    /// [`LinForm::neg`]; the degree-1 term of `skip`, if any, is left
    /// out. Terms are summed in canonical order, so the bound is the one
    /// computed on the negated or reduced form itself.
    fn upper_scaled(
        &self,
        form: &LinForm,
        sign: i64,
        skip: Option<VarId>,
        depth: u32,
    ) -> Option<i64> {
        let mut acc = form.constant_part().wrapping_mul(sign);
        for (t, c) in form.terms() {
            let c = c.wrapping_mul(sign);
            let var_bound = match t.atoms() {
                [Atom::Var(v)] if skip == Some(*v) => continue,
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

    /// Best constant upper bound on the value of `form`.
    fn upper(&self, form: &LinForm, depth: u32) -> Option<i64> {
        self.upper_scaled(form, 1, None, depth)
    }

    /// Best constant lower bound on the value of `form`.
    fn lower(&self, form: &LinForm, depth: u32) -> Option<i64> {
        self.upper_scaled(form, -1, None, depth)?.checked_neg()
    }

    fn var_upper(&self, v: VarId, depth: u32) -> Option<i64> {
        let mut best = self.interval(v).hi;
        if depth > 0 {
            if let Some(f) = self.upper_bound(v) {
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
            if let Some(f) = self.lower_bound(v) {
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
        other.slots.iter().enumerate().all(|(i, s)| {
            let v = VarId(i as u32);
            let iv = s.interval;
            iv.lo
                .is_none_or(|b| self.var_lower(v, SYM_DEPTH).is_some_and(|x| x >= b))
                && iv
                    .hi
                    .is_none_or(|b| self.var_upper(v, SYM_DEPTH).is_some_and(|x| x <= b))
                // `v <= f` as `v - f <= 0`
                && s.upper.as_ref().is_none_or(|f| {
                    self.upper_bound(v) == Some(f)
                        || self.le_verdict(&LinForm::var(v).sub(f), 0) == Some(true)
                })
                // `f <= v` as `f - v <= 0`
                && s.lower.as_ref().is_none_or(|f| {
                    self.lower_bound(v) == Some(f)
                        || self.le_verdict(&f.sub(&LinForm::var(v)), 0) == Some(true)
                })
        })
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
        let targets = form.terms().filter_map(|(t, c)| match t.atoms() {
            [Atom::Var(v)] if c != i64::MIN => Some((*v, c)),
            _ => None,
        });
        for (v, c) in targets {
            // c*v <= bound - rest, where rest = form - c*v
            let rest_lo = self
                .upper_scaled(form, -1, Some(v), SYM_DEPTH)
                .and_then(i64::checked_neg);
            if let Some(rest_lo) = rest_lo {
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
            if c == 1 || c == -1 {
                self.refine_sym(v, c, form, bound);
            }
        }
    }

    /// The symbolic half of [`Env::assume_le`] for a unit coefficient `c`
    /// of `v` in `form`: with `rest = form - c·v`, records `v <= bound -
    /// rest` (`c = 1`) or `rest - bound <= v` (`c = -1`) unless the bound
    /// mentions `v`. The bound's terms are `rest`'s scaled by `-c`, with
    /// the wrapping of [`LinForm::sub`]; a bound equal to the stored one
    /// is not rebuilt.
    fn refine_sym(&mut self, v: VarId, c: i64, form: &LinForm, bound: i64) {
        let rest = || form.terms().filter(move |(t, _)| !t.is_var(v));
        if rest().any(|(t, _)| t.uses_var(v)) {
            return;
        }
        let k = form.constant_part();
        let (scale, constant) = if c == 1 {
            (-1, bound.wrapping_add(k.wrapping_mul(-1)))
        } else {
            (1, k.wrapping_add(bound.wrapping_mul(-1)))
        };
        let slot = self.slot_mut(v);
        let stored = if c == 1 {
            &mut slot.upper
        } else {
            &mut slot.lower
        };
        let unchanged = stored.as_deref().is_some_and(|f| {
            f.constant_part() == constant
                && f.num_terms() + 1 == form.num_terms()
                && f.terms()
                    .zip(rest())
                    .all(|((t, a), (u, b))| t == u && a == b.wrapping_mul(scale))
        });
        if !unchanged {
            let terms = rest().map(|(t, b)| (t.clone(), b.wrapping_mul(scale)));
            let bound = LinForm::from_terms(terms, constant);
            // a bound no other state shares is overwritten in place
            match stored.as_mut().and_then(Arc::get_mut) {
                Some(f) => *f = bound,
                None => *stored = Some(Arc::new(bound)),
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
                    let form = Arc::new(form);
                    let slot = self.slot_mut(*var);
                    slot.upper = Some(Arc::clone(&form));
                    slot.lower = Some(form);
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
        self.slots.iter().enumerate().all(|(i, s)| {
            let x = vals.get(&VarId(i as u32));
            // a bound that does not evaluate is skipped
            let bound = |f: &Bound| f.as_ref().and_then(|f| eval_form(f, vals));
            (s.interval == Interval::top() || x.is_some_and(|x| s.interval.contains(*x)))
                && x.zip(bound(&s.upper)).is_none_or(|(x, b)| *x <= b)
                && x.zip(bound(&s.lower)).is_none_or(|(x, b)| b <= *x)
        })
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
    /// Block visits made by the fixpoint, both phases together.
    pub visits: u32,
    /// Whether a phase ran into the iteration cap, which sets every
    /// state to top: the visits bought no facts.
    pub capped: bool,
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

/// Number of fact changes at one component head before widening kicks
/// in.
const WIDEN_AFTER: u32 = 2;

/// Block visits one fixpoint phase may make: 16 per block and per
/// component around it, plus 128 (see *Iteration* in the module docs).
/// On overrun every block's fact degrades to top, which is sound
/// (verdicts just become "unknown" more often).
fn iteration_cap(f: &Function, wto: &Wto) -> u32 {
    let depths = f.block_ids().map(|b| 1 + wto.depth(b));
    depths.sum::<u32>().saturating_add(8).saturating_mul(16)
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
    let wto = Wto::compute(f);
    let cap = iteration_cap(f, &wto);
    let loop_facts = trip_facts(forest);
    let private = private_int_arrays(f);
    let loads_private: Vec<bool> = f
        .blocks
        .iter()
        .map(|b| {
            b.stmts
                .iter()
                .any(|s| matches!(s, Stmt::Load { array, .. } if private.contains(array)))
        })
        .collect();
    // phase 1: loads are unknown. Phase 2 makes the same visits up to the
    // first one to a block that loads from a private array, so it resumes
    // from a copy of phase 1 taken there
    let mut it = Iteration::start(f, &wto);
    let (capped, diverges) = fixpoint(
        f,
        &wto,
        cap,
        &loop_facts,
        &HashMap::new(),
        &mut it,
        Some(&loads_private),
    );
    // per-array range summaries from the (sound, load-agnostic) phase-1
    // states
    let load_ranges = array_summaries(f, &it.entry, &private);
    let mut vra = Vra {
        entry: it.entry,
        load_ranges,
        visits: it.visits,
        capped,
    };
    // phase 2: loads from summarized arrays are range-refined. Without a
    // visit to a loading block it would repeat phase 1 exactly
    if let (false, Some(mut it)) = (vra.load_ranges.is_empty(), diverges) {
        let resumed_at = it.visits;
        let (capped, _) = fixpoint(f, &wto, cap, &loop_facts, &vra.load_ranges, &mut it, None);
        vra.entry = it.entry;
        vra.visits += it.visits - resumed_at;
        vra.capped |= capped;
    }
    vra
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
fn array_summaries(
    f: &Function,
    entry: &[Env],
    private: &HashSet<ArrayId>,
) -> HashMap<ArrayId, Interval> {
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

/// A fixpoint phase between two block visits.
#[derive(Clone)]
struct Iteration {
    /// The entry state of each block.
    entry: Vec<Env>,
    /// Fact changes per block, for the widening delay.
    changes: Vec<u32>,
    /// Pending blocks, by position in the weak topological order.
    work: BTreeSet<u32>,
    /// Block visits made.
    visits: u32,
}

impl Iteration {
    /// Before the first visit: the function entry is top and pending,
    /// every other block unreachable.
    fn start(f: &Function, wto: &Wto) -> Iteration {
        let n = f.blocks.len();
        let mut entry = vec![Env::unreachable(); n];
        entry[f.entry.index()] = Env::top();
        let first = wto.position(f.entry).expect("the entry is reachable");
        Iteration {
            entry,
            changes: vec![0; n],
            work: BTreeSet::from([first]),
            visits: 0,
        }
    }
}

/// Runs `it` to a fixpoint over `f` with the given trip-count facts and
/// load summaries, and says whether the iteration cap fired. The worklist
/// always takes the pending block earliest in `wto`, so a loop settles
/// before the blocks after it run, and joins widen only at component
/// heads, which cut every cycle. With `copy_before`, also returns a copy
/// of the iteration taken right before its first visit to a block that
/// `copy_before` marks.
fn fixpoint(
    f: &Function,
    wto: &Wto,
    cap: u32,
    loop_facts: &TripFacts,
    load_ranges: &HashMap<ArrayId, Interval>,
    it: &mut Iteration,
    copy_before: Option<&[bool]>,
) -> (bool, Option<Iteration>) {
    let mut copy = None;
    while let Some(&p) = it.work.first() {
        let b = wto.order[p as usize];
        if copy.is_none() && copy_before.is_some_and(|at| at[b.index()]) {
            copy = Some(it.clone());
        }
        it.work.pop_first();
        if it.visits == cap {
            // backstop: degrade every block to top and stop. A block the
            // worklist has not reached yet still holds the initial
            // `unreachable` state, which would prove every check in it
            it.entry.fill(Env::top());
            return (true, copy);
        }
        it.visits += 1;
        let mut env = it.entry[b.index()].clone();
        for s in &f.block(b).stmts {
            env.step_with(s, load_ranges);
        }
        let out: Vec<(BlockId, Env)> = match &f.block(b).term {
            Terminator::Jump(t) => vec![(*t, env)],
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let mut te = env.clone();
                te.assume_cond(cond, true);
                let mut ee = env;
                ee.assume_cond(cond, false);
                vec![(*then_bb, te), (*else_bb, ee)]
            }
            Terminator::Return => vec![],
        };
        for (succ, e) in out {
            let si = succ.index();
            let mut joined = it.entry[si].join(&e);
            if wto.is_head(succ) && it.changes[si] >= WIDEN_AFTER {
                joined.widen_against(&it.entry[si]);
            }
            // trip-count facts are stable per block: re-asserting them
            // after the join (and after widening) keeps them in the
            // stored entry state without disturbing termination
            if let Some(facts) = loop_facts.get(&succ) {
                for (form, bound) in facts {
                    joined.assume_le(form, *bound);
                }
            }
            if joined != it.entry[si] {
                it.changes[si] += 1;
                it.entry[si] = joined;
                // every block a reachable block jumps to is reachable
                let at = wto.position(succ).expect("a reachable successor");
                it.work.insert(at);
            }
        }
    }
    (false, copy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_frontend::compile;
    use nascent_suite::loops_then_overrun;

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

    fn at_most(hi: i64) -> Interval {
        Interval {
            lo: Some(0),
            hi: Some(hi),
        }
    }

    #[test]
    fn a_state_whose_only_fact_is_removed_is_top() {
        let (v, w, far) = (VarId(0), VarId(1), VarId(40));

        // by widening: both endpoints moved
        let mut env = Env::top();
        env.assume_interval(v, at_most(5));
        let mut prev = Env::top();
        prev.assume_interval(v, at_most(6));
        prev.assume_interval(
            v,
            Interval {
                lo: Some(1),
                hi: None,
            },
        );
        env.widen_against(&prev);
        assert_eq!(env, Env::top());

        // by a killing assignment: `w := w + 1` drops both symbolic facts
        // of `v <= w` and leaves `w` unbounded
        let mut env = Env::top();
        env.assume_le(&LinForm::var(v).sub(&LinForm::var(w)), 0);
        assert_ne!(env, Env::top());
        env.step(&Stmt::assign(w, Expr::add(Expr::var(w), Expr::int(1))));
        assert_eq!(env, Env::top());

        // by a join with a state that knows nothing of the variable
        let mut env = Env::top();
        env.assume_interval(far, at_most(3));
        let mut other = Env::top();
        other.assume_interval(v, at_most(3));
        assert_eq!(env.join(&other), Env::top());
        assert_eq!(other.join(&env), Env::top());

        // a slot cleared after the vector grew still compares as top
        let mut env = Env::top();
        env.assume_interval(far, at_most(3));
        env.step(&Stmt::assign(
            far,
            Expr::mul(Expr::var(far), Expr::var(far)),
        ));
        assert_eq!(env.interval(far), Interval::top());
        assert_eq!(env, Env::top());
        assert_eq!(Env::top(), env);
    }

    #[test]
    fn states_over_different_variable_ranges_join_and_compare_like_maps() {
        let (v, far) = (VarId(2), VarId(33));
        let mut long = Env::top();
        long.assume_interval(v, at_most(4));
        long.assume_interval(far, at_most(9));
        let mut short = Env::top();
        short.assume_interval(v, at_most(7));

        // `far` is known on one side only: the join keeps `v`'s hull
        let mut hull = Env::top();
        hull.assume_interval(v, at_most(7));
        assert_eq!(long.join(&short), hull);
        assert_eq!(short.join(&long), hull);
        assert!(long.entails(&short) && !short.entails(&long));

        // equal facts compare equal whatever the vector lengths; one
        // differing fact, wherever it sits, makes the states differ
        let mut cleared = long.clone();
        cleared.step(&Stmt::assign(
            far,
            Expr::mul(Expr::var(far), Expr::var(far)),
        ));
        let mut just_v = Env::top();
        just_v.assume_interval(v, at_most(4));
        assert_eq!(cleared, just_v);
        assert_ne!(long, just_v);
        assert_ne!(just_v, long);
        assert_ne!(cleared, short);

        // symbolic facts: equal when built twice, dropped by a join with a
        // different bound, kept by a join with the same one
        let bound_by = |k: i64| {
            let mut e = Env::top();
            e.assume_le(&LinForm::var(v).sub(&LinForm::var(far)), k);
            e
        };
        assert_eq!(bound_by(0), bound_by(0));
        assert_ne!(bound_by(0), bound_by(1));
        assert_eq!(bound_by(0).join(&bound_by(0)), bound_by(0));
        assert_eq!(bound_by(0).join(&bound_by(1)), Env::top());
        // bottom states still compare their facts
        let mut trapped = bound_by(0);
        trapped.bottom = true;
        assert_ne!(trapped, Env::unreachable());
    }

    #[test]
    fn re_asserting_a_fact_leaves_the_state_unchanged() {
        let (i, n) = (VarId(0), VarId(1));
        let fact = LinForm::var(i).sub(&LinForm::var(n));
        let mut env = Env::top();
        env.assume_interval(n, at_most(10));
        env.assume_le(&fact, -1);
        let before = env.clone();
        env.assume_le(&fact, -1);
        assert_eq!(env, before);
        // the stored bound is the one built the first time
        assert!(Arc::ptr_eq(
            env.upper_bound(i).unwrap(),
            before.upper_bound(i).unwrap()
        ));
        assert_eq!(env.range(&LinForm::var(i)).hi, Some(9));
    }

    /// A loop copying `x1 = x2, …, x{len} = i` each iteration: every
    /// iteration widens one more variable of the chain at the loop head,
    /// so the head's state changes about `len` times.
    fn copy_chain(len: usize) -> String {
        let xs: Vec<String> = (1..=len).map(|k| format!("x{k}")).collect();
        let mut src = format!(
            "program p\n integer a(1:10)\n integer i, {}\n",
            xs.join(", ")
        );
        for x in &xs {
            src.push_str(&format!(" {x} = 0\n"));
        }
        src.push_str(" do i = 1, 10\n");
        for w in xs.windows(2) {
            src.push_str(&format!("  {} = {}\n", w[0], w[1]));
        }
        src.push_str(&format!("  {} = i\n  a(i) = i\n enddo\nend\n", xs[len - 1]));
        src
    }

    #[test]
    fn cap_and_visits_are_reported() {
        let (_, small) = vra_of(&copy_chain(4));
        assert!(!small.capped);
        assert!(small.visits > 0);
        let (f, big) = vra_of(&copy_chain(150));
        assert!(big.capped);
        // the checks before the store bound the stored value, so `a` gets
        // a load summary; nothing loads from `a`, so the second phase
        // would repeat the first and does not run
        assert!(!big.load_ranges.is_empty());
        assert_eq!(big.visits, iteration_cap(&f, &Wto::compute(&f)));
        assert!(big.entry.iter().all(|e| *e == Env::top()));
    }

    /// The second phase resumes where its visits first differ from the
    /// first phase's, at a block that loads from a private array, and
    /// ends in the states a second phase run from the start reaches.
    #[test]
    fn the_resumed_second_phase_matches_a_full_one() {
        let fill_then_read = "program p
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
 print a(2)
end
";
        for src in [fill_then_read, &nascent_suite::scaling_program(8)] {
            let f = compile(src).unwrap().main_function().clone();
            let forest = crate::context::PassContext::new().loop_forest(&f);
            let vra = analyze_with_forest(&f, &forest);
            assert!(!vra.load_ranges.is_empty());
            let wto = Wto::compute(&f);
            let facts = trip_facts(&forest);
            let cap = iteration_cap(&f, &wto);
            let mut first = Iteration::start(&f, &wto);
            fixpoint(&f, &wto, cap, &facts, &HashMap::new(), &mut first, None);
            let mut full = Iteration::start(&f, &wto);
            fixpoint(&f, &wto, cap, &facts, &vra.load_ranges, &mut full, None);
            assert_eq!(vra.entry, full.entry);
            assert!(vra.visits < first.visits + full.visits);
        }
    }

    #[test]
    fn sequential_loops_settle_one_after_another() {
        for loops in [28, 29, 64] {
            let (f, vra) = vra_of(&loops_then_overrun(loops));
            assert!(!vra.capped, "{loops} loops");
            // a fixed number of visits per loop, whatever comes after it
            assert!(vra.visits <= 24 * (loops as u32 + 1), "{loops} loops");
            let verdicts = check_verdicts(&f, &vra);
            let (in_bounds, last) = verdicts.split_at(verdicts.len() - 2);
            assert!(in_bounds.iter().all(|v| *v == Some(true)), "{loops} loops");
            // the last loop's lower check holds; its upper check fails on
            // the last iteration only, so it stays unknown
            assert!(last.contains(&Some(true)) && last.contains(&None));
        }
    }

    #[test]
    fn deep_nests_converge_within_the_cap() {
        let depth = nascent_frontend::parser::MAX_NESTING;
        let mut src = String::from("program p\n integer a(1:10)\n");
        for d in 0..depth {
            src.push_str(&format!(" integer j{d}\n"));
        }
        for d in 0..depth {
            src.push_str(&format!(" do j{d} = 1, 2\n"));
        }
        src.push_str(&format!(" a(j{}) = j0\n", depth - 1));
        for _ in 0..depth {
            src.push_str(" enddo\n");
        }
        src.push_str("end\n");
        let (f, vra) = vra_of(&src);
        assert!(!vra.capped);
        assert!(vra.visits <= iteration_cap(&f, &Wto::compute(&f)) / 4);
        assert!(check_verdicts(&f, &vra).iter().all(|v| *v == Some(true)));
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
