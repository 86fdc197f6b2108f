//! Preheader insertion (§3.3): the paper's `LI` (loop-invariant checks)
//! and `LLS` (loop-limit substitution of linear checks) schemes — the
//! clear winners of the paper's evaluation.
//!
//! Loops are processed inner to outer, "so that checks from inner loops
//! are hoisted to the outermost loop possible". For each loop:
//!
//! * a check anticipatable at the *beginning of the loop body* whose range
//!   expression is **invariant** in the loop is hoisted to the preheader
//!   as `Cond-check((trip ≥ 1), C)`;
//! * under `LLS`, a check whose range expression is **linear** in the
//!   loop's basic induction variable additionally undergoes *loop-limit
//!   substitution*: the induction variable is replaced by the loop bound
//!   that maximizes its signed contribution, and the substituted check is
//!   hoisted the same way;
//! * when the trip count is known positive at compile time, an ordinary
//!   (unconditional) check is inserted instead of a conditional one;
//! * hoisted conditional checks from inner preheaders are re-hoisted
//!   outward structurally: a guarded check in a block that dominates the
//!   outer loop's latch moves to the outer preheader with the outer
//!   loop's guard appended (these are exactly the preheader-to-body
//!   implications that the paper's Table 3 found to matter).
//!
//! Every check in the loop covered by a hoisted check — same family, same
//! or weaker bound, at a point where the induction variable is still
//! within its body-valid bounds — is deleted immediately; the general
//! elimination pass then cleans up anything the CIG additionally implies.
//!
//! # One anticipatability solution per pass
//!
//! Each loop reads anticipatability ("antic") at its body entry, so each
//! loop needs a solution that reflects the hoists of the loops before it.
//! Instead of solving afresh per loop, the pass keeps one check universe,
//! one set of [`BlockSummaries`](crate::dataflow::BlockSummaries) and one
//! solution, and after each loop updates them in place: it re-summarizes
//! the blocks the loop edited (its preheader, and the loop blocks it
//! deleted covered checks from or re-hoisted guarded checks out of), then
//! resumes the solver from the previous solution with those blocks seeded
//! ([`solve_from`]). At every reachable block the result is exactly what
//! a fresh solve finds:
//!
//! * the pass never adds or removes a definition, so no kill set changes;
//! * deleting a covered check can only shrink a block's gen;
//! * a conditional check generates nothing, so inserting or moving one
//!   leaves every gen alone;
//! * so no transfer function grew: the old solution lies above the new
//!   greatest fixpoint and above its own image, and a descending re-solve
//!   seeded with the edited blocks stops at exactly that fixpoint.
//!
//! One edit does grow a gen: an unconditional check, inserted when the trip
//! count is known positive. Its new bits can raise the fixpoint only
//! along paths that reach the preheader without first passing a block
//! that kills them (whose entry then ignores what follows) or one that
//! already anticipates them (so every path on from it already does). So
//! they are first raised to top at the preheader's entry and along those
//! paths, the blocks that end a path get only their exit raised, and
//! every raised block is seeded. That restores both premises of the
//! descent. When the inserted check is missing from the universe, the
//! universe is rebuilt and solved afresh instead (see `hoist_loop`).
//! Debug builds compare every update with a fresh [`solve`] at every
//! block reachable from the entry: the pass reads no other block, and no
//! reachable block's facts depend on one.
//!
//! The other tables the pass reads are also built once per pass, since no
//! hoist changes them: unique definitions (the pass reads only their
//! blocks and right-hand sides), the set of defined variables, and the
//! predecessor lists. The analysis cache is invalidated once, at the end.

use std::collections::HashMap;
use std::sync::Arc;

use nascent_analysis::context::{Invalidation, PassContext};
use nascent_analysis::dataflow::{solve, solve_from, Solution};
use nascent_analysis::dom::Dominators;
use nascent_analysis::loops::LoopInfo;
use nascent_analysis::reach::UniqueDefs;
use nascent_ir::{BlockId, Check, CheckExpr, Function, LinForm, Stmt, VarId};

use crate::cig::FamilyId;
use crate::dataflow::Antic;
use crate::justify::{Event, JustLog};
use crate::universe::Universe;
use crate::util::BitSet;
use crate::ImplicationMode;

/// Which checks the preheader scheme hoists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoistKind {
    /// Only loop-invariant checks (`LI`).
    InvariantOnly,
    /// Invariant and linear checks with loop-limit substitution (`LLS`).
    InvariantAndLinear,
}

/// Runs preheader insertion over all loops of `f`, inner to outer.
/// Returns the number of checks hoisted (conditional or not).
pub fn hoist(f: &mut Function, kind: HoistKind) -> usize {
    let mut log = JustLog::new();
    hoist_logged(f, kind, &mut log)
}

/// [`hoist`], recording [`Event::Hoisted`] per preheader insertion,
/// [`Event::HoistCovered`] per in-loop check it deletes, and
/// [`Event::Rehoisted`] per guarded check moved to an outer preheader.
pub fn hoist_logged(f: &mut Function, kind: HoistKind, log: &mut JustLog) -> usize {
    hoist_ctx(f, kind, log, &mut PassContext::new())
}

/// [`hoist_logged`] over a shared [`PassContext`].
pub fn hoist_ctx(
    f: &mut Function,
    kind: HoistKind,
    log: &mut JustLog,
    ctx: &mut PassContext,
) -> usize {
    ctx.ensure_preheaders(f);
    let dom = ctx.dominators(f);
    let forest = ctx.loop_forest(f);
    // set up by the first loop that can hoist: a function without one
    // pays nothing for it
    let mut pass: Option<PassState> = None;
    let mut hoisted = 0;
    for l in forest.inner_to_outer() {
        let info = forest.loop_info(l);
        hoisted += hoist_loop(f, ctx, &mut pass, &dom, info, kind, log);
    }
    if pass.is_some_and(|p| p.dirty) {
        // checks were inserted and covered occurrences deleted: statement
        // positions shifted under the cached unique-defs/SSA results
        ctx.invalidate(Invalidation::Statements);
    }
    hoisted
}

/// What the pass computes once and keeps for all its loops (see the
/// module docs).
struct PassState {
    /// Unique definitions; valid for the whole pass in their blocks and
    /// right-hand sides, the only fields the pass reads.
    udefs: Arc<UniqueDefs>,
    /// `defined[v]`: some statement of the function defines `v`.
    defined: Vec<bool>,
    /// Predecessor lists; the pass changes no edge.
    preds: Vec<Vec<BlockId>>,
    /// The check universe and its antic solution; `None` until first use
    /// and after a loop made the universe stale.
    antic: Option<AnticState>,
    /// The function changed since the context was last invalidated.
    dirty: bool,
}

impl PassState {
    fn new(f: &Function, ctx: &mut PassContext) -> PassState {
        let mut defined = vec![false; f.vars.len()];
        for b in &f.blocks {
            for v in b.stmts.iter().filter_map(Stmt::defined_var) {
                defined[v.index()] = true;
            }
        }
        PassState {
            udefs: ctx.unique_defs(f),
            defined,
            preds: f.predecessors(),
            antic: None,
            dirty: false,
        }
    }

    /// The current antic state, built from `f` if there is none.
    fn antic(&mut self, f: &Function, ctx: &mut PassContext) -> &mut AnticState {
        if self.antic.is_none() && std::mem::take(&mut self.dirty) {
            // the CIG reads unique definitions: rebuild over fresh ones
            ctx.invalidate(Invalidation::Statements);
        }
        self.antic.get_or_insert_with(|| AnticState::new(f, ctx))
    }

    /// Substitutes uniquely defined variables (typically the frontend's
    /// loop-limit temporaries, `%lim = n`) through their defining
    /// expressions when the result is evaluable at the end of block `at`:
    /// every variable of the replacement must be never-defined or uniquely
    /// defined in a block dominating (or equal to) `at`. Repeats to a
    /// fixpoint so chains resolve.
    fn normalize_form(&self, dom: &Dominators, at: BlockId, form: &LinForm) -> LinForm {
        let evaluable = |b: BlockId| b == at || dom.dominates(b, at);
        let stable = |w: VarId| match self.udefs.get(&w) {
            Some(site) => evaluable(site.block),
            // not uniquely defined: acceptable only if never defined at all
            None => !self.defined[w.index()],
        };
        let mut cur = form.clone();
        for _ in 0..8 {
            let mut changed = false;
            for v in cur.vars() {
                let Some(site) = self.udefs.get(&v) else {
                    continue;
                };
                // already evaluable in place: leave it
                if evaluable(site.block) {
                    continue;
                }
                let Some(rhs) = &site.rhs else { continue };
                let r = LinForm::from_expr(rhs);
                if r.uses_var(v) || !r.vars().iter().all(|w| stable(*w)) {
                    continue;
                }
                if let Some(next) = cur.substitute_var(v, &r) {
                    cur = next;
                    changed = true;
                    break;
                }
            }
            if !changed {
                break;
            }
        }
        cur
    }

    /// Normalizes a check expression for evaluation at the end of `at`.
    fn normalize_check(&self, dom: &Dominators, at: BlockId, ce: &CheckExpr) -> CheckExpr {
        CheckExpr::new(self.normalize_form(dom, at, ce.form()), ce.bound())
    }
}

/// One check universe, its anticipatability summaries and their solution,
/// kept current across the loops of a pass.
struct AnticState {
    u: Universe,
    problem: Antic,
    sol: Solution<BitSet>,
}

impl AnticState {
    fn new(f: &Function, ctx: &mut PassContext) -> AnticState {
        let u = Universe::build_ctx(f, ImplicationMode::All, ctx);
        let problem = Antic::new(f, &u);
        let sol = solve(f, &problem);
        AnticState { u, problem, sol }
    }

    /// Brings the summaries and the solution up to date after the
    /// statements of the `edited` blocks changed (see the module docs).
    fn update(&mut self, f: &Function, preds: &[Vec<BlockId>], edited: &[BlockId]) {
        let mut seeds = edited.to_vec();
        for &b in edited {
            let grown = self.problem.resummarize(f, &self.u, b);
            if !grown.is_empty() {
                self.raise(preds, b, &grown, &mut seeds);
            }
        }
        solve_from(f, preds, &self.problem, &mut self.sol, seeds);
        #[cfg(debug_assertions)]
        {
            let fresh = Antic::new(f, &self.u);
            let (ours, theirs) = (self.problem.summaries(), fresh.summaries());
            assert!(
                ours.gen == theirs.gen && ours.kill == theirs.kill,
                "incrementally updated antic summaries diverged"
            );
            // `solve` leaves a block unreachable from the entry at top
            // until a successor changes, so only reachable blocks have
            // solver-independent facts; no reachable block reads the others
            let fresh = solve(f, &fresh);
            for b in f.reverse_postorder() {
                let i = b.index();
                assert!(
                    self.sol.entry[i] == fresh.entry[i] && self.sol.exit[i] == fresh.exit[i],
                    "incrementally updated antic solution diverged from a fresh solve at {b}"
                );
            }
        }
    }

    /// Raises `grown`, the bits block `b`'s gen gained, to top at `b`'s
    /// entry and at every block that reaches `b` without passing a block
    /// that kills them or already anticipates them, and seeds every block
    /// it changes. Such a block has only its exit raised and stops the
    /// walk; bits already anticipated at `b`'s entry change nowhere.
    fn raise(
        &mut self,
        preds: &[Vec<BlockId>],
        b: BlockId,
        grown: &BitSet,
        seeds: &mut Vec<BlockId>,
    ) {
        let kill = &self.problem.summaries().kill;
        let Solution { entry, exit, .. } = &mut self.sol;
        let mut raised = grown.clone();
        raised.subtract(&entry[b.index()]);
        if raised.is_empty() {
            return;
        }
        entry[b.index()].union_with(&raised);
        let mut stack = vec![b];
        while let Some(s) = stack.pop() {
            for &q in &preds[s.index()] {
                if raised.is_subset(&exit[q.index()]) {
                    continue;
                }
                exit[q.index()].union_with(&raised);
                seeds.push(q);
                let mut passing = raised.clone();
                passing.subtract(&kill[q.index()]);
                if !passing.is_subset(&entry[q.index()]) {
                    entry[q.index()].union_with(&passing);
                    stack.push(q);
                }
            }
        }
    }
}

/// Hoists the checks of loop `info`, setting up the pass state `pass` on
/// first use. The antic state's universe serves every loop: hoisting reads
/// anticipatability only for checks that occur in the loop, and since
/// anticipatability generates within a family only, those bits depend
/// only on same-family checks and on kills, never on which other checks
/// the universe holds. A universe built before the first loop therefore
/// gives every later loop the same bits a fresh one would, as long as it
/// holds every unconditional check of the function; so it is dropped
/// (and rebuilt by the next loop) only when this loop inserts an
/// unconditional check it lacks.
fn hoist_loop(
    f: &mut Function,
    ctx: &mut PassContext,
    pass: &mut Option<PassState>,
    dom: &Dominators,
    info: &LoopInfo,
    kind: HoistKind,
    log: &mut JustLog,
) -> usize {
    let Some(preheader) = info.preheader else {
        return 0;
    };
    let Some(body_entry) = info.body_entry else {
        return 0;
    };
    let pass = pass.get_or_insert_with(|| PassState::new(f, ctx));

    // ---- candidates: unconditional checks anticipatable at body entry ----
    let antic = pass.antic(f, ctx);
    let u = &antic.u;
    let at_body = &antic.sol.entry[body_entry.index()];

    // hoisting is only profitable for checks that actually occur inside
    // the loop ("checks from inner loops are hoisted"); a check whose
    // occurrences all lie past the loop exit may be anticipatable at the
    // body entry (it is executed after the loop on every path) but
    // hoisting it would add work
    let mut occurs_in_loop = BitSet::empty(u.len());
    for &b in &info.blocks {
        for s in &f.block(b).stmts {
            if let Stmt::Check(c) = s {
                if c.is_unconditional() {
                    let id = u.id(&c.cond);
                    debug_assert!(id.is_some(), "`{}` missing from the universe", c.cond);
                    if let Some(id) = id {
                        occurs_in_loop.insert(id);
                    }
                }
            }
        }
    }

    // guard expressing "the loop executes at least once"
    let guard = info.iv.as_ref().and_then(|iv| iv.entry_guard());

    // per family: the strongest check anticipatable at the body entry and
    // occurring in the loop. A family's checks share their range
    // expression, so whether they hoist, and as what, is decided once for
    // the family, by its strongest check.
    let mut strongest: HashMap<FamilyId, usize> = HashMap::new();
    for id in at_body.iter().filter(|&id| occurs_in_loop.contains(id)) {
        let s = strongest.entry(u.family_of[id]).or_insert(id);
        if u.checks[id].bound() < u.checks[*s].bound() {
            *s = id;
        }
    }
    struct Candidate {
        family: LinForm,
        bound: i64,
        hoisted: CheckExpr,
        linear: bool,
    }
    let mut ordered: Vec<Candidate> = strongest
        .into_values()
        .filter_map(|id| {
            let cond = &u.checks[id];
            let (hoisted, linear) = if info.is_invariant(cond.form()) {
                (cond.clone(), false)
            } else if kind == HoistKind::InvariantAndLinear {
                (substitute_limit(info, cond)?, true)
            } else {
                return None;
            };
            Some(Candidate {
                family: cond.family_key().clone(),
                bound: cond.bound(),
                hoisted,
                linear,
            })
        })
        .collect();
    ordered.sort_by(|a, b| (&a.family, a.bound).cmp(&(&b.family, b.bound)));

    // hoisting (even of an invariant check) needs the loop-entry guard,
    // unless the guard is a compile-time tautology
    let guard_list: Option<Vec<CheckExpr>> = match &guard {
        Some(g) => match g.constant_verdict() {
            Some(true) => Some(vec![]),
            Some(false) => None, // loop provably never runs: hoist nothing
            None => Some(vec![g.clone()]),
        },
        None => None,
    };

    let mut count = 0;
    let mut universe_stale = false;
    // blocks whose statements this loop changes
    let mut edited = Vec::new();
    if let Some(guards) = guard_list {
        for c in &ordered {
            universe_stale |= guards.is_empty() && u.id(&c.hoisted).is_none();
            log.push(Event::Hoisted {
                preheader,
                guards: guards.clone(),
                cond: c.hoisted.clone(),
            });
            let check = Check::conditional(guards.clone(), c.hoisted.clone());
            f.block_mut(preheader).stmts.push(Stmt::Check(check));
            count += 1;
        }
        if count > 0 {
            edited.push(preheader);
        }
        // delete covered checks inside the loop (deletions are accounted
        // via elimination stats, not in `count`)
        let latch = info.latches.first().copied();
        let iv_var = info.iv.as_ref().map(|iv| iv.var);
        for &b in &info.blocks {
            let block = f.block_mut(b);
            let mut iv_defined = false;
            let before = block.stmts.len();
            let mut kept = Vec::with_capacity(before);
            for s in std::mem::take(&mut block.stmts) {
                let covered = match &s {
                    Stmt::Check(c) if c.is_unconditional() => ordered.iter().find(|cand| {
                        c.cond.family_key() == &cand.family
                            && c.cond.bound() >= cand.bound
                            && !(cand.linear && Some(b) == latch && iv_defined)
                    }),
                    _ => None,
                };
                if let Some(cand) = covered {
                    let Stmt::Check(c) = s else { unreachable!() };
                    log.push(Event::HoistCovered {
                        block: b,
                        check: c.cond,
                        preheader,
                        by: cand.hoisted.clone(),
                    });
                } else {
                    kept.push(s);
                }
                if let Some(last) = kept.last() {
                    if last.defined_var().is_some() && last.defined_var() == iv_var {
                        iv_defined = true;
                    }
                }
            }
            if kept.len() < before {
                edited.push(b);
            }
            block.stmts = kept;
        }
    }

    // ---- structural re-hoist of guarded checks from dominated blocks ----
    let moved = rehoist_guarded(f, pass, dom, info, &guard, log, &mut edited);

    if universe_stale {
        pass.antic = None;
    } else if let Some(antic) = &mut pass.antic {
        if !edited.is_empty() {
            edited.sort();
            edited.dedup();
            antic.update(f, &pass.preds, &edited);
        }
    }
    pass.dirty |= count + moved > 0;
    count + moved
}

/// Public form of the loop-limit substitution for the restricted MCM
/// scheme (see the private `substitute_limit`).
pub fn substitute_limit_for(info: &LoopInfo, cond: &CheckExpr) -> Option<CheckExpr> {
    substitute_limit(info, cond)
}

/// Loop-limit substitution: replace the induction variable by the bound
/// that maximizes its signed contribution, giving a check that covers all
/// body-valid values (§3.3, Figure 6).
fn substitute_limit(info: &LoopInfo, cond: &CheckExpr) -> Option<CheckExpr> {
    let coeff = info.linear_in_iv(cond.form())?;
    let iv = info.iv.as_ref()?;
    let bound_form = if coeff > 0 {
        iv.upper.as_ref()?
    } else {
        iv.lower.as_ref()?
    };
    let substituted = cond.form().substitute_var(iv.var, bound_form)?;
    Some(CheckExpr::new(substituted, cond.bound()))
}

/// Moves guarded checks (conditional checks inserted when processing
/// inner loops) outward: a guarded check in a block dominating the loop's
/// latch, whose guards are invariant and whose check is invariant (or
/// linear, substituted), moves to this loop's preheader with this loop's
/// entry guard appended. Adds the blocks it changes to `edited`.
fn rehoist_guarded(
    f: &mut Function,
    pass: &PassState,
    dom: &Dominators,
    info: &LoopInfo,
    guard: &Option<CheckExpr>,
    log: &mut JustLog,
    edited: &mut Vec<BlockId>,
) -> usize {
    let (Some(preheader), [latch]) = (info.preheader, &info.latches[..]) else {
        return 0;
    };
    let outer_guard = match guard {
        Some(g) => match g.constant_verdict() {
            Some(true) => None,
            Some(false) => return 0,
            None => Some(g.clone()),
        },
        None => return 0,
    };
    let mut moved: Vec<Check> = Vec::new();
    for &b in &info.blocks {
        if b == info.header || !dom.dominates(b, *latch) {
            continue;
        }
        let stmts = std::mem::take(&mut f.block_mut(b).stmts);
        let before = stmts.len();
        let mut kept = Vec::with_capacity(before);
        for s in stmts {
            let Stmt::Check(c) = &s else {
                kept.push(s);
                continue;
            };
            if c.is_unconditional() {
                kept.push(s);
                continue;
            }
            // normalize loop-limit temporaries away so the forms become
            // evaluable (and recognizable as invariant) at the preheader
            let guards: Vec<CheckExpr> = c
                .guards
                .iter()
                .map(|g| pass.normalize_check(dom, preheader, g))
                .collect();
            let cond = pass.normalize_check(dom, preheader, &c.cond);
            let guards_invariant = guards.iter().all(|g| info.is_invariant(g.form()));
            if !guards_invariant {
                kept.push(s);
                continue;
            }
            let new_cond = if info.is_invariant(cond.form()) {
                Some(cond)
            } else {
                substitute_limit(info, &cond).map(|c| pass.normalize_check(dom, preheader, &c))
            };
            match new_cond {
                Some(cond) => {
                    let mut guards = guards;
                    if let Some(g) = &outer_guard {
                        guards.push(pass.normalize_check(dom, preheader, g));
                    }
                    log.push(Event::Rehoisted {
                        preheader,
                        guards: guards.clone(),
                        cond: cond.clone(),
                        from_block: b,
                        original: c.clone(),
                    });
                    moved.push(Check::conditional(guards, cond));
                }
                None => kept.push(s),
            }
        }
        if kept.len() < before {
            edited.push(b);
        }
        f.block_mut(b).stmts = kept;
    }
    let n = moved.len();
    if n > 0 {
        edited.push(preheader);
    }
    for c in moved {
        f.block_mut(preheader).stmts.push(Stmt::Check(c));
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::eliminate;
    use crate::fold::fold_constant_checks;
    use crate::OptimizeStats;
    use nascent_frontend::compile;
    use nascent_interp::{run, Limits};
    use nascent_ir::validate::assert_valid;

    fn lls(src: &str) -> (nascent_ir::Program, usize) {
        let mut p = compile(src).unwrap();
        let mut hoisted = 0;
        let mut stats = OptimizeStats::default();
        for i in 0..p.functions.len() {
            hoisted += hoist(&mut p.functions[i], HoistKind::InvariantAndLinear);
            eliminate(&mut p.functions[i], ImplicationMode::All, &mut stats);
            fold_constant_checks(&mut p.functions[i]);
        }
        assert_valid(&p);
        (p, hoisted)
    }

    /// The paper's Figure 6: invariant check on k and linear check on j
    /// both leave the loop as conditional checks in the preheader.
    #[test]
    fn figure6_preheader_insertion() {
        let src = "program fig6
 integer a(1:10)
 integer j, k, n
 n = 4
 k = 7
 do j = 1, 2 * n
  a(k) = a(j) + 1
 enddo
end
";
        let naive = run(&compile(src).unwrap(), &Limits::default()).unwrap();
        let (p, hoisted) = lls(src);
        assert!(hoisted >= 3, "k's two checks and j's upper at least");
        // the loop body performs no checks anymore
        let opt = run(&p, &Limits::default()).unwrap();
        assert!(opt.dynamic_checks <= 4, "only preheader checks remain");
        assert!(naive.dynamic_checks >= 32);
        assert_eq!(opt.output, naive.output);
        assert_eq!(opt.trap.is_some(), naive.trap.is_some());
    }

    #[test]
    fn zero_trip_loop_checks_suppressed_by_guard() {
        // n = 0: the loop never runs; guarded checks must not fire even
        // though k is out of range
        let src = "program p
 integer a(1:10)
 integer j, k, n
 n = 0
 k = 99
 do j = 1, n
  a(k) = 0
 enddo
 print 1
end
";
        let naive = run(&compile(src).unwrap(), &Limits::default()).unwrap();
        assert!(naive.trap.is_none());
        let (p, _h) = lls(src);
        let opt = run(&p, &Limits::default()).unwrap();
        assert!(opt.trap.is_none(), "guard must suppress hoisted checks");
        assert_eq!(opt.output, naive.output);
    }

    #[test]
    fn known_positive_trip_counts_hoist_unconditional_checks() {
        // both loops run, so k's checks go to each preheader
        // unconditionally, growing its gen. Nothing after the loops checks
        // k: the first hoist finds the new bits unanticipated and raises
        // them along the paths into its preheader, through the other loop;
        // the second finds them anticipated already (debug builds compare
        // each update with a fresh solve)
        let src = "program p
 integer a(1:10)
 integer j, k, s
 k = 3
 s = 0
 do j = 1, 5
  s = s + a(k)
 enddo
 do j = 1, 4
  a(k) = j
 enddo
 print s
end
";
        let naive = run(&compile(src).unwrap(), &Limits::default()).unwrap();
        let mut p = compile(src).unwrap();
        let h = hoist(&mut p.functions[0], HoistKind::InvariantOnly);
        assert_eq!(h, 4, "k's two checks, once per loop");
        let f = &p.functions[0];
        let checks: Vec<&Check> = f
            .blocks
            .iter()
            .flat_map(|b| &b.stmts)
            .filter_map(|s| match s {
                Stmt::Check(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(checks.len(), 4, "the in-loop copies are covered");
        assert!(checks.iter().all(|c| c.is_unconditional()));
        assert_valid(&p);
        let opt = run(&p, &Limits::default()).unwrap();
        assert_eq!(opt.output, naive.output);
        assert_eq!(opt.dynamic_checks, 4);
    }

    #[test]
    fn unreachable_blocks_do_not_count_against_the_update() {
        // `k = 2` after `exit` is unreachable and kills k's checks. The
        // inner hoist makes them anticipated everywhere on the outer loop's
        // path, so the raise walk reaches that block and its facts drop
        // below top, where a fresh solve never visits it
        let src = "program p
 integer a(1:10)
 integer i, j, k
 k = 3
 do i = 1, 3
  do j = 1, 4
   a(k) = j
  enddo
  k = k + 0
  if (i > 7) then
   exit
   k = 2
  endif
 enddo
 a(k) = 0
end
";
        let naive = run(&compile(src).unwrap(), &Limits::default()).unwrap();
        let (p, hoisted) = lls(src);
        assert_eq!(hoisted, 2, "k's checks leave the inner loop");
        let opt = run(&p, &Limits::default()).unwrap();
        assert_eq!(opt.output, naive.output);
        assert!(opt.dynamic_checks < naive.dynamic_checks);
    }

    #[test]
    fn li_hoists_invariant_but_not_linear() {
        let src = "program p
 integer a(1:10)
 integer j, k, n
 n = 4
 k = 7
 do j = 1, n
  a(k) = a(j) + 1
 enddo
end
";
        let mut p = compile(src).unwrap();
        let h = hoist(&mut p.functions[0], HoistKind::InvariantOnly);
        assert_eq!(h, 2, "only k's two invariant checks hoist under LI");
        let mut stats = OptimizeStats::default();
        eliminate(&mut p.functions[0], ImplicationMode::All, &mut stats);
        assert_valid(&p);
        let naive = run(&compile(src).unwrap(), &Limits::default()).unwrap();
        let opt = run(&p, &Limits::default()).unwrap();
        // j's checks remain in the loop: 2 per iteration; k's are hoisted
        assert_eq!(opt.output, naive.output);
        assert!(opt.dynamic_checks < naive.dynamic_checks);
        assert!(opt.dynamic_checks >= 8);
    }

    #[test]
    fn nested_loops_hoist_to_outermost() {
        let src = "program p
 integer a(1:100, 1:100)
 integer i, j, n
 n = 50
 do i = 1, n
  do j = 1, n
   a(i, j) = i + j
  enddo
 enddo
end
";
        let naive = run(&compile(src).unwrap(), &Limits::default()).unwrap();
        let (p, hoisted) = lls(src);
        assert!(hoisted >= 4);
        let opt = run(&p, &Limits::default()).unwrap();
        assert_eq!(opt.output, naive.output);
        // 2500 accesses * 4 checks naive vs a handful of hoisted checks
        assert_eq!(naive.dynamic_checks, 10_000);
        assert!(
            opt.dynamic_checks <= 2 + 2 * 50,
            "outer checks hoisted fully, got {}",
            opt.dynamic_checks
        );
    }

    #[test]
    fn triangular_loop_limit_substitution() {
        // inner limit depends on the outer IV: inner hoist uses it as an
        // invariant bound; re-hoisting out of the outer loop substitutes
        let src = "program p
 integer a(1:60)
 integer i, j, n
 n = 10
 do i = 1, n
  do j = 1, i
   a(i + j) = 1
  enddo
 enddo
end
";
        let naive = run(&compile(src).unwrap(), &Limits::default()).unwrap();
        let (p, _h) = lls(src);
        let opt = run(&p, &Limits::default()).unwrap();
        assert_eq!(opt.output, naive.output);
        assert_eq!(opt.trap.is_some(), naive.trap.is_some());
        assert!(opt.dynamic_checks < naive.dynamic_checks);
    }

    #[test]
    fn trap_still_detected_and_not_later() {
        // j runs to 12 against a(1:10): naive traps at j = 11; LLS's
        // hoisted check traps before the loop — never later
        let src = "program p
 integer a(1:10)
 integer j, s
 s = 0
 do j = 1, 12
  s = s + a(j)
 enddo
 print s
end
";
        let naive = run(&compile(src).unwrap(), &Limits::default()).unwrap();
        let (p, _) = lls(src);
        let opt = run(&p, &Limits::default()).unwrap();
        let nt = naive.trap.expect("naive traps");
        let ot = opt.trap.expect("optimized must trap too");
        assert!(ot.at_progress <= nt.at_progress);
    }

    #[test]
    fn negative_step_loop_hoists() {
        let src = "program p
 integer a(1:20)
 integer j, n
 n = 20
 do j = n, 1, -1
  a(j) = j
 enddo
end
";
        let naive = run(&compile(src).unwrap(), &Limits::default()).unwrap();
        let (p, hoisted) = lls(src);
        assert!(hoisted >= 2);
        let opt = run(&p, &Limits::default()).unwrap();
        assert_eq!(opt.output, naive.output);
        assert!(opt.dynamic_checks <= 2);
    }

    #[test]
    fn conditional_check_in_branch_not_hoisted() {
        // the access is conditional inside the loop: not anticipatable at
        // body entry, must stay put
        let src = "program p
 integer a(1:10)
 integer j, k
 k = 12
 do j = 1, 10
  if (j == 20) then
   a(k) = 0
  endif
 enddo
 print 5
end
";
        let naive = run(&compile(src).unwrap(), &Limits::default()).unwrap();
        assert!(naive.trap.is_none(), "branch never taken");
        let (p, _) = lls(src);
        let opt = run(&p, &Limits::default()).unwrap();
        assert!(
            opt.trap.is_none(),
            "hoisting a non-anticipatable check would trap wrongly"
        );
        assert_eq!(opt.output, naive.output);
    }

    #[test]
    fn while_loop_with_iv_hoists_linear_checks() {
        let src = "program p
 integer a(1:50)
 integer i, n
 n = 40
 i = 1
 while (i <= n)
  a(i) = i
  i = i + 1
 endwhile
end
";
        let naive = run(&compile(src).unwrap(), &Limits::default()).unwrap();
        let (p, hoisted) = lls(src);
        let opt = run(&p, &Limits::default()).unwrap();
        assert_eq!(opt.output, naive.output);
        assert!(hoisted >= 2);
        assert!(opt.dynamic_checks < naive.dynamic_checks / 10);
    }
}
