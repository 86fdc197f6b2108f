//! Translation validation of one optimization run.
//!
//! The optimizer emits a [`JustLog`] — one structured event per decision.
//! The verifier treats that log as an *advisory certificate*: nothing in
//! it is trusted. Every claim is re-checked from scratch against the
//! final (optimized) CFG using independently recomputed facts:
//!
//! * availability is re-solved on the **optimized** function over a check
//!   universe built from the **reference** function (widened with every
//!   check the log or the optimized code mentions), so an `Eliminated`
//!   event must name a witness that really is available at the deleted
//!   check's site in the final code;
//! * anticipatability is re-solved on the **reference** function, so an
//!   `Inserted` or `Strengthened` check must be implied by a check the
//!   original program performs on every path from the insertion point;
//! * hoists are re-derived from a fresh loop analysis of the optimized
//!   CFG: entry guards are recomputed from the loop's induction variable,
//!   invariance and loop-limit substitution are replayed, and the hoisted
//!   condition must correspond to a check anticipated at the loop body
//!   entry of the reference;
//! * the value-range analysis (`nascent_analysis::vra`) runs on both
//!   functions, and its result is used only after [`crate::invariant`]
//!   has checked it as an inductive invariant; it discharges checks it
//!   proves always-true.
//!
//! The two directions of trap equivalence:
//!
//! * **no missed traps** — every check of the reference program is either
//!   still performed (a check at the same aligned point implies it) or
//!   justified by a re-checked event chain;
//! * **no spurious traps** — every check or `TRAP` of the optimized
//!   program is either matched by a reference check at the same point or
//!   justified (inserted-but-anticipated, hoisted with recomputed guards,
//!   folded from a proven-false check, …).
//!
//! Alignment uses the pipeline's structural guarantee that no pass ever
//! modifies a non-check statement: shared blocks must carry identical
//! non-check statement sequences, and checks are compared per *gap* — the
//! position between two consecutive non-check statements. Blocks the
//! optimizer added (preheaders, split edges) may contain only checks and
//! traps and are mapped to a reference point by following their jump
//! chain to the first shared block.
//!
//! Every failed obligation becomes a [`Diagnostic`] naming the check, the
//! block, and the gap, plus the implication that could not be discharged.
//!
//! Obligations are answered from tables built once: the log is indexed
//! by block, each block's obligations share one forward walk of its
//! availability states, the invariant checker's walk tabulates what the
//! value-range states prove at every statement, and gap contents,
//! per-gap anticipatability and the loops of each preheader are
//! tabulated or memoized. The optimized function's value-range table is
//! built only when direction B first needs it. No obligation rescans the
//! log or replays a block, so the time per obligation does not grow with
//! the program.

use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use nascent_analysis::context::PassContext;
use nascent_analysis::dataflow::{solve, Solution};
use nascent_analysis::dom::Dominators;
use nascent_analysis::loops::{LoopForest, LoopInfo};
use nascent_analysis::reach::UniqueDefs;
use nascent_analysis::vra::{analyze_with_forest, trip_facts};
use nascent_ir::{BlockId, Check, CheckExpr, Function, LinForm, Program, Stmt, Terminator, VarId};
use nascent_obs::trace::Span;
use nascent_rangecheck::dataflow::{antic_step, avail_step, Antic, Avail};
use nascent_rangecheck::util::BitSet;
use nascent_rangecheck::{inx, CheckKind, Discharge, Event, JustLog, OptimizeOptions, Universe};

use crate::invariant::{self, Proved};

/// One failed proof obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Display form of the check the obligation is about.
    pub check: String,
    /// Block the obligation is anchored at.
    pub block: BlockId,
    /// Gap index within the block (position between non-check statements).
    pub gap: usize,
    /// Why the obligation could not be discharged.
    pub reason: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b{}/gap {}: check `{}`: {}",
            self.block.index(),
            self.gap,
            self.check,
            self.reason
        )
    }
}

/// The result of certifying one function (or, summed, one program).
#[derive(Debug, Clone, Default)]
pub struct Certificate {
    /// Total proof obligations examined (reference checks that must not be
    /// lost + optimized checks/traps that must not trap spuriously).
    pub obligations: usize,
    /// Obligations discharged through a re-checked justification event
    /// (the rest were discharged structurally or by VRA alone).
    pub discharged_by_log: usize,
    /// Reference checks the value-range analysis proves always-true at
    /// their original site, independent of the log.
    pub vra_discharged: usize,
    /// `Discharged` events examined (direction C: each must name a real
    /// reference check the checked value-range states prove at its site).
    pub discharge_events: usize,
    /// `Discharged` events rejected (tampered, relocated, or claiming an
    /// unprovable verdict). Counted in `diagnostics` too.
    pub discharge_rejected: usize,
    /// Failed obligations. Empty means the optimization run is certified.
    pub diagnostics: Vec<Diagnostic>,
}

impl Certificate {
    /// True when every obligation was discharged.
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Accumulates another function's certificate into this one.
    pub fn absorb(&mut self, other: Certificate) {
        self.obligations += other.obligations;
        self.discharged_by_log += other.discharged_by_log;
        self.vra_discharged += other.vra_discharged;
        self.discharge_events += other.discharge_events;
        self.discharge_rejected += other.discharge_rejected;
        self.diagnostics.extend(other.diagnostics);
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            write!(
                f,
                "certified: {} obligations ({} via justification log, {} statically discharged by VRA)",
                self.obligations, self.discharged_by_log, self.vra_discharged
            )?;
            if self.discharge_events > 0 {
                write!(f, "; {} discharge events re-proved", self.discharge_events)?;
            }
            Ok(())
        } else {
            write!(
                f,
                "REJECTED: {} of {} obligations failed",
                self.diagnostics.len(),
                self.obligations
            )
        }
    }
}

/// How one obligation was discharged.
enum Cover {
    /// A check at the same aligned point settles it structurally.
    Direct,
    /// A justification event, re-checked, settles it.
    Log,
    /// The value-range analysis alone settles it.
    Vra,
}

/// Certifies a whole optimization run: `naive` is the program as compiled
/// (before optimization), `optimized` the result, `logs` one log per
/// function in `naive.functions` order. Under [`CheckKind::Inx`] the
/// reference first receives the same induction-expression rewrite — that
/// normalization is shared by optimizer and verifier, not a decision that
/// needs justification (DESIGN.md §7).
pub fn certify_program(
    naive: &Program,
    optimized: &Program,
    logs: &[JustLog],
    opts: &OptimizeOptions,
) -> Certificate {
    let mut sp = nascent_obs::trace::span("certify", "verify");
    sp.attr("functions", naive.functions.len());
    let mut cert = Certificate::default();
    if naive.functions.len() != optimized.functions.len() || naive.functions.len() != logs.len() {
        cert.diagnostics.push(Diagnostic {
            check: "<program>".into(),
            block: BlockId(0),
            gap: 0,
            reason: format!(
                "function count mismatch: {} reference, {} optimized, {} logs",
                naive.functions.len(),
                optimized.functions.len(),
                logs.len()
            ),
        });
        return cert;
    }
    // only the INX rewrite needs a copy of the reference
    let mut reference = Cow::Borrowed(naive);
    if opts.kind == CheckKind::Inx {
        let _sp = nascent_obs::trace::span("inx-reference", "verify");
        for f in &mut reference.to_mut().functions {
            inx::rewrite_checks(f);
        }
    }
    for (i, log) in logs.iter().enumerate() {
        cert.absorb(certify_function(
            &reference.functions[i],
            &optimized.functions[i],
            log,
            opts,
        ));
    }
    cert
}

/// Certifies one function pair. `reference` must already carry the shared
/// INX normalization when the optimizer ran with [`CheckKind::Inx`] (use
/// [`certify_program`] for that).
pub fn certify_function(
    reference: &Function,
    optimized: &Function,
    log: &JustLog,
    opts: &OptimizeOptions,
) -> Certificate {
    let mut cert = Certificate::default();
    if optimized.blocks.len() < reference.blocks.len() {
        cert.diagnostics.push(Diagnostic {
            check: "<function>".into(),
            block: BlockId(0),
            gap: 0,
            reason: "optimized function has fewer blocks than the reference".into(),
        });
        return cert;
    }
    let phase = |name| nascent_obs::trace::span(name, "verify");

    // the trusted side recomputes every analysis itself: two fresh
    // per-function contexts (one per CFG), fully independent of whatever
    // the untrusted optimizer cached during its run
    let mut ref_ctx = PassContext::new();
    let mut opt_ctx = PassContext::new();
    let u = {
        let _sp = phase("universe");
        // universe on the reference, widened with everything the
        // optimized code or the log mentions, so every implication query
        // resolves
        let in_opt = optimized
            .block_ids()
            .flat_map(|b| &optimized.block(b).stmts)
            .filter_map(|s| match s {
                Stmt::Check(c) => Some(std::iter::once(&c.cond).chain(&c.guards)),
                _ => None,
            })
            .flatten();
        let extra = log.mentioned_checks().into_iter().chain(in_opt);
        Universe::build_with_extra_ctx(reference, opts.implications, extra, &mut ref_ctx)
    };
    // summaries are per-(function, universe): Antic is summarized over the
    // reference CFG, Avail over the optimized one, sharing the universe
    let ref_antic = {
        let _sp = phase("antic");
        solve(reference, &Antic::new(reference, &u))
    };
    let opt_avail = {
        let _sp = phase("avail");
        solve(optimized, &Avail::new(optimized, &u))
    };
    let vra_ref = {
        let mut sp = phase("vra-ref");
        let forest = ref_ctx.loop_forest(reference);
        let (proved, rejected) = value_range_facts(reference, &forest, &mut sp);
        cert.diagnostics.extend(rejected);
        proved
    };

    let align = phase("align");
    let ctx = Ctx {
        ref_f: reference,
        opt_f: optimized,
        events: index_log(log),
        u,
        ref_antic,
        opt_avail,
        vra_ref,
        vra_opt: OnceCell::new(),
        forest: opt_ctx.loop_forest(optimized),
        dom: opt_ctx.dominators(optimized),
        udefs: opt_ctx.unique_defs(optimized),
        shared: reference.blocks.len(),
        ref_gaps: reference
            .blocks
            .iter()
            .map(|blk| Gaps::of(&blk.stmts))
            .collect(),
        opt_defined: optimized
            .blocks
            .iter()
            .flat_map(|blk| blk.stmts.iter().filter_map(Stmt::defined_var))
            .collect(),
        loops_at: RefCell::default(),
        antic_gaps: RefCell::default(),
        avail_end: RefCell::default(),
        conds_at: RefCell::default(),
    };

    // structural alignment of shared blocks
    let mut aligned = vec![true; ctx.shared];
    for (bi, ok) in aligned.iter_mut().enumerate() {
        let b = BlockId(bi as u32);
        let rn: Vec<&Stmt> = ctx
            .ref_f
            .block(b)
            .stmts
            .iter()
            .filter(|s| !is_item(s))
            .collect();
        let on: Vec<&Stmt> = ctx
            .opt_f
            .block(b)
            .stmts
            .iter()
            .filter(|s| !is_item(s))
            .collect();
        if rn.len() != on.len() || rn.iter().zip(&on).any(|(a, c)| a != c) {
            cert.diagnostics.push(Diagnostic {
                check: "<block>".into(),
                block: b,
                gap: 0,
                reason: "non-check statement sequences diverge between reference and optimized"
                    .into(),
            });
            *ok = false;
        }
    }
    drop(align);

    // direction A: every reference check is covered
    let direction_a = phase("direction-a");
    for (bi, ok) in aligned.iter().enumerate() {
        if !ok {
            continue;
        }
        let b = BlockId(bi as u32);
        let mut blk = ctx.block_a(b);
        let mut gap = 0;
        for (idx, s) in ctx.ref_f.block(b).stmts.iter().enumerate() {
            if !is_item(s) {
                gap += 1;
                continue;
            }
            let Stmt::Check(c) = s else { continue };
            if !c.is_unconditional() {
                continue; // the reference is naive: only unconditional checks
            }
            cert.obligations += 1;
            let vra_true = ctx.vra_ref.at(b, idx);
            if vra_true {
                cert.vra_discharged += 1;
            }
            let mut visited = HashSet::new();
            match ctx.cover_ref_check(&mut blk, gap, vra_true, &c.cond, 16, &mut visited) {
                Ok(Cover::Log) => cert.discharged_by_log += 1,
                Ok(_) => {}
                Err(reason) => cert.diagnostics.push(Diagnostic {
                    check: c.cond.to_string(),
                    block: b,
                    gap,
                    reason: format!("reference check not covered: {reason}"),
                }),
            }
        }
    }
    drop(direction_a);

    // direction B: every optimized check or trap is justified
    let direction_b = phase("direction-b");
    for b in ctx.opt_f.block_ids() {
        let bi = b.index();
        if bi < ctx.shared && !aligned[bi] {
            continue;
        }
        if bi >= ctx.shared {
            // optimizer-created block: checks and traps only
            if ctx.opt_f.block(b).stmts.iter().any(|s| !is_item(s)) {
                cert.diagnostics.push(Diagnostic {
                    check: "<block>".into(),
                    block: b,
                    gap: 0,
                    reason: "optimizer-created block contains a non-check statement".into(),
                });
                continue;
            }
        }
        let mut gap = 0;
        for (idx, s) in ctx.opt_f.block(b).stmts.iter().enumerate() {
            match s {
                Stmt::Check(c) => {
                    cert.obligations += 1;
                    match ctx.justify_opt_check(b, gap, idx, c) {
                        Ok(Cover::Log) => cert.discharged_by_log += 1,
                        Ok(_) => {}
                        Err(reason) => cert.diagnostics.push(Diagnostic {
                            check: c.cond.to_string(),
                            block: b,
                            gap,
                            reason: format!("optimized check not justified: {reason}"),
                        }),
                    }
                }
                Stmt::Trap { .. } => {
                    cert.obligations += 1;
                    match ctx.justify_trap(b, gap, idx) {
                        Ok(Cover::Log) => cert.discharged_by_log += 1,
                        Ok(_) => {}
                        Err(reason) => cert.diagnostics.push(Diagnostic {
                            check: "TRAP".into(),
                            block: b,
                            gap,
                            reason: format!("trap not justified: {reason}"),
                        }),
                    }
                }
                _ => gap += 1,
            }
        }
    }
    drop(direction_b);
    if let Some((_, Some(rejected))) = ctx.vra_opt.get() {
        cert.diagnostics.push(rejected.clone());
    }

    // direction C: every `Discharged` event names a real reference check
    // the checked value-range states prove at its site. Direction A alone
    // cannot catch a tampered or relocated event — its VRA fallback would
    // cover the deletion without consulting the log — so the events
    // themselves are obligations: an event pointing at a nonexistent site
    // or an unprovable check means the optimizer's justification was
    // forged.
    let _direction_c = phase("direction-c");
    // per reference block: the checks the VRA proves true at some site
    let mut proved_at: HashMap<BlockId, HashSet<&CheckExpr>> = HashMap::new();
    for e in log.events.iter() {
        let Event::Discharged { block, check, .. } = e else {
            continue;
        };
        cert.obligations += 1;
        cert.discharge_events += 1;
        let reject = |cert: &mut Certificate, reason: String| {
            cert.discharge_rejected += 1;
            cert.diagnostics.push(Diagnostic {
                check: check.to_string(),
                block: *block,
                gap: 0,
                reason,
            });
        };
        if opts.discharge == Discharge::Off {
            reject(
                &mut cert,
                "discharge event logged but the discharge tier is off".into(),
            );
            continue;
        }
        if block.index() >= ctx.shared {
            reject(
                &mut cert,
                format!(
                    "discharge event names b{}, outside the reference function",
                    block.index()
                ),
            );
            continue;
        }
        let proved = proved_at.entry(*block).or_insert_with(|| {
            let stmts = &ctx.ref_f.block(*block).stmts;
            stmts
                .iter()
                .enumerate()
                .filter_map(|(idx, s)| match s {
                    Stmt::Check(c) if c.is_unconditional() && ctx.vra_ref.at(*block, idx) => {
                        Some(&c.cond)
                    }
                    _ => None,
                })
                .collect()
        });
        if !proved.contains(check) {
            reject(
                &mut cert,
                "discharge not re-proved: no matching reference check at this block \
                 has a provably-true verdict under the trusted value-range analysis"
                    .into(),
            );
        }
    }

    cert
}

/// Runs the value-range analysis on `f` over the certifier's own loop
/// forest and checks the result ([`invariant::check`]). A rejected
/// invariant gives `f` no value-range facts, plus the diagnostic. The
/// fixpoint's visit count and whether it hit the iteration cap go on
/// `sp`.
fn value_range_facts(
    f: &Function,
    forest: &LoopForest,
    sp: &mut Span,
) -> (Proved, Option<Diagnostic>) {
    let vra = analyze_with_forest(f, forest);
    sp.attr("visits", vra.visits);
    sp.attr("capped", u32::from(vra.capped));
    match invariant::check(f, &vra, &trip_facts(forest)) {
        Ok(proved) => (proved, None),
        Err(d) => (Proved::default(), Some(d)),
    }
}

/// Indexes the log by block for the certifier's lookups: every event is
/// listed under its `block`, and a `Rehoisted` event under its
/// `preheader` and `from_block`. (`Hoisted` events are never looked up:
/// direction B re-derives every hoist from the final CFG.) Each list
/// keeps log order, so a lookup meets its block's events in the order a
/// scan of the whole log would, and first-match results and diagnostics
/// do not change.
fn index_log(log: &JustLog) -> HashMap<BlockId, Vec<&Event>> {
    let mut at: HashMap<BlockId, Vec<&Event>> = HashMap::new();
    for e in &log.events {
        match e {
            Event::Hoisted { .. } => {}
            Event::Rehoisted {
                preheader,
                from_block,
                ..
            } => {
                at.entry(*preheader).or_default().push(e);
                if from_block != preheader {
                    at.entry(*from_block).or_default().push(e);
                }
            }
            Event::Eliminated { block, .. }
            | Event::Strengthened { block, .. }
            | Event::HoistCovered { block, .. }
            | Event::Inserted { block, .. }
            | Event::FoldedTrue { block, .. }
            | Event::FoldedFalse { block, .. }
            | Event::Discharged { block, .. } => at.entry(*block).or_default().push(e),
        }
    }
    at
}

/// Looks `b` up in a per-block memo, computing and storing the value on a
/// miss.
fn memo<V: ?Sized>(
    cell: &RefCell<HashMap<BlockId, Rc<V>>>,
    b: BlockId,
    make: impl FnOnce() -> Rc<V>,
) -> Rc<V> {
    if let Some(v) = cell.borrow().get(&b) {
        return Rc::clone(v);
    }
    let v = make();
    cell.borrow_mut().insert(b, Rc::clone(&v));
    v
}

/// The checks of one block, grouped by gap (the position between two
/// consecutive non-check statements).
struct Gaps<'a> {
    /// Unconditional checks of each gap.
    checks: Vec<Vec<&'a CheckExpr>>,
    /// First gap holding a `TRAP`.
    first_trap: Option<usize>,
}

impl<'a> Gaps<'a> {
    fn of(stmts: &'a [Stmt]) -> Gaps<'a> {
        let mut checks = vec![Vec::new()];
        let mut first_trap = None;
        for s in stmts {
            let gap = checks.len() - 1;
            match s {
                Stmt::Check(c) if c.is_unconditional() => checks[gap].push(&c.cond),
                Stmt::Check(_) => {}
                Stmt::Trap { .. } => {
                    first_trap.get_or_insert(gap);
                }
                _ => checks.push(Vec::new()),
            }
        }
        Gaps { checks, first_trap }
    }

    /// Unconditional checks present in gap `g`.
    fn checks(&self, g: usize) -> &[&'a CheckExpr] {
        self.checks.get(g).map_or(&[], Vec::as_slice)
    }

    /// Whether gap `g` (or an earlier one) holds a `TRAP`.
    fn trapped(&self, g: usize) -> bool {
        self.first_trap.is_some_and(|t| t <= g)
    }
}

/// Availability on the **optimized** function at the end of successive
/// gaps of one block (checks within the gap included: they execute at the
/// same program progress as anything else in the gap). Each query steps
/// forward from the previous one; a query behind the cursor restarts it
/// at the block entry.
struct AvailCursor<'a> {
    stmts: &'a [Stmt],
    entry: &'a BitSet,
    fact: BitSet,
    /// Next statement to step.
    pos: usize,
    /// Non-check statements stepped so far.
    gap: usize,
}

impl<'a> AvailCursor<'a> {
    fn new(stmts: &'a [Stmt], entry: &'a BitSet) -> AvailCursor<'a> {
        AvailCursor {
            stmts,
            entry,
            fact: entry.clone(),
            pos: 0,
            gap: 0,
        }
    }

    fn at_gap(&mut self, u: &Universe, g: usize) -> &BitSet {
        if g < self.gap {
            *self = AvailCursor::new(self.stmts, self.entry);
        }
        while let Some(s) = self.stmts.get(self.pos) {
            if !is_item(s) {
                if self.gap == g {
                    break;
                }
                self.gap += 1;
            }
            avail_step(u, &mut self.fact, s);
            self.pos += 1;
        }
        &self.fact
    }
}

/// Direction A's state for one shared block, built once per block so its
/// obligations share one walk of the block.
struct BlockA<'a> {
    b: BlockId,
    /// Gap table of the optimized block.
    opt_gaps: Gaps<'a>,
    avail: AvailCursor<'a>,
    /// Per variable, the number of non-check statements of the reference
    /// block before its first definition there (built on first use).
    first_def: Option<HashMap<VarId, usize>>,
}

impl BlockA<'_> {
    /// Whether the reference block defines `v` before gap `g`.
    fn defined_before(&mut self, ref_f: &Function, v: VarId, g: usize) -> bool {
        let b = self.b;
        let first_def = self.first_def.get_or_insert_with(|| {
            let mut first = HashMap::new();
            let non_items = ref_f.block(b).stmts.iter().filter(|s| !is_item(s));
            for (n, s) in non_items.enumerate() {
                if let Some(w) = s.defined_var() {
                    first.entry(w).or_insert(n);
                }
            }
            first
        });
        first_def.get(&v).is_some_and(|&n| n < g)
    }
}

/// True for statements that participate in gap alignment (everything the
/// optimizer may add or remove).
pub(crate) fn is_item(s: &Stmt) -> bool {
    matches!(s, Stmt::Check(_) | Stmt::Trap { .. })
}

/// Guard-list equivalence modulo constant-true guards (which the fold
/// pass drops from conditional checks).
fn guards_match(actual: &[CheckExpr], expected: &[CheckExpr]) -> bool {
    expected
        .iter()
        .all(|g| actual.contains(g) || g.constant_verdict() == Some(true))
        && actual.iter().all(|g| expected.contains(g))
}

/// Replay of the loop-limit substitution rule (§3.3): the induction
/// variable is replaced by the bound that maximizes its signed
/// contribution, so the substituted check covers every body-valid value.
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

struct Ctx<'a> {
    ref_f: &'a Function,
    opt_f: &'a Function,
    /// The justification log indexed by block ([`index_log`]).
    events: HashMap<BlockId, Vec<&'a Event>>,
    u: Universe,
    ref_antic: Solution<BitSet>,
    opt_avail: Solution<BitSet>,
    /// What the reference function's checked value-range invariant proves.
    vra_ref: Proved,
    /// Memo: the same for the optimized function, built from `forest` on
    /// first use (with the diagnostic if its invariant was rejected).
    vra_opt: OnceCell<(Proved, Option<Diagnostic>)>,
    forest: Arc<LoopForest>,
    dom: Arc<Dominators>,
    udefs: Arc<UniqueDefs>,
    shared: usize,
    /// Gap table of every reference block.
    ref_gaps: Vec<Gaps<'a>>,
    /// Variables some statement of the optimized function defines.
    opt_defined: HashSet<VarId>,
    /// Memo: indices into `forest.loops` of the loops a block preheaders.
    loops_at: RefCell<HashMap<BlockId, Rc<[usize]>>>,
    /// Memo: anticipatability at the start of each gap of a reference
    /// block.
    antic_gaps: RefCell<HashMap<BlockId, Rc<[BitSet]>>>,
    /// Memo: availability at the end of an optimized block.
    avail_end: RefCell<HashMap<BlockId, Rc<BitSet>>>,
    /// Memo: guard lists of an optimized block's checks, by condition.
    conds_at: RefCell<HashMap<BlockId, Rc<CondGuards<'a>>>>,
}

/// Guard lists of one block's checks, by condition.
type CondGuards<'a> = HashMap<&'a CheckExpr, Vec<&'a [CheckExpr]>>;

impl<'a> Ctx<'a> {
    fn implies(&self, c: &CheckExpr, d: &CheckExpr) -> bool {
        self.u.implies_checks(c, d) == Some(true)
    }

    /// Log events listed under block `b`, in log order.
    fn events_at(&self, b: BlockId) -> &[&'a Event] {
        self.events.get(&b).map_or(&[], Vec::as_slice)
    }

    /// Whether the optimized function's checked value-range invariant
    /// proves statement `idx` of block `b` ([`Proved::at`]).
    fn vra_opt_proves(&self, b: BlockId, idx: usize) -> bool {
        let (proved, _) = self.vra_opt.get_or_init(|| {
            let mut sp = nascent_obs::trace::span("vra-opt", "verify");
            value_range_facts(self.opt_f, &self.forest, &mut sp)
        });
        proved.at(b, idx)
    }

    /// Direction A's state for shared block `b`.
    fn block_a(&self, b: BlockId) -> BlockA<'_> {
        let stmts = &self.opt_f.block(b).stmts;
        BlockA {
            b,
            opt_gaps: Gaps::of(stmts),
            avail: AvailCursor::new(stmts, &self.opt_avail.entry[b.index()]),
            first_def: None,
        }
    }

    /// Anticipatability fact on the **reference** function at the start of
    /// gap `g` of block `b` (the gap's own checks included).
    fn antic_at_gap(&self, b: BlockId, g: usize) -> BitSet {
        let gaps = memo(&self.antic_gaps, b, || {
            // one backward walk records the fact at every gap start
            let mut fact = self.ref_antic.exit[b.index()].clone();
            let mut gaps = Vec::new();
            for s in self.ref_f.block(b).stmts.iter().rev() {
                if !is_item(s) {
                    gaps.push(fact.clone());
                }
                antic_step(&self.u, &mut fact, s);
            }
            gaps.push(fact);
            gaps.reverse();
            gaps.into()
        });
        match gaps.get(g) {
            Some(fact) => fact.clone(),
            None => self.ref_antic.exit[b.index()].clone(),
        }
    }

    /// Availability fact on the **optimized** function after the whole of
    /// block `b`.
    fn avail_at_end(&self, b: BlockId) -> Rc<BitSet> {
        memo(&self.avail_end, b, || {
            let mut fact = self.opt_avail.entry[b.index()].clone();
            for s in &self.opt_f.block(b).stmts {
                avail_step(&self.u, &mut fact, s);
            }
            Rc::new(fact)
        })
    }

    /// Whether block `b` of the optimized function holds a check on
    /// `cond` whose guards match `guards`.
    fn has_check(&self, b: BlockId, guards: &[CheckExpr], cond: &CheckExpr) -> bool {
        let conds = memo(&self.conds_at, b, || {
            let mut conds: CondGuards<'a> = HashMap::new();
            for s in &self.opt_f.block(b).stmts {
                if let Stmt::Check(c) = s {
                    conds.entry(&c.cond).or_default().push(&c.guards);
                }
            }
            Rc::new(conds)
        });
        conds
            .get(cond)
            .is_some_and(|gs| gs.iter().any(|g| guards_match(g, guards)))
    }

    /// Follows jump chains from an optimizer-created block to the first
    /// shared block, which provides the reference point for its checks.
    fn map_new_block(&self, b: BlockId) -> Option<BlockId> {
        let mut cur = b;
        let mut seen = HashSet::new();
        while cur.index() >= self.shared {
            if !seen.insert(cur) {
                return None;
            }
            match &self.opt_f.block(cur).term {
                Terminator::Jump(t) => cur = *t,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Loops plausibly preheadered by `ph`: direct match, or the header is
    /// reachable from `ph` by a short jump chain (edge splitting may have
    /// interposed check-only blocks). Indices into `forest.loops`.
    fn loops_for_preheader(&self, ph: BlockId) -> Rc<[usize]> {
        memo(&self.loops_at, ph, || {
            let mut chain = vec![ph];
            let mut cur = ph;
            for _ in 0..8 {
                match &self.opt_f.block(cur).term {
                    Terminator::Jump(t) if !chain.contains(t) => {
                        chain.push(*t);
                        cur = *t;
                    }
                    _ => break,
                }
            }
            (0..self.forest.loops.len())
                .filter(|&i| {
                    let l = &self.forest.loops[i];
                    l.preheader == Some(ph)
                        || l.preheader.is_some_and(|p| chain.contains(&p))
                        || chain.contains(&l.header)
                })
                .collect()
        })
    }

    /// Replay of the optimizer's loop-limit-temporary normalization: a
    /// uniquely defined variable whose definition does not dominate `at`
    /// is substituted by its defining expression when that expression is
    /// evaluable at the end of `at`. Sound to replay on the final CFG:
    /// no pass after hoisting adds variable definitions, and added blocks
    /// preserve dominance among original blocks.
    fn normalize_form(&self, at: BlockId, form: &LinForm) -> LinForm {
        let stable = |w: VarId| -> bool {
            match self.udefs.get(&w) {
                Some(site) => site.block == at || self.dom.dominates(site.block, at),
                None => !self.opt_defined.contains(&w),
            }
        };
        let mut cur = form.clone();
        for _ in 0..8 {
            let mut changed = false;
            for v in cur.vars() {
                let Some(site) = self.udefs.get(&v) else {
                    continue;
                };
                if site.block == at || self.dom.dominates(site.block, at) {
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

    fn normalize_check(&self, at: BlockId, ce: &CheckExpr) -> CheckExpr {
        CheckExpr::new(self.normalize_form(at, ce.form()), ce.bound())
    }

    // ---------------- direction A: no missed traps ----------------

    /// Covers reference check `c` in gap `g` of `blk`'s block. `vra_true`
    /// says whether the checked value-range states prove `c` at its
    /// original site (false for a strengthened stand-in, which has no site
    /// of its own).
    fn cover_ref_check(
        &self,
        blk: &mut BlockA<'_>,
        g: usize,
        vra_true: bool,
        c: &'a CheckExpr,
        depth: u32,
        visited: &mut HashSet<&'a CheckExpr>,
    ) -> Result<Cover, String> {
        let b = blk.b;
        // an unconditional trap at (or before) the same gap means the
        // optimized program stops at the same progress the check would
        // have been reached: nothing can be missed past it
        if blk.opt_gaps.trapped(g) {
            return Ok(Cover::Direct);
        }
        if blk.opt_gaps.checks(g).iter().any(|x| self.implies(x, c)) {
            return Ok(Cover::Direct);
        }
        if depth == 0 || !visited.insert(c) {
            return Err("justification chain too deep or cyclic".into());
        }
        let mut tried = Vec::new();
        for &e in self.events_at(b) {
            match e {
                Event::Eliminated {
                    block,
                    check,
                    because,
                } if *block == b && check == c => {
                    if !self.implies(because, c) {
                        tried.push(format!("`{because}` does not imply `{c}`"));
                        continue;
                    }
                    match self.u.id(because) {
                        Some(id) if blk.avail.at_gap(&self.u, g).contains(id) => {
                            return Ok(Cover::Log)
                        }
                        _ => tried.push(format!(
                            "witness `{because}` not available at the deleted site"
                        )),
                    }
                }
                Event::Strengthened { block, from, to } if *block == b && from == c => {
                    if !self.implies(to, c) {
                        tried.push(format!("strengthened `{to}` does not imply `{c}`"));
                        continue;
                    }
                    match self.cover_ref_check(blk, g, false, to, depth - 1, visited) {
                        Ok(_) => return Ok(Cover::Log),
                        Err(r) => tried.push(format!("strengthened `{to}` uncovered: {r}")),
                    }
                }
                Event::FoldedTrue { block, check } if *block == b && check == c => {
                    if c.constant_verdict() == Some(true) || vra_true {
                        return Ok(Cover::Log);
                    }
                    tried.push(format!("folded-true `{c}` is not provably true"));
                }
                Event::HoistCovered {
                    block,
                    check,
                    preheader,
                    by,
                } if *block == b && check == c => {
                    match self.verify_hoist_cover(blk, g, c, *preheader, by) {
                        Ok(()) => return Ok(Cover::Log),
                        Err(r) => tried.push(format!("hoist cover by `{by}` fails: {r}")),
                    }
                }
                Event::Discharged { block, check, .. } if *block == b && check == c => {
                    // the recorded reason is advisory; the checked states
                    // must re-prove the verdict at the original site
                    if vra_true {
                        return Ok(Cover::Log);
                    }
                    tried.push(format!("discharged `{c}` is not provably in-bounds"));
                }
                _ => {}
            }
        }
        // VRA fallback: the check can never fail at its original site
        if vra_true {
            return Ok(Cover::Vra);
        }
        if tried.is_empty() {
            Err("no covering check in the gap and no justification event".into())
        } else {
            Err(tried.join("; "))
        }
    }

    /// Re-checks a `HoistCovered` claim: the deleted in-loop check must be
    /// covered by the preheader check under the invariance or loop-limit
    /// substitution rule, with the induction variable still at a
    /// body-valid value at the deleted site, and the preheader check must
    /// itself exist (or be accounted for).
    fn verify_hoist_cover(
        &self,
        blk: &mut BlockA<'_>,
        g: usize,
        c: &CheckExpr,
        ph: BlockId,
        by: &CheckExpr,
    ) -> Result<(), String> {
        let b = blk.b;
        let loops = self.loops_for_preheader(ph);
        if loops.is_empty() {
            return Err(format!("no loop has preheader b{}", ph.index()));
        }
        let mut last = String::from("no candidate loop matches");
        for info in loops.iter().map(|&i| &self.forest.loops[i]) {
            if !info.blocks.contains(&b) {
                last = format!("b{} is not in the loop body", b.index());
                continue;
            }
            let Some(iv) = &info.iv else {
                last = "loop has no recognized induction variable".into();
                continue;
            };
            let Some(ge) = iv.entry_guard() else {
                last = "loop has no computable entry guard".into();
                continue;
            };
            let expected = match ge.constant_verdict() {
                Some(true) => vec![],
                // the loop provably never runs: the deleted check was
                // unreachable, coverage is vacuous
                Some(false) => return Ok(()),
                None => vec![ge],
            };
            let covers = if info.is_invariant(c.form()) {
                by.family_key() == c.family_key() && by.bound() <= c.bound()
            } else if info.linear_in_iv(c.form()).is_some() {
                // the substitution only covers sites where the induction
                // variable still holds a body-valid value: reject if it
                // was redefined earlier in this block
                if blk.defined_before(self.ref_f, iv.var, g) {
                    last = "induction variable redefined before the deleted check".into();
                    false
                } else {
                    match substitute_limit(info, c) {
                        Some(subst) => {
                            by.family_key() == subst.family_key() && by.bound() <= subst.bound()
                        }
                        None => {
                            last = "loop-limit substitution not applicable".into();
                            false
                        }
                    }
                }
            } else {
                last = "deleted check neither invariant nor linear in the loop".into();
                false
            };
            if covers {
                return self.resolve_cond_check(ph, &expected, by, 8);
            }
            if last == "no candidate loop matches" {
                last = format!("`{by}` does not cover `{c}` under the hoist rules");
            }
        }
        Err(last)
    }

    /// The hoisted conditional check claimed at `ph` must be present there
    /// with matching guards — or its absence must itself be justified
    /// (eliminated with an available witness, folded as constant-true,
    /// vacuous because a guard is constant-false or the condition
    /// constant-true, or re-hoisted outward).
    fn resolve_cond_check(
        &self,
        ph: BlockId,
        expected_guards: &[CheckExpr],
        cond: &CheckExpr,
        depth: u32,
    ) -> Result<(), String> {
        if depth == 0 {
            return Err("re-hoist chain too deep".into());
        }
        if expected_guards
            .iter()
            .any(|gd| gd.constant_verdict() == Some(false))
        {
            return Ok(()); // guard can never hold: the check never fires
        }
        if cond.constant_verdict() == Some(true) {
            return Ok(()); // the check can never fail, present or not
        }
        if self.has_check(ph, expected_guards, cond) {
            return Ok(());
        }
        for e in self.events_at(ph) {
            match e {
                Event::Eliminated {
                    block,
                    check,
                    because,
                } if *block == ph && check == cond && self.implies(because, cond) => {
                    // the conditional check sat at the end of the
                    // preheader: use the fact after the whole block
                    if let Some(id) = self.u.id(because) {
                        if self.avail_at_end(ph).contains(id) {
                            return Ok(());
                        }
                    }
                }
                Event::FoldedTrue { block, check }
                    if *block == ph && check == cond && cond.constant_verdict() == Some(true) =>
                {
                    return Ok(());
                }
                Event::FoldedFalse { block, check }
                    if *block == ph
                        && check == cond
                        && cond.constant_verdict() == Some(false)
                        && self
                            .opt_f
                            .block(ph)
                            .stmts
                            .iter()
                            .any(|s| matches!(s, Stmt::Trap { .. })) =>
                {
                    // the hoisted check folded into an unconditional trap:
                    // every execution through the preheader traps before
                    // the covered in-loop site, so coverage is vacuous
                    // (the trap itself is a separate obligation)
                    return Ok(());
                }
                Event::Rehoisted {
                    preheader,
                    guards,
                    cond: moved_cond,
                    from_block,
                    original,
                } if *from_block == ph
                    && &original.cond == cond
                    && guards_match(&original.guards, expected_guards) =>
                {
                    self.verify_rehoist(*preheader, guards, moved_cond, *from_block, original)?;
                    return self.resolve_cond_check(*preheader, guards, moved_cond, depth - 1);
                }
                _ => {}
            }
        }
        Err(format!(
            "hoisted check `{cond}` not found in preheader b{} and its absence is unjustified",
            ph.index()
        ))
    }

    /// Re-checks a `Rehoisted` event by replaying the optimizer's rewrite:
    /// normalization of loop-limit temporaries, invariance of the guards,
    /// invariance-or-substitution of the condition, and the outer entry
    /// guard appended.
    fn verify_rehoist(
        &self,
        preheader: BlockId,
        eguards: &[CheckExpr],
        econd: &CheckExpr,
        from_block: BlockId,
        original: &Check,
    ) -> Result<(), String> {
        let loops = self.loops_for_preheader(preheader);
        if loops.is_empty() {
            return Err(format!("no loop has preheader b{}", preheader.index()));
        }
        let mut last = String::from("no candidate loop matches the re-hoist");
        for info in loops.iter().map(|&i| &self.forest.loops[i]) {
            let [latch] = info.latches[..] else {
                last = "loop has multiple latches".into();
                continue;
            };
            if !info.blocks.contains(&from_block) || from_block == info.header {
                last = format!("b{} is not a hoistable body block", from_block.index());
                continue;
            }
            if !self.dom.dominates(from_block, latch) {
                last = format!("b{} does not dominate the latch", from_block.index());
                continue;
            }
            let outer = match &info.iv {
                Some(iv) => match iv.entry_guard() {
                    Some(gd) => match gd.constant_verdict() {
                        Some(true) => None,
                        Some(false) => {
                            last = "outer loop provably never runs".into();
                            continue;
                        }
                        None => Some(gd),
                    },
                    None => {
                        last = "outer loop has no computable entry guard".into();
                        continue;
                    }
                },
                None => {
                    last = "outer loop has no induction variable".into();
                    continue;
                }
            };
            let nguards: Vec<CheckExpr> = original
                .guards
                .iter()
                .map(|gd| self.normalize_check(preheader, gd))
                .collect();
            if !nguards.iter().all(|gd| info.is_invariant(gd.form())) {
                last = "a guard is not invariant in the outer loop".into();
                continue;
            }
            let ncond = self.normalize_check(preheader, &original.cond);
            let expect_cond = if info.is_invariant(ncond.form()) {
                Some(ncond.clone())
            } else {
                substitute_limit(info, &ncond).map(|c| self.normalize_check(preheader, &c))
            };
            let Some(expect_cond) = expect_cond else {
                last = "condition neither invariant nor substitutable in the outer loop".into();
                continue;
            };
            if &expect_cond != econd {
                last = format!("rewritten condition should be `{expect_cond}`, log says `{econd}`");
                continue;
            }
            let mut expect_guards = nguards;
            if let Some(gd) = outer {
                expect_guards.push(self.normalize_check(preheader, &gd));
            }
            if !guards_match(eguards, &expect_guards) {
                last = "rewritten guards do not match the recomputed guard list".into();
                continue;
            }
            return Ok(());
        }
        Err(last)
    }

    // ---------------- direction B: no spurious traps ----------------

    fn justify_opt_check(
        &self,
        b: BlockId,
        g: usize,
        idx: usize,
        check: &Check,
    ) -> Result<Cover, String> {
        // reference point: same (block, gap) for shared blocks, the entry
        // of the first shared jump-successor for optimizer-created blocks
        let (ant_b, ant_g) = if b.index() < self.shared {
            (b, g)
        } else {
            match self.map_new_block(b) {
                Some(s) => (s, 0),
                None => {
                    return Err(
                        "optimizer-created block does not reach a shared block by jumps".into(),
                    )
                }
            }
        };
        // a reference check at the same point that implies this one means
        // the reference traps whenever this check does
        if self.ref_gaps[ant_b.index()]
            .checks(ant_g)
            .iter()
            .any(|c| self.implies(c, &check.cond))
        {
            return Ok(Cover::Direct);
        }
        let mut tried = Vec::new();
        if check.is_unconditional() {
            let inserted = self.events_at(b).iter().any(|e| {
                matches!(e, Event::Inserted { block, check: x } if *block == b && x == &check.cond)
                    || matches!(e, Event::Strengthened { block, to, .. } if *block == b && to == &check.cond)
            });
            if inserted {
                let fact = self.antic_at_gap(ant_b, ant_g);
                if fact
                    .iter()
                    .any(|d| self.implies(&self.u.checks[d], &check.cond))
                {
                    return Ok(Cover::Log);
                }
                tried.push(format!(
                    "inserted check not anticipated at b{}/gap {}",
                    ant_b.index(),
                    ant_g
                ));
            }
        }
        // hoisted (possibly with all guards folded away) or re-hoisted
        match self.justify_cond_at(b, &check.guards, &check.cond, 8) {
            Ok(()) => return Ok(Cover::Log),
            Err(r) => tried.push(r),
        }
        // VRA fallback on the optimized function: a check that can never
        // fail can never trap spuriously
        if self.vra_opt_proves(b, idx) {
            return Ok(Cover::Vra);
        }
        Err(tried.join("; "))
    }

    /// Justifies a conditional (or guard-folded) check at `b`: it is a
    /// hoist into this preheader (recomputed guards and an anticipated
    /// origin at the loop body entry), or a re-hoist whose origin is
    /// justified recursively.
    fn justify_cond_at(
        &self,
        b: BlockId,
        guards: &[CheckExpr],
        cond: &CheckExpr,
        depth: u32,
    ) -> Result<(), String> {
        if depth == 0 {
            return Err("re-hoist justification chain too deep".into());
        }
        let mut tried = Vec::new();
        match self.verify_hoist(b, guards, cond) {
            Ok(()) => return Ok(()),
            Err(r) => tried.push(r),
        }
        for e in self.events_at(b) {
            if let Event::Rehoisted {
                preheader,
                guards: eg,
                cond: ec,
                from_block,
                original,
            } = e
            {
                if *preheader == b && ec == cond && guards_match(guards, eg) {
                    match self
                        .verify_rehoist(*preheader, eg, ec, *from_block, original)
                        .and_then(|()| {
                            self.justify_cond_at(
                                *from_block,
                                &original.guards,
                                &original.cond,
                                depth - 1,
                            )
                        }) {
                        Ok(()) => return Ok(()),
                        Err(r) => tried.push(format!("re-hoist from b{}: {r}", from_block.index())),
                    }
                }
            }
        }
        Err(tried.join("; "))
    }

    /// Re-checks a hoist into preheader `b`: the guards must equal the
    /// recomputed loop entry guard, and the condition must correspond —
    /// as an invariant or by loop-limit substitution — to a check the
    /// reference anticipates at the loop's body entry.
    fn verify_hoist(
        &self,
        b: BlockId,
        guards: &[CheckExpr],
        cond: &CheckExpr,
    ) -> Result<(), String> {
        let loops = self.loops_for_preheader(b);
        if loops.is_empty() {
            return Err(format!("b{} is not a loop preheader", b.index()));
        }
        let mut last = String::from("no candidate loop certifies the hoist");
        for info in loops.iter().map(|&i| &self.forest.loops[i]) {
            let Some(iv) = &info.iv else {
                last = "loop has no recognized induction variable".into();
                continue;
            };
            let Some(ge) = iv.entry_guard() else {
                last = "loop has no computable entry guard".into();
                continue;
            };
            let expected = match ge.constant_verdict() {
                Some(true) => vec![],
                Some(false) => {
                    last = "loop provably never runs yet a check was hoisted for it".into();
                    continue;
                }
                None => vec![ge],
            };
            if !guards_match(guards, &expected) {
                last = "guards do not match the recomputed loop entry guard".into();
                continue;
            }
            let Some(be) = info.body_entry else {
                last = "loop has no unique body entry".into();
                continue;
            };
            if be.index() >= self.shared {
                last = "loop body entry is not a shared block".into();
                continue;
            }
            let fact = &self.ref_antic.entry[be.index()];
            for d in fact.iter() {
                let dc = &self.u.checks[d];
                if (dc == cond && info.is_invariant(cond.form()))
                    || substitute_limit(info, dc).as_ref() == Some(cond)
                {
                    return Ok(());
                }
            }
            last = format!(
                "`{cond}` does not correspond to any check anticipated at the loop body entry"
            );
        }
        Err(last)
    }

    /// A `TRAP` is justified when it replaced a check proven false at
    /// compile time — and that check is one the reference performs (or
    /// anticipates) at the same point, so the reference traps here too.
    fn justify_trap(&self, b: BlockId, g: usize, idx: usize) -> Result<Cover, String> {
        // unreachable trap: nothing to justify
        if self.vra_opt_proves(b, idx) {
            return Ok(Cover::Vra);
        }
        let (ant_b, ant_g) = if b.index() < self.shared {
            (b, g)
        } else {
            match self.map_new_block(b) {
                Some(s) => (s, 0),
                None => {
                    return Err(
                        "optimizer-created block does not reach a shared block by jumps".into(),
                    )
                }
            }
        };
        for e in self.events_at(b) {
            let Event::FoldedFalse { block, check } = e else {
                continue;
            };
            if *block != b || check.constant_verdict() != Some(false) {
                continue;
            }
            if self.ref_gaps[ant_b.index()]
                .checks(ant_g)
                .iter()
                .any(|c| self.implies(c, check))
            {
                return Ok(Cover::Log);
            }
            let fact = self.antic_at_gap(ant_b, ant_g);
            if fact.iter().any(|d| self.implies(&self.u.checks[d], check)) {
                return Ok(Cover::Log);
            }
            // a hoisted check whose guards all folded constant-true and
            // whose condition folded constant-false: the unconditional
            // trap fires exactly when the certified conditional check
            // would have
            if self.justify_cond_at(b, &[], check, 8).is_ok() {
                return Ok(Cover::Log);
            }
        }
        Err("no folded-false justification matches this trap".into())
    }
}
