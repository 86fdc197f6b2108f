//! Per-function pass context: a shared analysis cache with explicit
//! invalidation tiers and wall-time instrumentation.
//!
//! The optimizer is a pipeline of passes that all consume the same small
//! set of analyses (dominators, post-dominators, the loop forest, the SSA
//! overlay, unique reaching definitions, induction classification).
//! Before this module existed every pass recomputed what it needed from
//! scratch; a [`PassContext`] instead computes each analysis once per
//! function, hands out [`Arc`] handles, and tracks exactly when a
//! transformation forces recomputation:
//!
//! * [`Invalidation::Statements`] — the pass rewrote, inserted, or removed
//!   *non-defining* statements (range checks, traps) but left the CFG and
//!   every variable definition intact. Dominators, post-dominators and the
//!   loop forest survive; statement-derived analyses (SSA, unique defs,
//!   induction classes) are dropped. All statement-tier passes in this
//!   code base touch only `Check`/`Trap` statements, which define no
//!   variables — that contract is what makes keeping the loop forest's
//!   `defined_vars`/`iv` descriptors sound.
//! * [`Invalidation::Cfg`] — the pass added blocks or retargeted edges
//!   (preheader insertion, critical-edge splitting). Everything is
//!   dropped.
//!
//! Staleness is double-checked with a structural CFG fingerprint: every
//! cache access re-hashes the block/successor structure and, on mismatch,
//! discards the cache and counts a *stale detection* — a pass mutated the
//! CFG without declaring it. Tests use this to prove the tiers are
//! honest; release code gets a safety net rather than silent misanalysis.
//!
//! The context doubles as the timing surface for `--timings` reports:
//! each analysis records computes, cache hits and cumulative wall time,
//! and passes record their own wall time via [`Timings::record_pass`].
//! Since the obs integration, [`Timings`] is a thin view over
//! `nascent_obs` spans: every compute and pass body runs inside a
//! [`nascent_obs::trace::timed_span`], whose measured duration feeds
//! these counters whether or not a trace recorder is active — so the
//! stable `timings-format 1` report is byte-identical with tracing on or
//! off, and enabling a recorder additionally captures the same intervals
//! as Chrome-trace spans (category `analysis` or `pass`).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

use nascent_obs::trace::timed_span;

use nascent_ir::{Function, VarId};

use crate::dom::{Dominators, PostDominators};
use crate::induction::{classify_function, InductionClass};
use crate::loops::{insert_preheaders_with, LoopForest, LoopId};
use crate::reach::{unique_defs, UniqueDefs};
use crate::ssa::Ssa;

/// Induction classification for every `(loop, variable)` pair, the owned
/// result of [`classify_function`]. Cached in place of the borrow-based
/// `InductionAnalysis` so the cache has no self-references.
pub type InductionClasses = HashMap<(LoopId, VarId), InductionClass>;

/// How much of the cache a transformation invalidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invalidation {
    /// Non-defining statements changed; CFG and definitions intact.
    /// Keeps dominators, post-dominators and the loop forest.
    Statements,
    /// Blocks or edges changed. Drops everything.
    Cfg,
}

/// Counters for one analysis kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStat {
    /// Times the analysis was computed from scratch.
    pub computed: u64,
    /// Times a cached result was handed out.
    pub hits: u64,
    /// Total wall time spent computing, in nanoseconds.
    pub nanos: u128,
}

/// Counters for one optimizer pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStat {
    /// Times the pass ran.
    pub runs: u64,
    /// Total wall time, in nanoseconds.
    pub nanos: u128,
}

/// Per-analysis and per-pass wall-time counters, mergeable across
/// functions and threads. `BTreeMap` keys keep [`Timings::report`] output
/// deterministically ordered.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Per-analysis counters, keyed by analysis name.
    pub analyses: BTreeMap<&'static str, AnalysisStat>,
    /// Per-pass counters, keyed by pass name.
    pub passes: BTreeMap<&'static str, PassStat>,
    /// Cache resets forced by an undeclared CFG change (should be zero).
    pub stale_detections: u64,
    /// Explicit invalidations requested by passes.
    pub invalidations: u64,
}

impl Timings {
    /// Fresh, all-zero counters.
    pub fn new() -> Timings {
        Timings::default()
    }

    /// Records a from-scratch analysis computation.
    pub fn record_compute(&mut self, name: &'static str, elapsed: Duration) {
        let s = self.analyses.entry(name).or_default();
        s.computed += 1;
        s.nanos += elapsed.as_nanos();
    }

    /// Records a cache hit for an analysis.
    pub fn record_hit(&mut self, name: &'static str) {
        self.analyses.entry(name).or_default().hits += 1;
    }

    /// Records one run of an optimizer pass.
    pub fn record_pass(&mut self, name: &'static str, elapsed: Duration) {
        let s = self.passes.entry(name).or_default();
        s.runs += 1;
        s.nanos += elapsed.as_nanos();
    }

    /// Accumulates another set of counters into this one.
    pub fn merge(&mut self, other: &Timings) {
        for (name, s) in &other.analyses {
            let t = self.analyses.entry(name).or_default();
            t.computed += s.computed;
            t.hits += s.hits;
            t.nanos += s.nanos;
        }
        for (name, s) in &other.passes {
            let t = self.passes.entry(name).or_default();
            t.runs += s.runs;
            t.nanos += s.nanos;
        }
        self.stale_detections += other.stale_detections;
        self.invalidations += other.invalidations;
    }

    /// Total wall time spent computing analyses, in nanoseconds.
    pub fn analysis_nanos(&self) -> u128 {
        self.analyses.values().map(|s| s.nanos).sum()
    }

    /// Total wall time spent inside passes, in nanoseconds.
    pub fn pass_nanos(&self) -> u128 {
        self.passes.values().map(|s| s.nanos).sum()
    }

    /// Stable machine-readable report, one record per line:
    ///
    /// ```text
    /// timings-format 1
    /// analysis dom computed=3 hits=12 time_ns=45678
    /// pass elim runs=2 time_ns=90123
    /// cache stale-detections=0 invalidations=5
    /// ```
    pub fn report(&self) -> String {
        let mut out = String::from("timings-format 1\n");
        for (name, s) in &self.analyses {
            out.push_str(&format!(
                "analysis {name} computed={} hits={} time_ns={}\n",
                s.computed, s.hits, s.nanos
            ));
        }
        for (name, s) in &self.passes {
            out.push_str(&format!(
                "pass {name} runs={} time_ns={}\n",
                s.runs, s.nanos
            ));
        }
        out.push_str(&format!(
            "cache stale-detections={} invalidations={}\n",
            self.stale_detections, self.invalidations
        ));
        out
    }

    /// The same counters as [`Timings::report`], as one JSON object:
    /// an array entry per analysis (`name`, `computed`, `hits`,
    /// `time_ns`) and per pass (`name`, `runs`, `time_ns`), plus the
    /// cache counters. Key order is fixed and map iteration is sorted,
    /// so the output is deterministic for a given set of counters.
    pub fn report_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"format\":1,\"analyses\":[");
        for (i, (name, s)) in self.analyses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"computed\":{},\"hits\":{},\"time_ns\":{}}}",
                s.computed, s.hits, s.nanos
            );
        }
        out.push_str("],\"passes\":[");
        for (i, (name, s)) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"runs\":{},\"time_ns\":{}}}",
                s.runs, s.nanos
            );
        }
        let _ = write!(
            out,
            "],\"cache\":{{\"stale_detections\":{},\"invalidations\":{}}}}}",
            self.stale_detections, self.invalidations
        );
        out
    }
}

/// Structural fingerprint of a function's CFG: block count, entry, and
/// every block's successor list. Statement edits do not change it; any
/// block addition or edge retargeting does.
pub fn cfg_fingerprint(f: &Function) -> u64 {
    let mut h = DefaultHasher::new();
    f.blocks.len().hash(&mut h);
    f.entry.index().hash(&mut h);
    for b in f.block_ids() {
        for s in f.successors(b) {
            s.index().hash(&mut h);
        }
        usize::MAX.hash(&mut h); // per-block separator
    }
    h.finish()
}

#[derive(Debug, Default)]
struct AnalysisCache {
    fingerprint: Option<u64>,
    generation: u64,
    dom: Option<Arc<Dominators>>,
    pdom: Option<Arc<PostDominators>>,
    loops: Option<Arc<LoopForest>>,
    ssa: Option<Arc<Ssa>>,
    udefs: Option<Arc<UniqueDefs>>,
    induction: Option<Arc<InductionClasses>>,
    vra: Option<Arc<crate::vra::Vra>>,
}

impl AnalysisCache {
    fn clear_statement_tier(&mut self) {
        self.ssa = None;
        self.udefs = None;
        self.induction = None;
        // check/trap edits change the facts assumed at each point
        self.vra = None;
    }

    fn clear_all(&mut self) {
        self.clear_statement_tier();
        self.dom = None;
        self.pdom = None;
        self.loops = None;
        self.fingerprint = None;
    }
}

/// Per-function analysis cache plus timing counters. One context serves
/// exactly one [`Function`]; handing it a different function is caught by
/// the CFG fingerprint only probabilistically, so don't.
#[derive(Debug, Default)]
pub struct PassContext {
    cache: AnalysisCache,
    /// Wall-time counters; merged across functions by callers.
    pub timings: Timings,
}

impl PassContext {
    /// Creates an empty context.
    pub fn new() -> PassContext {
        PassContext::default()
    }

    /// Generation counter, bumped on every invalidation or stale reset.
    /// Tests use it to observe cache lifecycle events.
    pub fn generation(&self) -> u64 {
        self.cache.generation
    }

    /// Verifies the cached results still describe `f`'s CFG; on a
    /// fingerprint mismatch the whole cache is discarded and the event is
    /// counted as a stale detection.
    fn validate(&mut self, f: &Function) {
        let fp = cfg_fingerprint(f);
        match self.cache.fingerprint {
            Some(old) if old == fp => {}
            Some(_) => {
                self.timings.stale_detections += 1;
                self.cache.generation += 1;
                self.cache.clear_all();
                self.cache.fingerprint = Some(fp);
            }
            None => self.cache.fingerprint = Some(fp),
        }
    }

    /// Dominator tree of `f`.
    pub fn dominators(&mut self, f: &Function) -> Arc<Dominators> {
        self.validate(f);
        if let Some(d) = &self.cache.dom {
            self.timings.record_hit("dom");
            return Arc::clone(d);
        }
        let sp = timed_span("dom", "analysis");
        let d = Arc::new(Dominators::compute(f));
        self.timings.record_compute("dom", sp.finish());
        self.cache.dom = Some(Arc::clone(&d));
        d
    }

    /// Post-dominator tree of `f`.
    pub fn post_dominators(&mut self, f: &Function) -> Arc<PostDominators> {
        self.validate(f);
        if let Some(d) = &self.cache.pdom {
            self.timings.record_hit("postdom");
            return Arc::clone(d);
        }
        let sp = timed_span("postdom", "analysis");
        let d = Arc::new(PostDominators::compute(f));
        self.timings.record_compute("postdom", sp.finish());
        self.cache.pdom = Some(Arc::clone(&d));
        d
    }

    /// Natural-loop forest of `f` (reuses cached dominators).
    pub fn loop_forest(&mut self, f: &Function) -> Arc<LoopForest> {
        self.validate(f);
        if let Some(l) = &self.cache.loops {
            self.timings.record_hit("loops");
            return Arc::clone(l);
        }
        let dom = self.dominators(f);
        let sp = timed_span("loops", "analysis");
        let l = Arc::new(LoopForest::compute_with(f, &dom));
        self.timings.record_compute("loops", sp.finish());
        self.cache.loops = Some(Arc::clone(&l));
        l
    }

    /// SSA overlay of `f` (reuses cached dominators).
    pub fn ssa(&mut self, f: &Function) -> Arc<Ssa> {
        self.validate(f);
        if let Some(s) = &self.cache.ssa {
            self.timings.record_hit("ssa");
            return Arc::clone(s);
        }
        let dom = self.dominators(f);
        let sp = timed_span("ssa", "analysis");
        let s = Arc::new(Ssa::compute(f, &dom));
        self.timings.record_compute("ssa", sp.finish());
        self.cache.ssa = Some(Arc::clone(&s));
        s
    }

    /// Unique static definitions of `f`.
    pub fn unique_defs(&mut self, f: &Function) -> Arc<UniqueDefs> {
        self.validate(f);
        if let Some(u) = &self.cache.udefs {
            self.timings.record_hit("unique-defs");
            return Arc::clone(u);
        }
        let sp = timed_span("unique-defs", "analysis");
        let u = Arc::new(unique_defs(f));
        self.timings.record_compute("unique-defs", sp.finish());
        self.cache.udefs = Some(Arc::clone(&u));
        u
    }

    /// Induction classification of `f` (reuses cached SSA and loops).
    pub fn induction(&mut self, f: &Function) -> Arc<InductionClasses> {
        self.validate(f);
        if let Some(i) = &self.cache.induction {
            self.timings.record_hit("induction");
            return Arc::clone(i);
        }
        let ssa = self.ssa(f);
        let forest = self.loop_forest(f);
        let sp = timed_span("induction", "analysis");
        let i = Arc::new(classify_function(f, &ssa, &forest));
        self.timings.record_compute("induction", sp.finish());
        self.cache.induction = Some(Arc::clone(&i));
        i
    }

    /// Value-range analysis of `f` (reuses the cached loop forest).
    /// Statement-tier: any check/trap edit drops it.
    pub fn vra(&mut self, f: &Function) -> Arc<crate::vra::Vra> {
        self.validate(f);
        if let Some(v) = &self.cache.vra {
            self.timings.record_hit("vra");
            return Arc::clone(v);
        }
        let forest = self.loop_forest(f);
        let sp = timed_span("vra", "analysis");
        let v = Arc::new(crate::vra::analyze_with_forest(f, &forest));
        self.timings.record_compute("vra", sp.finish());
        self.cache.vra = Some(Arc::clone(&v));
        v
    }

    /// Declares that a transformation ran, dropping the corresponding
    /// cache tier.
    pub fn invalidate(&mut self, what: Invalidation) {
        self.timings.invalidations += 1;
        self.cache.generation += 1;
        match what {
            Invalidation::Statements => self.cache.clear_statement_tier(),
            Invalidation::Cfg => self.cache.clear_all(),
        }
    }

    /// Ensures every loop of `f` has a preheader, reusing the cached loop
    /// forest and invalidating the CFG tier only when blocks were actually
    /// inserted. Returns `true` if `f` changed.
    pub fn ensure_preheaders(&mut self, f: &mut Function) -> bool {
        let forest = self.loop_forest(f);
        if forest.loops.iter().all(|l| l.preheader.is_some()) {
            return false;
        }
        let sp = timed_span("insert-preheaders", "pass");
        let changed = insert_preheaders_with(f, &forest);
        self.timings.record_pass("insert-preheaders", sp.finish());
        if changed {
            self.invalidate(Invalidation::Cfg);
        }
        changed
    }

    /// Runs `body` as a named pass, recording its wall time.
    pub fn time_pass<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> R) -> R {
        let sp = timed_span(name, "pass");
        let r = body(self);
        self.timings.record_pass(name, sp.finish());
        r
    }
}
