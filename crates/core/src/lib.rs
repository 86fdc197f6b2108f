//! The range-check optimizer of Kolte & Wolfe, *Elimination of Redundant
//! Array Subscript Range Checks* (PLDI 1995).
//!
//! The optimizer takes a program whose array accesses carry naive
//! canonical range checks and reduces the number of checks executed at run
//! time without compromising safety, in the paper's five steps:
//!
//! 1. build the **check implication graph** ([`cig`]) over check
//!    *families* (checks sharing a range expression),
//! 2. compute **anticipatable** checks (backward data flow, [`dataflow`]),
//! 3. **insert** checks at safe and profitable points under one of seven
//!    placement schemes ([`Scheme`]),
//! 4. compute **available** checks (forward data flow) and **eliminate**
//!    redundant ones ([`elim`]),
//! 5. evaluate **compile-time** checks ([`fold`]), reporting provably
//!    violated ones as `TRAP`s.
//!
//! Checks can be built from program expressions (`PRX`) or re-expressed
//! through induction expressions (`INX`, [`inx`]), and implications can be
//! restricted for the paper's Table 3 ablation ([`ImplicationMode`]).
//!
//! # Example
//!
//! ```
//! use nascent_rangecheck::{optimize_program, OptimizeOptions, Scheme};
//!
//! let mut prog = nascent_frontend::compile(
//!     "program p\n integer a(1:100)\n integer i\n do i = 1, 50\n a(i) = i\n enddo\nend\n",
//! ).unwrap();
//! let before = prog.check_count();
//! let stats = optimize_program(&mut prog, &OptimizeOptions::scheme(Scheme::Lls));
//! // loop-limit substitution hoists both checks out of the loop
//! assert!(prog.check_count() < before);
//! assert_eq!(stats.hoisted, 2);
//! ```

pub mod cig;
pub mod dataflow;
pub mod discharge;
pub mod elim;
pub mod fold;
pub mod inx;
pub mod justify;
pub mod lcm;
pub mod mcm;
pub mod preheader;
pub mod report;
pub mod strength;
pub mod universe;
pub mod util;

use nascent_ir::{Function, Program};

pub use cig::{Cig, FamilyId};
pub use justify::{DischargeReason, Event, JustLog};
pub use nascent_analysis::context::{Invalidation, PassContext, Timings};
pub use universe::Universe;

/// Check placement scheme (§3.3 and Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Redundancy elimination without any insertion of checks.
    Ni,
    /// Check strengthening (Gupta).
    Cs,
    /// Latest-not-isolated placement (lazy code motion).
    Lni,
    /// Safe-earliest placement.
    Se,
    /// Preheader insertion of loop-invariant checks only.
    Li,
    /// Preheader insertion with loop-limit substitution of linear checks.
    Lls,
    /// Loop-limit substitution followed by safe-earliest placement.
    All,
    /// Markstein–Cocke–Markstein (SIGPLAN '82): restricted preheader
    /// insertion from articulation nodes with simple range expressions —
    /// the baseline the paper's §5 proposes comparing against (not one of
    /// Table 2's seven schemes).
    Mcm,
}

impl Scheme {
    /// All seven schemes in the paper's table order.
    pub const EACH: [Scheme; 7] = [
        Scheme::Ni,
        Scheme::Cs,
        Scheme::Lni,
        Scheme::Se,
        Scheme::Li,
        Scheme::Lls,
        Scheme::All,
    ];

    /// The paper's abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Ni => "NI",
            Scheme::Cs => "CS",
            Scheme::Lni => "LNI",
            Scheme::Se => "SE",
            Scheme::Li => "LI",
            Scheme::Lls => "LLS",
            Scheme::All => "ALL",
            Scheme::Mcm => "MCM",
        }
    }
}

/// How checks are constructed (§2.3, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CheckKind {
    /// From program expressions, as the frontend emitted them.
    #[default]
    Prx,
    /// Re-expressed through induction/defining expressions first.
    Inx,
}

/// Which implications between checks are used (§4.4, Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ImplicationMode {
    /// All implications, within and across families.
    #[default]
    All,
    /// Only implications between different families (the paper's `LLS'`),
    /// which keeps preheader-to-body implications alive.
    CrossFamilyOnly,
    /// No implications at all (the paper's `NI'`, `SE'`): a check is
    /// redundant only if an *identical* check is available.
    None,
}

/// Whether the static-discharge pre-pass runs before placement
/// (`--discharge {on,off}`). Off by default: the paper's tables measure
/// the placement schemes alone; the discharge tier is this codebase's
/// extension on top of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Discharge {
    /// Delete checks the value-range analysis proves safe, before any
    /// scheme runs. Every deletion is logged and independently
    /// re-proved by the certifier.
    On,
    /// Leave all checks to the placement schemes.
    #[default]
    Off,
}

/// Options controlling one optimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeOptions {
    /// Placement scheme.
    pub scheme: Scheme,
    /// PRX or INX checks.
    pub kind: CheckKind,
    /// Implication ablation.
    pub implications: ImplicationMode,
    /// Static-discharge tier.
    pub discharge: Discharge,
}

impl OptimizeOptions {
    /// Options for a scheme with PRX checks and all implications.
    pub fn scheme(scheme: Scheme) -> OptimizeOptions {
        OptimizeOptions {
            scheme,
            kind: CheckKind::default(),
            implications: ImplicationMode::default(),
            discharge: Discharge::default(),
        }
    }

    /// Same options with a different check kind.
    pub fn with_kind(mut self, kind: CheckKind) -> OptimizeOptions {
        self.kind = kind;
        self
    }

    /// Same options with a different implication mode.
    pub fn with_implications(mut self, implications: ImplicationMode) -> OptimizeOptions {
        self.implications = implications;
        self
    }

    /// Same options with a different discharge tier.
    pub fn with_discharge(mut self, discharge: Discharge) -> OptimizeOptions {
        self.discharge = discharge;
        self
    }
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions::scheme(Scheme::Lls)
    }
}

/// Statistics accumulated over one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Static checks before optimization.
    pub static_before: usize,
    /// Static checks after optimization (conditional checks included).
    pub static_after: usize,
    /// Checks inserted by PRE placement (SE/LNI), total.
    pub inserted: usize,
    /// Checks hoisted into preheaders (LI/LLS/ALL), total.
    pub hoisted: usize,
    /// Checks whose bound was strengthened in place (CS).
    pub strengthened: usize,
    /// Checks removed by availability-based elimination.
    pub eliminated_static: usize,
    /// Checks deleted by the static-discharge pre-pass.
    pub discharged: usize,
    /// Checks folded away as compile-time true.
    pub folded_true: usize,
    /// Checks proven false at compile time (replaced by `TRAP`).
    pub folded_false: usize,
    /// Check families across all functions.
    pub families: usize,
    /// Cross-family implication edges discovered.
    pub cig_edges: usize,
    /// Data-flow worklist iterations consumed.
    pub dataflow_iterations: u64,
}

impl OptimizeStats {
    fn absorb(&mut self, other: OptimizeStats) {
        self.static_before += other.static_before;
        self.static_after += other.static_after;
        self.inserted += other.inserted;
        self.hoisted += other.hoisted;
        self.strengthened += other.strengthened;
        self.eliminated_static += other.eliminated_static;
        self.discharged += other.discharged;
        self.folded_true += other.folded_true;
        self.folded_false += other.folded_false;
        self.families += other.families;
        self.cig_edges += other.cig_edges;
        self.dataflow_iterations += other.dataflow_iterations;
    }
}

/// Optimizes every function of a program in place.
pub fn optimize_program(prog: &mut Program, opts: &OptimizeOptions) -> OptimizeStats {
    let mut stats = OptimizeStats::default();
    for f in &mut prog.functions {
        stats.absorb(optimize_function(f, opts));
    }
    stats
}

/// Optimizes one function in place.
pub fn optimize_function(f: &mut Function, opts: &OptimizeOptions) -> OptimizeStats {
    let mut log = JustLog::new();
    optimize_function_logged(f, opts, &mut log)
}

/// Optimizes every function in place, returning one justification log per
/// function (in `prog.functions` order) for translation validation.
pub fn optimize_program_logged(
    prog: &mut Program,
    opts: &OptimizeOptions,
) -> (OptimizeStats, Vec<JustLog>) {
    let (stats, logs, _) = optimize_program_logged_timed(prog, opts);
    (stats, logs)
}

/// [`optimize_program_logged`], additionally returning merged wall-time
/// counters across all functions.
pub fn optimize_program_logged_timed(
    prog: &mut Program,
    opts: &OptimizeOptions,
) -> (OptimizeStats, Vec<JustLog>, Timings) {
    let mut stats = OptimizeStats::default();
    let mut logs = Vec::with_capacity(prog.functions.len());
    let mut timings = Timings::new();
    for f in &mut prog.functions {
        let mut log = JustLog::new();
        let mut ctx = PassContext::new();
        stats.absorb(optimize_function_with(f, opts, &mut log, &mut ctx));
        timings.merge(&ctx.timings);
        logs.push(log);
    }
    (stats, logs, timings)
}

/// Optimizes one function in place, recording every decision in `log`.
pub fn optimize_function_logged(
    f: &mut Function,
    opts: &OptimizeOptions,
    log: &mut JustLog,
) -> OptimizeStats {
    optimize_function_with(f, opts, log, &mut PassContext::new())
}

/// Optimizes one function in place over a caller-provided [`PassContext`]:
/// every pass draws its analyses from the shared cache, declares its
/// invalidations, and has its wall time recorded under a stable pass name.
pub fn optimize_function_with(
    f: &mut Function,
    opts: &OptimizeOptions,
    log: &mut JustLog,
    ctx: &mut PassContext,
) -> OptimizeStats {
    let mut sp = nascent_obs::trace::span("optimize-function", "optimize");
    sp.attr("fn", f.name.as_str());
    sp.attr("scheme", opts.scheme.name());
    let mut stats = OptimizeStats {
        static_before: f.check_count(),
        ..OptimizeStats::default()
    };

    // INX mode: re-express checks through defining expressions first.
    // This is shared normalization, not an optimization decision: the
    // verifier applies the same rewrite to its reference program, so no
    // event is logged for it (DESIGN.md §7).
    if opts.kind == CheckKind::Inx {
        ctx.time_pass("inx-rewrite", |ctx| inx::rewrite_checks_ctx(f, ctx));
    }

    // static discharge tier: delete checks the value-range analysis
    // proves safe before any scheme sees them (runs after the INX
    // rewrite, so the certifier's reference — naive + same rewrite —
    // contains exactly the checks the events name)
    if opts.discharge == Discharge::On {
        stats.discharged = ctx.time_pass("discharge", |ctx| {
            discharge::discharge_checks_ctx(f, log, ctx)
        });
        if stats.discharged > 0 {
            ctx.invalidate(Invalidation::Statements);
        }
    }

    // step 3: insertion under the selected scheme
    match opts.scheme {
        Scheme::Ni => {}
        Scheme::Cs => {
            stats.strengthened = ctx.time_pass("strengthen", |ctx| {
                strength::strengthen_ctx(f, opts.implications, &mut stats, log, ctx)
            });
        }
        Scheme::Se => {
            stats.inserted = ctx.time_pass("pre-insert", |ctx| {
                lcm::insert_ctx(
                    f,
                    lcm::Placement::SafeEarliest,
                    opts.implications,
                    &mut stats,
                    log,
                    ctx,
                )
            });
        }
        Scheme::Lni => {
            stats.inserted = ctx.time_pass("pre-insert", |ctx| {
                lcm::insert_ctx(
                    f,
                    lcm::Placement::Latest,
                    opts.implications,
                    &mut stats,
                    log,
                    ctx,
                )
            });
        }
        Scheme::Li => {
            stats.hoisted = ctx.time_pass("preheader-hoist", |ctx| {
                preheader::hoist_ctx(f, preheader::HoistKind::InvariantOnly, log, ctx)
            });
        }
        Scheme::Lls => {
            stats.hoisted = ctx.time_pass("preheader-hoist", |ctx| {
                preheader::hoist_ctx(f, preheader::HoistKind::InvariantAndLinear, log, ctx)
            });
        }
        Scheme::All => {
            stats.hoisted = ctx.time_pass("preheader-hoist", |ctx| {
                preheader::hoist_ctx(f, preheader::HoistKind::InvariantAndLinear, log, ctx)
            });
            stats.inserted = ctx.time_pass("pre-insert", |ctx| {
                lcm::insert_ctx(
                    f,
                    lcm::Placement::SafeEarliest,
                    opts.implications,
                    &mut stats,
                    log,
                    ctx,
                )
            });
        }
        Scheme::Mcm => {
            stats.hoisted = ctx.time_pass("mcm-hoist", |ctx| mcm::hoist_mcm_ctx(f, log, ctx));
        }
    }

    // steps 1/2/4: availability-based elimination with the CIG
    let eliminated = ctx.time_pass("elim", |ctx| {
        elim::eliminate_ctx(f, opts.implications, &mut stats, log, ctx)
    });
    stats.eliminated_static += eliminated;

    // step 5: compile-time checks
    let (t, fa) = ctx.time_pass("fold", |_| fold::fold_constant_checks_logged(f, log));
    if t + fa > 0 {
        ctx.invalidate(Invalidation::Statements);
    }
    stats.folded_true = t;
    stats.folded_false = fa;

    stats.static_after = f.check_count();
    stats
}
