//! Shared-context equivalence: running the pass pipeline over one shared
//! [`PassContext`] (analyses cached and selectively invalidated between
//! passes) must produce exactly the same program as running each pass
//! with its own fresh context (every analysis recomputed from scratch).
//! Any divergence means an invalidation tier is too weak.

use nascent_analysis::context::PassContext;
use nascent_ir::pretty::DisplayFunction;
use nascent_rangecheck::{
    elim, fold, inx, mcm, optimize_program_logged_timed, preheader, strength, CheckKind,
    ImplicationMode, JustLog, OptimizeOptions, OptimizeStats, Scheme,
};
use nascent_suite::{scaling_program, suite, Scale};

/// LLS-style pipeline (INX rewrite, preheader hoist, eliminate, fold),
/// every pass sharing `ctx`.
fn pipeline_shared(f: &mut nascent_ir::Function, ctx: &mut PassContext) {
    let mut stats = OptimizeStats::default();
    let mut log = JustLog::new();
    inx::rewrite_checks_ctx(f, ctx);
    strength::strengthen_ctx(f, ImplicationMode::All, &mut stats, &mut log, ctx);
    preheader::hoist_ctx(f, preheader::HoistKind::InvariantAndLinear, &mut log, ctx);
    mcm::hoist_mcm_ctx(f, &mut log, ctx);
    elim::eliminate_ctx(f, ImplicationMode::All, &mut stats, &mut log, ctx);
    fold::fold_constant_checks(f);
}

/// The same pipeline through the convenience wrappers, each of which
/// builds a fresh context (i.e. recomputes every analysis).
fn pipeline_fresh(f: &mut nascent_ir::Function) {
    let mut stats = OptimizeStats::default();
    inx::rewrite_checks(f);
    strength::strengthen(f, ImplicationMode::All, &mut stats);
    preheader::hoist(f, preheader::HoistKind::InvariantAndLinear);
    mcm::hoist_mcm(f);
    elim::eliminate(f, ImplicationMode::All, &mut stats);
    fold::fold_constant_checks(f);
}

#[test]
fn shared_context_pipeline_matches_fresh_contexts() {
    for b in suite(Scale::Small) {
        let prog = nascent_frontend::compile(&b.source).expect("benchmark compiles");
        for f in &prog.functions {
            let mut shared = f.clone();
            let mut ctx = PassContext::new();
            pipeline_shared(&mut shared, &mut ctx);
            assert_eq!(
                ctx.timings.stale_detections, 0,
                "{}: a pass mutated the CFG without declaring it",
                b.name
            );

            let mut fresh = f.clone();
            pipeline_fresh(&mut fresh);

            assert_eq!(
                DisplayFunction(&shared).to_string(),
                DisplayFunction(&fresh).to_string(),
                "{}: shared-context and fresh-context pipelines diverged",
                b.name
            );
        }
    }
}

#[test]
fn full_optimizer_agrees_across_schemes_and_kinds() {
    // optimize_program drives the shared-context pipeline internally;
    // compare its observable behavior (the optimized IR) across two
    // independent runs to ensure cached state never leaks between
    // functions or configurations.
    for b in suite(Scale::Small).into_iter().take(4) {
        for scheme in [Scheme::Ni, Scheme::Se, Scheme::Lls, Scheme::All] {
            for kind in [CheckKind::Prx, CheckKind::Inx] {
                let opts = OptimizeOptions::scheme(scheme).with_kind(kind);
                let mut p1 = nascent_frontend::compile(&b.source).unwrap();
                let mut p2 = nascent_frontend::compile(&b.source).unwrap();
                let (s1, _, t1) = optimize_program_logged_timed(&mut p1, &opts);
                let (s2, _, t2) = optimize_program_logged_timed(&mut p2, &opts);
                assert_eq!(s1, s2, "{} {scheme:?} {kind:?}: stats diverged", b.name);
                for (f1, f2) in p1.functions.iter().zip(&p2.functions) {
                    assert_eq!(
                        DisplayFunction(f1).to_string(),
                        DisplayFunction(f2).to_string(),
                        "{} {scheme:?} {kind:?}",
                        b.name
                    );
                }
                assert_eq!(t1.stale_detections, 0, "{} {scheme:?}", b.name);
                assert_eq!(t2.stale_detections, 0, "{} {scheme:?}", b.name);
            }
        }
    }
}

#[test]
fn unique_defs_do_not_scale_with_the_loop_count() {
    // the hoist pass computes unique definitions once, not once per loop
    // that hoists: the count is the same for 8 loops as for 32
    for scheme in [Scheme::Lls, Scheme::All] {
        let opts = OptimizeOptions::scheme(scheme).with_kind(CheckKind::Inx);
        let computed: Vec<u64> = [8, 32]
            .into_iter()
            .map(|k| {
                let mut p = nascent_frontend::compile(&scaling_program(k)).unwrap();
                let (_, _, timings) = optimize_program_logged_timed(&mut p, &opts);
                timings.analyses["unique-defs"].computed
            })
            .collect();
        assert_eq!(computed[0], computed[1], "{scheme:?} at k = 8, 32");
        assert!(computed[0] <= 3, "{scheme:?}: {computed:?}");
    }
}
