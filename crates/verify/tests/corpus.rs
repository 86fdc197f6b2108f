//! Release-only certification tests over the generated corpus and the
//! scaling curve, run by CI's `discharge-certify` job (`cargo test
//! --release -p nascent-verify --test corpus`, about 10 s). In a debug
//! build they are ignored: the corpus alone takes minutes there.
//!
//! The corpus: `random_program` seeds 0–149 (`GenConfig::default`) and
//! 1000–1039 (`max_depth: 3, max_stmts: 12`), each under the seven
//! schemes and MCM × PRX/INX × discharge off/on with all implications,
//! 6 080 cells. The certifier still rejects some of them, most of them
//! two-step hoist chains it follows only one step; [`KNOWN_REJECTED`]
//! lists exactly those cells, so a new rejection fails the test and so
//! does a listed cell that certifies (delete it from the list).

use nascent_analysis::context::PassContext;
use nascent_analysis::vra::{analyze_with_forest, trip_facts};
use nascent_frontend::compile;
use nascent_ir::Program;
use nascent_rangecheck::{
    inx, optimize_program_logged, CheckKind, Discharge, OptimizeOptions, Scheme,
};
use nascent_suite::{loops_then_overrun, random_program, scaling_program, GenConfig};
use nascent_verify::{certify_program, invariant};

/// The corpus cells the certifier rejects, as `seed scheme kind
/// discharge`.
const KNOWN_REJECTED: &[&str] = &[
    "5 LI Prx Off",
    "5 LI Prx On",
    "5 LI Inx Off",
    "5 LI Inx On",
    "5 LLS Prx Off",
    "5 LLS Prx On",
    "5 LLS Inx Off",
    "5 LLS Inx On",
    "5 ALL Prx Off",
    "5 ALL Prx On",
    "5 ALL Inx Off",
    "5 ALL Inx On",
    "16 ALL Prx Off",
    "16 ALL Prx On",
    "16 ALL Inx Off",
    "16 ALL Inx On",
    "60 ALL Prx Off",
    "60 ALL Prx On",
    "61 LI Prx Off",
    "61 LI Prx On",
    "61 LI Inx Off",
    "61 LI Inx On",
    "61 LLS Prx Off",
    "61 LLS Prx On",
    "61 LLS Inx Off",
    "61 LLS Inx On",
    "61 ALL Prx Off",
    "61 ALL Prx On",
    "61 ALL Inx Off",
    "61 ALL Inx On",
    "83 ALL Prx Off",
    "83 ALL Prx On",
    "83 ALL Inx Off",
    "83 ALL Inx On",
    "84 LI Prx Off",
    "96 LI Prx Off",
    "96 LI Prx On",
    "96 LI Inx Off",
    "96 LI Inx On",
    "96 LLS Prx Off",
    "96 LLS Prx On",
    "96 LLS Inx Off",
    "96 LLS Inx On",
    "96 ALL Prx Off",
    "96 ALL Prx On",
    "96 ALL Inx Off",
    "96 ALL Inx On",
    "96 MCM Prx Off",
    "127 ALL Prx Off",
    "127 ALL Prx On",
    "127 ALL Inx Off",
    "127 ALL Inx On",
    "1004 ALL Prx Off",
    "1004 ALL Inx Off",
    "1008 ALL Prx Off",
    "1008 ALL Prx On",
    "1008 ALL Inx Off",
    "1008 ALL Inx On",
    "1011 ALL Prx Off",
    "1011 ALL Prx On",
    "1011 ALL Inx Off",
    "1011 ALL Inx On",
    "1013 ALL Prx Off",
    "1013 ALL Prx On",
    "1013 ALL Inx Off",
    "1013 ALL Inx On",
    "1015 ALL Prx Off",
    "1015 ALL Inx Off",
    "1015 ALL Inx On",
    "1017 LLS Prx Off",
    "1017 LLS Inx Off",
    "1017 ALL Prx Off",
    "1017 ALL Inx Off",
    "1017 MCM Prx Off",
    "1017 MCM Inx Off",
    "1023 ALL Prx Off",
    "1023 ALL Inx Off",
    "1025 ALL Prx Off",
    "1034 ALL Prx Off",
    "1034 ALL Prx On",
    "1034 ALL Inx Off",
    "1034 ALL Inx On",
    "1035 ALL Prx Off",
    "1035 ALL Inx Off",
    "1036 ALL Prx Off",
    "1036 ALL Inx Off",
    "1038 ALL Prx Off",
    "1038 ALL Inx Off",
    "1039 ALL Prx Off",
    "1039 ALL Inx Off",
];

/// The corpus sources, by seed.
fn corpus() -> impl Iterator<Item = (u64, String)> {
    let deep = GenConfig {
        max_depth: 3,
        max_stmts: 12,
        ..GenConfig::default()
    };
    (0..150u64)
        .map(|s| (s, random_program(s, &GenConfig::default())))
        .chain((1000..1040u64).map(move |s| (s, random_program(s, &deep))))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: minutes in a debug build")]
fn corpus_rejects_exactly_the_known_cells() {
    let mut rejected = Vec::new();
    for (seed, src) in corpus() {
        let naive = compile(&src).expect("generated programs compile");
        for scheme in Scheme::EACH.into_iter().chain([Scheme::Mcm]) {
            for kind in [CheckKind::Prx, CheckKind::Inx] {
                for discharge in [Discharge::Off, Discharge::On] {
                    let opts = OptimizeOptions::scheme(scheme)
                        .with_kind(kind)
                        .with_discharge(discharge);
                    let mut opt = naive.clone();
                    let (_, logs) = optimize_program_logged(&mut opt, &opts);
                    if !certify_program(&naive, &opt, &logs, &opts).ok() {
                        rejected.push(format!("{seed} {} {kind:?} {discharge:?}", scheme.name()));
                    }
                }
            }
        }
    }
    let new: Vec<_> = rejected
        .iter()
        .filter(|c| !KNOWN_REJECTED.contains(&c.as_str()))
        .collect();
    let certified: Vec<_> = KNOWN_REJECTED
        .iter()
        .filter(|c| !rejected.iter().any(|r| r == *c))
        .collect();
    assert!(
        new.is_empty() && certified.is_empty(),
        "newly rejected: {new:?}; listed but certified (delete them from \
         the list): {certified:?}"
    );
}

/// The value-range analysis of every function of `p`, as compiled and
/// after the INX rewrite, converges without the iteration cap, and the
/// checker accepts the result.
fn assert_converges_and_checks(name: &str, p: &Program) {
    for inx in [false, true] {
        for f in &p.functions {
            let mut f = f.clone();
            if inx {
                inx::rewrite_checks(&mut f);
            }
            let forest = PassContext::new().loop_forest(&f);
            let vra = analyze_with_forest(&f, &forest);
            assert!(!vra.capped, "{name} `{}` (INX {inx}): capped", f.name);
            if let Err(d) = invariant::check(&f, &vra, &trip_facts(&forest)) {
                panic!("{name} `{}` (INX {inx}): invariant rejected: {d}", f.name);
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: minutes in a debug build")]
fn corpus_and_curve_analyses_converge_and_check() {
    for (seed, src) in corpus() {
        assert_converges_and_checks(&format!("seed {seed}"), &compile(&src).unwrap());
    }
    for k in (4..=128).step_by(4) {
        assert_converges_and_checks(&format!("k={k}"), &compile(&scaling_program(k)).unwrap());
    }
    for n in [28, 29, 32, 64, 128, 256] {
        let p = compile(&loops_then_overrun(n)).unwrap();
        assert_converges_and_checks(&format!("{n} loops"), &p);
    }
}

/// The scaling programs access only in bounds, and the reference's value
/// ranges prove all `2k² + 2` of their checks (the `k` stores' two checks
/// in each of `k` loops, and the final `print a(1)`), at every size of
/// the curve.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: minutes in a debug build")]
fn scaling_certificates_prove_every_check() {
    for k in [32, 64, 96, 128] {
        let naive = compile(&scaling_program(k)).unwrap();
        for scheme in [Scheme::Ni, Scheme::Lls] {
            let opts = OptimizeOptions::scheme(scheme).with_kind(CheckKind::Inx);
            let mut opt = naive.clone();
            let (_, logs) = optimize_program_logged(&mut opt, &opts);
            let cert = certify_program(&naive, &opt, &logs, &opts);
            assert!(cert.ok(), "k={k} {}: {cert}", scheme.name());
            assert_eq!(
                cert.vra_discharged,
                2 * k * k + 2,
                "k={k} {}",
                scheme.name()
            );
        }
    }
}
