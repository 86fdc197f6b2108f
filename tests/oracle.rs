//! Property-based safety oracle: on randomly generated structured
//! programs, every optimizer configuration preserves the paper's §3
//! criterion —
//!
//! 1. a range violation is detected in the optimized program if and only
//!    if it is detected in the unoptimized program, and
//! 2. the optimized program detects it **no later** (measured in dynamic
//!    non-check instructions);
//!
//! and on trap-free runs the observable output is identical and the
//! dynamic check count never increases for the loop-based schemes.

use nascent::frontend::compile;
use nascent::interp::{run, Limits, RunError, RunResult};
use nascent::rangecheck::{optimize_program, CheckKind, ImplicationMode, OptimizeOptions, Scheme};
use nascent::suite::{random_program, GenConfig};
use proptest::prelude::*;

fn limits() -> Limits {
    Limits {
        max_steps: 200_000,
        max_call_depth: 16,
    }
}

fn naive_result(src: &str) -> Option<RunResult> {
    let prog = compile(src).expect("generated programs compile");
    match run(&prog, &limits()) {
        Ok(r) => Some(r),
        Err(RunError::StepLimit | RunError::DivisionByZero { .. }) => None,
        Err(e) => panic!("naive run failed: {e}"),
    }
}

fn check_config(src: &str, naive: &RunResult, opts: &OptimizeOptions) {
    let mut prog = compile(src).expect("compiles");
    optimize_program(&mut prog, opts);
    nascent::ir::validate::assert_valid(&prog);
    let opt = match run(&prog, &limits()) {
        Ok(r) => r,
        // the optimizer never adds arithmetic, so these cannot appear
        // unless the naive run had them
        Err(e) => panic!("{opts:?}: optimized run failed: {e}\n{src}"),
    };
    match (&naive.trap, &opt.trap) {
        (Some(nt), Some(ot)) => {
            assert!(
                ot.at_progress <= nt.at_progress,
                "{opts:?}: trap delayed ({} > {})\n{src}",
                ot.at_progress,
                nt.at_progress
            );
        }
        (Some(nt), None) => panic!("{opts:?}: trap lost ({nt:?})\n{src}"),
        (None, Some(ot)) => panic!("{opts:?}: trap introduced ({ot:?})\n{src}"),
        (None, None) => {
            assert_eq!(opt.output, naive.output, "{opts:?}: output changed\n{src}");
            assert_eq!(
                opt.dynamic_progress, naive.dynamic_progress,
                "{opts:?}: non-check work changed\n{src}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn all_schemes_safe_on_random_programs(seed in 0u64..5000) {
        let cfg = GenConfig::default();
        let src = random_program(seed, &cfg);
        if let Some(naive) = naive_result(&src) {
            for scheme in Scheme::EACH {
                for kind in [CheckKind::Prx, CheckKind::Inx] {
                    check_config(
                        &src,
                        &naive,
                        &OptimizeOptions::scheme(scheme).with_kind(kind),
                    );
                }
            }
        }
    }

    #[test]
    fn implication_modes_safe_on_random_programs(seed in 5000u64..8000) {
        let cfg = GenConfig {
            wild_percent: 40,
            ..GenConfig::default()
        };
        let src = random_program(seed, &cfg);
        if let Some(naive) = naive_result(&src) {
            for mode in [
                ImplicationMode::All,
                ImplicationMode::CrossFamilyOnly,
                ImplicationMode::None,
            ] {
                for scheme in [Scheme::Ni, Scheme::Se, Scheme::Lls] {
                    check_config(
                        &src,
                        &naive,
                        &OptimizeOptions::scheme(scheme).with_implications(mode),
                    );
                }
            }
        }
    }

    #[test]
    fn loop_schemes_never_increase_checks_on_trap_free_runs(seed in 8000u64..10000) {
        let cfg = GenConfig { wild_percent: 0, ..GenConfig::default() };
        let src = random_program(seed, &cfg);
        if let Some(naive) = naive_result(&src) {
            if naive.trap.is_none() {
                for scheme in [Scheme::Ni, Scheme::Cs, Scheme::Li, Scheme::Lls] {
                    let mut prog = compile(&src).unwrap();
                    optimize_program(&mut prog, &OptimizeOptions::scheme(scheme));
                    let opt = run(&prog, &limits()).unwrap();
                    prop_assert!(
                        opt.dynamic_checks <= naive.dynamic_checks,
                        "{scheme:?}: {} -> {}\n{src}",
                        naive.dynamic_checks,
                        opt.dynamic_checks
                    );
                }
            }
        }
    }
}
