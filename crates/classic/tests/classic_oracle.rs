//! Safety oracle for the classical pass pipeline: on random programs,
//! `optimize_classic` (alone and composed with the range-check
//! optimizer) preserves output, trap verdict, and trap progress point.

use nascent_classic::optimize_classic;
use nascent_frontend::compile;
use nascent_interp::{run, Limits, RunError};
use nascent_rangecheck::{optimize_program, OptimizeOptions, Scheme};
use nascent_suite::{random_program, GenConfig};
use proptest::prelude::*;

fn limits() -> Limits {
    Limits {
        max_steps: 200_000,
        max_call_depth: 16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn classic_preserves_behavior(seed in 0u64..4000) {
        let src = random_program(seed, &GenConfig::default());
        let naive_prog = compile(&src).unwrap();
        let naive = match run(&naive_prog, &limits()) {
            Ok(r) => r,
            Err(RunError::StepLimit | RunError::DivisionByZero { .. }) => return Ok(()),
            Err(e) => panic!("{e}"),
        };
        let mut p = compile(&src).unwrap();
        for f in &mut p.functions {
            optimize_classic(f);
        }
        nascent_ir::validate::assert_valid(&p);
        let opt = match run(&p, &limits()) {
            Ok(r) => r,
            // constant folding can evaluate a division the original
            // program also performed; a genuinely new failure would show
            // as a mismatch below on other seeds
            Err(RunError::StepLimit | RunError::DivisionByZero { .. }) => return Ok(()),
            Err(e) => panic!("classic broke the program: {e}\n{src}"),
        };
        match (&naive.trap, &opt.trap) {
            (Some(nt), Some(ot)) => prop_assert!(ot.at_progress <= nt.at_progress, "{src}"),
            (Some(_), None) => panic!("classic lost a trap\n{src}"),
            (None, Some(_)) => panic!("classic introduced a trap\n{src}"),
            (None, None) => {
                prop_assert_eq!(&opt.output, &naive.output, "{}", src);
                // DCE and folding may only shrink the work
                prop_assert!(opt.dynamic_progress <= naive.dynamic_progress, "{src}");
            }
        }
    }

    #[test]
    fn classic_composes_with_rangecheck(seed in 4000u64..6000) {
        let src = random_program(seed, &GenConfig::default());
        let naive_prog = compile(&src).unwrap();
        let naive = match run(&naive_prog, &limits()) {
            Ok(r) => r,
            Err(RunError::StepLimit | RunError::DivisionByZero { .. }) => return Ok(()),
            Err(e) => panic!("{e}"),
        };
        for scheme in [Scheme::Ni, Scheme::Lls, Scheme::All] {
            let mut p = compile(&src).unwrap();
            for f in &mut p.functions {
                optimize_classic(f);
            }
            optimize_program(&mut p, &OptimizeOptions::scheme(scheme));
            nascent_ir::validate::assert_valid(&p);
            let opt = match run(&p, &limits()) {
                Ok(r) => r,
                Err(RunError::StepLimit | RunError::DivisionByZero { .. }) => continue,
                Err(e) => panic!("{scheme:?}: {e}\n{src}"),
            };
            match (&naive.trap, &opt.trap) {
                (Some(nt), Some(ot)) => {
                    prop_assert!(ot.at_progress <= nt.at_progress, "{scheme:?}\n{src}")
                }
                (Some(_), None) => panic!("{scheme:?}: trap lost\n{src}"),
                (None, Some(_)) => panic!("{scheme:?}: trap introduced\n{src}"),
                (None, None) => prop_assert_eq!(&opt.output, &naive.output, "{:?}", scheme),
            }
        }
    }
}
