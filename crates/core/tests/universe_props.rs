//! Property tests for the check universe and implication machinery: the
//! implication relation must agree with arithmetic truth, be transitive
//! under the `All` mode, and the elimination pass must be a
//! dynamic-check-monotone, behavior-preserving transformation.

use nascent_frontend::compile;
use nascent_rangecheck::{universe::Universe, ImplicationMode};
use nascent_suite::{random_program, GenConfig};
use proptest::prelude::*;

/// Evaluate a canonical check under an integer environment.
fn eval_check(c: &nascent_ir::CheckExpr, env: &[i64]) -> bool {
    let mut acc = 0i64;
    for (t, coeff) in c.form().terms() {
        let mut prod = 1i64;
        for a in t.atoms() {
            match a {
                nascent_ir::Atom::Var(v) => prod = prod.wrapping_mul(env[v.index()]),
                nascent_ir::Atom::Opaque(_) => return true, // skip opaque cases
            }
        }
        acc = acc.wrapping_add(coeff.wrapping_mul(prod));
    }
    acc <= c.bound()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Whenever the universe says check c implies check d, arithmetic
    /// agrees: every environment satisfying c satisfies d.
    #[test]
    fn implication_masks_agree_with_arithmetic(
        seed in 0u64..3000,
        env in prop::collection::vec(-30i64..30, 12),
    ) {
        let src = random_program(seed, &GenConfig::default());
        let prog = compile(&src).unwrap();
        for f in &prog.functions {
            let u = Universe::build(f, ImplicationMode::All);
            if env.len() < f.vars.len() {
                continue;
            }
            for c in 0..u.len() {
                for d in u.gen_avail[c].iter() {
                    if eval_check(&u.checks[c], &env) {
                        prop_assert!(
                            eval_check(&u.checks[d], &env),
                            "{} does not imply {} at {env:?}\n{src}",
                            u.checks[c],
                            u.checks[d]
                        );
                    }
                }
            }
        }
    }

    /// The implication relation is transitive under `All`.
    #[test]
    fn implication_is_transitive(seed in 0u64..1500) {
        let src = random_program(seed, &GenConfig::default());
        let prog = compile(&src).unwrap();
        for f in &prog.functions {
            let u = Universe::build(f, ImplicationMode::All);
            for a in 0..u.len() {
                for b in u.gen_avail[a].iter() {
                    for c in u.gen_avail[b].iter() {
                        prop_assert!(
                            u.gen_avail[a].contains(c),
                            "{} => {} => {} but not transitively",
                            u.checks[a],
                            u.checks[b],
                            u.checks[c]
                        );
                    }
                }
            }
        }
    }

    /// `implied_by` is the exact transpose of `gen_avail`.
    #[test]
    fn implied_by_is_the_transpose(seed in 0u64..1500) {
        let src = random_program(seed, &GenConfig::default());
        let prog = compile(&src).unwrap();
        for f in &prog.functions {
            for mode in [
                ImplicationMode::All,
                ImplicationMode::CrossFamilyOnly,
                ImplicationMode::None,
            ] {
                let u = Universe::build(f, mode);
                for c in 0..u.len() {
                    for d in u.gen_avail[c].iter() {
                        prop_assert!(u.implied_by[d].contains(c));
                    }
                    for d in u.implied_by[c].iter() {
                        prop_assert!(u.gen_avail[d].contains(c));
                    }
                }
            }
        }
    }

    /// The antic gen set never leaves the family and never strengthens.
    #[test]
    fn antic_gen_stays_in_family_and_weakens(seed in 0u64..1500) {
        let src = random_program(seed, &GenConfig::default());
        let prog = compile(&src).unwrap();
        for f in &prog.functions {
            let u = Universe::build(f, ImplicationMode::All);
            for c in 0..u.len() {
                for d in u.gen_antic[c].iter() {
                    prop_assert_eq!(u.family_of[c], u.family_of[d]);
                    prop_assert!(u.checks[c].bound() <= u.checks[d].bound());
                }
            }
        }
    }

    /// Kill masks cover exactly the checks whose forms mention the var.
    #[test]
    fn kill_masks_are_exact(seed in 0u64..1500) {
        let src = random_program(seed, &GenConfig::default());
        let prog = compile(&src).unwrap();
        for f in &prog.functions {
            let u = Universe::build(f, ImplicationMode::All);
            for (i, c) in u.checks.iter().enumerate() {
                for v in c.vars() {
                    prop_assert!(u.kill_of[&v].contains(i));
                }
            }
            for (v, mask) in &u.kill_of {
                for i in mask.iter() {
                    prop_assert!(u.checks[i].vars().contains(v));
                }
            }
        }
    }
}
