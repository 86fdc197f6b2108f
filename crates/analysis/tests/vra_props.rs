//! Property-based soundness tests for the value-range interval domain:
//! every `assume_*`/`step`/`join` operation must keep concretely-true
//! valuations inside the abstract state, `verdict` must agree with
//! concrete arithmetic, and nothing may panic near the `i64` extremes.

use std::collections::HashMap;

use nascent_analysis::vra::{eval_form, Env, Interval};
use nascent_ir::{BinOp, CheckExpr, Expr, LinForm, Stmt, UnOp, VarId};
use proptest::prelude::*;

/// Number of scalar variables in the synthetic universe.
const NVARS: usize = 4;

fn var(i: usize) -> VarId {
    VarId(i as u32)
}

/// A well-formed interval: closed, half-open, or top.
fn interval() -> impl Strategy<Value = Interval> {
    (0u8..4, -50i64..50, -50i64..50).prop_map(|(shape, a, b)| {
        let (lo, hi) = (a.min(b), a.max(b));
        match shape {
            0 => Interval::top(),
            1 => Interval {
                lo: Some(lo),
                hi: None,
            },
            2 => Interval {
                lo: None,
                hi: Some(hi),
            },
            _ => Interval {
                lo: Some(lo),
                hi: Some(hi),
            },
        }
    })
}

/// One interval per variable plus a concrete valuation clamped into each
/// interval — so the resulting `Env` models the valuation by
/// construction.
fn env_and_vals() -> impl Strategy<Value = (Vec<Interval>, Vec<i64>)> {
    (
        prop::collection::vec(interval(), NVARS),
        prop::collection::vec(-60i64..=60, NVARS),
    )
        .prop_map(|(ivs, raw)| {
            let vals = ivs
                .iter()
                .zip(&raw)
                .map(|(iv, &x)| {
                    let x = iv.hi.map_or(x, |h| x.min(h));
                    iv.lo.map_or(x, |l| x.max(l))
                })
                .collect();
            (ivs, vals)
        })
}

fn build(ivs: &[Interval], vals: &[i64]) -> (Env, HashMap<VarId, i64>) {
    let mut env = Env::top();
    for (i, iv) in ivs.iter().enumerate() {
        env.assume_interval(var(i), *iv);
    }
    let map = vals.iter().enumerate().map(|(i, &x)| (var(i), x)).collect();
    (env, map)
}

/// `c0 + Σ coeffs[i] * v_i`, as an expression tree.
fn linear_expr(coeffs: &[i64], c0: i64) -> Expr {
    let mut e = Expr::int(c0);
    for (i, &c) in coeffs.iter().enumerate() {
        e = Expr::add(e, Expr::bin(BinOp::Mul, Expr::int(c), Expr::var(var(i))));
    }
    e
}

fn coeffs() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-4i64..=4, NVARS)
}

/// Evaluates a comparison of two linear expressions; `None` on overflow.
fn eval_cmp(e: &Expr, map: &HashMap<VarId, i64>) -> Option<bool> {
    let Expr::Binary(op, l, r) = e else {
        return None;
    };
    let d = eval_form(&LinForm::from_expr(l), map)?
        .checked_sub(eval_form(&LinForm::from_expr(r), map)?)?;
    Some(match op {
        BinOp::Lt => d < 0,
        BinOp::Le => d <= 0,
        BinOp::Gt => d > 0,
        BinOp::Ge => d >= 0,
        BinOp::Eq => d == 0,
        BinOp::Ne => d != 0,
        _ => return None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The interval join is an upper bound: it contains any point drawn
    /// from either operand.
    #[test]
    fn interval_join_contains_both_operands(
        left in env_and_vals(),
        right in env_and_vals(),
    ) {
        let (a_ivs, a_vals) = left;
        let (b_ivs, b_vals) = right;
        for i in 0..NVARS {
            let j = a_ivs[i].join(b_ivs[i]);
            prop_assert!(j.contains(a_vals[i]), "join lost {} from left", a_vals[i]);
            prop_assert!(j.contains(b_vals[i]), "join lost {} from right", b_vals[i]);
        }
    }

    /// The environment join is a sound upper bound: it still models every
    /// valuation either input modeled.
    #[test]
    fn env_join_models_both_inputs(
        left in env_and_vals(),
        right in env_and_vals(),
    ) {
        let (a_ivs, a_vals) = left;
        let (b_ivs, b_vals) = right;
        let (a, a_map) = build(&a_ivs, &a_vals);
        let (b, b_map) = build(&b_ivs, &b_vals);
        let j = a.join(&b);
        prop_assert!(j.models(&a_map), "join dropped a left valuation");
        prop_assert!(j.models(&b_map), "join dropped a right valuation");
    }

    /// The lattice order is sound: when one state entails another, the
    /// other still models every valuation the first does. It is reflexive,
    /// and a state entails its join with any other.
    #[test]
    fn entails_keeps_modeled_valuations(
        left in env_and_vals(),
        right in env_and_vals(),
        cs in coeffs(),
        c0 in -20i64..20,
        slack in 0i64..10,
        joined in 0u8..2,
    ) {
        let (a_ivs, a_vals) = left;
        let (b_ivs, b_vals) = right;
        let (mut a, map) = build(&a_ivs, &a_vals);
        let (mut b, _) = build(&b_ivs, &b_vals);
        // the same fact, true for `map`, on both sides: symbolic bounds
        let form = LinForm::from_expr(&linear_expr(&cs, c0));
        if let Some(bound) = eval_form(&form, &map).and_then(|v| v.checked_add(slack)) {
            a.assume_le(&form, bound);
            b.assume_le(&form, bound);
        }
        if joined == 1 {
            b = a.join(&b);
            prop_assert!(a.entails(&b), "a state does not entail its join");
        }
        prop_assert!(a.entails(&a), "entails is not reflexive");
        if a.entails(&b) {
            prop_assert!(b.models(&map), "an entailed state dropped a valuation");
        }
    }

    /// Assuming a fact that is concretely true for the valuation must not
    /// exclude the valuation.
    #[test]
    fn assume_le_keeps_true_valuations(
        state in env_and_vals(),
        cs in coeffs(),
        c0 in -20i64..20,
        slack in 0i64..10,
    ) {
        let (ivs, vals) = state;
        let (mut env, map) = build(&ivs, &vals);
        let form = LinForm::from_expr(&linear_expr(&cs, c0));
        let Some(value) = eval_form(&form, &map) else { return Ok(()) };
        let Some(bound) = value.checked_add(slack) else { return Ok(()) };
        env.assume_le(&form, bound);
        prop_assert!(env.models(&map), "true `form <= {bound}` excluded the valuation");
    }

    /// Same soundness contract for full branch conditions, including
    /// compound `and`/`or`/`not` shapes with their conservative negation.
    #[test]
    fn assume_cond_keeps_true_valuations(
        state in env_and_vals(),
        cs_l in coeffs(),
        cs_r in coeffs(),
        consts in (-20i64..20, -20i64..20),
        op_i in 0usize..6,
        shape in 0usize..8,
    ) {
        let (ivs, vals) = state;
        let (mut env, map) = build(&ivs, &vals);
        let ops = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne];
        let lhs = linear_expr(&cs_l, consts.0);
        let rhs = linear_expr(&cs_r, consts.1);
        let cmp_a = Expr::bin(ops[op_i], lhs.clone(), rhs.clone());
        let cmp_b = Expr::bin(ops[(op_i + 1) % 6], rhs, lhs);
        let (Some(ta), Some(tb)) = (eval_cmp(&cmp_a, &map), eval_cmp(&cmp_b, &map)) else {
            return Ok(());
        };
        let (cond, truth) = match shape % 4 {
            0 => (cmp_a, ta),
            1 => (Expr::bin(BinOp::And, cmp_a, cmp_b), ta && tb),
            2 => (Expr::bin(BinOp::Or, cmp_a, cmp_b), ta || tb),
            _ => (Expr::Unary(UnOp::Not, Box::new(cmp_a)), !ta),
        };
        // exercise both polarities: assume the real truth value, or flip
        // the condition with `not` so the flipped truth is still real
        let (cond, truth) = if shape < 4 {
            (cond, truth)
        } else {
            (Expr::Unary(UnOp::Not, Box::new(cond)), !truth)
        };
        env.assume_cond(&cond, truth);
        prop_assert!(env.models(&map), "true branch fact excluded the valuation");
    }

    /// The assignment transfer function tracks concrete execution: after
    /// `step`, the updated valuation is still modeled.
    #[test]
    fn step_assign_tracks_concrete_execution(
        state in env_and_vals(),
        cs in coeffs(),
        c0 in -20i64..20,
        target in 0usize..NVARS,
        quadratic in 0u8..2,
    ) {
        let (ivs, vals) = state;
        let (mut env, mut map) = build(&ivs, &vals);
        let mut value = linear_expr(&cs, c0);
        if quadratic == 1 {
            // exercise the degree-2 product path too
            value = Expr::add(
                value,
                Expr::bin(BinOp::Mul, Expr::var(var(0)), Expr::var(var(1))),
            );
        }
        let Some(concrete) = eval_form(&LinForm::from_expr(&value), &map) else {
            return Ok(());
        };
        env.step(&Stmt::Assign { var: var(target), value });
        map.insert(var(target), concrete);
        prop_assert!(env.models(&map), "assignment transfer excluded the concrete result");
    }

    /// A definite verdict must agree with concrete arithmetic on any
    /// modeled valuation.
    #[test]
    fn verdict_agrees_with_concrete_arithmetic(
        state in env_and_vals(),
        cs in coeffs(),
        c0 in -20i64..20,
        bound in -100i64..100,
    ) {
        let (ivs, vals) = state;
        let (env, map) = build(&ivs, &vals);
        let form = LinForm::from_expr(&linear_expr(&cs, c0));
        let check = CheckExpr::new(form, bound);
        let Some(value) = eval_form(check.form(), &map) else { return Ok(()) };
        match env.verdict(&check) {
            Some(true) => prop_assert!(
                value <= check.bound(),
                "verdict true but {value} > {}", check.bound()
            ),
            Some(false) => prop_assert!(
                value > check.bound(),
                "verdict false but {value} <= {}", check.bound()
            ),
            None => {}
        }
    }

    /// No panic (overflow, wrap) anywhere near the `i64` extremes; when
    /// the extreme fact happens to be concretely true, it must also stay
    /// sound.
    #[test]
    fn extreme_magnitudes_do_not_wrap(
        state in env_and_vals(),
        coeff_i in 0usize..6,
        bound_i in 0usize..5,
        target in 0usize..NVARS,
    ) {
        let (ivs, vals) = state;
        let coeff = [i64::MIN, i64::MIN + 1, -1, 1, i64::MAX - 1, i64::MAX][coeff_i];
        let bound = [i64::MIN, i64::MIN + 1, 0, i64::MAX - 1, i64::MAX][bound_i];
        let (mut env, map) = build(&ivs, &vals);
        let e = Expr::bin(BinOp::Mul, Expr::int(coeff), Expr::var(var(target)));
        let form = LinForm::from_expr(&e);
        env.assume_le(&form, bound);
        if let Some(value) = eval_form(&form, &map) {
            if value <= bound {
                prop_assert!(env.models(&map), "true extreme fact excluded the valuation");
            }
        }
    }
}
