//! Property-based tests for the canonical multilinear forms: [`LinForm`]
//! arithmetic must be a homomorphic image of expression evaluation, and
//! canonicalization must be stable.

use std::collections::HashMap;

use nascent_ir::{Atom, BinOp, Expr, LinForm, Term, UnOp, VarId};
use proptest::prelude::*;

const NVARS: u32 = 4;

/// Random integer expression over Add/Sub/Mul/Neg (the operators LinForm
/// distributes over) plus an occasional opaque Div.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::int),
        (0u32..NVARS).prop_map(|v| Expr::var(VarId(v))),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::sub(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::mul(a, b)),
            inner.clone().prop_map(Expr::neg),
            (inner.clone(), 1i64..5).prop_map(|(a, k)| Expr::bin(BinOp::Div, a, Expr::int(k))),
        ]
    })
}

fn eval_expr(e: &Expr, env: &[i64]) -> i64 {
    match e {
        Expr::IntConst(v) => *v,
        Expr::RealConst(_) => 0,
        Expr::Var(v) => env[v.index()],
        Expr::Unary(UnOp::Neg, inner) => eval_expr(inner, env).wrapping_neg(),
        Expr::Unary(UnOp::Not, inner) => i64::from(eval_expr(inner, env) == 0),
        Expr::Binary(op, l, r) => {
            nascent_ir::expr::eval_int_binop(*op, eval_expr(l, env), eval_expr(r, env)).unwrap_or(0)
        }
    }
}

fn eval_form(f: &LinForm, env: &[i64]) -> i64 {
    let mut acc = f.constant_part();
    for (t, c) in f.terms() {
        let mut prod = 1i64;
        for a in t.atoms() {
            let v = match a {
                Atom::Var(v) => env[v.index()],
                Atom::Opaque(e) => eval_expr(e, env),
            };
            prod = prod.wrapping_mul(v);
        }
        acc = acc.wrapping_add(c.wrapping_mul(prod));
    }
    acc
}

proptest! {
    /// from_expr preserves value at every environment.
    #[test]
    fn from_expr_preserves_value(e in arb_expr(), env in prop::collection::vec(-9i64..9, NVARS as usize)) {
        // skip division-by-zero-contaminated cases: eval_expr treats them
        // as 0, LinForm keeps the opaque tree; both use the same eval here
        let f = LinForm::from_expr(&e);
        prop_assert_eq!(eval_form(&f, &env), eval_expr(&e, &env));
    }

    /// to_expr round-trips through from_expr exactly.
    #[test]
    fn to_expr_round_trips(e in arb_expr()) {
        let f = LinForm::from_expr(&e);
        let back = LinForm::from_expr(&f.to_expr());
        prop_assert_eq!(f, back);
    }

    /// add/sub/scale/mul agree with pointwise evaluation.
    #[test]
    fn ring_operations_are_pointwise(
        a in arb_expr(),
        b in arb_expr(),
        k in -5i64..5,
        env in prop::collection::vec(-7i64..7, NVARS as usize),
    ) {
        let fa = LinForm::from_expr(&a);
        let fb = LinForm::from_expr(&b);
        let (va, vb) = (eval_form(&fa, &env), eval_form(&fb, &env));
        prop_assert_eq!(eval_form(&fa.add(&fb), &env), va.wrapping_add(vb));
        prop_assert_eq!(eval_form(&fa.sub(&fb), &env), va.wrapping_sub(vb));
        prop_assert_eq!(eval_form(&fa.scale(k), &env), va.wrapping_mul(k));
        prop_assert_eq!(eval_form(&fa.mul(&fb), &env), va.wrapping_mul(vb));
        prop_assert_eq!(eval_form(&fa.neg(), &env), va.wrapping_neg());
    }

    /// Addition is commutative and associative on canonical forms
    /// (structurally, not just semantically).
    #[test]
    fn addition_is_commutative_and_associative(a in arb_expr(), b in arb_expr(), c in arb_expr()) {
        let (fa, fb, fc) = (
            LinForm::from_expr(&a),
            LinForm::from_expr(&b),
            LinForm::from_expr(&c),
        );
        prop_assert_eq!(fa.add(&fb), fb.add(&fa));
        prop_assert_eq!(fa.add(&fb).add(&fc), fa.add(&fb.add(&fc)));
    }

    /// Multiplication is commutative on canonical forms.
    #[test]
    fn multiplication_is_commutative(a in arb_expr(), b in arb_expr()) {
        let fa = LinForm::from_expr(&a);
        let fb = LinForm::from_expr(&b);
        prop_assert_eq!(fa.mul(&fb), fb.mul(&fa));
    }

    /// x - x is the zero form; x + 0 is x.
    #[test]
    fn additive_identities(a in arb_expr()) {
        let fa = LinForm::from_expr(&a);
        prop_assert_eq!(fa.sub(&fa), LinForm::zero());
        prop_assert_eq!(fa.add(&LinForm::zero()), fa.clone());
        prop_assert_eq!(fa.scale(0), LinForm::zero());
        prop_assert_eq!(fa.scale(1), fa);
    }

    /// Substituting a variable agrees with evaluating under a modified
    /// environment (when substitution succeeds).
    #[test]
    fn substitution_agrees_with_environment(
        a in arb_expr(),
        r in arb_expr(),
        v in 0u32..NVARS,
        env in prop::collection::vec(-6i64..6, NVARS as usize),
    ) {
        let fa = LinForm::from_expr(&a);
        let fr = LinForm::from_expr(&r);
        if let Some(subst) = fa.substitute_var(VarId(v), &fr) {
            let mut env2 = env.clone();
            env2[v as usize] = eval_form(&fr, &env);
            // substitution is only exact when v does not occur in fr's
            // own environment dependence at position v, i.e. fr must be
            // evaluated in the ORIGINAL env (which it is here)
            prop_assert_eq!(eval_form(&subst, &env), eval_form(&fa, &env2));
        }
    }

    /// Family keys are insensitive to added constants.
    #[test]
    fn family_key_mod_constants(a in arb_expr(), k in -50i64..50) {
        let fa = LinForm::from_expr(&a);
        let shifted = LinForm::from_expr(&Expr::add(a, Expr::int(k)));
        prop_assert_eq!(fa.symbolic_part(), shifted.symbolic_part());
    }

    /// Term products merge atom multisets and stay sorted.
    #[test]
    fn term_product_is_commutative(x in 0u32..NVARS, y in 0u32..NVARS) {
        let tx = Term::var(VarId(x));
        let ty = Term::var(VarId(y));
        prop_assert_eq!(tx.product(&ty), ty.product(&tx));
        prop_assert_eq!(tx.product(&ty).degree(), 2);
    }
}

/// Substitution failure cases must be exactly "v occurs non-linearly".
#[test]
fn substitute_fails_only_on_nonlinear_occurrence() {
    let v = VarId(0);
    let w = VarId(1);
    let linear = LinForm::var(v).scale(3).add(&LinForm::var(w));
    assert!(linear.substitute_var(v, &LinForm::constant(2)).is_some());
    let product = LinForm::from_expr(&Expr::mul(Expr::var(v), Expr::var(w)));
    assert!(product.substitute_var(v, &LinForm::constant(2)).is_none());
    let mut env_check = HashMap::new();
    env_check.insert(v, 1);
    // opaque occurrence also fails
    let opaque = LinForm::from_expr(&Expr::bin(BinOp::Div, Expr::var(v), Expr::int(2)));
    assert!(opaque.substitute_var(v, &LinForm::constant(4)).is_none());
}
