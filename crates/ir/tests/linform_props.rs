//! Property-based tests for the canonical multilinear forms: [`LinForm`]
//! arithmetic must be a homomorphic image of expression evaluation, and
//! canonicalization must be stable. Random sequences of operations are
//! also replayed on [`old::LinForm`], a map from term to coefficient,
//! and must agree with it in order, hash input and `{:?}` text.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

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

/// Forms as a map from term to coefficient, with the arithmetic spelled
/// out term by term: the reference the sorted-list layout must agree with.
mod old {
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;

    use nascent_ir::{Atom, VarId};

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Term(pub Vec<Atom>);

    impl Term {
        pub fn product(&self, other: &Term) -> Term {
            let mut atoms = self.0.clone();
            atoms.extend(other.0.iter().cloned());
            atoms.sort();
            Term(atoms)
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub struct LinForm {
        pub terms: BTreeMap<Term, i64>,
        pub constant: i64,
    }

    impl LinForm {
        pub fn from_terms(pairs: impl IntoIterator<Item = (Term, i64)>, constant: i64) -> LinForm {
            let mut f = LinForm {
                constant,
                ..LinForm::default()
            };
            for (t, c) in pairs {
                f.add_term(t, c);
            }
            f
        }

        pub fn add_term(&mut self, term: Term, coeff: i64) {
            if coeff == 0 {
                return;
            }
            match self.terms.entry(term) {
                Entry::Vacant(e) => {
                    e.insert(coeff);
                }
                Entry::Occupied(mut e) => {
                    let sum = e.get().wrapping_add(coeff);
                    if sum == 0 {
                        e.remove();
                    } else {
                        *e.get_mut() = sum;
                    }
                }
            }
        }

        pub fn add(&self, other: &LinForm) -> LinForm {
            let mut out = self.clone();
            out.constant = out.constant.wrapping_add(other.constant);
            for (t, c) in &other.terms {
                out.add_term(t.clone(), *c);
            }
            out
        }

        pub fn sub(&self, other: &LinForm) -> LinForm {
            self.add(&other.scale(-1))
        }

        pub fn scale(&self, k: i64) -> LinForm {
            if k == 0 {
                return LinForm::default();
            }
            LinForm {
                terms: self
                    .terms
                    .iter()
                    .map(|(t, c)| (t.clone(), c.wrapping_mul(k)))
                    .filter(|(_, c)| *c != 0)
                    .collect(),
                constant: self.constant.wrapping_mul(k),
            }
        }

        pub fn mul(&self, other: &LinForm) -> LinForm {
            let mut out = LinForm::from_terms([], self.constant.wrapping_mul(other.constant));
            for (t, c) in &self.terms {
                out.add_term(t.clone(), c.wrapping_mul(other.constant));
            }
            for (t, c) in &other.terms {
                out.add_term(t.clone(), c.wrapping_mul(self.constant));
            }
            for (t1, c1) in &self.terms {
                for (t2, c2) in &other.terms {
                    out.add_term(t1.product(t2), c1.wrapping_mul(*c2));
                }
            }
            out
        }

        pub fn substitute_var(&self, v: VarId, replacement: &LinForm) -> Option<LinForm> {
            let mut out = LinForm::from_terms([], self.constant);
            for (t, c) in &self.terms {
                if t.0 == [Atom::Var(v)] {
                    out = out.add(&replacement.scale(*c));
                } else if t.0.iter().any(|a| a.vars().contains(&v)) {
                    return None;
                } else {
                    out.add_term(t.clone(), *c);
                }
            }
            Some(out)
        }
    }
}

/// The atom lists that [`arb_step`] draws terms from: single variables,
/// products (a square among them) and opaque atoms.
fn term_atoms(i: usize) -> Vec<Atom> {
    let var = |v| Atom::Var(VarId(v));
    let half = |v| Atom::Opaque(Expr::bin(BinOp::Div, Expr::var(VarId(v)), Expr::int(2)));
    match i % 8 {
        0 => vec![var(0)],
        1 => vec![var(1)],
        2 => vec![var(2)],
        3 => vec![var(1), var(0)],
        4 => vec![var(1), var(1)],
        5 => vec![half(0)],
        6 => vec![var(2), half(1)],
        _ => vec![var(3)],
    }
}

fn new_term(atoms: &[Atom]) -> Term {
    let mut t = Term::atom(atoms[0].clone());
    for a in &atoms[1..] {
        t = t.product(&Term::atom(a.clone()));
    }
    t
}

fn old_term(atoms: &[Atom]) -> old::Term {
    let mut atoms = atoms.to_vec();
    atoms.sort();
    old::Term(atoms)
}

/// A form given as term indices and coefficients, duplicates and zeros
/// included, plus a constant.
type Pairs = (Vec<(usize, i64)>, i64);

fn both(pairs: &Pairs) -> (LinForm, old::LinForm) {
    let (terms, k) = pairs;
    let new = LinForm::from_terms(
        terms.iter().map(|&(i, c)| (new_term(&term_atoms(i)), c)),
        *k,
    );
    let old = old::LinForm::from_terms(
        terms.iter().map(|&(i, c)| (old_term(&term_atoms(i)), c)),
        *k,
    );
    (new, old)
}

#[derive(Debug, Clone)]
enum Step {
    AddTerm(usize, i64),
    Add(Pairs),
    Sub(Pairs),
    Scale(i64),
    Mul(Pairs),
    Substitute(u32, Pairs),
}

/// Coefficients that cancel often and wrap sometimes.
fn arb_coeff() -> impl Strategy<Value = i64> {
    prop_oneof![
        -3i64..=3,
        -3i64..=3,
        -3i64..=3,
        (0usize..4).prop_map(|i| [i64::MIN, i64::MAX, 1 << 62, -(1 << 62)][i]),
    ]
}

fn arb_pairs() -> impl Strategy<Value = Pairs> {
    (
        prop::collection::vec((0usize..8, arb_coeff()), 0..5),
        arb_coeff(),
    )
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..8, arb_coeff()).prop_map(|(i, c)| Step::AddTerm(i, c)),
        arb_pairs().prop_map(Step::Add),
        arb_pairs().prop_map(Step::Sub),
        prop_oneof![-3i64..=4, (0usize..2).prop_map(|i| [i64::MIN, 1 << 62][i])]
            .prop_map(Step::Scale),
        arb_pairs().prop_map(Step::Mul),
        (0u32..NVARS, arb_pairs()).prop_map(|(v, p)| Step::Substitute(v, p)),
    ]
}

fn fixed_hash(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Checks the layout's invariants on `new` and that it agrees with the
/// reference `old` in hash input and `{:?}` text.
fn assert_agrees(new: &LinForm, old: &old::LinForm) -> Result<(), TestCaseError> {
    let terms: Vec<(&Term, i64)> = new.terms().collect();
    prop_assert!(
        terms.windows(2).all(|w| w[0].0 < w[1].0),
        "terms not strictly sorted: {new:?}"
    );
    prop_assert!(
        terms.iter().all(|(_, c)| *c != 0),
        "zero coefficient: {new:?}"
    );
    for (t, _) in &terms {
        for v in 0..NVARS {
            prop_assert_eq!(t.is_var(VarId(v)), t.atoms() == [Atom::Var(VarId(v))]);
        }
    }
    let single = match old.terms.iter().collect::<Vec<_>>()[..] {
        [(old::Term(atoms), c)] => match atoms[..] {
            [Atom::Var(v)] => Some((v, *c, old.constant)),
            _ => None,
        },
        _ => None,
    };
    prop_assert_eq!(new.as_single_var(), single);
    prop_assert_eq!(format!("{new:?}"), format!("{old:?}"));
    prop_assert_eq!(format!("{new:#?}"), format!("{old:#?}"));
    prop_assert_eq!(fixed_hash(new), fixed_hash(old));
    Ok(())
}

proptest! {
    /// Every sequence of operations keeps the terms strictly sorted with
    /// no zero coefficient, and agrees with the map-based reference in
    /// order, hash input and `{:?}` text at every step.
    #[test]
    fn operation_sequences_agree_with_the_map_layout(
        start in arb_pairs(),
        steps in prop::collection::vec(arb_step(), 1..10),
    ) {
        let (mut new, mut old) = both(&start);
        assert_agrees(&new, &old)?;
        for step in steps {
            let (prev_new, prev_old) = (new.clone(), old.clone());
            let operand = match &step {
                Step::AddTerm(i, c) => {
                    new.add_term(new_term(&term_atoms(*i)), *c);
                    old.add_term(old_term(&term_atoms(*i)), *c);
                    None
                }
                Step::Add(p) => {
                    let (n, o) = both(p);
                    (new, old) = (new.add(&n), old.add(&o));
                    Some((n, o))
                }
                Step::Sub(p) => {
                    let (n, o) = both(p);
                    (new, old) = (new.sub(&n), old.sub(&o));
                    Some((n, o))
                }
                Step::Scale(k) => {
                    (new, old) = (new.scale(*k), old.scale(*k));
                    None
                }
                Step::Mul(p) => {
                    let (n, o) = both(p);
                    // keep products from growing without bound
                    if new.num_terms() <= 12 {
                        (new, old) = (new.mul(&n), old.mul(&o));
                    }
                    Some((n, o))
                }
                Step::Substitute(v, p) => {
                    let (n, o) = both(p);
                    let (sn, so) = (new.substitute_var(VarId(*v), &n), old.substitute_var(VarId(*v), &o));
                    prop_assert_eq!(sn.is_some(), so.is_some());
                    if let (Some(sn), Some(so)) = (sn, so) {
                        (new, old) = (sn, so);
                    }
                    Some((n, o))
                }
            };
            assert_agrees(&new, &old)?;
            prop_assert_eq!(new.cmp(&prev_new), old.cmp(&prev_old));
            if let Some((n, o)) = operand {
                assert_agrees(&n, &o)?;
                prop_assert_eq!(new.cmp(&n), old.cmp(&o));
                prop_assert_eq!(n.cmp(&prev_new), o.cmp(&prev_old));
            }
        }
    }
}

/// The `{:?}` text of a form and of a product term, as the map layout
/// printed them.
#[test]
fn debug_text_is_pinned() {
    let (v0, v1) = (VarId(0), VarId(1));
    let half = Atom::Opaque(Expr::bin(BinOp::Div, Expr::var(v1), Expr::int(2)));
    let product = Term::var(v0).product(&Term::var(v1));
    assert_eq!(
        format!("{product:?}"),
        "Term([Var(VarId(0)), Var(VarId(1))])"
    );
    let f = LinForm::from_terms(
        [(Term::atom(half), 1), (product, -3), (Term::var(v0), 2)],
        5,
    );
    assert_eq!(
        format!("{f:?}"),
        "LinForm { terms: {Term([Var(VarId(0))]): 2, Term([Var(VarId(0)), Var(VarId(1))]): -3, \
         Term([Opaque(Binary(Div, Var(VarId(1)), IntConst(2)))]): 1}, constant: 5 }"
    );
}
