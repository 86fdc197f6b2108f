//! Canonical multilinear forms — the `range-expression` of §2.2.
//!
//! A [`LinForm`] is a sum `Σ cᵢ·Tᵢ + c₀` where each [`Term`] `Tᵢ` is a
//! product of [`Atom`]s in canonical (sorted) order. Atoms are program
//! variables, or *opaque* subexpressions for operators the form cannot
//! distribute over (division, `mod`, `min`/`max`, comparisons). Folding all
//! literal constants into `c₀` and sorting the symbolic terms realizes the
//! paper's canonical form: semantically equivalent range expressions that
//! are syntactically different (`i+1 <= 4*n` vs `i - 4*n <= -1`) become
//! structurally identical, so they land in the same check *family*.
//!
//! A form keeps its terms as a list sorted strictly by term, with no zero
//! coefficient: a form of at most one term holds it inline, and one of two
//! or more keeps a vector. A term of one atom holds that atom inline (a
//! product keeps a boxed slice of two or more). Almost every check has
//! one term of one atom, so its form allocates nothing, and `add` and
//! `sub` build their result in one merge of two sorted lists. Order, hash
//! input and `{:?}` text are those of a map from term to coefficient:
//! terms compare lexicographically, then the constant; a form hashes its
//! term count, each term and coefficient, then its constant; and it
//! prints as `LinForm { terms: {Term([..]): c, ..}, constant: k }`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::expr::{BinOp, Expr, UnOp};
use crate::pretty::{write_expr, VarNamer};
use crate::stmt::VarId;

/// A multiplicative atom: a variable or an opaque non-affine subexpression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// A scalar program variable.
    Var(VarId),
    /// A subexpression treated as an indivisible symbol (e.g. `i / 2`).
    Opaque(Expr),
}

impl Atom {
    /// Variables referenced by the atom (one for `Var`, all used variables
    /// for `Opaque`).
    pub fn vars(&self) -> Vec<VarId> {
        match self {
            Atom::Var(v) => vec![*v],
            Atom::Opaque(e) => e.vars(),
        }
    }
}

/// A product of atoms in canonical sorted order. Never empty.
///
/// Equality, order, hashing and `{:?}` all go through [`Term::atoms`], so
/// a term behaves as the sorted list of its atoms.
#[derive(Clone)]
pub struct Term(Factors);

#[derive(Clone)]
enum Factors {
    /// A single atom, held inline.
    One(Atom),
    /// Two or more atoms, sorted.
    Many(Box<[Atom]>),
}

impl Term {
    /// A term holding a single atom.
    pub fn atom(a: Atom) -> Term {
        Term(Factors::One(a))
    }

    /// A term holding a single variable.
    pub fn var(v: VarId) -> Term {
        Term::atom(Atom::Var(v))
    }

    /// Product of two terms (multiset union of atoms, re-sorted).
    pub fn product(&self, other: &Term) -> Term {
        let mut atoms = Vec::with_capacity(self.degree() + other.degree());
        atoms.extend_from_slice(self.atoms());
        atoms.extend_from_slice(other.atoms());
        atoms.sort();
        Term(Factors::Many(atoms.into_boxed_slice()))
    }

    /// The atoms of the term.
    pub fn atoms(&self) -> &[Atom] {
        match &self.0 {
            Factors::One(a) => std::slice::from_ref(a),
            Factors::Many(atoms) => atoms,
        }
    }

    /// Degree of the term (number of atom factors).
    pub fn degree(&self) -> usize {
        self.atoms().len()
    }

    /// All variables referenced by the term.
    pub fn vars(&self) -> Vec<VarId> {
        self.atoms().iter().flat_map(Atom::vars).collect()
    }

    /// True if some atom of the term is `v` or an opaque subexpression
    /// that reads `v`.
    pub fn uses_var(&self, v: VarId) -> bool {
        self.atoms().iter().any(|a| match a {
            Atom::Var(w) => *w == v,
            Atom::Opaque(e) => e.uses_var(v),
        })
    }

    /// True if the term is exactly the single variable `v`.
    pub fn is_var(&self, v: VarId) -> bool {
        matches!(self.0, Factors::One(Atom::Var(w)) if w == v)
    }
}

impl PartialEq for Term {
    fn eq(&self, other: &Term) -> bool {
        self.atoms() == other.atoms()
    }
}

impl Eq for Term {}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Term) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Term {
    fn cmp(&self, other: &Term) -> Ordering {
        self.atoms().cmp(other.atoms())
    }
}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.atoms().hash(state);
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Term").field(&self.atoms()).finish()
    }
}

/// A canonical multilinear polynomial with an integer constant part.
///
/// The zero polynomial has no terms. Terms are sorted strictly, and
/// coefficients are never stored as zero. Equality, order and hashing
/// go through the sorted term list, then the constant.
#[derive(Clone, Default)]
pub struct LinForm {
    terms: Terms,
    constant: i64,
}

/// The sorted `(term, coefficient)` list of a form. A form of at most one
/// term, almost every check's, holds it inline; `Many` always holds two or
/// more.
#[derive(Clone)]
enum Terms {
    One(Option<(Term, i64)>),
    Many(Vec<(Term, i64)>),
}

impl Default for Terms {
    fn default() -> Terms {
        Terms::One(None)
    }
}

impl Terms {
    fn as_slice(&self) -> &[(Term, i64)] {
        match self {
            Terms::One(t) => t.as_slice(),
            Terms::Many(ts) => ts,
        }
    }

    fn from_vec(mut ts: Vec<(Term, i64)>) -> Terms {
        if ts.len() <= 1 {
            Terms::One(ts.pop())
        } else {
            Terms::Many(ts)
        }
    }

    /// Appends a term that sorts after every term held.
    fn push(&mut self, t: (Term, i64)) {
        match self {
            Terms::One(slot) => match slot.take() {
                None => *slot = Some(t),
                Some(first) => *self = Terms::Many(vec![first, t]),
            },
            Terms::Many(ts) => ts.push(t),
        }
    }
}

impl PartialEq for LinForm {
    fn eq(&self, other: &LinForm) -> bool {
        self.terms.as_slice() == other.terms.as_slice() && self.constant == other.constant
    }
}

impl Eq for LinForm {}

impl PartialOrd for LinForm {
    fn partial_cmp(&self, other: &LinForm) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LinForm {
    fn cmp(&self, other: &LinForm) -> Ordering {
        let terms = self.terms.as_slice().cmp(other.terms.as_slice());
        terms.then(self.constant.cmp(&other.constant))
    }
}

impl Hash for LinForm {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.terms.as_slice().hash(state);
        self.constant.hash(state);
    }
}

impl LinForm {
    /// The zero form.
    pub fn zero() -> LinForm {
        LinForm::default()
    }

    /// A constant form.
    pub fn constant(c: i64) -> LinForm {
        LinForm {
            terms: Terms::default(),
            constant: c,
        }
    }

    /// The form `1·v`.
    pub fn var(v: VarId) -> LinForm {
        LinForm::atom(Atom::Var(v))
    }

    /// The form `1·atom`.
    pub fn atom(a: Atom) -> LinForm {
        LinForm {
            terms: Terms::One(Some((Term::atom(a), 1))),
            constant: 0,
        }
    }

    /// Builds a form from `(term, coefficient)` pairs plus a constant,
    /// dropping zero coefficients and combining duplicates.
    pub fn from_terms(pairs: impl IntoIterator<Item = (Term, i64)>, constant: i64) -> LinForm {
        let mut terms: Vec<(Term, i64)> = pairs.into_iter().collect();
        // equal terms are identical, so an unstable sort is canonical
        terms.sort_unstable_by(|(s, _), (t, _)| s.cmp(t));
        terms.dedup_by(|(t, c), (kept, sum)| {
            let same = t == kept;
            if same {
                *sum = sum.wrapping_add(*c);
            }
            same
        });
        terms.retain(|(_, c)| *c != 0);
        LinForm {
            terms: Terms::from_vec(terms),
            constant,
        }
    }

    /// Adds `coeff·term` into the form.
    pub fn add_term(&mut self, term: Term, coeff: i64) {
        if coeff == 0 {
            return;
        }
        let mut ts = match std::mem::take(&mut self.terms) {
            Terms::One(t) => t.into_iter().collect(),
            Terms::Many(ts) => ts,
        };
        match ts.binary_search_by(|(t, _)| t.cmp(&term)) {
            Err(at) => ts.insert(at, (term, coeff)),
            Ok(at) => {
                ts[at].1 = ts[at].1.wrapping_add(coeff);
                if ts[at].1 == 0 {
                    // remove the cancelled term to keep canonicity
                    ts.remove(at);
                }
            }
        }
        self.terms = Terms::from_vec(ts);
    }

    /// The constant part.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// Sets the constant part.
    pub fn set_constant(&mut self, c: i64) {
        self.constant = c;
    }

    /// The symbolic terms with their coefficients, in canonical order.
    pub fn terms(&self) -> impl Iterator<Item = (&Term, i64)> {
        self.terms.as_slice().iter().map(|(t, c)| (t, *c))
    }

    /// Number of symbolic terms.
    pub fn num_terms(&self) -> usize {
        self.terms.as_slice().len()
    }

    /// True if the form is a literal constant (no symbolic terms).
    pub fn is_constant(&self) -> bool {
        self.terms.as_slice().is_empty()
    }

    /// The coefficient of `term` (zero if absent).
    pub fn coeff(&self, term: &Term) -> i64 {
        let terms = self.terms.as_slice();
        terms
            .binary_search_by(|(t, _)| t.cmp(term))
            .map_or(0, |at| terms[at].1)
    }

    /// The coefficient of the degree-1 term for variable `v`.
    pub fn coeff_of_var(&self, v: VarId) -> i64 {
        self.coeff(&Term::var(v))
    }

    /// Sum of two forms.
    pub fn add(&self, other: &LinForm) -> LinForm {
        self.add_scaled(other, 1)
    }

    /// Difference of two forms.
    pub fn sub(&self, other: &LinForm) -> LinForm {
        self.add_scaled(other, -1)
    }

    /// `self + k·other` in one merge of the two sorted term lists, with
    /// the wrapping of [`LinForm::scale`] and [`LinForm::add`]: a scaled
    /// coefficient or a sum that wraps to zero is no term.
    fn add_scaled(&self, other: &LinForm, k: i64) -> LinForm {
        let (xs, ys) = (self.terms.as_slice(), other.terms.as_slice());
        let mut terms = Terms::default();
        let (mut i, mut j) = (0, 0);
        while i < xs.len() || j < ys.len() {
            let order = match (xs.get(i), ys.get(j)) {
                (Some((s, _)), Some((t, _))) => s.cmp(t),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            let (t, c) = match order {
                Ordering::Less => {
                    i += 1;
                    (&xs[i - 1].0, xs[i - 1].1)
                }
                Ordering::Greater => {
                    j += 1;
                    (&ys[j - 1].0, ys[j - 1].1.wrapping_mul(k))
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    let c = xs[i - 1].1.wrapping_add(ys[j - 1].1.wrapping_mul(k));
                    (&xs[i - 1].0, c)
                }
            };
            if c != 0 {
                terms.push((t.clone(), c));
            }
        }
        LinForm {
            terms,
            constant: self.constant.wrapping_add(other.constant.wrapping_mul(k)),
        }
    }

    /// The form scaled by `k`.
    pub fn scale(&self, k: i64) -> LinForm {
        if k == 0 {
            return LinForm::zero();
        }
        let mut terms = Terms::default();
        for (t, c) in self.terms() {
            let c = c.wrapping_mul(k);
            // a product that wraps to zero is no term
            if c != 0 {
                terms.push((t.clone(), c));
            }
        }
        LinForm {
            terms,
            constant: self.constant.wrapping_mul(k),
        }
    }

    /// Negation.
    pub fn neg(&self) -> LinForm {
        self.scale(-1)
    }

    /// Product of two forms (distributes; term products merge atom multisets).
    pub fn mul(&self, other: &LinForm) -> LinForm {
        let (a, b) = (self.constant, other.constant);
        let scaled = |terms: &[(Term, i64)], k: i64| {
            terms
                .iter()
                .map(move |(t, c)| (t.clone(), c.wrapping_mul(k)))
                .collect::<Vec<_>>()
        };
        let (xs, ys) = (self.terms.as_slice(), other.terms.as_slice());
        let mut pairs = scaled(xs, b);
        pairs.extend(scaled(ys, a));
        for (t1, c1) in xs {
            for (t2, c2) in ys {
                pairs.push((t1.product(t2), c1.wrapping_mul(*c2)));
            }
        }
        LinForm::from_terms(pairs, a.wrapping_mul(b))
    }

    /// All variables referenced (through terms and opaque atoms); sorted and
    /// deduplicated. Definitions of any of these kill checks on this form.
    pub fn vars(&self) -> Vec<VarId> {
        let mut vs: Vec<VarId> = self.terms().flat_map(|(t, _)| t.vars()).collect();
        vs.sort();
        vs.dedup();
        vs
    }

    /// True if any term references variable `v`.
    pub fn uses_var(&self, v: VarId) -> bool {
        self.terms().any(|(t, _)| t.uses_var(v))
    }

    /// The symbolic part only (constant zeroed) — this is the *family key*
    /// of a canonical check.
    pub fn symbolic_part(&self) -> LinForm {
        LinForm {
            terms: self.terms.clone(),
            constant: 0,
        }
    }

    /// If the form is `k·v + c` for a single variable `v`, returns
    /// `(v, k, c)`.
    pub fn as_single_var(&self) -> Option<(VarId, i64, i64)> {
        match self.terms.as_slice() {
            [(t, c)] => match t.atoms() {
                [Atom::Var(v)] => Some((*v, *c, self.constant)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Substitutes a form for a variable: every occurrence of `v` as a
    /// degree-1 factor is replaced by `replacement`. Returns `None` when `v`
    /// occurs inside an opaque atom or in a term of degree > 1 together with
    /// other factors and the replacement is not constant-free-safe — to stay
    /// conservative we only substitute when every term containing `v` is
    /// exactly the single-variable term.
    pub fn substitute_var(&self, v: VarId, replacement: &LinForm) -> Option<LinForm> {
        // at most one term is `v`; the others keep their order
        let (mut rest, mut k) = (LinForm::constant(self.constant), 0);
        for (t, c) in self.terms() {
            if t.is_var(v) {
                k = c;
            } else if t.vars().contains(&v) {
                return None;
            } else {
                rest.terms.push((t.clone(), c));
            }
        }
        Some(if k == 0 {
            rest
        } else {
            rest.add_scaled(replacement, k)
        })
    }

    /// Converts an expression tree into canonical form. `Add`, `Sub`, `Mul`
    /// and `Neg` distribute; any other operator becomes an opaque atom for
    /// its whole subtree (after constant folding).
    pub fn from_expr(e: &Expr) -> LinForm {
        match e {
            Expr::IntConst(v) => LinForm::constant(*v),
            Expr::RealConst(_) => LinForm::atom(Atom::Opaque(e.clone())),
            Expr::Var(v) => LinForm::var(*v),
            Expr::Unary(UnOp::Neg, inner) => LinForm::from_expr(inner).neg(),
            Expr::Unary(UnOp::Not, _) => LinForm::atom(Atom::Opaque(e.fold())),
            Expr::Binary(op, l, r) => match op {
                BinOp::Add => LinForm::from_expr(l).add(&LinForm::from_expr(r)),
                BinOp::Sub => LinForm::from_expr(l).sub(&LinForm::from_expr(r)),
                BinOp::Mul => LinForm::from_expr(l).mul(&LinForm::from_expr(r)),
                _ => {
                    let folded = e.fold();
                    if let Expr::IntConst(v) = folded {
                        LinForm::constant(v)
                    } else {
                        LinForm::atom(Atom::Opaque(folded))
                    }
                }
            },
        }
    }

    /// Renders the form back into an expression tree (used when materializing
    /// inserted checks and for the interpreter).
    pub fn to_expr(&self) -> Expr {
        let mut acc: Option<Expr> = None;
        for (t, c) in self.terms() {
            let mut factor: Option<Expr> = None;
            for a in t.atoms() {
                let ae = match a {
                    Atom::Var(v) => Expr::var(*v),
                    Atom::Opaque(e) => e.clone(),
                };
                factor = Some(match factor {
                    None => ae,
                    Some(f) => Expr::mul(f, ae),
                });
            }
            let factor = factor.expect("terms are non-empty");
            let term_expr = match c {
                1 => factor,
                -1 => Expr::neg(factor),
                _ => Expr::mul(Expr::int(c), factor),
            };
            acc = Some(match acc {
                None => term_expr,
                Some(f) => Expr::add(f, term_expr),
            });
        }
        match acc {
            None => Expr::int(self.constant),
            Some(f) => {
                if self.constant == 0 {
                    f
                } else {
                    Expr::add(f, Expr::int(self.constant))
                }
            }
        }
    }
}

impl LinForm {
    /// Writes the form, naming each variable through `name`; opaque atoms
    /// appear in brackets, rendered by [`crate::pretty::write_expr`].
    pub fn write_with(&self, out: &mut dyn fmt::Write, name: &VarNamer<'_>) -> fmt::Result {
        let mut first = true;
        for (t, c) in self.terms() {
            if first {
                if c < 0 {
                    out.write_str("-")?;
                }
                first = false;
            } else if c < 0 {
                out.write_str(" - ")?;
            } else {
                out.write_str(" + ")?;
            }
            let mag = c.unsigned_abs();
            if mag != 1 {
                write!(out, "{mag}*")?;
            }
            for (i, a) in t.atoms().iter().enumerate() {
                if i > 0 {
                    out.write_str("*")?;
                }
                match a {
                    Atom::Var(v) => name(out, *v)?,
                    Atom::Opaque(e) => {
                        out.write_str("[")?;
                        write_expr(out, e, name)?;
                        out.write_str("]")?;
                    }
                }
            }
        }
        if first {
            write!(out, "{}", self.constant)?;
        } else if self.constant < 0 {
            write!(out, " - {}", self.constant.unsigned_abs())?;
        } else if self.constant > 0 {
            write!(out, " + {}", self.constant)?;
        }
        Ok(())
    }
}

impl fmt::Display for LinForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_with(f, &|out, v| write!(out, "{v}"))
    }
}

/// Prints the terms as a map, `{Term([..]): c, ..}`.
impl fmt::Debug for LinForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Map<'a>(&'a [(Term, i64)]);
        impl fmt::Debug for Map<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(t, c)| (t, c)))
                    .finish()
            }
        }
        f.debug_struct("LinForm")
            .field("terms", &Map(self.terms.as_slice()))
            .field("constant", &self.constant)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn canonicalizes_syntactic_variants() {
        // i + 1 - 4*n  vs  1 + i - n*4
        let a = LinForm::from_expr(&Expr::sub(
            Expr::add(Expr::var(v(0)), Expr::int(1)),
            Expr::mul(Expr::int(4), Expr::var(v(1))),
        ));
        let b = LinForm::from_expr(&Expr::add(
            Expr::int(1),
            Expr::sub(Expr::var(v(0)), Expr::mul(Expr::var(v(1)), Expr::int(4))),
        ));
        assert_eq!(a, b);
        assert_eq!(a.constant_part(), 1);
        assert_eq!(a.coeff_of_var(v(1)), -4);
    }

    #[test]
    fn cancellation_removes_terms() {
        let a = LinForm::var(v(0)).sub(&LinForm::var(v(0)));
        assert!(a.is_constant());
        assert_eq!(a, LinForm::zero());
    }

    #[test]
    fn cancelling_one_term_keeps_the_others() {
        let mut f = LinForm::from_terms([(Term::var(v(0)), 2), (Term::var(v(1)), 3)], 4);
        f.add_term(Term::var(v(0)), -2);
        assert_eq!(f, LinForm::var(v(1)).scale(3).add(&LinForm::constant(4)));
        assert!(!f.uses_var(v(0)) && f.uses_var(v(1)));
        // a coefficient that wraps to zero under scaling is dropped
        let big = LinForm::from_terms([(Term::var(v(0)), 1 << 62), (Term::var(v(1)), 1)], 0);
        assert_eq!(big.scale(4), LinForm::var(v(1)).scale(4));
    }

    #[test]
    fn a_form_back_to_one_term_holds_it_inline() {
        let mut f = LinForm::from_terms([(Term::var(v(0)), 2), (Term::var(v(1)), 3)], 0);
        assert!(matches!(f.terms, Terms::Many(_)));
        f.add_term(Term::var(v(1)), -3);
        assert!(matches!(f.terms, Terms::One(Some(_))));
        let g = LinForm::var(v(0))
            .add(&LinForm::var(v(1)))
            .sub(&LinForm::var(v(1)));
        assert!(matches!(g.terms, Terms::One(Some(_))));
        assert_eq!((f, g), (LinForm::var(v(0)).scale(2), LinForm::var(v(0))));
    }

    #[test]
    fn multiplication_is_multilinear() {
        // (i + 2) * (j - 3) = i*j - 3i + 2j - 6
        let a = LinForm::var(v(0)).add(&LinForm::constant(2));
        let b = LinForm::var(v(1)).sub(&LinForm::constant(3));
        let p = a.mul(&b);
        assert_eq!(p.constant_part(), -6);
        assert_eq!(p.coeff_of_var(v(0)), -3);
        assert_eq!(p.coeff_of_var(v(1)), 2);
        assert_eq!(p.coeff(&Term::var(v(0)).product(&Term::var(v(1)))), 1);
    }

    #[test]
    fn non_affine_becomes_opaque() {
        let e = Expr::bin(BinOp::Div, Expr::var(v(0)), Expr::int(2));
        let f = LinForm::from_expr(&e);
        assert_eq!(f.num_terms(), 1);
        assert!(f.uses_var(v(0)));
        // the opaque atom still reports its variables for the kill rule
        assert_eq!(f.vars(), vec![v(0)]);
    }

    #[test]
    fn opaque_constant_subtree_folds() {
        let e = Expr::bin(BinOp::Div, Expr::int(10), Expr::int(2));
        assert_eq!(LinForm::from_expr(&e), LinForm::constant(5));
    }

    #[test]
    fn family_key_ignores_constant() {
        let a = LinForm::var(v(0)).add(&LinForm::constant(10));
        let b = LinForm::var(v(0)).sub(&LinForm::constant(3));
        assert_eq!(a.symbolic_part(), b.symbolic_part());
    }

    #[test]
    fn substitute_var_linear_only() {
        // 2i + j, i := n - 1   =>  2n + j - 2
        let f = LinForm::from_terms([(Term::var(v(0)), 2), (Term::var(v(1)), 1)], 0);
        let r = LinForm::var(v(2)).sub(&LinForm::constant(1));
        let s = f.substitute_var(v(0), &r).unwrap();
        assert_eq!(s.coeff_of_var(v(2)), 2);
        assert_eq!(s.coeff_of_var(v(1)), 1);
        assert_eq!(s.constant_part(), -2);
        // refuse to substitute into a product term
        let g = LinForm::from_terms([(Term::var(v(0)).product(&Term::var(v(1))), 1)], 0);
        assert!(g.substitute_var(v(0), &r).is_none());
    }

    #[test]
    fn to_expr_round_trips_through_from_expr() {
        let f = LinForm::from_terms(
            [
                (Term::var(v(0)), 3),
                (Term::var(v(1)), -1),
                (Term::var(v(0)).product(&Term::var(v(1))), 2),
            ],
            -7,
        );
        assert_eq!(LinForm::from_expr(&f.to_expr()), f);
    }

    #[test]
    fn as_single_var() {
        let f = LinForm::var(v(4)).scale(3).add(&LinForm::constant(2));
        assert_eq!(f.as_single_var(), Some((v(4), 3, 2)));
        assert_eq!(LinForm::constant(5).as_single_var(), None);
    }

    #[test]
    fn display_is_readable() {
        let f = LinForm::from_terms([(Term::var(v(0)), 1), (Term::var(v(1)), -4)], 1);
        assert_eq!(format!("{f}"), "v0 - 4*v1 + 1");
        assert_eq!(format!("{}", LinForm::constant(-3)), "-3");
    }
}
