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

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

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
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Term(Vec<Atom>);

impl Term {
    /// A term holding a single atom.
    pub fn atom(a: Atom) -> Term {
        Term(vec![a])
    }

    /// A term holding a single variable.
    pub fn var(v: VarId) -> Term {
        Term::atom(Atom::Var(v))
    }

    /// Product of two terms (multiset union of atoms, re-sorted).
    pub fn product(&self, other: &Term) -> Term {
        let mut atoms = self.0.clone();
        atoms.extend(other.0.iter().cloned());
        atoms.sort();
        Term(atoms)
    }

    /// The atoms of the term.
    pub fn atoms(&self) -> &[Atom] {
        &self.0
    }

    /// Degree of the term (number of atom factors).
    pub fn degree(&self) -> usize {
        self.0.len()
    }

    /// All variables referenced by the term.
    pub fn vars(&self) -> Vec<VarId> {
        self.0.iter().flat_map(Atom::vars).collect()
    }

    /// True if some atom of the term is `v` or an opaque subexpression
    /// that reads `v`.
    pub fn uses_var(&self, v: VarId) -> bool {
        self.0.iter().any(|a| match a {
            Atom::Var(w) => *w == v,
            Atom::Opaque(e) => e.uses_var(v),
        })
    }

    /// True if the term is exactly the single variable `v`.
    pub fn is_var(&self, v: VarId) -> bool {
        self.0.len() == 1 && self.0[0] == Atom::Var(v)
    }
}

/// A canonical multilinear polynomial with an integer constant part.
///
/// The zero polynomial has no terms. Coefficients are never stored as zero.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinForm {
    terms: BTreeMap<Term, i64>,
    constant: i64,
}

impl LinForm {
    /// The zero form.
    pub fn zero() -> LinForm {
        LinForm::default()
    }

    /// A constant form.
    pub fn constant(c: i64) -> LinForm {
        LinForm {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// The form `1·v`.
    pub fn var(v: VarId) -> LinForm {
        let mut terms = BTreeMap::new();
        terms.insert(Term::var(v), 1);
        LinForm { terms, constant: 0 }
    }

    /// The form `1·atom`.
    pub fn atom(a: Atom) -> LinForm {
        let mut terms = BTreeMap::new();
        terms.insert(Term::atom(a), 1);
        LinForm { terms, constant: 0 }
    }

    /// Builds a form from `(term, coefficient)` pairs plus a constant,
    /// dropping zero coefficients and combining duplicates.
    pub fn from_terms(pairs: impl IntoIterator<Item = (Term, i64)>, constant: i64) -> LinForm {
        let mut f = LinForm::constant(constant);
        for (t, c) in pairs {
            f.add_term(t, c);
        }
        f
    }

    /// Adds `coeff·term` into the form.
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
                    // remove the cancelled term to keep canonicity
                    e.remove();
                } else {
                    *e.get_mut() = sum;
                }
            }
        }
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
        self.terms.iter().map(|(t, c)| (t, *c))
    }

    /// Number of symbolic terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// True if the form is a literal constant (no symbolic terms).
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// The coefficient of `term` (zero if absent).
    pub fn coeff(&self, term: &Term) -> i64 {
        self.terms.get(term).copied().unwrap_or(0)
    }

    /// The coefficient of the degree-1 term for variable `v`.
    pub fn coeff_of_var(&self, v: VarId) -> i64 {
        self.coeff(&Term::var(v))
    }

    /// Sum of two forms.
    pub fn add(&self, other: &LinForm) -> LinForm {
        let mut out = self.clone();
        out.constant = out.constant.wrapping_add(other.constant);
        for (t, c) in other.terms() {
            out.add_term(t.clone(), c);
        }
        out
    }

    /// Difference of two forms.
    pub fn sub(&self, other: &LinForm) -> LinForm {
        self.add(&other.scale(-1))
    }

    /// The form scaled by `k`.
    pub fn scale(&self, k: i64) -> LinForm {
        if k == 0 {
            return LinForm::zero();
        }
        LinForm {
            terms: self
                .terms
                .iter()
                .map(|(t, c)| (t.clone(), c.wrapping_mul(k)))
                // a product that wraps to zero is no term
                .filter(|(_, c)| *c != 0)
                .collect(),
            constant: self.constant.wrapping_mul(k),
        }
    }

    /// Negation.
    pub fn neg(&self) -> LinForm {
        self.scale(-1)
    }

    /// Product of two forms (distributes; term products merge atom multisets).
    pub fn mul(&self, other: &LinForm) -> LinForm {
        let mut out = LinForm::constant(self.constant.wrapping_mul(other.constant));
        for (t, c) in self.terms() {
            out.add_term(t.clone(), c.wrapping_mul(other.constant));
        }
        for (t, c) in other.terms() {
            out.add_term(t.clone(), c.wrapping_mul(self.constant));
        }
        for (t1, c1) in self.terms() {
            for (t2, c2) in other.terms() {
                out.add_term(t1.product(t2), c1.wrapping_mul(c2));
            }
        }
        out
    }

    /// All variables referenced (through terms and opaque atoms); sorted and
    /// deduplicated. Definitions of any of these kill checks on this form.
    pub fn vars(&self) -> Vec<VarId> {
        let mut vs: Vec<VarId> = self.terms.keys().flat_map(Term::vars).collect();
        vs.sort();
        vs.dedup();
        vs
    }

    /// True if any term references variable `v`.
    pub fn uses_var(&self, v: VarId) -> bool {
        self.terms.keys().any(|t| t.uses_var(v))
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
        if self.terms.len() != 1 {
            return None;
        }
        let (t, c) = self.terms.iter().next().unwrap();
        match t.atoms() {
            [Atom::Var(v)] => Some((*v, *c, self.constant)),
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
        let mut out = LinForm::constant(self.constant);
        for (t, c) in self.terms() {
            if t.is_var(v) {
                out = out.add(&replacement.scale(c));
            } else if t.vars().contains(&v) {
                return None;
            } else {
                out.add_term(t.clone(), c);
            }
        }
        Some(out)
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
