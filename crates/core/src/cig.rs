//! The Check Implication Graph (§3.1).
//!
//! Checks with the same range expression form a *family*; the canonical
//! form makes this structural (constants are folded into the range
//! constant, symbolic terms are sorted). Within a family checks are
//! totally ordered by range constant: smaller constant = stronger check.
//!
//! Cross-family implications are weighted edges: an edge `(F₁ → F₂, w)`
//! means `Check (F₁ ≤ c)` implies `Check (F₂ ≤ c + w)` for every `c`.
//! Parallel edges keep the minimum weight, exactly as in the paper's
//! Figure 4. Implication along paths adds weights; [`Cig::closure`]
//! computes all-pairs minimum path weights.
//!
//! Edges come from two discoveries:
//!
//! * **affine relations** `x = y + k` between uniquely defined variables
//!   ([`discover_affine_edges`]) — substituting `y + k` for `x` in a
//!   family's form maps it onto another family with a constant shift,
//!   giving edges both ways;
//! * **preheader insertion** — handled structurally by
//!   [`crate::preheader`], which the paper's Table 3 experiment found to
//!   be the only implications that matter.

use nascent_analysis::dom::Dominators;
use nascent_analysis::reach::{DefSite, UniqueDefs};
use nascent_ir::{Atom, Expr, Function, FxHashMap, LinForm, Stmt, VarId};

/// Index of a family within a [`Cig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FamilyId(pub u32);

impl FamilyId {
    /// The family's index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The check implication graph.
#[derive(Debug, Clone, Default)]
pub struct Cig {
    families: Vec<LinForm>,
    index: FxHashMap<LinForm, FamilyId>,
    /// Direct cross-family edges with minimum weights.
    edges: FxHashMap<(FamilyId, FamilyId), i64>,
}

impl Cig {
    /// An empty graph.
    pub fn new() -> Cig {
        Cig::default()
    }

    /// Interns a family for a (constant-free) range expression.
    ///
    /// # Panics
    ///
    /// Panics if `form` carries a non-zero constant part — family keys are
    /// the symbolic parts of canonical checks.
    pub fn family(&mut self, form: &LinForm) -> FamilyId {
        assert_eq!(form.constant_part(), 0, "family keys are constant-free");
        if let Some(&id) = self.index.get(form) {
            return id;
        }
        let id = FamilyId(self.families.len() as u32);
        self.families.push(form.clone());
        self.index.insert(form.clone(), id);
        id
    }

    /// Looks up a family without interning.
    pub fn lookup(&self, form: &LinForm) -> Option<FamilyId> {
        self.index.get(form).copied()
    }

    /// The range expression of a family.
    pub fn form(&self, f: FamilyId) -> &LinForm {
        &self.families[f.index()]
    }

    /// Number of families.
    pub fn family_count(&self) -> usize {
        self.families.len()
    }

    /// Number of direct cross-family edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds (or tightens) the edge `from → to` with weight `w`:
    /// `(from ≤ c) ⟹ (to ≤ c + w)`. Parallel edges keep the minimum
    /// weight (paper §3.1).
    pub fn add_edge(&mut self, from: FamilyId, to: FamilyId, w: i64) {
        if from == to {
            return;
        }
        let entry = self.edges.entry((from, to)).or_insert(w);
        *entry = (*entry).min(w);
    }

    /// All-pairs minimum implication weights along edge paths.
    pub fn closure(&self) -> CigClosure {
        // restrict the all-pairs computation to families touching an edge
        let mut nodes: Vec<FamilyId> = Vec::new();
        for (a, b) in self.edges.keys() {
            if !nodes.contains(a) {
                nodes.push(*a);
            }
            if !nodes.contains(b) {
                nodes.push(*b);
            }
        }
        let n = nodes.len();
        let pos: FxHashMap<FamilyId, usize> =
            nodes.iter().enumerate().map(|(i, f)| (*f, i)).collect();
        const INF: i64 = i64::MAX / 4;
        let mut dist = vec![INF; n * n];
        for i in 0..n {
            dist[i * n + i] = 0;
        }
        for ((a, b), w) in &self.edges {
            let (i, j) = (pos[a], pos[b]);
            dist[i * n + j] = dist[i * n + j].min(*w);
        }
        for k in 0..n {
            for i in 0..n {
                let dik = dist[i * n + k];
                if dik >= INF {
                    continue;
                }
                for j in 0..n {
                    let cand = dik.saturating_add(dist[k * n + j]);
                    if cand < dist[i * n + j] {
                        dist[i * n + j] = cand;
                    }
                }
            }
        }
        // a negative self-distance would mean a check implies a strictly
        // stronger version of itself: contradictory edges. Guard by
        // clamping such components to no-implication.
        let mut negative = vec![false; n];
        for i in 0..n {
            if dist[i * n + i] < 0 {
                negative[i] = true;
            }
        }
        CigClosure {
            nodes,
            pos,
            dist,
            negative,
            n,
        }
    }
}

/// Distances at or above this are treated as "no implication": the
/// Floyd–Warshall relaxation can pull the sentinel `INF` down by small
/// negative edge weights, so a simple equality test would leak
/// near-infinite weights.
const INF_THRESHOLD: i64 = i64::MAX / 8;

/// All-pairs implication weights (see [`Cig::closure`]).
#[derive(Debug, Clone)]
pub struct CigClosure {
    nodes: Vec<FamilyId>,
    pos: FxHashMap<FamilyId, usize>,
    dist: Vec<i64>,
    negative: Vec<bool>,
    n: usize,
}

impl CigClosure {
    /// Minimum `w` such that `(from ≤ c) ⟹ (to ≤ c + w)` along CIG
    /// paths; `Some(0)` when `from == to`, `None` when unrelated.
    pub fn weight(&self, from: FamilyId, to: FamilyId) -> Option<i64> {
        if from == to {
            return Some(0);
        }
        let (&i, &j) = (self.pos.get(&from)?, self.pos.get(&to)?);
        if self.negative[i] || self.negative[j] {
            return None;
        }
        let d = self.dist[i * self.n + j];
        if d >= INF_THRESHOLD {
            None
        } else {
            Some(d)
        }
    }

    /// Families reachable from `from` with their weights (excluding
    /// `from` itself).
    pub fn reachable(&self, from: FamilyId) -> Vec<(FamilyId, i64)> {
        let Some(&i) = self.pos.get(&from) else {
            return Vec::new();
        };
        if self.negative[i] {
            return Vec::new();
        }
        let mut out = Vec::new();
        for j in 0..self.n {
            if j == i || self.negative[j] {
                continue;
            }
            let d = self.dist[i * self.n + j];
            if d < INF_THRESHOLD {
                out.push((self.nodes[j], d));
            }
        }
        out
    }
}

/// Discovers affine relations `x = y + k` between variables whose single
/// static definitions make the relation hold at every check that mentions
/// them, and records the induced two-way family edges in the CIG for
/// every family pair related by the substitution.
///
/// Soundness conditions (conservative):
/// * `x` has a unique definition `x = y + k` (canonical form),
/// * `y` is never defined (parameter) or uniquely defined in a block
///   dominating `x`'s definition,
/// * `x`'s definition dominates every block containing a check that
///   mentions `x`.
pub fn discover_affine_edges(
    f: &Function,
    dom: &Dominators,
    defs: &UniqueDefs,
    cig: &mut Cig,
    families_in_use: &[(FamilyId, LinForm)],
) -> usize {
    // the candidate relations, in `defs` order (which fixes the order in
    // which target families are interned)
    let candidates: Vec<(VarId, &DefSite, VarId, i64)> = defs
        .iter()
        .filter_map(|(x, site)| {
            let (y, coeff, k) = LinForm::from_expr(site.rhs.as_ref()?).as_single_var()?;
            (coeff == 1 && y != *x).then_some((*x, site, y, k))
        })
        .collect();
    if candidates.is_empty() {
        return 0;
    }
    // textual defs per var, to recognize never-defined vars, and per
    // candidate `x` whether its def dominates every check mentioning `x`
    // (`None` for a variable that is no candidate)
    let mut def_count = vec![0u32; f.vars.len()];
    let mut dominates_checks: Vec<Option<bool>> = vec![None; f.vars.len()];
    for (x, ..) in &candidates {
        dominates_checks[x.index()] = Some(true);
    }
    for b in f.block_ids() {
        for s in &f.block(b).stmts {
            if let Stmt::Check(c) = s {
                for e in std::iter::once(&c.cond).chain(&c.guards) {
                    for_each_var(e.form(), &mut |v| {
                        if let Some(ok @ true) = &mut dominates_checks[v.index()] {
                            *ok = dom.dominates(defs[&v].block, b);
                        }
                    });
                }
            } else if let Some(v) = s.defined_var() {
                def_count[v.index()] += 1;
            }
        }
    }

    let mut added = 0;
    for (x, site, y, k) in candidates {
        // y stable: never defined, or uniquely defined dominating x's def
        let y_ok = match def_count[y.index()] {
            0 => true,
            1 => defs.get(&y).is_some_and(|ys| {
                dom.dominates(ys.block, site.block) && ys.block != site.block
                    || ys.block == site.block && ys.stmt < site.stmt
            }),
            _ => false,
        };
        // x's def must dominate every check mentioning x
        if !y_ok || dominates_checks[x.index()] == Some(false) {
            continue;
        }
        // map every family containing x linearly onto its substituted
        // family: form_x = a·x + rest  ≡  a·y + rest + a·k
        for (fid, fam_form) in families_in_use {
            let a = fam_form.coeff_of_var(x);
            if a == 0 {
                continue;
            }
            let repl = LinForm::var(y).add(&LinForm::constant(k));
            let Some(subst) = fam_form.substitute_var(x, &repl) else {
                continue;
            };
            let shift = subst.constant_part(); // = a·k
            let target_key = subst.symbolic_part();
            let target = cig.family(&target_key);
            if target == *fid {
                continue;
            }
            // (fam ≤ c) ⇔ (target + shift ≤ c) ⇔ (target ≤ c - shift)
            cig.add_edge(*fid, target, -shift);
            cig.add_edge(target, *fid, shift);
            added += 2;
        }
    }
    added
}

/// Calls `visit` on every variable `form` reads, through opaque atoms
/// too, without collecting them.
fn for_each_var(form: &LinForm, visit: &mut impl FnMut(VarId)) {
    fn walk(e: &Expr, visit: &mut impl FnMut(VarId)) {
        match e {
            Expr::Var(v) => visit(*v),
            Expr::Unary(_, e) => walk(e, visit),
            Expr::Binary(_, l, r) => {
                walk(l, visit);
                walk(r, visit);
            }
            Expr::IntConst(_) | Expr::RealConst(_) => {}
        }
    }
    for (t, _) in form.terms() {
        for atom in t.atoms() {
            match atom {
                Atom::Var(v) => visit(*v),
                Atom::Opaque(e) => walk(e, visit),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_ir::VarId;

    fn form_of(v: u32) -> LinForm {
        LinForm::var(VarId(v))
    }

    #[test]
    fn families_are_interned_by_symbolic_part() {
        let mut cig = Cig::new();
        let f1 = cig.family(&form_of(0));
        let f2 = cig.family(&form_of(0));
        let f3 = cig.family(&form_of(1));
        assert_eq!(f1, f2);
        assert_ne!(f1, f3);
        assert_eq!(cig.family_count(), 2);
    }

    #[test]
    fn parallel_edges_keep_minimum_weight() {
        let mut cig = Cig::new();
        let a = cig.family(&form_of(0));
        let b = cig.family(&form_of(1));
        cig.add_edge(a, b, 7);
        cig.add_edge(a, b, 4);
        cig.add_edge(a, b, 9);
        let cl = cig.closure();
        assert_eq!(cl.weight(a, b), Some(4));
        assert_eq!(cl.weight(b, a), None);
    }

    #[test]
    fn figure4_example() {
        // Check (n <= 6) => Check (m <= 10): edge weight 4.
        // Then Check (n <= 1) is as strong as Check (m <= 7)
        // but not as strong as Check (m <= 3).
        let mut cig = Cig::new();
        let fn_ = cig.family(&form_of(0)); // n
        let fm = cig.family(&form_of(1)); // m
        cig.add_edge(fn_, fm, 4);
        let cl = cig.closure();
        let w = cl.weight(fn_, fm).unwrap();
        assert_eq!(w, 4); // n<=1 implies m<=5, so also m<=7, but not m<=3
    }

    #[test]
    fn path_weights_add() {
        let mut cig = Cig::new();
        let a = cig.family(&form_of(0));
        let b = cig.family(&form_of(1));
        let c = cig.family(&form_of(2));
        cig.add_edge(a, b, 2);
        cig.add_edge(b, c, -5);
        let cl = cig.closure();
        assert_eq!(cl.weight(a, c), Some(-3));
        assert_eq!(cl.weight(a, a), Some(0));
        let mut reach = cl.reachable(a);
        reach.sort();
        assert_eq!(reach, vec![(b, 2), (c, -3)]);
    }

    #[test]
    fn negative_cycles_disable_component() {
        let mut cig = Cig::new();
        let a = cig.family(&form_of(0));
        let b = cig.family(&form_of(1));
        cig.add_edge(a, b, -1);
        cig.add_edge(b, a, 0);
        let cl = cig.closure();
        assert_eq!(cl.weight(a, b), None);
        assert!(cl.reachable(a).is_empty());
        // identity still holds
        assert_eq!(cl.weight(a, a), Some(0));
    }

    #[test]
    fn negative_cycle_guard_spares_unrelated_components() {
        // a → b → c → a sums to -1: every query touching the cycle must
        // be clamped to "no implication", but an unrelated pair in the
        // same graph keeps its weights and identity still holds.
        let mut cig = Cig::new();
        let a = cig.family(&form_of(0));
        let b = cig.family(&form_of(1));
        let c = cig.family(&form_of(2));
        let d = cig.family(&form_of(3));
        let e = cig.family(&form_of(4));
        cig.add_edge(a, b, 1);
        cig.add_edge(b, c, -3);
        cig.add_edge(c, a, 1);
        cig.add_edge(d, e, 2);
        let cl = cig.closure();
        for (x, y) in [(a, b), (b, c), (c, a), (a, c), (b, a)] {
            assert_eq!(cl.weight(x, y), None, "cycle member leaked a weight");
        }
        assert!(cl.reachable(a).is_empty());
        assert_eq!(cl.weight(a, a), Some(0), "identity is weight 0 regardless");
        assert_eq!(cl.weight(d, e), Some(2), "healthy component unaffected");
        assert_eq!(cl.reachable(d), vec![(e, 2)]);
    }

    #[test]
    fn affine_edges_from_unique_defs() {
        // m = n + 4 with unique defs; checks on m and n exist
        let p = nascent_frontend::compile(
            "program p
 integer a(1:20)
 integer n, m
 n = 3
 m = n + 4
 a(n) = 1
 a(m) = 2
end
",
        )
        .unwrap();
        let f = p.main_function();
        let mut ctx = nascent_analysis::context::PassContext::new();
        let dom = ctx.dominators(f);
        let udefs = ctx.unique_defs(f);
        let mut cig = Cig::new();
        // seed with the families of all checks in the program
        let mut fams: Vec<(FamilyId, LinForm)> = Vec::new();
        for b in f.block_ids() {
            for s in &f.block(b).stmts {
                if let Stmt::Check(c) = s {
                    let key = c.cond.form().clone();
                    let id = cig.family(&key);
                    if !fams.iter().any(|(i, _)| *i == id) {
                        fams.push((id, key));
                    }
                }
            }
        }
        let added = discover_affine_edges(f, &dom, &udefs, &mut cig, &fams);
        assert!(added > 0);
        // the family {m} (from Check m <= 20) must imply family {n}
        let fm = cig.lookup(&LinForm::var(VarId(1))).unwrap();
        let fn_ = cig.lookup(&LinForm::var(VarId(0))).unwrap();
        let cl = cig.closure();
        // (m <= c) => (n <= c - 4)
        assert_eq!(cl.weight(fm, fn_), Some(-4));
        assert_eq!(cl.weight(fn_, fm), Some(4));
    }
}
