//! The *check universe* of a function: the distinct canonical checks that
//! occur in it, their families, and the precomputed implication masks the
//! data-flow systems operate on.
//!
//! A data-flow fact is a [`BitSet`] over universe indices. Performing an
//! (unconditional) check generates the set of checks it implies; defining
//! a variable kills every check whose range expression mentions it.
//!
//! The builder borrows the checks it is given and clones only the
//! distinct ones into the universe. The certifier offers every check of
//! the reference function, the log and the optimized code: about 46 000
//! on the 96-loop scaling program under NI, of which 194 are distinct.
//! Checks are looked up by value through an [`FxHashMap`]: hashing a
//! check is a handful of word-sized writes, which the Fx scheme mixes in
//! with one multiply each.

use std::collections::HashMap;

use nascent_analysis::context::PassContext;
use nascent_ir::{CheckExpr, Function, FxHashMap, Stmt, VarId};

use crate::cig::{discover_affine_edges, Cig, CigClosure, FamilyId};
use crate::util::BitSet;
use crate::ImplicationMode;

/// The check universe of one function (see module docs).
#[derive(Debug)]
pub struct Universe {
    /// The distinct canonical checks, indexed by universe id.
    pub checks: Vec<CheckExpr>,
    /// Family of each check.
    pub family_of: Vec<FamilyId>,
    /// The implication graph.
    pub cig: Cig,
    /// Its transitive closure.
    pub closure: CigClosure,
    /// `gen_avail[c]` — checks made available by performing check `c`
    /// (everything `c` implies under the active mode).
    pub gen_avail: Vec<BitSet>,
    /// `implied_by[c]` — checks whose availability makes `c` redundant
    /// (everything that implies `c`).
    pub implied_by: Vec<BitSet>,
    /// `gen_antic[c]` — checks made anticipatable by an occurrence of `c`:
    /// `c` and its weaker family members (within-family only, §3.2).
    pub gen_antic: Vec<BitSet>,
    /// `kill_of[v]` — checks killed by a definition of `v`.
    pub kill_of: HashMap<VarId, BitSet>,
    /// Active implication mode.
    pub mode: ImplicationMode,
    id_of: FxHashMap<CheckExpr, usize>,
}

impl Universe {
    /// Builds the universe of `f` under the given implication mode.
    /// Cross-family affine edges are discovered unless the mode is
    /// [`ImplicationMode::None`].
    pub fn build(f: &Function, mode: ImplicationMode) -> Universe {
        Universe::build_ctx(f, mode, &mut PassContext::new())
    }

    /// [`Universe::build`] drawing dominators and unique definitions from
    /// a shared [`PassContext`] instead of recomputing them.
    pub fn build_ctx(f: &Function, mode: ImplicationMode, ctx: &mut PassContext) -> Universe {
        Universe::build_with_extra_ctx(f, mode, [], ctx)
    }

    /// [`Universe::build_ctx`] with additional check expressions seeded
    /// into the universe, after those occurring in `f`. The verifier uses
    /// this to reason about checks the optimizer deleted (they appear in
    /// the justification log and the reference program but not in the
    /// optimized function). Only checks not seen before are cloned.
    pub fn build_with_extra_ctx<'c>(
        f: &Function,
        mode: ImplicationMode,
        extra: impl IntoIterator<Item = &'c CheckExpr>,
        ctx: &mut PassContext,
    ) -> Universe {
        let mut checks: Vec<CheckExpr> = Vec::new();
        let mut id_of: FxHashMap<CheckExpr, usize> = FxHashMap::default();
        let mut intern = |c: &CheckExpr| {
            if !id_of.contains_key(c) {
                id_of.insert(c.clone(), checks.len());
                checks.push(c.clone());
            }
        };
        for b in f.block_ids() {
            for s in &f.block(b).stmts {
                if let Stmt::Check(c) = s {
                    intern(&c.cond);
                }
            }
        }
        extra.into_iter().for_each(intern);
        let mut cig = Cig::new();
        let family_of: Vec<FamilyId> = checks.iter().map(|c| cig.family(c.family_key())).collect();
        if mode != ImplicationMode::None {
            let dom = ctx.dominators(f);
            let udefs = ctx.unique_defs(f);
            let fams: Vec<(FamilyId, nascent_ir::LinForm)> = family_of
                .iter()
                .zip(&checks)
                .map(|(fid, c)| (*fid, c.family_key().clone()))
                .collect();
            discover_affine_edges(f, &dom, &udefs, &mut cig, &fams);
        }
        let closure = cig.closure();

        let n = checks.len();
        let mut gen_avail = vec![BitSet::empty(n); n];
        let mut implied_by = vec![BitSet::empty(n); n];
        let mut gen_antic = vec![BitSet::empty(n); n];
        for c in 0..n {
            for (d, implied) in implied_by.iter_mut().enumerate() {
                if implies(mode, &closure, &checks, &family_of, c, d) {
                    gen_avail[c].insert(d);
                    implied.insert(c);
                }
                if implies_in_family(mode, &checks, &family_of, c, d) {
                    gen_antic[c].insert(d);
                }
            }
        }
        let mut kill_of: HashMap<VarId, BitSet> = HashMap::new();
        for (i, c) in checks.iter().enumerate() {
            for v in c.vars() {
                kill_of
                    .entry(v)
                    .or_insert_with(|| BitSet::empty(n))
                    .insert(i);
            }
        }
        Universe {
            checks,
            family_of,
            cig,
            closure,
            gen_avail,
            implied_by,
            gen_antic,
            kill_of,
            mode,
            id_of,
        }
    }

    /// Universe size.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// True if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// Universe id of a check, if present.
    pub fn id(&self, c: &CheckExpr) -> Option<usize> {
        self.id_of.get(c).copied()
    }

    /// Does performing `c` imply `d` under this universe's mode?
    /// `None` when either check is outside the universe.
    pub fn implies_checks(&self, c: &CheckExpr, d: &CheckExpr) -> Option<bool> {
        let (ci, di) = (self.id(c)?, self.id(d)?);
        Some(self.gen_avail[ci].contains(di))
    }
}

/// Does performing `c` imply `d` under the mode's availability rules?
fn implies(
    mode: ImplicationMode,
    closure: &CigClosure,
    checks: &[CheckExpr],
    family_of: &[FamilyId],
    c: usize,
    d: usize,
) -> bool {
    if c == d {
        return true;
    }
    let (fc, fd) = (family_of[c], family_of[d]);
    match mode {
        ImplicationMode::None => false,
        ImplicationMode::All => match closure.weight(fc, fd) {
            Some(w) => checks[c].bound().saturating_add(w) <= checks[d].bound(),
            None => false,
        },
        ImplicationMode::CrossFamilyOnly => {
            if fc == fd {
                false // identical checks handled by c == d above
            } else {
                match closure.weight(fc, fd) {
                    Some(w) => checks[c].bound().saturating_add(w) <= checks[d].bound(),
                    None => false,
                }
            }
        }
    }
}

/// Within-family implication used by anticipatability (§3.2: "a range
/// check statement generates a check C and all weaker checks that are in
/// the family of C").
fn implies_in_family(
    mode: ImplicationMode,
    checks: &[CheckExpr],
    family_of: &[FamilyId],
    c: usize,
    d: usize,
) -> bool {
    if c == d {
        return true;
    }
    mode == ImplicationMode::All
        && family_of[c] == family_of[d]
        && checks[c].bound() <= checks[d].bound()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_frontend::compile;

    fn universe(src: &str, mode: ImplicationMode) -> (Function, Universe) {
        let p = compile(src).unwrap();
        let f = p.main_function().clone();
        let u = Universe::build(&f, mode);
        (f, u)
    }

    /// Figure 1(a): A[2*N] and A[2*N-1] against integer A(5:10).
    const FIG1: &str = "program fig1
 integer a(5:10)
 integer n
 n = 4
 a(2*n) = 0
 a(2*n - 1) = 1
end
";

    #[test]
    fn figure1_universe_has_two_families_four_checks() {
        let (_, u) = universe(FIG1, ImplicationMode::All);
        assert_eq!(u.len(), 4);
        // two families: {2n} uppers and {-2n} lowers
        let mut fams: Vec<FamilyId> = u.family_of.clone();
        fams.sort();
        fams.dedup();
        assert_eq!(fams.len(), 2);
    }

    #[test]
    fn figure1_implication_structure() {
        let (_, u) = universe(FIG1, ImplicationMode::All);
        // find C2 = (2n <= 10) and C4 = (2n <= 11)
        let c2 = u
            .checks
            .iter()
            .position(|c| c.bound() == 10)
            .expect("C2 present");
        let c4 = u
            .checks
            .iter()
            .position(|c| c.bound() == 11)
            .expect("C4 present");
        assert!(u.gen_avail[c2].contains(c4), "C2 implies C4");
        assert!(!u.gen_avail[c4].contains(c2));
        assert!(u.implied_by[c4].contains(c2));
        // lower checks: C1 = (-2n <= -5), C3 = (-2n <= -6)
        let c1 = u.checks.iter().position(|c| c.bound() == -5).unwrap();
        let c3 = u.checks.iter().position(|c| c.bound() == -6).unwrap();
        assert!(u.gen_avail[c3].contains(c1), "C3 implies C1");
        assert!(u.gen_antic[c3].contains(c1), "antic gen stays in family");
    }

    #[test]
    fn mode_none_has_identity_implications_only() {
        let (_, u) = universe(FIG1, ImplicationMode::None);
        for c in 0..u.len() {
            assert_eq!(u.gen_avail[c].iter().collect::<Vec<_>>(), vec![c]);
            assert_eq!(u.gen_antic[c].iter().collect::<Vec<_>>(), vec![c]);
        }
    }

    #[test]
    fn mode_cross_family_only_drops_family_ordering() {
        let (_, u) = universe(FIG1, ImplicationMode::CrossFamilyOnly);
        let c2 = u.checks.iter().position(|c| c.bound() == 10).unwrap();
        let c4 = u.checks.iter().position(|c| c.bound() == 11).unwrap();
        assert!(!u.gen_avail[c2].contains(c4));
        assert!(u.gen_avail[c2].contains(c2));
    }

    #[test]
    fn kill_masks_cover_form_variables() {
        let (_, u) = universe(FIG1, ImplicationMode::All);
        let kills = &u.kill_of[&VarId(0)]; // n
        assert_eq!(kills.count(), 4); // every check mentions n
    }

    #[test]
    fn duplicate_checks_share_an_id() {
        let (_, u) = universe(
            "program p\n integer a(1:10)\n integer i\n i = 1\n a(i) = 0\n a(i) = 1\nend\n",
            ImplicationMode::All,
        );
        assert_eq!(u.len(), 2); // lower + upper, each appearing twice
    }
}
