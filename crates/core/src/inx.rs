//! INX checks: re-expressing range checks through defining (induction)
//! expressions (§2.3).
//!
//! The paper builds `INX-Checks` from the induction expressions that
//! SSA-based induction-variable analysis associates with subscripts, so
//! that derived induction variables (`j = i + 1`, `k = i + 3`) land in the
//! *same* family as their base variable and invariant subscripts are
//! recognized even when assigned inside the loop.
//!
//! We realize this as a sound forward-substitution rewrite of each check's
//! range expression:
//!
//! * **same-block**: if the reaching definition of a variable `v` in the
//!   check is an assignment in the same block and none of the definition's
//!   right-hand-side variables are redefined in between, substitute;
//! * **global**: if `v` has a unique static definition that dominates the
//!   check, and the definition's right-hand-side variables are themselves
//!   stable (never defined, or uniquely defined dominating it),
//!   substitute.
//!
//! Substitution is repeated to a fixpoint, chasing chains like
//! `j = i + 1; k = j + 2`. Basic induction variables are untouched (their
//! definitions are cyclic, hence not unique-dominating), so checks end up
//! expressed in base IVs and loop invariants — the INX effect. The checks
//! stay at their original sites, so trap timing is unchanged.

use std::collections::HashMap;

use nascent_analysis::context::{Invalidation, PassContext};
use nascent_ir::{BlockId, CheckExpr, Function, LinForm, Stmt, VarId};

/// Rewrites every check's range expression through defining expressions.
/// Returns the number of substitutions applied.
pub fn rewrite_checks(f: &mut Function) -> usize {
    rewrite_checks_ctx(f, &mut PassContext::new())
}

/// [`rewrite_checks`] over a shared [`PassContext`].
pub fn rewrite_checks_ctx(f: &mut Function, ctx: &mut PassContext) -> usize {
    let dom = ctx.dominators(f);
    let udefs = ctx.unique_defs(f);
    let mut def_count: HashMap<VarId, usize> = HashMap::new();
    for b in f.block_ids() {
        for s in &f.block(b).stmts {
            if let Some(v) = s.defined_var() {
                *def_count.entry(v).or_insert(0) += 1;
            }
        }
    }
    let mut params_defined: Vec<VarId> = Vec::new();
    for p in &f.params {
        if let nascent_ir::Param::Scalar(v) = p {
            params_defined.push(*v);
        }
    }
    // a variable is "stable" if its value can never change after its
    // unique def: never textually defined and not a parameter being
    // reassigned (parameters without textual defs are stable too)
    let stable_from = |v: VarId, site_block: BlockId, site_stmt: usize| -> bool {
        match def_count.get(&v) {
            None => true, // never defined: constant zero or parameter
            Some(1) => udefs.get(&v).is_some_and(|d| {
                d.block != site_block && dom.dominates(d.block, site_block)
                    || (d.block == site_block && d.stmt < site_stmt)
            }),
            _ => false,
        }
    };

    let mut applied = 0;
    // `last_def[v]`: the block and index of the last definition of `v`
    // seen so far on the forward walk; only an entry of the current block
    // is a same-block reaching definition. Checks define nothing, so
    // rewriting one leaves the table valid.
    let mut last_def: Vec<Option<(BlockId, usize)>> = vec![None; f.vars.len()];
    for b in f.block_ids().collect::<Vec<_>>() {
        let def_in_block = |last_def: &[Option<(BlockId, usize)>], v: VarId| {
            last_def
                .get(v.index())
                .copied()
                .flatten()
                .and_then(|(db, i)| (db == b).then_some(i))
        };
        for i in 0..f.block(b).stmts.len() {
            for _round in 0..8 {
                let Stmt::Check(c) = &f.block(b).stmts[i] else {
                    break;
                };
                let mut replaced = false;
                let form = c.cond.form().clone();
                for v in form.vars() {
                    // same-block reaching definition
                    let subst: Option<LinForm> = if let Some(d) = def_in_block(&last_def, v) {
                        let rhs = match &f.block(b).stmts[d] {
                            Stmt::Assign { value, .. } => Some(LinForm::from_expr(value)),
                            _ => None,
                        };
                        // no variable of the rhs is redefined between the
                        // definition and the check
                        rhs.filter(|r| {
                            r.vars()
                                .iter()
                                .all(|w| def_in_block(&last_def, *w).is_none_or(|e| e <= d))
                        })
                    } else if let Some(site) = udefs.get(&v) {
                        // global unique def dominating the check
                        let dominates = site.block != b && dom.dominates(site.block, b);
                        if dominates {
                            site.rhs.as_ref().map(LinForm::from_expr).filter(|r| {
                                r.vars()
                                    .iter()
                                    .all(|w| stable_from(*w, site.block, site.stmt))
                            })
                        } else {
                            None
                        }
                    } else {
                        None
                    };
                    let Some(r) = subst else { continue };
                    // avoid self-substitution loops (v on its own rhs)
                    if r.uses_var(v) {
                        continue;
                    }
                    if let Some(new_form) = c.cond.form().substitute_var(v, &r) {
                        let new_cond = CheckExpr::new(new_form, c.cond.bound());
                        if let Stmt::Check(c) = &mut f.block_mut(b).stmts[i] {
                            c.cond = new_cond;
                        }
                        applied += 1;
                        replaced = true;
                        break;
                    }
                }
                if !replaced {
                    break;
                }
            }
            if let Some(v) = f.block(b).stmts[i].defined_var() {
                if v.index() >= last_def.len() {
                    last_def.resize(v.index() + 1, None);
                }
                last_def[v.index()] = Some((b, i));
            }
        }
    }
    if applied > 0 {
        ctx.invalidate(Invalidation::Statements);
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_frontend::compile;
    use nascent_ir::pretty::checks_to_strings;

    #[test]
    fn same_block_definition_substituted() {
        // j = i + 1 then a(j): checks become checks on i
        let mut p = compile(
            "program p\n integer a(1:10)\n integer i, j\n i = 1\n j = i + 1\n a(j) = 0\nend\n",
        )
        .unwrap();
        let n = rewrite_checks(&mut p.functions[0]);
        assert!(n > 0);
        let checks = checks_to_strings(&p.functions[0]);
        // after substituting j = i+1 and then i = 1, checks are constant
        assert!(checks.iter().all(|(_, s)| !s.contains('j')));
    }

    #[test]
    fn derived_ivs_unify_into_base_family() {
        let mut p = compile(
            "program p
 integer a(1:10), b(1:12)
 integer i, j, k
 do i = 1, 9
  j = i + 1
  k = i + 3
  a(j) = 0
  b(k) = 0
 enddo
end
",
        )
        .unwrap();
        rewrite_checks(&mut p.functions[0]);
        let u = crate::universe::Universe::build(&p.functions[0], crate::ImplicationMode::All);
        // all four upper/lower checks now mention only i: two families
        let mut fams: Vec<_> = u.family_of.clone();
        fams.sort();
        fams.dedup();
        assert_eq!(fams.len(), 2, "checks unified into {{i}} and {{-i}}");
    }

    #[test]
    fn loop_iv_is_not_substituted() {
        let mut p = compile(
            "program p\n integer a(1:10)\n integer i\n do i = 1, 9\n a(i) = 0\n enddo\nend\n",
        )
        .unwrap();
        let n = rewrite_checks(&mut p.functions[0]);
        assert_eq!(n, 0);
    }

    #[test]
    fn intervening_redefinition_blocks_substitution() {
        let mut p = compile(
            "program p\n integer a(1:10)\n integer i, j\n i = 1\n j = i + 1\n i = 9\n a(j) = 0\nend\n",
        )
        .unwrap();
        // j's def rhs uses i which is redefined before the check: the
        // same-block rule must refuse (j = i+1 at check time means old i)
        let before = checks_to_strings(&p.functions[0]);
        rewrite_checks(&mut p.functions[0]);
        let after = checks_to_strings(&p.functions[0]);
        assert_eq!(before, after);
    }

    #[test]
    fn rewriting_preserves_execution() {
        use nascent_interp::{run, Limits};
        let src = "program p
 integer a(1:10)
 integer i, j, s
 s = 0
 do i = 1, 8
  j = i + 2
  a(j) = j
  s = s + a(j)
 enddo
 print s
end
";
        let naive = run(&compile(src).unwrap(), &Limits::default()).unwrap();
        let mut p = compile(src).unwrap();
        rewrite_checks(&mut p.functions[0]);
        nascent_ir::validate::assert_valid(&p);
        let rewritten = run(&p, &Limits::default()).unwrap();
        assert_eq!(naive.output, rewritten.output);
        assert_eq!(naive.dynamic_checks, rewritten.dynamic_checks);
        assert_eq!(naive.trap, rewritten.trap);
    }

    #[test]
    fn invariant_exposed_inside_loop() {
        // k = n * 2 assigned inside the loop: PRX checks on k are killed
        // each iteration; INX rewriting exposes the invariant form 2n
        let mut p = compile(
            "program p
 integer a(1:100)
 integer i, k, n
 n = 10
 do i = 1, 5
  k = n * 2
  a(k) = i
 enddo
end
",
        )
        .unwrap();
        rewrite_checks(&mut p.functions[0]);
        let checks = checks_to_strings(&p.functions[0]);
        // the checks no longer mention k (VarId 1): substitution chases
        // k -> 2n and then n -> 10, leaving constant checks that step 5
        // folds away entirely
        assert!(checks.iter().all(|(_, s)| !s.contains("v1")));
        let mut f = p.functions[0].clone();
        let (t, fa) = crate::fold::fold_constant_checks(&mut f);
        assert_eq!((t, fa), (2, 0));
    }
}
