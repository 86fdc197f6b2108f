//! Lightweight reaching-definition helpers.
//!
//! [`unique_defs`] is the table of variables with exactly one static
//! definition in a function. A unique definition that dominates a use
//! site is *the* reaching definition there; the check implication graph
//! uses this to discover global affine relations (`x = y + c`), and the
//! induction-expression rewriting uses it to express checks in terms of
//! defining expressions.

use std::collections::HashMap;

use nascent_ir::{BlockId, Expr, Function, Stmt, VarId};

/// Location and kind of a variable's single static definition.
#[derive(Debug, Clone, PartialEq)]
pub struct DefSite {
    /// Block containing the definition.
    pub block: BlockId,
    /// Statement index within the block.
    pub stmt: usize,
    /// Right-hand side, when the definition is a plain assignment
    /// (`None` for `Load` definitions).
    pub rhs: Option<Expr>,
}

/// Map from variable to its unique definition site.
pub type UniqueDefs = HashMap<VarId, DefSite>;

/// Computes the variables of `f` that have exactly one static definition,
/// with that definition's site and right-hand side.
///
/// Parameters are treated as defined at entry, so a parameter with any
/// textual definition is excluded.
pub fn unique_defs(f: &Function) -> UniqueDefs {
    let mut count: HashMap<VarId, usize> = HashMap::new();
    let mut site: UniqueDefs = HashMap::new();
    for b in f.block_ids() {
        for (i, s) in f.block(b).stmts.iter().enumerate() {
            if let Some(v) = s.defined_var() {
                *count.entry(v).or_insert(0) += 1;
                let rhs = match s {
                    Stmt::Assign { value, .. } => Some(value.clone()),
                    _ => None,
                };
                site.insert(
                    v,
                    DefSite {
                        block: b,
                        stmt: i,
                        rhs,
                    },
                );
            }
        }
    }
    for p in &f.params {
        if let nascent_ir::Param::Scalar(v) = p {
            count.entry(*v).and_modify(|c| *c += 1);
        }
    }
    site.retain(|v, _| count.get(v) == Some(&1));
    site
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_frontend::compile;

    #[test]
    fn unique_defs_found_and_multi_defs_excluded() {
        let p = compile(
            "program p\n integer x, y, c\n c = 1\n x = c + 4\n if (c > 0) then\n y = 1\n else\n y = 2\n endif\n print x + y\nend\n",
        )
        .unwrap();
        let f = p.main_function();
        let defs = unique_defs(f);
        // x (VarId 0) and c (VarId 2) are uniquely defined; y (VarId 1) not
        assert!(defs.contains_key(&VarId(0)));
        assert!(defs.contains_key(&VarId(2)));
        assert!(!defs.contains_key(&VarId(1)));
        let x = &defs[&VarId(0)];
        assert!(x.rhs.is_some());
    }

    #[test]
    fn parameters_with_defs_are_excluded() {
        let p =
            compile("subroutine s(n)\n integer n, m\n m = n\nend\nprogram p\n call s(1)\nend\n")
                .unwrap();
        let s = &p.functions[0];
        let defs = unique_defs(s);
        // m has one def; n is a parameter with zero textual defs so it is
        // not in the table at all
        assert!(defs.contains_key(&VarId(1)));
        assert!(!defs.contains_key(&VarId(0)));
    }
}
