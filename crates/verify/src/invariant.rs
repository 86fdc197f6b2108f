//! The checker for value-range invariants.
//!
//! The certifier does not trust the value-range fixpoint
//! ([`nascent_analysis::vra`]). It treats the result — the entry state
//! of every block plus the per-array load summaries — as a claimed
//! invariant and accepts it only if:
//!
//! * the function entry state is top;
//! * on every edge p→s, the state transferred through block p (branch
//!   condition assumed, then the trip-count facts of s) entails the entry
//!   state of s;
//! * every load summary belongs to a private integer array and contains
//!   the initial 0;
//! * every store into such an array stays inside its summary.
//!
//! By induction over any execution, every state the program reaches is
//! then described by the invariant. The trusted base is the transfer
//! function ([`Env::step_with`], [`Env::assume_cond`]), the lattice order
//! ([`Env::entails`]) and the loop in [`check`]; widening, worklist order
//! and the iteration cap are not part of it. The walk that checks the
//! edges also records, per statement, whether its state proves the check
//! there or makes the trap unreachable, and the certifier reads its
//! value-range facts only from that table.

use nascent_analysis::vra::{private_int_arrays, Env, Interval, TripFacts, Vra};
use nascent_ir::{ArrayId, BlockId, Function, LinForm, Stmt, Terminator};

use crate::validate::is_item;
use crate::Diagnostic;

/// What an accepted invariant proves, per block and statement.
#[derive(Debug, Default)]
pub struct Proved(Vec<Vec<bool>>);

impl Proved {
    /// Whether statement `stmt` of block `b` is a check that always holds
    /// there, or an unreachable trap. Always false for [`Proved::default`],
    /// the facts of a rejected invariant.
    pub fn at(&self, b: BlockId, stmt: usize) -> bool {
        self.0
            .get(b.index())
            .and_then(|row| row.get(stmt))
            .copied()
            .unwrap_or(false)
    }
}

/// Checks `vra` as an invariant of `f`, given the trip-count facts of
/// `f`'s own loop forest. The error names the entry block, the edge, or
/// the array whose obligation fails.
pub fn check(f: &Function, vra: &Vra, trips: &TripFacts) -> Result<Proved, Diagnostic> {
    let reject = |block: BlockId, gap: usize, reason: String| Diagnostic {
        check: "<value-range invariant>".into(),
        block,
        gap,
        reason,
    };
    let name = |a: &ArrayId| f.arrays.get(a.index()).map_or("?", |x| x.name.as_str());
    if !Env::top().entails(&vra.entry[f.entry.index()]) {
        return Err(reject(
            f.entry,
            0,
            format!("entry state of b{} is not top", f.entry.index()),
        ));
    }
    let private = private_int_arrays(f);
    for (a, sum) in &vra.load_ranges {
        if !private.contains(a) {
            return Err(reject(
                f.entry,
                0,
                format!(
                    "load summary for `{}`, not a private integer array",
                    name(a)
                ),
            ));
        }
        if !sum.contains(0) {
            return Err(reject(
                f.entry,
                0,
                format!("load summary for `{}` excludes its initial 0", name(a)),
            ));
        }
    }

    let mut proved = Vec::with_capacity(f.blocks.len());
    for b in f.block_ids() {
        let stmts = &f.block(b).stmts;
        let mut env = vra.entry[b.index()].clone();
        let mut row = Vec::with_capacity(stmts.len());
        let mut gap = 0;
        for s in stmts {
            row.push(match s {
                Stmt::Check(c) => env.verdict(&c.cond) == Some(true),
                Stmt::Trap { .. } => env.bottom,
                _ => false,
            });
            if let Stmt::Store { array, value, .. } = s {
                let leaves =
                    |sum: &Interval| sum.join(env.range(&LinForm::from_expr(value))) != *sum;
                if !env.bottom && vra.load_ranges.get(array).is_some_and(leaves) {
                    return Err(reject(
                        b,
                        gap,
                        format!("store into `{}` leaves its load summary", name(array)),
                    ));
                }
            }
            if !is_item(s) {
                gap += 1;
            }
            env.step_with(s, &vra.load_ranges);
        }
        proved.push(row);

        let edges = match &f.block(b).term {
            Terminator::Jump(t) => vec![(*t, env)],
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let mut taken = env.clone();
                taken.assume_cond(cond, true);
                env.assume_cond(cond, false);
                vec![(*then_bb, taken), (*else_bb, env)]
            }
            Terminator::Return => vec![],
        };
        for (succ, mut out) in edges {
            for (form, bound) in trips.get(&succ).map_or(&[][..], Vec::as_slice) {
                out.assume_le(form, *bound);
            }
            if !out.entails(&vra.entry[succ.index()]) {
                return Err(reject(
                    b,
                    gap,
                    format!(
                        "edge b{} -> b{} does not entail the entry state of b{}",
                        b.index(),
                        succ.index(),
                        succ.index()
                    ),
                ));
            }
        }
    }
    Ok(Proved(proved))
}
