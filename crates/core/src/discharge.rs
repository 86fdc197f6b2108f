//! Static discharge: delete checks the value-range analysis proves safe.
//!
//! The paper's placement schemes decide *where* checks run; this pre-pass
//! decides which checks need to exist at all. It runs once per function,
//! after the (optional) induction-expression rewrite and before any
//! scheme, so every downstream dataflow system sees a smaller check
//! universe. A check `form <= bound` is deleted when the optimizer-side
//! value-range analysis ([`nascent_analysis::vra`]) proves it always true
//! at its site — from constants, branch conditions, loop trip counts, or
//! per-array range summaries (the subscripted-subscript case).
//!
//! Every deletion is recorded as an [`Event::Discharged`] justification.
//! During `--certify` the certifier runs the same analysis on the
//! reference function, checks its result as an inductive invariant, and
//! re-proves each event from the checked states, so an unsound fixpoint
//! or a tampered discharge is rejected by name — the pass is
//! translation-validated, not trusted.
//!
//! Only *unconditional* checks are discharged: a guarded `Cond-check`'s
//! condition holds under its guards, which the per-point environment does
//! not assume. Deleting a true check cannot change concrete behavior
//! (it traps exactly never), so the analysis environments computed on the
//! pre-deletion function remain sound while the pass walks it.

use nascent_analysis::context::PassContext;
use nascent_ir::{Function, Stmt};

use crate::justify::{DischargeReason, Event, JustLog};

/// Deletes every unconditional check the value-range analysis proves
/// always true, logging one [`Event::Discharged`] per deletion. Returns
/// the number of checks deleted. The caller invalidates the statement
/// tier when the count is non-zero.
pub fn discharge_checks_ctx(f: &mut Function, log: &mut JustLog, ctx: &mut PassContext) -> usize {
    let vra = ctx.vra(f);
    let mut discharged = 0;
    for b in f.block_ids() {
        // replay the block's transfer function once, marking deletions
        let mut env = vra.entry[b.index()].clone();
        let mut keep = vec![true; f.block(b).stmts.len()];
        for (i, s) in f.block(b).stmts.iter().enumerate() {
            if let Stmt::Check(c) = s {
                if c.is_unconditional() && env.verdict(&c.cond) == Some(true) {
                    let reason = if env.bottom {
                        DischargeReason::Unreachable
                    } else if c.cond.constant_verdict() == Some(true) {
                        DischargeReason::Constant
                    } else {
                        DischargeReason::Range
                    };
                    if nascent_obs::trace::enabled() {
                        nascent_obs::trace::instant(
                            "discharged",
                            "event",
                            vec![
                                ("block", b.index().into()),
                                ("check", c.cond.to_string().into()),
                                (
                                    "reason",
                                    match reason {
                                        DischargeReason::Unreachable => "unreachable",
                                        DischargeReason::Constant => "constant",
                                        DischargeReason::Range => "range",
                                    }
                                    .into(),
                                ),
                            ],
                        );
                    }
                    log.push(Event::Discharged {
                        block: b,
                        check: c.cond.clone(),
                        reason,
                    });
                    keep[i] = false;
                    discharged += 1;
                }
            }
            // step over every statement, deleted checks included: the
            // certifier replays its analysis on the *reference* function,
            // where the check still exists (a true check's assume is a
            // no-op on the abstract state anyway)
            env.step_with(s, &vra.load_ranges);
        }
        if keep.iter().any(|k| !k) {
            let mut it = keep.iter();
            f.block_mut(b).stmts.retain(|_| *it.next().unwrap());
        }
    }
    discharged
}
