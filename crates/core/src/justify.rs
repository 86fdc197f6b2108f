//! Justification log: one structured event per optimization decision.
//!
//! Every pass that adds, removes, rewrites or hoists a check records *why*
//! the transformation is safe, in terms a verifier can re-check from
//! scratch against the final CFG (see `nascent-verify`): an elimination
//! names the available check that implies the victim, a strengthening
//! names the anticipated stronger bound, a hoist names its preheader,
//! guards and substituted condition, and so on. The log is advisory for
//! the optimizer — it changes no code — but it is the certificate the
//! translation-validation pass consumes.

use nascent_ir::{BlockId, Check, CheckExpr};

/// One optimization decision, with the facts that justify it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An (unconditional or conditional) check was deleted because
    /// `because` is available at its site and implies it.
    Eliminated {
        /// Block the check was deleted from.
        block: BlockId,
        /// The deleted check's condition.
        check: CheckExpr,
        /// An available check that implies it.
        because: CheckExpr,
    },
    /// A check's bound was replaced by a stronger anticipated bound (CS).
    Strengthened {
        /// Block of the rewritten check.
        block: BlockId,
        /// Condition before the rewrite.
        from: CheckExpr,
        /// Condition after the rewrite (same family, smaller bound).
        to: CheckExpr,
    },
    /// A conditional check was placed in a loop preheader (LI/LLS/MCM).
    Hoisted {
        /// The preheader that received the check.
        preheader: BlockId,
        /// Guards of the inserted `Cond-check` (empty when the loop's
        /// entry guard is a compile-time tautology).
        guards: Vec<CheckExpr>,
        /// The hoisted condition (invariant, or loop-limit substituted).
        cond: CheckExpr,
    },
    /// An in-loop check was deleted because a hoisted preheader check
    /// covers it.
    HoistCovered {
        /// Block the in-loop check was deleted from.
        block: BlockId,
        /// The deleted check's condition.
        check: CheckExpr,
        /// The preheader holding the covering hoisted check.
        preheader: BlockId,
        /// The covering hoisted condition.
        by: CheckExpr,
    },
    /// A guarded check moved from an inner-loop block to an outer
    /// preheader, with loop-limit temporaries normalized away.
    Rehoisted {
        /// The outer preheader that received the check.
        preheader: BlockId,
        /// Guards after normalization, outer entry guard appended.
        guards: Vec<CheckExpr>,
        /// Condition after normalization / substitution.
        cond: CheckExpr,
        /// Block the guarded check was taken from.
        from_block: BlockId,
        /// The guarded check as it appeared there.
        original: Check,
    },
    /// PRE placement (SE/LNI) inserted an unconditional check.
    Inserted {
        /// Block that received the check (possibly a fresh edge block).
        block: BlockId,
        /// The inserted condition.
        check: CheckExpr,
    },
    /// A check (or a conditional check's guard) was proven true at
    /// compile time and removed.
    FoldedTrue {
        /// Block the check was removed from.
        block: BlockId,
        /// The removed check's condition.
        check: CheckExpr,
    },
    /// A check was proven false at compile time and replaced by `TRAP`.
    FoldedFalse {
        /// Block of the new `TRAP`.
        block: BlockId,
        /// The condition proven false.
        check: CheckExpr,
    },
    /// The static-discharge pre-pass deleted an unconditional check the
    /// value-range analysis proved always true at its site. The verifier
    /// re-proves the verdict with its *own* value-range analysis; the
    /// recorded reason is advisory.
    Discharged {
        /// Block the check was deleted from.
        block: BlockId,
        /// The deleted check's condition.
        check: CheckExpr,
        /// Why the optimizer's analysis believed the check safe.
        reason: DischargeReason,
    },
}

/// Why the optimizer's value-range analysis discharged a check. Advisory
/// (untrusted): the certifier re-derives the verdict from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DischargeReason {
    /// The check site is statically unreachable.
    Unreachable,
    /// The check's condition folds to a true constant.
    Constant,
    /// Interval/symbolic range facts prove the condition.
    Range,
}

/// The justification log of one function's optimization run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JustLog {
    /// Events in the order the optimizer made the decisions.
    pub events: Vec<Event>,
}

impl JustLog {
    /// An empty log.
    pub fn new() -> JustLog {
        JustLog::default()
    }

    /// Records one event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Every check expression mentioned anywhere in the log, borrowed, in
    /// log order (used by the verifier to widen its check universe).
    pub fn mentioned_checks(&self) -> Vec<&CheckExpr> {
        let mut out = Vec::new();
        for e in &self.events {
            match e {
                Event::Eliminated { check, because, .. } => out.extend([check, because]),
                Event::Strengthened { from, to, .. } => out.extend([from, to]),
                Event::Hoisted { guards, cond, .. } => {
                    out.extend(guards);
                    out.push(cond);
                }
                Event::HoistCovered { check, by, .. } => out.extend([check, by]),
                Event::Rehoisted {
                    guards,
                    cond,
                    original,
                    ..
                } => {
                    out.extend(guards);
                    out.push(cond);
                    out.extend(&original.guards);
                    out.push(&original.cond);
                }
                Event::Inserted { check, .. }
                | Event::FoldedTrue { check, .. }
                | Event::FoldedFalse { check, .. }
                | Event::Discharged { check, .. } => out.push(check),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_ir::{Expr, VarId};

    #[test]
    fn mentioned_checks_cover_all_variants() {
        let c = |b: i64| CheckExpr::new(nascent_ir::LinForm::var(VarId(0)), b);
        let mut log = JustLog::new();
        log.push(Event::Eliminated {
            block: BlockId(0),
            check: c(1),
            because: c(0),
        });
        log.push(Event::Rehoisted {
            preheader: BlockId(1),
            guards: vec![c(2)],
            cond: c(3),
            from_block: BlockId(2),
            original: Check::conditional(vec![c(4)], c(5)),
        });
        let got = log.mentioned_checks();
        for b in 0..6 {
            assert!(got.contains(&&c(b)), "bound {b} mentioned");
        }
        let _ = Expr::int(0); // keep the import used under all features
    }
}
