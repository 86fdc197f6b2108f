//! Static safety certifier for the range-check optimizer.
//!
//! Two cooperating parts (see DESIGN.md §2 row 17):
//!
//! * [`invariant`] — the checker for value-range invariants: the one
//!   value-range analysis (`nascent_analysis::vra`) is run, and its
//!   result is used only after this small checker has verified it is
//!   inductive, so the fixpoint's widening and iteration cap are not
//!   trusted.
//! * [`validate`] — translation validation: independently re-checks the
//!   justification log emitted by `nascent_rangecheck::optimize_function`
//!   against the optimized CFG, using the checked value-range facts plus
//!   a from-scratch availability recomputation. Any uncovered obligation
//!   becomes a structured [`Diagnostic`] naming the check, the location,
//!   and the failed implication.

pub mod invariant;

mod validate;

pub use validate::{certify_function, certify_program, Certificate, Diagnostic};
