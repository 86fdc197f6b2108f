//! Program analyses for the `nascent-rc` range-check optimizer:
//!
//! * [`dom`] — dominator trees and dominance frontiers
//!   (Cooper–Harvey–Kennedy),
//! * [`loops`] — natural-loop forest, preheader insertion, loop-invariance
//!   and basic-induction-variable descriptors (init / step / body-valid
//!   bounds) used by the paper's preheader insertion schemes,
//! * [`dataflow`] — a generic worklist solver for forward/backward
//!   problems, instantiated by the optimizer's availability and
//!   anticipatability systems,
//! * [`reach`] — unique static definitions, used by induction
//!   expression construction and the check implication graph,
//! * [`ssa`] — SSA overlay construction (Cytron et al. phi placement plus
//!   renaming) kept as a side structure over the unchanged IR,
//! * [`induction`] — SSA-based induction-variable classification
//!   (invariant / basic / linear / polynomial, Gerlek–Stoltz–Wolfe style),
//!   reproducing the paper's Figure 2,
//! * [`vra`] — symbolic value-range analysis (intervals + symbolic
//!   bounds + per-array range summaries) backing the static-discharge
//!   tier. It is the only value-range analysis: the certifier in
//!   `nascent-verify` runs it too, and checks each result as an inductive
//!   invariant before using it,
//! * [`wto`] — Bourdoncle's weak topological order of a CFG, the order in
//!   which the value-range fixpoint visits blocks and the heads at which
//!   it widens.

pub mod context;
pub mod dataflow;
pub mod dom;
pub mod induction;
pub mod loops;
pub mod reach;
pub mod ssa;
pub mod vra;
pub mod wto;

pub use context::{
    cfg_fingerprint, AnalysisStat, InductionClasses, Invalidation, PassContext, PassStat, Timings,
};
pub use dataflow::{solve, solve_from, Direction, Problem, Solution};
pub use dom::{Dominators, PostDominators};
pub use induction::{classify_function, InductionAnalysis, InductionClass};
pub use loops::{insert_preheaders, insert_preheaders_with, LoopForest, LoopId, LoopInfo, LoopIv};
pub use reach::{unique_defs, DefSite, UniqueDefs};
pub use ssa::Ssa;
