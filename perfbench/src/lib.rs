//! The repository benchmark for nascent-rc.
//!
//! Four seeded workloads drive the range-check pipeline through its
//! public layer entry points ([`plan`]); an untraced run measures the
//! end-to-end metrics and a traced run splits request time by layer
//! ([`layers`], [`run`]). `perfbench/README.md` describes the workloads,
//! the metrics and how to run it.

pub mod calib;
pub mod counts;
pub mod layers;
pub mod plan;
pub mod rng;
pub mod run;
pub mod service;
pub mod stats;
