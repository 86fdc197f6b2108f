//! The counters the benchmark reads from one outcome.

use nascent_driver::json::Json;
use nascent_driver::Outcome;

/// Counters of one outcome, from the struct or from its JSON rendering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Dynamic checks of the naive run.
    pub naive_checks: u64,
    /// Dynamic steps (instructions + checks) of the naive run.
    pub naive_steps: u64,
    /// Dynamic checks of the optimized run.
    pub residual_checks: u64,
    /// Dynamic guard ops of the optimized run.
    pub guard_ops: u64,
    /// Dynamic steps (instructions + checks + guard ops) of the optimized
    /// run.
    pub opt_steps: u64,
    /// Static checks before optimization.
    pub static_before: u64,
    /// Static checks after optimization.
    pub static_after: u64,
    /// Checks hoisted into preheaders.
    pub hoisted: u64,
    /// Checks the discharge tier deleted.
    pub discharged: u64,
    /// Data-flow worklist iterations.
    pub dataflow_iterations: u64,
    /// Certifier obligations.
    pub obligations: u64,
    /// `Discharged` events the certifier examined.
    pub discharge_events: u64,
    /// `Discharged` events the certifier rejected.
    pub rejected: u64,
}

impl Counts {
    /// The counters of an outcome.
    pub fn of_outcome(o: &Outcome) -> Counts {
        let c = &o.counters;
        let cert = o.certificate.as_ref();
        Counts {
            naive_checks: c.naive_checks,
            naive_steps: c.naive_instructions + c.naive_checks,
            residual_checks: c.dynamic_checks,
            guard_ops: c.dynamic_guard_ops,
            opt_steps: c.dynamic_instructions + c.dynamic_checks + c.dynamic_guard_ops,
            static_before: o.stats.static_before as u64,
            static_after: o.stats.static_after as u64,
            hoisted: o.stats.hoisted as u64,
            discharged: o.stats.discharged as u64,
            dataflow_iterations: o.stats.dataflow_iterations,
            obligations: cert.map_or(0, |c| c.obligations as u64),
            discharge_events: cert.map_or(0, |c| c.discharge_events as u64),
            rejected: cert.map_or(0, |c| c.discharge_rejected as u64),
        }
    }

    /// The counters of an outcome's `deterministic_json` rendering, as
    /// the service answers it.
    pub fn of_json(result: &Json) -> Counts {
        let int = |v: Option<&Json>| v.and_then(Json::as_i64).unwrap_or(0) as u64;
        let c = |k: &str| int(result.get("counters").and_then(|c| c.get(k)));
        let s = |k: &str| int(result.get("stats").and_then(|s| s.get(k)));
        let cert = |k: &str| int(result.get("certificate").and_then(|s| s.get(k)));
        Counts {
            naive_checks: c("naive_checks"),
            naive_steps: c("naive_instructions") + c("naive_checks"),
            residual_checks: c("dynamic_checks"),
            guard_ops: c("dynamic_guard_ops"),
            opt_steps: c("dynamic_instructions") + c("dynamic_checks") + c("dynamic_guard_ops"),
            static_before: s("static_before"),
            static_after: s("static_after"),
            hoisted: s("hoisted"),
            discharged: s("discharged"),
            dataflow_iterations: s("dataflow_iterations"),
            obligations: cert("obligations"),
            discharge_events: cert("discharge_events"),
            rejected: cert("discharge_rejected"),
        }
    }

    /// Adds another outcome's counters.
    pub fn add(&mut self, o: &Counts) {
        self.naive_checks += o.naive_checks;
        self.naive_steps += o.naive_steps;
        self.residual_checks += o.residual_checks;
        self.guard_ops += o.guard_ops;
        self.opt_steps += o.opt_steps;
        self.static_before += o.static_before;
        self.static_after += o.static_after;
        self.hoisted += o.hoisted;
        self.discharged += o.discharged;
        self.dataflow_iterations += o.dataflow_iterations;
        self.obligations += o.obligations;
        self.discharge_events += o.discharge_events;
        self.rejected += o.rejected;
    }
}
