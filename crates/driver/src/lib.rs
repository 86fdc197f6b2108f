//! `nascent-driver` — the canonical pipeline layer.
//!
//! Every way of running the range-check pipeline (the `nascentc` CLI,
//! the `nascentd` service, the table binaries, the experiment harness,
//! the certification tests) used to carry its own copy of the same
//! glue: parse → INX/discharge → scheme placement → certify → measure.
//! This crate owns that glue exactly once:
//!
//! * [`RunConfig`] — the one run-configuration surface and flag parser
//!   ([`config`]),
//! * [`compute`] — a [`Request`] `{ program, config, mode }` →
//!   [`Outcome`] `{ stats, certificate, counters, timings }` function:
//!   parse, start the naive run, then optimize, certify (in
//!   [`Mode::Certify`]) and run one configuration while the naive run
//!   goes on beside it (a VM run on a helper thread, a native binary
//!   as a child process), and validate against the naive run; a
//!   certified request whose naive VM run was queued for a helper
//!   queues its optimized run too, before `certify`, so a free helper
//!   can run it beside the certifier; [`evaluate`] is the same against
//!   a given naive run, with the optimized run always on the caller,
//! * [`Pipeline`] — [`compute`] behind a fleet-wide result cache keyed
//!   by content hash of (source, config, mode) ([`cache`]) that holds
//!   at most [`cache::CAPACITY`] outcomes; concurrent identical
//!   requests coalesce onto one computation,
//! * [`harness`] — the experiment-matrix machinery (`prepare`, one cell
//!   function over [`evaluate`] behind `evaluate_prepared`,
//!   `certify_prepared` and `run_matrix`, the table configurations)
//!   that the `crates/bench` binaries import,
//! * [`service`] — the `nascentd` HTTP+JSON server: a bounded worker
//!   pool fed by one FIFO job queue that answers `503` when full, with
//!   deadline- and size-bounded request reads and per-request panic
//!   isolation, serving `/optimize`, `/certify`, `/healthz`, and
//!   `/metrics` (Prometheus text).
//!
//! The cache composes with the PR-2 invalidation tiers rather than
//! replacing them: a [`Pipeline`] hit short-circuits the whole request
//! on an exact content match, while inside a miss every optimizer pass
//! still runs against per-function `PassContext`s whose
//! `Statements`/`Cfg` tiers and CFG fingerprints keep the per-analysis
//! reuse sound.
//!
//! # Example
//!
//! ```
//! use nascent_driver::{Mode, Pipeline, Request, RunConfig};
//!
//! let pipeline = Pipeline::new();
//! let req = Request {
//!     program: "program p\n integer a(1:10)\n integer i\n do i = 1, 10\n a(i) = i\n enddo\n print a(5)\nend\n".into(),
//!     config: RunConfig::default(),
//!     mode: Mode::Certify,
//! };
//! let (out, _) = pipeline.run(&req);
//! let out = out.unwrap();
//! assert!(out.certificate.as_ref().unwrap().ok());
//! assert!(out.counters.dynamic_checks < out.counters.naive_checks);
//! // identical request: served from the fleet-wide cache
//! let (again, role) = pipeline.run(&req);
//! assert_eq!(role, nascent_obs::memo::Role::Hit);
//! assert!(std::sync::Arc::ptr_eq(&out, &again.unwrap()));
//! ```

pub mod cache;
pub mod config;
pub mod harness;
pub mod http;
pub mod json;
pub mod service;

use std::fmt;
use std::sync::Arc;

use nascent_frontend::compile;
use nascent_interp::{
    run_with_engine, start_with_engine, Engine, Limits, RunError, RunResult, StartedRun,
};
use nascent_ir::Program;
use nascent_obs::memo::{Memo, Role};
use nascent_rangecheck::{
    optimize_program_logged_timed, JustLog, OptimizeOptions, OptimizeStats, Timings,
};
use nascent_verify::{certify_program, Certificate};

pub use cache::CacheStats;
pub use config::{Mode, RunConfig};

/// One unit of work for the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// MiniF source text.
    pub program: String,
    /// Run configuration (scheme, kind, implications, discharge, engine,
    /// classic pre-pass, no-opt).
    pub config: RunConfig,
    /// Optimize only, or optimize + certify.
    pub mode: Mode,
}

/// Dynamic counters of the naive and optimized runs of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    /// Dynamic checks of the naive (unoptimized, checked) run.
    pub naive_checks: u64,
    /// Dynamic non-check instructions of the naive run.
    pub naive_instructions: u64,
    /// Dynamic checks of the optimized run.
    pub dynamic_checks: u64,
    /// Dynamic guard evaluations of the optimized run.
    pub dynamic_guard_ops: u64,
    /// Dynamic non-check instructions of the optimized run.
    pub dynamic_instructions: u64,
    /// Statement-progress counter of the optimized run.
    pub dynamic_progress: u64,
    /// % of dynamic checks eliminated relative to the naive run (0 when
    /// the naive run performs no checks).
    pub percent_eliminated: f64,
    /// Values emitted by `print`, rendered.
    pub output: Vec<String>,
    /// The trap that ended the optimized run, rendered, if any.
    pub trap: Option<String>,
}

/// Everything one pipeline run produces.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The configuration the outcome was computed under.
    pub config: RunConfig,
    /// The mode the outcome was computed under.
    pub mode: Mode,
    /// Optimizer statistics, summed across functions.
    pub stats: OptimizeStats,
    /// Certificate, present in [`Mode::Certify`].
    pub certificate: Option<Certificate>,
    /// Dynamic counters of the naive and optimized runs.
    pub counters: Counters,
    /// Per-analysis/per-pass wall-time counters (non-deterministic; kept
    /// out of [`Outcome::deterministic_json`]).
    pub timings: Timings,
    /// Per-stage wall time of the computation (non-deterministic; kept
    /// out of [`Outcome::deterministic_json`]).
    pub stages: StageNanos,
}

/// Wall time of each pipeline stage of one [`compute`] call, in
/// nanoseconds. Zero means the stage did not run (e.g. `certify_ns` in
/// [`Mode::Optimize`]). Non-deterministic by nature, so excluded from
/// [`Outcome::deterministic_json`]; the service feeds these into its
/// per-stage Prometheus histograms and `nascentc --trace` records the
/// same intervals as `stage`-category spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// MiniF source → IR.
    pub parse_ns: u64,
    /// Naive (unoptimized) measurement run: the time [`compute`] spent
    /// starting it (the VM's lowering included) and, for a VM run on a
    /// helper thread or a native run, collecting it — never the time
    /// the run went on beside the optimizer. A VM run that no helper
    /// started is taken back and runs inside the collection.
    pub naive_run_ns: u64,
    /// Classic pre-pass + range-check optimizer.
    pub optimize_ns: u64,
    /// Translation validation of the optimization run.
    pub certify_ns: u64,
    /// Optimized measurement run: the time [`compute`] spent running it
    /// or, for a run it queued beside `certify`, starting it (the VM's
    /// lowering included) and collecting it — like `naive_run_ns`, never
    /// the time the run went on beside the caller. A queued run that no
    /// helper started is taken back and runs inside the collection. The
    /// differential validation against the naive run follows the stages.
    pub execute_ns: u64,
}

impl StageNanos {
    /// `(stage name, nanoseconds)` for every stage, in pipeline order.
    pub fn each(&self) -> [(&'static str, u64); 5] {
        [
            ("parse", self.parse_ns),
            ("naive-run", self.naive_run_ns),
            ("optimize", self.optimize_ns),
            ("certify", self.certify_ns),
            ("execute", self.execute_ns),
        ]
    }

    /// Sum over all stages, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.each().iter().map(|(_, ns)| ns).sum()
    }
}

impl Outcome {
    /// The outcome as a deterministic JSON value: configuration echo,
    /// optimizer stats, dynamic counters, and the certificate, with the
    /// wall-time [`Timings`] deliberately excluded. Equal outcomes render
    /// to identical bytes, which is what makes service responses
    /// byte-comparable against the CLI path and against cached replays.
    pub fn deterministic_json(&self) -> json::Json {
        use json::{obj, Json};
        let stats = obj(vec![
            ("static_before", Json::Int(self.stats.static_before as i64)),
            ("static_after", Json::Int(self.stats.static_after as i64)),
            ("inserted", Json::Int(self.stats.inserted as i64)),
            ("hoisted", Json::Int(self.stats.hoisted as i64)),
            ("strengthened", Json::Int(self.stats.strengthened as i64)),
            (
                "eliminated_static",
                Json::Int(self.stats.eliminated_static as i64),
            ),
            ("discharged", Json::Int(self.stats.discharged as i64)),
            ("folded_true", Json::Int(self.stats.folded_true as i64)),
            ("folded_false", Json::Int(self.stats.folded_false as i64)),
            ("families", Json::Int(self.stats.families as i64)),
            ("cig_edges", Json::Int(self.stats.cig_edges as i64)),
            (
                "dataflow_iterations",
                Json::Int(self.stats.dataflow_iterations as i64),
            ),
        ]);
        let counters = obj(vec![
            ("naive_checks", Json::Int(self.counters.naive_checks as i64)),
            (
                "naive_instructions",
                Json::Int(self.counters.naive_instructions as i64),
            ),
            (
                "dynamic_checks",
                Json::Int(self.counters.dynamic_checks as i64),
            ),
            (
                "dynamic_guard_ops",
                Json::Int(self.counters.dynamic_guard_ops as i64),
            ),
            (
                "dynamic_instructions",
                Json::Int(self.counters.dynamic_instructions as i64),
            ),
            (
                "dynamic_progress",
                Json::Int(self.counters.dynamic_progress as i64),
            ),
            (
                "percent_eliminated",
                Json::Num(self.counters.percent_eliminated),
            ),
            (
                "output",
                Json::Arr(
                    self.counters
                        .output
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "trap",
                match &self.counters.trap {
                    Some(t) => Json::Str(t.clone()),
                    None => Json::Null,
                },
            ),
        ]);
        let certificate = match &self.certificate {
            None => Json::Null,
            Some(c) => obj(vec![
                ("ok", Json::Bool(c.ok())),
                ("obligations", Json::Int(c.obligations as i64)),
                ("discharged_by_log", Json::Int(c.discharged_by_log as i64)),
                ("vra_discharged", Json::Int(c.vra_discharged as i64)),
                ("discharge_events", Json::Int(c.discharge_events as i64)),
                ("discharge_rejected", Json::Int(c.discharge_rejected as i64)),
                (
                    "diagnostics",
                    Json::Arr(
                        c.diagnostics
                            .iter()
                            .map(|d| Json::Str(d.to_string()))
                            .collect(),
                    ),
                ),
            ]),
        };
        obj(vec![
            ("config", Json::Str(self.config.fingerprint())),
            ("mode", Json::Str(self.mode.name().into())),
            ("stats", stats),
            ("counters", counters),
            ("certificate", certificate),
        ])
    }
}

/// Why a request could not produce an [`Outcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The source did not compile. Client error.
    Compile(String),
    /// The naive or optimized program failed to run (step limit, call
    /// depth, division by zero, …).
    Run(String),
    /// The optimized run disagreed with the naive run — an optimizer bug
    /// surfaced by the pipeline's built-in differential validation.
    Divergence(String),
    /// The computation panicked (isolated; the panic payload follows).
    Panic(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile(m) => write!(f, "compile error: {m}"),
            PipelineError::Run(m) => write!(f, "run error: {m}"),
            PipelineError::Divergence(m) => write!(f, "divergence: {m}"),
            PipelineError::Panic(m) => write!(f, "panicked: {m}"),
        }
    }
}

impl PipelineError {
    /// True for errors the client caused (bad program), false for
    /// pipeline-side failures.
    pub fn is_client_error(&self) -> bool {
        matches!(self, PipelineError::Compile(_))
    }
}

/// Applies the classic pre-pass (when configured) and the range-check
/// optimizer to a compiled program — the in-place half of the pipeline,
/// shared by `nascentc dump`/`run`/`trace`/`compare`.
pub fn apply(config: &RunConfig, prog: &mut Program) -> OptimizeStats {
    if config.classic {
        for f in &mut prog.functions {
            nascent_classic::optimize_classic(f);
        }
    }
    if config.optimize {
        let (stats, _, _) = optimize_program_logged_timed(prog, &config.opts());
        stats
    } else {
        OptimizeStats::default()
    }
}

/// Applies the classic pre-pass, snapshots the reference program, runs
/// the logged optimizer, and certifies the run. The reference is taken
/// *after* the classic pre-pass: the certifier validates the range-check
/// optimization, not the scalar optimizations. This is the exact
/// `nascentc stats/report/verify` glue, owned here.
pub fn optimize_and_certify(
    config: &RunConfig,
    prog: &mut Program,
) -> (OptimizeStats, Certificate, Timings) {
    let mut stages = StageNanos::default();
    let (stats, uncertified, timings) = optimize_stage(config, Mode::Certify, prog, &mut stages);
    let cert = uncertified
        .expect("certify mode keeps a reference")
        .certify(config, prog, &mut stages);
    (stats, cert, timings)
}

/// The `optimize` stage: the classic pre-pass when configured, then the
/// logged optimizer, as an obs `stage` span whose wall time goes into
/// `stages`. In [`Mode::Certify`] it also returns what the `certify`
/// stage needs, with the reference snapshot taken after the pre-pass.
fn optimize_stage(
    config: &RunConfig,
    mode: Mode,
    prog: &mut Program,
    stages: &mut StageNanos,
) -> (OptimizeStats, Option<Uncertified>, Timings) {
    let sp = nascent_obs::trace::timed_span("optimize", "stage");
    if config.classic {
        for f in &mut prog.functions {
            nascent_classic::optimize_classic(f);
        }
    }
    let reference = (mode == Mode::Certify).then(|| prog.clone());
    let (stats, logs, timings) = optimize_with_log(prog, config, &config.opts());
    stages.optimize_ns = sp.finish().as_nanos() as u64;
    let uncertified = reference.map(|reference| Uncertified { reference, logs });
    (stats, uncertified, timings)
}

/// An optimization awaiting its `certify` stage: the program before it
/// and the optimizer's logs.
struct Uncertified {
    reference: Program,
    logs: Vec<JustLog>,
}

impl Uncertified {
    /// The `certify` stage: validates the optimized `prog` against the
    /// reference, as an obs `stage` span whose wall time goes into
    /// `stages`.
    fn certify(self, config: &RunConfig, prog: &Program, stages: &mut StageNanos) -> Certificate {
        let sp = nascent_obs::trace::timed_span("certify", "stage");
        let cert = certify_program(&self.reference, prog, &self.logs, &config.opts());
        stages.certify_ns = sp.finish().as_nanos() as u64;
        cert
    }
}

/// Compiles a source, optimizes it under `opts`, and certifies the run —
/// the glue the certification test suites share.
pub fn certify_source(src: &str, opts: &OptimizeOptions) -> Result<Certificate, String> {
    let naive = compile(src).map_err(|e| e.to_string())?;
    let mut opt = naive.clone();
    let (_, logs, _) = optimize_with_log(&mut opt, &RunConfig::from_opts(opts), opts);
    Ok(certify_program(&naive, &opt, &logs, opts))
}

fn optimize_with_log(
    prog: &mut Program,
    config: &RunConfig,
    opts: &OptimizeOptions,
) -> (OptimizeStats, Vec<JustLog>, Timings) {
    if config.optimize {
        optimize_program_logged_timed(prog, opts)
    } else {
        let logs = (0..prog.functions.len()).map(|_| JustLog::new()).collect();
        (OptimizeStats::default(), logs, Timings::default())
    }
}

fn render_trap(t: &nascent_interp::Trap) -> String {
    format!(
        "TRAP in {} at instruction {}: {}",
        t.function, t.at_instruction, t.check
    )
}

/// Validates the optimized run against the naive run: equal output and
/// no trap when the naive run is trap-free; a no-later trap (by the
/// statement-progress metric) with a consistent output prefix when the
/// naive run traps.
fn validate_runs(naive: &RunResult, opt: &RunResult) -> Result<(), PipelineError> {
    match (&naive.trap, &opt.trap) {
        (None, None) => {
            if opt.output != naive.output {
                return Err(PipelineError::Divergence("output changed".into()));
            }
            if opt.dynamic_progress != naive.dynamic_progress {
                return Err(PipelineError::Divergence(format!(
                    "non-check work changed: {} -> {}",
                    naive.dynamic_progress, opt.dynamic_progress
                )));
            }
            if opt.dynamic_checks > naive.dynamic_checks {
                return Err(PipelineError::Divergence(format!(
                    "dynamic checks increased: {} -> {}",
                    naive.dynamic_checks, opt.dynamic_checks
                )));
            }
            Ok(())
        }
        (Some(nt), Some(ot)) => {
            if ot.at_progress > nt.at_progress {
                return Err(PipelineError::Divergence(format!(
                    "optimized trap at progress {} later than naive trap at {}",
                    ot.at_progress, nt.at_progress
                )));
            }
            if !naive.output.starts_with(&opt.output) {
                return Err(PipelineError::Divergence(
                    "output before the trap diverged".into(),
                ));
            }
            Ok(())
        }
        (Some(_), None) => Err(PipelineError::Divergence(
            "naive run traps but the optimized run does not".into(),
        )),
        (None, Some(ot)) => Err(PipelineError::Divergence(format!(
            "optimizer introduced a trap: {}",
            render_trap(ot)
        ))),
    }
}

/// The canonical pipeline: compile, start the naive run, optimize,
/// certify and run the optimized program, then validate it against the
/// naive run.
///
/// The naive run starts right after parsing and is collected just before
/// the validation. The tree finishes it inside its first `naive-run`
/// stage. The VM lowers it there and queues it for a helper thread
/// (`nascent_interp::start_with_engine`), and a native binary is
/// spawned there; either runs on beside the optimizer and the optimized
/// run, and collecting it is a second `naive-run` stage after
/// `execute`. If no helper has started a queued VM run by then, the
/// collection runs it. On a host with one CPU there is no helper and
/// the VM finishes inside the first stage.
///
/// The optimized run follows `certify` on the caller, except in one
/// case. In [`Mode::Certify`], when the naive VM run was queued, the
/// optimized run is lowered and queued too, in an `execute` stage
/// before `certify`, and collected in a second `execute` stage after
/// it, so a free helper can run it while the certifier works; if no
/// helper has started it by then, the collection runs it.
/// [`Mode::Optimize`], the tree and native engines, a host with one CPU
/// and [`evaluate`] keep the optimized run on the caller.
///
/// A naive run that fails returns its `naive run: …` error in
/// preference to any later one.
///
/// This is the uncached single-request path; [`Pipeline::run`] adds the
/// fleet-wide cache and request coalescing on top.
pub fn compute(req: &Request, limits: &Limits) -> Result<Outcome, PipelineError> {
    let mut root = nascent_obs::trace::span("pipeline", "stage");
    root.attr("config", req.config.fingerprint());
    root.attr("mode", req.mode.name());

    let sp = nascent_obs::trace::timed_span("parse", "stage");
    let naive_prog = compile(&req.program).map_err(|e| PipelineError::Compile(e.to_string()))?;
    let parse_ns = sp.finish().as_nanos() as u64;

    let sp = nascent_obs::trace::timed_span("naive-run", "stage");
    let naive = start_with_engine(&naive_prog, limits, req.config.engine).map_err(naive_run)?;
    let mut naive_run_ns = sp.finish().as_nanos() as u64;

    let optimized = optimize_and_run(naive_prog, &req.config, req.mode, limits, Some(&naive));

    let collect = naive
        .is_pending()
        .then(|| nascent_obs::trace::timed_span("naive-run", "stage"));
    let naive = naive.wait();
    naive_run_ns += collect.map_or(0, |sp| sp.finish().as_nanos() as u64);

    let naive = naive.map_err(naive_run)?;
    let mut outcome = optimized?.validate(&naive, &req.config, req.mode)?;
    outcome.stages.parse_ns = parse_ns;
    outcome.stages.naive_run_ns = naive_run_ns;
    Ok(outcome)
}

fn naive_run(e: RunError) -> PipelineError {
    PipelineError::Run(format!("naive run: {e}"))
}

/// Evaluates one configuration of a compiled program against its naive
/// run: optimizes `program` (logged), certifies the optimization in
/// [`Mode::Certify`], runs the result on the configured engine, and
/// validates that run against `naive`. The returned stages carry the
/// optimize, certify and execute times; parse and naive-run stay zero.
///
/// # Errors
///
/// [`PipelineError::Run`] when the optimized program fails to run, and
/// [`PipelineError::Divergence`] when its run fails the validation
/// against `naive`. A certificate with diagnostics is not an error; it
/// is returned in the outcome.
pub fn evaluate(
    program: Program,
    naive: &RunResult,
    config: &RunConfig,
    mode: Mode,
    limits: &Limits,
) -> Result<Outcome, PipelineError> {
    optimize_and_run(program, config, mode, limits, None)?.validate(naive, config, mode)
}

/// An optimized, certified and executed configuration, awaiting the
/// naive run it is validated against.
struct Optimized {
    stats: OptimizeStats,
    certificate: Option<Certificate>,
    timings: Timings,
    stages: StageNanos,
    run: RunResult,
}

/// The `optimize`, `certify` and `execute` stages of one configuration.
///
/// In [`Mode::Certify`], when `naive` is a queued VM run, the optimized
/// run is lowered and queued in an `execute` stage before `certify` and
/// collected in a second one after it; otherwise it runs after
/// `certify`.
fn optimize_and_run(
    mut program: Program,
    config: &RunConfig,
    mode: Mode,
    limits: &Limits,
    naive: Option<&StartedRun>,
) -> Result<Optimized, PipelineError> {
    let mut stages = StageNanos::default();
    let (stats, uncertified, timings) = optimize_stage(config, mode, &mut program, &mut stages);

    let beside_certify = uncertified.is_some()
        && config.engine == Engine::Vm
        && naive.is_some_and(StartedRun::is_pending);
    let started = beside_certify.then(|| {
        let sp = nascent_obs::trace::timed_span("execute", "stage");
        let started = start_with_engine(&program, limits, config.engine);
        stages.execute_ns = sp.finish().as_nanos() as u64;
        started
    });
    let certificate = uncertified.map(|u| u.certify(config, &program, &mut stages));

    let sp = nascent_obs::trace::timed_span("execute", "stage");
    let run = match started {
        Some(started) => started.and_then(StartedRun::wait),
        None => run_with_engine(&program, limits, config.engine),
    }
    .map_err(|e| PipelineError::Run(format!("optimized run: {e}")))?;
    stages.execute_ns += sp.finish().as_nanos() as u64;
    Ok(Optimized {
        stats,
        certificate,
        timings,
        stages,
        run,
    })
}

impl Optimized {
    /// Validates the optimized run against `naive` and builds the
    /// outcome.
    fn validate(
        self,
        naive: &RunResult,
        config: &RunConfig,
        mode: Mode,
    ) -> Result<Outcome, PipelineError> {
        let opt = self.run;
        // The classic pre-pass legitimately changes non-check work, so the
        // differential validation only applies to the pure range-check
        // pipeline.
        if !config.classic {
            validate_runs(naive, &opt)?;
        }
        let percent = match naive.dynamic_checks {
            0 => 0.0,
            n => 100.0 * (1.0 - opt.dynamic_checks as f64 / n as f64),
        };
        Ok(Outcome {
            config: *config,
            mode,
            stats: self.stats,
            certificate: self.certificate,
            counters: Counters {
                naive_checks: naive.dynamic_checks,
                naive_instructions: naive.dynamic_instructions,
                dynamic_checks: opt.dynamic_checks,
                dynamic_guard_ops: opt.dynamic_guard_ops,
                dynamic_instructions: opt.dynamic_instructions,
                dynamic_progress: opt.dynamic_progress,
                percent_eliminated: percent,
                output: opt.output.iter().map(|v| v.to_string()).collect(),
                trap: opt.trap.as_ref().map(render_trap),
            },
            timings: self.timings,
            stages: self.stages,
        })
    }
}

/// The shared pipeline front door: [`compute`] behind a fleet-wide
/// result cache with request coalescing.
pub struct Pipeline {
    limits: Limits,
    cache: Memo<cache::Key, cache::Computed>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl Pipeline {
    /// A pipeline with the harness interpreter limits.
    pub fn new() -> Pipeline {
        Pipeline::with_limits(harness::harness_limits())
    }

    /// A pipeline with explicit interpreter limits.
    pub fn with_limits(limits: Limits) -> Pipeline {
        Pipeline {
            limits,
            cache: Memo::new(cache::CAPACITY),
        }
    }

    /// Runs a request through the cache: an exact (source, config, mode)
    /// match returns the stored outcome without recomputing; concurrent
    /// identical requests coalesce onto the first computation. The
    /// [`Role`] says which of the three answered this call. A panic in
    /// the computation is stored as [`PipelineError::Panic`]. The cache
    /// keeps the [`cache::CAPACITY`] most recently computed outcomes;
    /// an evicted request is a miss again and computes the same bytes.
    pub fn run(&self, req: &Request) -> (Result<Arc<Outcome>, PipelineError>, Role) {
        self.cache.get_or_compute(cache::key(req), || {
            cache::isolated(|| compute(req, &self.limits))
        })
    }

    /// Cache traffic counters (hits, misses, coalesced waits, entries).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats().into()
    }

    /// Outcomes the cache has evicted to stay within its capacity.
    pub fn cache_evictions(&self) -> u64 {
        self.cache.stats().evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "program demo
 integer a(1:100)
 integer i, n
 n = 100
 do i = 1, n
  a(i) = 2 * i
 enddo
 print a(n)
end
";

    #[test]
    fn compute_measures_and_certifies() {
        let req = Request {
            program: DEMO.into(),
            config: RunConfig::default(),
            mode: Mode::Certify,
        };
        let out = compute(&req, &harness::harness_limits()).unwrap();
        assert_eq!(out.counters.output, vec!["200".to_string()]);
        assert!(out.counters.dynamic_checks < out.counters.naive_checks);
        assert!(out.counters.percent_eliminated > 50.0);
        let cert = out.certificate.as_ref().expect("certify mode");
        assert!(cert.ok());
        assert!(cert.obligations > 0);
    }

    #[test]
    fn optimize_mode_skips_the_certificate() {
        let req = Request {
            program: DEMO.into(),
            config: RunConfig::default(),
            mode: Mode::Optimize,
        };
        let out = compute(&req, &harness::harness_limits()).unwrap();
        assert!(out.certificate.is_none());
        assert!(out.stats.static_before > 0);
    }

    #[test]
    fn compile_errors_are_client_errors() {
        let req = Request {
            program: "program p\n x = 1\nend\n".into(),
            config: RunConfig::default(),
            mode: Mode::Optimize,
        };
        let err = compute(&req, &harness::harness_limits()).unwrap_err();
        assert!(err.is_client_error(), "{err}");
    }

    #[test]
    fn trapping_programs_flow_through() {
        let req = Request {
            program: "program p\n integer a(1:5)\n a(9) = 1\nend\n".into(),
            config: RunConfig::default(),
            mode: Mode::Certify,
        };
        let out = compute(&req, &harness::harness_limits()).unwrap();
        assert!(out.counters.trap.as_deref().unwrap().contains("TRAP"));
        assert!(out.certificate.as_ref().unwrap().ok());
    }

    #[test]
    fn no_opt_keeps_the_naive_counters() {
        let config = RunConfig {
            optimize: false,
            ..RunConfig::default()
        };
        let req = Request {
            program: DEMO.into(),
            config,
            mode: Mode::Optimize,
        };
        let out = compute(&req, &harness::harness_limits()).unwrap();
        assert_eq!(out.counters.dynamic_checks, out.counters.naive_checks);
        assert_eq!(out.counters.percent_eliminated, 0.0);
    }

    #[test]
    fn a_check_free_program_eliminates_nothing() {
        for optimize in [true, false] {
            let req = Request {
                program: "program p\n integer x\n x = 2\n print x\nend\n".into(),
                config: RunConfig {
                    optimize,
                    ..RunConfig::default()
                },
                mode: Mode::Optimize,
            };
            let out = compute(&req, &harness::harness_limits()).unwrap();
            assert_eq!(out.counters.naive_checks, 0);
            assert_eq!(out.counters.percent_eliminated, 0.0, "optimize={optimize}");
        }
    }
}
