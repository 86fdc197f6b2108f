//! Running one workload: set-up, the timed phases, and the metrics.
//!
//! A run sends whole passes of the workload's plan. An untraced run
//! (`trace = false`) sends them through `compute` (or the service) and
//! reports the end-to-end metrics. A traced run sends its first half the
//! same way and its second half through the layer-by-layer sequence of
//! [`crate::layers`], at least two passes each; it reports the per-layer
//! metrics, and the gap between the halves' throughputs is the tracing
//! overhead.
//!
//! Every pass sends the same requests in the same order, so a position
//! of the pass order is one request measured once per pass. The timed
//! metrics come from each position's fastest reply over the passes: the
//! host's speed swings by tens of percent within seconds, and the
//! fastest of a few spaced repeats estimates the undisturbed cost far
//! more steadily than a median does.

use std::collections::BTreeMap;
use std::time::Instant;

use nascent_cback::native::NativeRunner;
use nascent_driver::harness::harness_limits;
use nascent_driver::service::ServerHandle;
use nascent_driver::{compute, Mode, Outcome, Request};
use nascent_interp::Engine;

use crate::calib;
use crate::counts::Counts;
use crate::layers::{traced_request, Sample, Traced, LAYERS};
use crate::plan::{plan, Plan, Workload};
use crate::service::{self, Reply, ServicePhase};
use crate::stats::{median, mid_mean, tail};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Optimizer analyses reported per layer, as `PassContext` names them.
const ANALYSES: [&str; 7] = [
    "dom",
    "postdom",
    "loops",
    "ssa",
    "unique-defs",
    "induction",
    "vra",
];

/// Optimizer passes reported per layer, as `PassContext` names them.
const PASSES: [&str; 9] = [
    "inx-rewrite",
    "discharge",
    "strengthen",
    "pre-insert",
    "preheader-hoist",
    "mcm-hoist",
    "elim",
    "fold",
    "insert-preheaders",
];

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Time to measure: a run sends whole passes while the next one, as
    /// long as the mean pass so far, still ends within it.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Keep only the first this-many distinct requests of the plan
    /// (tests use it to stay small).
    pub items: Option<usize>,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output matched its reference.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable remarks (sample counts, percentile names).
    pub notes: Vec<String>,
}

impl Report {
    /// The value of the metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The generated inputs, compiled references and request objects.
struct Inputs {
    plan: Plan,
    requests: Vec<Request>,
    /// Output of each distinct naive program on the tree-walker.
    reference: Vec<Vec<String>>,
}

impl Inputs {
    fn correct(&self, item: usize, o: &Outcome) -> bool {
        let it = &self.plan.items[item];
        o.counters.output == self.reference[it.program]
            && o.counters.trap.is_none()
            && match it.mode {
                Mode::Optimize => true,
                Mode::Certify => o
                    .certificate
                    .as_ref()
                    .is_some_and(|c| c.ok() && c.discharge_rejected == 0),
            }
    }
}

/// Generates the inputs and runs each distinct naive program once on the
/// tree-walker, the reference every reply is checked against.
fn prepare(opts: &Options) -> Result<Inputs, String> {
    let mut plan = plan(opts.workload, opts.seed);
    if let Some(n) = opts.items {
        plan.items.truncate(n);
        plan.order.retain(|&i| i < n);
    }
    let limits = harness_limits();
    let used: Vec<bool> = (0..plan.sources.len())
        .map(|p| plan.items.iter().any(|it| it.program == p))
        .collect();
    let reference = plan
        .sources
        .iter()
        .zip(used)
        .map(|(src, used)| {
            if !used {
                return Ok(Vec::new());
            }
            let prog = nascent_frontend::compile(src).map_err(|e| e.to_string())?;
            let r = nascent_interp::run(&prog, &limits).map_err(|e| e.to_string())?;
            match r.trap {
                Some(t) => Err(format!("reference run traps: {}", t.check)),
                None => Ok(r.output.iter().map(|v| v.to_string()).collect()),
            }
        })
        .collect::<Result<_, String>>()?;
    let requests = plan
        .items
        .iter()
        .map(|it| Request {
            program: plan.sources[it.program].clone(),
            config: it.config,
            mode: it.mode,
        })
        .collect();
    Ok(Inputs {
        plan,
        requests,
        reference,
    })
}

/// Sets up [`SETUP_REPS`] times, keeping the last set-up; returns it and
/// the median set-up time in seconds. On the native engine one untimed
/// pass then fills the process-wide compile cache, and its time is added:
/// each distinct program compiles once per process, before the timed
/// requests.
fn setup(opts: &Options) -> Result<(Inputs, Option<ServerHandle>, f64), String> {
    let mut times = Vec::new();
    let mut kept: Option<(Inputs, Option<ServerHandle>)> = None;
    let mut speed = calib::probe();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        if opts.workload.engine() == Engine::Native && !nascent_cback::cc_available() {
            return Err(
                "native-exec skipped: no C compiler (`$CC`, else `cc`) on this host".into(),
            );
        }
        let inputs = prepare(opts)?;
        let server = match opts.workload {
            Workload::ServiceMix => Some(service::start()?),
            _ => None,
        };
        let secs = t0.elapsed().as_secs_f64();
        let after = calib::probe();
        times.push(secs * calib::scale(speed, after));
        speed = after;
        if let Some((_, Some(old))) = kept.replace((inputs, server)) {
            old.stop();
        }
    }
    let (inputs, server) = kept.expect("at least one set-up");
    let mut setup_s = median(&times).expect("set-up times");
    if opts.workload.engine() == Engine::Native {
        let t0 = Instant::now();
        let limits = harness_limits();
        for req in &inputs.requests {
            compute(req, &limits).map_err(|e| format!("compile warm-up: {e}"))?;
        }
        setup_s += t0.elapsed().as_secs_f64() * calib::scale(speed, calib::probe());
    }
    Ok((inputs, server, setup_s))
}

/// How many whole passes a phase sends: at least `min_passes`, then
/// another while one as long as the mean pass so far still ends within
/// `seconds` of the phase's start.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Time the phase may take.
    pub seconds: f64,
    /// Passes sent whatever the time.
    pub min_passes: usize,
}

impl Budget {
    /// Whether to send another pass after `done` passes in `elapsed_s`.
    pub fn another(&self, done: usize, elapsed_s: f64) -> bool {
        done < self.min_passes.max(1) || elapsed_s * (done + 1) as f64 / done as f64 <= self.seconds
    }
}

/// The figures of one correct reply, times in reference-machine units
/// ([`calib`]).
#[derive(Debug, Clone, Copy, Default)]
struct Timing {
    /// Latency (the `compute` call, or the HTTP round trip).
    ms: f64,
    /// Parse + optimize + certify time (in-process workloads).
    compile_ns: u64,
    /// Optimized-run time (in-process workloads).
    execute_ns: u64,
    /// Naive dynamic steps of the request's program.
    naive_steps: u64,
}

impl Timing {
    fn scaled(self, f: f64) -> Timing {
        Timing {
            ms: self.ms * f,
            compile_ns: (self.compile_ns as f64 * f) as u64,
            execute_ns: (self.execute_ns as f64 * f) as u64,
            ..self
        }
    }
}

/// Requests are timed in chunks of about this many seconds; a speed
/// probe closes each chunk, and the chunk's times are scaled by the
/// probes on either side of it.
const CHUNK_S: f64 = 0.2;

/// Stage times the service's `/metrics` histograms summed over a pass.
#[derive(Debug, Clone, Copy, Default)]
struct Stages {
    /// Parse + optimize + certify.
    compile_ns: u64,
    /// Optimized runs.
    execute_ns: u64,
    /// Naive steps of the requests the service computed in the pass.
    naive_steps: u64,
}

/// One pass.
#[derive(Debug, Clone, Default)]
struct Pass {
    /// Wall time.
    secs: f64,
    /// Per position of the pass order, the figures of its reply when it
    /// was correct.
    timings: Vec<Option<Timing>>,
    /// Service passes: the stage times of the pass.
    stages: Option<Stages>,
}

impl Pass {
    fn requests(&self) -> usize {
        self.timings.iter().flatten().count()
    }
}

/// End-to-end tallies of one phase.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    passes: Vec<Pass>,
    /// Counters summed over the first pass.
    first_pass: Counts,
    /// Closed-loop clients that sent the passes.
    clients: usize,
    /// The factor each chunk's (or service pass's) times were scaled by.
    scales: Vec<f64>,
    /// `VmHWM` after the phase's first `min_passes` passes, MB.
    rss_mb: f64,
}

impl Tally {
    /// Each position's fastest reply over the passes, figure by figure;
    /// positions that never answered correctly are left out.
    fn best(&self) -> Vec<Timing> {
        let n = self
            .passes
            .iter()
            .map(|p| p.timings.len())
            .max()
            .unwrap_or(0);
        (0..n)
            .filter_map(|i| {
                self.passes
                    .iter()
                    .filter_map(|p| p.timings.get(i).copied().flatten())
                    .reduce(|a, b| Timing {
                        ms: a.ms.min(b.ms),
                        compile_ns: a.compile_ns.min(b.compile_ns),
                        execute_ns: a.execute_ns.min(b.execute_ns),
                        naive_steps: a.naive_steps,
                    })
            })
            .collect()
    }

    /// Requests per second by Little's law for a closed loop: the clients
    /// over the mean of the positions' fastest latencies.
    fn throughput(&self) -> f64 {
        let best = self.best();
        let secs = best.iter().map(|t| t.ms).sum::<f64>() / 1e3;
        if secs > 0.0 {
            self.clients as f64 * best.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// The median over passes of a per-pass figure (service stage
    /// times, which the service reports per pass, not per request).
    fn per_pass(&self, f: impl Fn(&Pass, &Stages) -> f64) -> f64 {
        let values: Vec<f64> = self
            .passes
            .iter()
            .filter_map(|p| p.stages.as_ref().map(|s| f(p, s)))
            .collect();
        median(&values).unwrap_or(0.0)
    }

    /// Whether the passes carry service stage times instead of
    /// per-request ones.
    fn staged(&self) -> bool {
        self.passes.iter().any(|p| p.stages.is_some())
    }

    fn compile_ms_per_req(&self, best: &[Timing]) -> f64 {
        if self.staged() {
            self.per_pass(|p, s| s.compile_ns as f64 / 1e6 / p.requests().max(1) as f64)
        } else {
            best.iter().map(|t| t.compile_ns as f64).sum::<f64>() / 1e6 / best.len().max(1) as f64
        }
    }

    fn gen_run_ns_per_step(&self, best: &[Timing]) -> f64 {
        if self.staged() {
            self.per_pass(|_, s| s.execute_ns as f64 / s.naive_steps.max(1) as f64)
        } else {
            let ns = best.iter().map(|t| t.execute_ns).sum::<u64>();
            let steps = best.iter().map(|t| t.naive_steps).sum::<u64>();
            ns as f64 / steps.max(1) as f64
        }
    }

    fn elapsed_s(&self) -> f64 {
        self.passes.iter().map(|p| p.secs).sum()
    }
}

/// Sends whole passes of the plan in a closed loop, one request at a
/// time, as `budget` allows. `one` runs a request (timed); `done` sees
/// each correct result after the clock stops.
fn drive<T>(
    inputs: &Inputs,
    budget: Budget,
    mut one: impl FnMut(usize) -> Option<T>,
    outcome: impl Fn(&T) -> &Outcome,
    mut done: impl FnMut(usize, usize, T),
) -> Tally {
    let mut t = Tally {
        clients: 1,
        ..Tally::default()
    };
    let start = Instant::now();
    while budget.another(t.passes.len(), start.elapsed().as_secs_f64()) {
        let pass = t.passes.len();
        let mut p = Pass::default();
        let pass_start = Instant::now();
        let mut speed = calib::probe();
        let mut chunk_start = (0, Instant::now());
        for (pos, &item) in inputs.plan.order.iter().enumerate() {
            t.attempted += 1;
            let t0 = Instant::now();
            let result = one(item);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match result {
                Some(r) if inputs.correct(item, outcome(&r)) => {
                    let o = outcome(&r);
                    let c = Counts::of_outcome(o);
                    p.timings.push(Some(Timing {
                        ms,
                        compile_ns: o.stages.parse_ns + o.stages.optimize_ns + o.stages.certify_ns,
                        execute_ns: o.stages.execute_ns,
                        naive_steps: c.naive_steps,
                    }));
                    if pass == 0 {
                        t.first_pass.add(&c);
                    }
                    done(pass, item, r);
                }
                _ => {
                    t.failed += 1;
                    p.timings.push(None);
                }
            }
            if chunk_start.1.elapsed().as_secs_f64() >= CHUNK_S
                || pos + 1 == inputs.plan.order.len()
            {
                let after = calib::probe();
                let f = calib::scale(speed, after);
                t.scales.push(f);
                for timing in p.timings[chunk_start.0..].iter_mut().flatten() {
                    *timing = timing.scaled(f);
                }
                speed = after;
                chunk_start = (pos + 1, Instant::now());
            }
        }
        p.secs = pass_start.elapsed().as_secs_f64();
        t.passes.push(p);
        if t.passes.len() == budget.min_passes {
            t.rss_mb = peak_rss_mb();
        }
    }
    t
}

/// Per-layer tallies of one traced phase.
#[derive(Debug, Default)]
struct Layers {
    requests: u64,
    request_ns: u64,
    self_ns: [u64; 7],
    core_span_ns: u64,
    lower_ns: u64,
    naive_run_ns: u64,
    opt_run_ns: u64,
    interp_steps: u64,
    emit_ns: u64,
    exec_ns: u64,
    certify_ns: u64,
    obligations: u64,
    analysis_ns: [u64; 7],
    analysis_hits: u64,
    analysis_computed: u64,
    pass_ns: [u64; 9],
    /// `(item, optimized run)` → `(cback ns, compile was a hit)` per pass.
    cback_runs: BTreeMap<(usize, usize), Vec<(u64, bool)>>,
    compiles: u64,
    compile_hit_rate: f64,
    /// First-pass sums: static checks, interp steps, outcome counters.
    static_checks: u64,
    interp_steps_first: u64,
    first_pass: Counts,
}

fn layer(name: &str) -> usize {
    LAYERS.iter().position(|l| *l == name).expect("known layer")
}

impl Layers {
    fn add_sample(&mut self, pass: usize, item: usize, s: &Sample, c: &Counts, engine: Engine) {
        self.requests += 1;
        self.request_ns += s.request_ns;
        for (acc, v) in self.self_ns.iter_mut().zip(s.self_ns) {
            *acc += v;
        }
        self.core_span_ns += s.self_ns[layer("core")] + s.self_ns[layer("analysis")];
        self.lower_ns += s.lower_ns;
        self.naive_run_ns += s.naive_run_ns;
        self.opt_run_ns += s.opt_run_ns;
        let interp_steps = if engine == Engine::Native {
            0
        } else {
            c.naive_steps + c.opt_steps
        };
        self.interp_steps += interp_steps;
        self.emit_ns += s.emit_ns;
        self.exec_ns += s.exec_ns;
        self.certify_ns += s.certify_ns;
        self.obligations += c.obligations;
        for (i, name) in ANALYSES.iter().enumerate() {
            if let Some(a) = s.timings.analyses.get(name) {
                self.analysis_ns[i] += a.nanos as u64;
            }
        }
        for a in s.timings.analyses.values() {
            self.analysis_hits += a.hits;
            self.analysis_computed += a.computed;
        }
        for (i, name) in PASSES.iter().enumerate() {
            if let Some(p) = s.timings.passes.get(name) {
                self.pass_ns[i] += p.nanos as u64;
            }
        }
        for (run, r) in s.cback_runs.iter().enumerate() {
            if let Some(r) = r {
                self.cback_runs.entry((item, run)).or_default().push(*r);
            }
        }
        if pass == 0 {
            self.static_checks += s.static_checks as u64;
            self.interp_steps_first += interp_steps;
            self.first_pass.add(c);
        }
    }

    /// A service reply traced with `?trace=1`: the service's own stage
    /// spans give the layer split, the round trip the request time.
    fn add_reply(&mut self, r: &Reply, c: &Counts) {
        let span = |cat: &str, name: &str| {
            r.spans
                .get(&(cat.to_string(), name.to_string()))
                .copied()
                .unwrap_or(0)
        };
        self.requests += 1;
        self.request_ns += r.rtt_ns;
        let analysis = r.analysis_ns;
        let optimize = span("stage", "optimize");
        let parts = [
            ("frontend", span("stage", "parse")),
            ("analysis", analysis),
            ("core", optimize.saturating_sub(analysis)),
            ("verify", span("stage", "certify")),
            (
                "interp",
                span("stage", "naive-run") + span("stage", "execute"),
            ),
        ];
        let mut covered = 0;
        for (name, ns) in parts {
            self.self_ns[layer(name)] += ns;
            covered += ns;
        }
        self.self_ns[layer("driver")] += r.rtt_ns.saturating_sub(covered);
        self.core_span_ns += optimize;
        self.naive_run_ns += span("stage", "naive-run");
        self.opt_run_ns += span("stage", "execute");
        self.certify_ns += span("stage", "certify");
        if !r.cached {
            self.interp_steps += c.naive_steps + c.opt_steps;
            self.obligations += c.obligations;
        }
        for (i, name) in ANALYSES.iter().enumerate() {
            self.analysis_ns[i] += span("analysis", name);
        }
        for (i, name) in PASSES.iter().enumerate() {
            self.pass_ns[i] += span("pass", name);
        }
    }

    /// Mean milliseconds per traced request.
    fn ms(&self, ns: u64) -> f64 {
        ns as f64 / self.requests.max(1) as f64 / 1e6
    }

    /// A cache miss's cback time over a later hit of the same run, mean
    /// over the runs that compiled.
    fn cc_ms(&self) -> f64 {
        let deltas: Vec<f64> = self
            .cback_runs
            .values()
            .filter_map(|runs| {
                let (miss, _) = runs.iter().find(|(_, hit)| !hit)?;
                let hits: Vec<f64> = runs
                    .iter()
                    .filter(|(_, h)| *h)
                    .map(|(ns, _)| *ns as f64)
                    .collect();
                Some((*miss as f64 - median(&hits)?) / 1e6)
            })
            .collect();
        if deltas.is_empty() {
            0.0
        } else {
            deltas.iter().sum::<f64>() / deltas.len() as f64
        }
    }
}

/// Runs one workload and reports its metrics.
pub fn run(opts: &Options) -> Result<Report, String> {
    let (inputs, server, setup_s) = setup(opts)?;
    let result = match &server {
        Some(server) => run_service(opts, &inputs, server, setup_s),
        None => Ok(run_inprocess(opts, &inputs, setup_s)),
    };
    if let Some(server) = server {
        server.stop();
    }
    result
}

/// The untraced phase: the whole run, or its first half.
fn untraced_budget(opts: &Options) -> Budget {
    if opts.trace {
        traced_budget(opts)
    } else {
        Budget {
            seconds: opts.seconds,
            min_passes: 2,
        }
    }
}

/// Each half of a traced run.
fn traced_budget(opts: &Options) -> Budget {
    Budget {
        seconds: opts.seconds / 2.0,
        min_passes: 2,
    }
}

fn run_inprocess(opts: &Options, inputs: &Inputs, setup_s: f64) -> Report {
    let limits = harness_limits();
    let items = inputs.plan.items.len();
    let mut bytes: Vec<Option<String>> = vec![None; items];
    let untraced = drive(
        inputs,
        untraced_budget(opts),
        |item| compute(&inputs.requests[item], &limits).ok(),
        |o| o,
        |pass, item, o| {
            if opts.trace && pass == 0 {
                bytes[item] = Some(o.deterministic_json().render());
            }
        },
    );
    let mut report = Report::default();
    if !opts.trace {
        end_to_end(&mut report, &untraced, setup_s);
        report.attempted = untraced.attempted;
        report.failed = untraced.failed;
        report.correct = untraced.failed == 0;
        return report;
    }

    // the traced half: the layer-by-layer sequence on a cold compile cache
    let native = NativeRunner::new();
    let engine = opts.workload.engine();
    let mut layers = Layers::default();
    let mut mismatches = 0u64;
    let traced = drive(
        inputs,
        traced_budget(opts),
        |item| traced_request(&inputs.requests[item], &limits, &native).ok(),
        |t: &Traced| &t.outcome,
        |pass, item, t| {
            if bytes[item].as_deref() != Some(t.outcome.deterministic_json().render().as_str()) {
                mismatches += 1;
            }
            let c = Counts::of_outcome(&t.outcome);
            layers.add_sample(pass, item, &t.sample, &c, engine);
        },
    );
    let stats = native.stats();
    layers.compiles = stats.compiles;
    layers.compile_hit_rate = stats.hit_rate();
    report.attempted = untraced.attempted + traced.attempted;
    report.failed = untraced.failed + traced.failed + mismatches;
    report.correct = report.failed == 0;
    per_layer(&mut report, &layers, None, &untraced, &traced);
    report.notes.push(format!(
        "traced run: {} requests, {} byte mismatches against compute",
        layers.requests, mismatches
    ));
    report.notes.push(pass_times(&untraced, &traced));
    report
}

fn run_service(
    opts: &Options,
    inputs: &Inputs,
    server: &ServerHandle,
    setup_s: f64,
) -> Result<Report, String> {
    let plan = &inputs.plan;
    let u = service::phase(
        server,
        plan,
        &inputs.reference,
        untraced_budget(opts),
        0,
        false,
    )?;
    let untraced = service_tally(&u, plan);
    let mut report = Report::default();
    let rejected_u = u.replies.iter().filter(|r| r.status == 503).count() as u64;
    if !opts.trace {
        end_to_end(&mut report, &untraced, setup_s);
        report.attempted = untraced.attempted;
        report.failed = untraced.failed;
        report.correct = untraced.failed == 0;
        return Ok(report);
    }

    let t = service::phase(
        server,
        plan,
        &inputs.reference,
        traced_budget(opts),
        u.passes.len(),
        true,
    )?;
    let traced = service_tally(&t, plan);
    let mut layers = Layers::default();
    for r in t.replies.iter().filter(|r| r.correct) {
        layers.add_reply(r, &r.counts);
    }
    for r in u.replies.iter().filter(|r| r.correct && r.pass == 0) {
        let c = r.counts;
        layers.first_pass.add(&c);
        layers.static_checks += c.static_before;
        layers.interp_steps_first += c.naive_steps + c.opt_steps;
    }

    // reconciliation: the layer-by-layer sequence in process must give
    // the bytes the service answered in its first pass
    let limits = harness_limits();
    let native = NativeRunner::new();
    let mut first: Vec<Option<String>> = vec![None; plan.items.len()];
    for r in u.replies.iter() {
        if let Some(result) = &r.result {
            first[r.item] = Some(result.render());
        }
    }
    let mut mismatches = 0u64;
    for (item, req) in inputs.requests.iter().enumerate() {
        match traced_request(req, &limits, &native) {
            Ok(tr) => {
                if first[item].as_deref() != Some(tr.outcome.deterministic_json().render().as_str())
                {
                    mismatches += 1;
                }
                for a in tr.sample.timings.analyses.values() {
                    layers.analysis_hits += a.hits;
                    layers.analysis_computed += a.computed;
                }
            }
            Err(_) => mismatches += 1,
        }
    }
    let rejected = rejected_u + t.replies.iter().filter(|r| r.status == 503).count() as u64;
    let hit_rtts: Vec<f64> = u
        .replies
        .iter()
        .filter(|r| r.correct && r.cached)
        .map(|r| r.rtt_ns as f64 / 1e6)
        .collect();
    let driver = DriverStats {
        hit_rate: u.cache.hit_rate(),
        coalesced: u.cache.coalesced,
        reuse: u.first_pass_cache.hits + u.first_pass_cache.coalesced,
        hit_rtt_ms: median(&hit_rtts).unwrap_or(0.0),
        rejected,
    };
    report.attempted = untraced.attempted + traced.attempted + inputs.requests.len() as u64;
    report.failed = untraced.failed + traced.failed + mismatches;
    report.correct = report.failed == 0;
    per_layer(&mut report, &layers, Some(&driver), &untraced, &traced);
    report.notes.push(pass_times(&untraced, &traced));
    report.notes.push(format!(
        "traced run: {} replies; reconciliation: {} distinct requests, {} byte mismatches",
        layers.requests,
        inputs.requests.len(),
        mismatches
    ));
    Ok(report)
}

/// A service phase as end-to-end tallies. Stage times come from the
/// service's `/metrics` histograms, which count fresh computations only;
/// each distinct request is computed once per pass.
fn service_tally(phase: &ServicePhase, plan: &Plan) -> Tally {
    let mut t = Tally {
        attempted: phase.replies.len() as u64,
        clients: service::CLIENTS,
        ..Tally::default()
    };
    let first_pass = phase.replies.iter().map(|r| r.pass).min().unwrap_or(0);
    let mut steps_per_item = vec![0u64; plan.items.len()];
    let mut timings = vec![vec![None; plan.order.len()]; phase.passes.len()];
    for r in &phase.replies {
        if !r.correct {
            t.failed += 1;
            continue;
        }
        let f = phase.passes[r.pass - first_pass].scale;
        timings[r.pass - first_pass][r.pos] = Some(Timing {
            ms: r.rtt_ns as f64 / 1e6 * f,
            naive_steps: r.counts.naive_steps,
            ..Timing::default()
        });
        steps_per_item[r.item] = r.counts.naive_steps;
        if r.pass == first_pass {
            t.first_pass.add(&r.counts);
        }
    }
    let naive_steps = steps_per_item.iter().sum::<u64>();
    t.scales = phase.passes.iter().map(|p| p.scale).collect();
    t.rss_mb = phase.rss_mb;
    for (p, timings) in phase.passes.iter().zip(timings) {
        let stage = |s: &str| p.stage_s.get(s).copied().unwrap_or(0.0) * p.scale;
        t.passes.push(Pass {
            secs: p.secs,
            timings,
            stages: Some(Stages {
                compile_ns: ((stage("parse") + stage("optimize") + stage("certify")) * 1e9) as u64,
                execute_ns: (stage("execute") * 1e9) as u64,
                naive_steps,
            }),
        });
    }
    t
}

/// The pass times of both halves of a traced run, for the overhead.
fn pass_times(untraced: &Tally, traced: &Tally) -> String {
    let list = |t: &Tally| {
        let secs: Vec<String> = t.passes.iter().map(|p| format!("{:.3}", p.secs)).collect();
        secs.join(" ")
    };
    format!(
        "pass seconds, untraced half: {}; traced half: {}",
        list(untraced),
        list(traced)
    )
}

/// Result-cache and transport figures of the service.
struct DriverStats {
    hit_rate: f64,
    coalesced: u64,
    reuse: u64,
    hit_rtt_ms: f64,
    rejected: u64,
}

/// The process's peak resident set so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(report: &mut Report, t: &Tally, setup_s: f64) {
    let fp = &t.first_pass;
    let naive = fp.naive_checks.max(1) as f64;
    report.push("setup_s", setup_s, "s");
    report.push("throughput_rps", t.throughput(), "1/s");
    let best = t.best();
    let all: Vec<f64> = best.iter().map(|b| b.ms).collect();
    report.push("latency_p50_ms", mid_mean(&all).unwrap_or(0.0), "ms");
    match tail(&all) {
        Some(tl) => {
            report.push("latency_tail_ms", tl.value, "ms");
            report
                .notes
                .push(format!("latency_tail_ms is {}", tl.describe()));
        }
        None => report.notes.push(format!(
            "latency_tail_ms missing: only {} samples",
            all.len()
        )),
    }
    report.push("compile_ms_per_req", t.compile_ms_per_req(&best), "ms");
    report.push(
        "gen_run_ns_per_step",
        t.gen_run_ns_per_step(&best),
        "ns/step",
    );
    report.push(
        "checks_eliminated_pct",
        100.0 * (1.0 - fp.residual_checks as f64 / naive),
        "%",
    );
    report.push("guard_ops_pct", 100.0 * fp.guard_ops as f64 / naive, "%");
    report.push("peak_rss_mb", t.rss_mb, "MB");
    report.push(
        "success_rate",
        1.0 - t.failed as f64 / t.attempted.max(1) as f64,
        "ratio",
    );
    report.notes.push(format!(
        "{} requests attempted, {} failed (error_rate {}), {} passes in {:.3} s measured",
        t.attempted,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64,
        t.passes.len(),
        t.elapsed_s()
    ));
    report.notes.push(format!(
        "times scaled to the reference machine by a median factor of {:.4} over {} speed probes",
        median(&t.scales).unwrap_or(0.0),
        t.scales.len()
    ));
}

fn per_layer(
    report: &mut Report,
    l: &Layers,
    driver: Option<&DriverStats>,
    untraced: &Tally,
    traced: &Tally,
) {
    let fp = &l.first_pass;
    report.push(
        "frontend.compile_ms",
        l.ms(l.self_ns[layer("frontend")]),
        "ms",
    );
    report.push("frontend.static_checks", l.static_checks as f64, "count");
    for (i, name) in ANALYSES.iter().enumerate() {
        report.push(format!("analysis.{name}_ms"), l.ms(l.analysis_ns[i]), "ms");
    }
    let lookups = l.analysis_hits + l.analysis_computed;
    report.push(
        "analysis.hit_rate",
        l.analysis_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.push("core.optimize_ms", l.ms(l.core_span_ns), "ms");
    for (i, name) in PASSES.iter().enumerate() {
        report.push(format!("core.pass.{name}_ms"), l.ms(l.pass_ns[i]), "ms");
    }
    report.push(
        "core.dataflow_iterations",
        fp.dataflow_iterations as f64,
        "count",
    );
    report.push("core.static_checks_after", fp.static_after as f64, "count");
    report.push("core.hoisted", fp.hoisted as f64, "count");
    report.push("core.discharged", fp.discharged as f64, "count");
    report.push("verify.certify_ms", l.ms(l.certify_ns), "ms");
    report.push("verify.obligations", fp.obligations as f64, "count");
    report.push(
        "verify.discharge_events",
        fp.discharge_events as f64,
        "count",
    );
    report.push("verify.rejected", fp.rejected as f64, "count");
    report.push(
        "verify.us_per_obligation",
        l.certify_ns as f64 / 1e3 / l.obligations.max(1) as f64,
        "us",
    );
    report.push("interp.lower_ms", l.ms(l.lower_ns), "ms");
    report.push("interp.naive_run_ms", l.ms(l.naive_run_ns), "ms");
    report.push("interp.opt_run_ms", l.ms(l.opt_run_ns), "ms");
    report.push("interp.steps", l.interp_steps_first as f64, "count");
    report.push(
        "interp.ns_per_step",
        (l.naive_run_ns + l.opt_run_ns) as f64 / l.interp_steps.max(1) as f64,
        "ns",
    );
    report.push("cback.emit_ms", l.ms(l.emit_ns), "ms");
    report.push("cback.cc_ms", l.cc_ms(), "ms");
    report.push("cback.exec_ms", l.ms(l.exec_ns), "ms");
    report.push("cback.compiles", l.compiles as f64, "count");
    report.push("cback.cache_hit_rate", l.compile_hit_rate, "ratio");
    report.push("driver.glue_ms", l.ms(l.self_ns[layer("driver")]), "ms");
    report.push(
        "driver.cache_hit_rate",
        driver.map_or(0.0, |d| d.hit_rate),
        "ratio",
    );
    report.push(
        "driver.cache_coalesced",
        driver.map_or(0.0, |d| d.coalesced as f64),
        "count",
    );
    report.push(
        "driver.cache_reuse",
        driver.map_or(0.0, |d| d.reuse as f64),
        "count",
    );
    report.push(
        "driver.hit_rtt_ms",
        driver.map_or(0.0, |d| d.hit_rtt_ms),
        "ms",
    );
    report.push(
        "driver.rejected",
        driver.map_or(0.0, |d| d.rejected as f64),
        "count",
    );
    // both halves send the same requests per pass
    let overhead = 100.0 * (untraced.throughput() / traced.throughput() - 1.0);
    report.push("obs.trace_overhead_pct", overhead, "%");
    for (i, name) in LAYERS.iter().enumerate() {
        let share = 100.0 * l.self_ns[i] as f64 / l.request_ns.max(1) as f64;
        report.push(format!("{name}.share_pct"), share, "%");
    }
}
