//! The traced run: the pipeline of `nascent_driver::compute`, called
//! layer by layer through each layer's public entry point, with one obs
//! span per call opened here. Self times come from those spans; the
//! program's own spans (passes, analyses, the native tier's
//! emit/compile/exec) ride along in the same collector.

use nascent_cback::native::NativeRunner;
use nascent_cback::{CRunError, CRunResult};
use nascent_driver::{Counters, Mode, Outcome, PipelineError, Request, StageNanos};
use nascent_interp::{lower, run, run_compiled, Engine, Limits, RunError, RunResult, Trap, Value};
use nascent_ir::Program;
use nascent_obs::trace::{span, AttrValue, EventKind, ScopedCollector, SpanRecord};
use nascent_rangecheck::{optimize_program_logged_timed, JustLog, OptimizeStats, Timings};
use nascent_verify::certify_program;

/// Span category of the benchmark's own layer spans.
pub const CAT: &str = "perfbench";

/// Slack allowed per span when reconciling self times against the
/// request span: a span's start stamp and its timer are read one after
/// the other, so adjacent spans can disagree by a few nanoseconds.
const SLACK_NS_PER_SPAN: u64 = 2_000;

/// The layers a request's time is split into, in pipeline order.
pub const LAYERS: [&str; 7] = [
    "frontend", "analysis", "core", "verify", "interp", "cback", "driver",
];

/// One traced request, split by layer.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Wall time of the whole request span.
    pub request_ns: u64,
    /// Self time per layer (index as [`LAYERS`]); `driver` is the glue.
    pub self_ns: [u64; 7],
    /// VM lowering (interp layer).
    pub lower_ns: u64,
    /// Naive run on the interp layer.
    pub naive_run_ns: u64,
    /// Optimized run on the interp layer.
    pub opt_run_ns: u64,
    /// Native tier: C emission time (the program's own spans).
    pub emit_ns: u64,
    /// Native tier: binary execution time (the program's own spans).
    pub exec_ns: u64,
    /// Native tier: `(cback span ns, compile was a cache hit)` for the
    /// naive and the optimized run, when the engine is native.
    pub cback_runs: [Option<(u64, bool)>; 2],
    /// Static checks of the compiled naive program.
    pub static_checks: usize,
    /// Optimizer pass and analysis counters.
    pub timings: Timings,
    /// Certifier span time.
    pub certify_ns: u64,
}

/// A traced request's outcome and its layer split.
pub struct Traced {
    /// The outcome, built exactly as `compute` builds it.
    pub outcome: Outcome,
    /// The layer split.
    pub sample: Sample,
}

/// Runs `req` layer by layer under a scoped span collector. `native` is
/// the compile cache the native engine runs through.
pub fn traced_request(
    req: &Request,
    limits: &Limits,
    native: &NativeRunner,
) -> Result<Traced, PipelineError> {
    let collector = ScopedCollector::begin();
    let result = layered(req, limits, native);
    let spans = collector.finish();
    let (outcome, static_checks) = result?;
    let sample = split(&spans, &outcome.timings, static_checks)
        .map_err(|e| PipelineError::Divergence(format!("trace reconciliation: {e}")))?;
    Ok(Traced { outcome, sample })
}

fn layered(
    req: &Request,
    limits: &Limits,
    native: &NativeRunner,
) -> Result<(Outcome, usize), PipelineError> {
    let _root = span("request", CAT);
    let naive_prog = {
        let _s = span("frontend", CAT);
        nascent_frontend::compile(&req.program)
    }
    .map_err(|e| PipelineError::Compile(e.to_string()))?;
    let static_checks = naive_prog.check_count();
    let engine = req.config.engine;
    let naive = execute(&naive_prog, limits, engine, native, false)
        .map_err(|e| PipelineError::Run(format!("naive run: {e}")))?;

    assert!(
        !req.config.classic,
        "the benchmark sends no classic requests"
    );
    let mut prog = naive_prog;
    let opts = req.config.opts();
    let reference = (req.mode == Mode::Certify).then(|| prog.clone());
    let (stats, logs, timings) = {
        let _s = span("core", CAT);
        if req.config.optimize {
            optimize_program_logged_timed(&mut prog, &opts)
        } else {
            let logs = (0..prog.functions.len()).map(|_| JustLog::new()).collect();
            (OptimizeStats::default(), logs, Timings::default())
        }
    };
    let certificate = reference.map(|reference| {
        let _s = span("verify", CAT);
        certify_program(&reference, &prog, &logs, &opts)
    });

    let opt = execute(&prog, limits, engine, native, true)
        .map_err(|e| PipelineError::Run(format!("optimized run: {e}")))?;
    validate_runs(&naive, &opt)?;

    let percent = 100.0 * (1.0 - opt.dynamic_checks as f64 / naive.dynamic_checks.max(1) as f64);
    let outcome = Outcome {
        config: req.config,
        mode: req.mode,
        stats,
        certificate,
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
        timings,
        stages: StageNanos::default(),
    };
    Ok((outcome, static_checks))
}

/// Runs a program on `engine`: the interp layer for the tree and the VM,
/// the cback layer for native code.
fn execute(
    prog: &Program,
    limits: &Limits,
    engine: Engine,
    native: &NativeRunner,
    optimized: bool,
) -> Result<RunResult, RunError> {
    match engine {
        Engine::Tree => {
            let _s = span(run_span("interp", optimized), CAT);
            run(prog, limits)
        }
        Engine::Vm => {
            let compiled = {
                let _s = span("interp.lower", CAT);
                lower(prog)
            };
            let _s = span(run_span("interp", optimized), CAT);
            run_compiled(&compiled, limits)
        }
        Engine::Native => {
            let _s = span(run_span("cback", optimized), CAT);
            native
                .run(prog, limits.max_steps, limits.max_call_depth as u64)
                .map(from_native)
                .map_err(|e: CRunError| RunError::NativeBackend(e.to_string()))
        }
    }
}

fn run_span(layer: &str, optimized: bool) -> &'static str {
    match (layer, optimized) {
        ("interp", false) => "interp.naive-run",
        ("interp", true) => "interp.opt-run",
        (_, false) => "cback.naive-run",
        (_, true) => "cback.opt-run",
    }
}

fn from_native(c: CRunResult) -> RunResult {
    RunResult {
        dynamic_instructions: c.dynamic_instructions,
        dynamic_progress: c.dynamic_progress,
        dynamic_checks: c.dynamic_checks,
        dynamic_guard_ops: c.dynamic_guard_ops,
        trap: c.trap.map(|t| Trap {
            function: t.function,
            check: t.check,
            at_instruction: t.at_instruction,
            at_progress: t.at_progress,
        }),
        output: c
            .output
            .into_iter()
            .map(|(kind, bits)| match kind {
                'i' => Value::Int(bits as i64),
                _ => Value::Real(f64::from_bits(bits)),
            })
            .collect(),
    }
}

fn render_trap(t: &Trap) -> String {
    format!(
        "TRAP in {} at instruction {}: {}",
        t.function, t.at_instruction, t.check
    )
}

/// The differential check `compute` applies between the naive and the
/// optimized run (range-check pipeline only).
fn validate_runs(naive: &RunResult, opt: &RunResult) -> Result<(), PipelineError> {
    let diverged = |m: String| Err(PipelineError::Divergence(m));
    match (&naive.trap, &opt.trap) {
        (None, None) => {
            if opt.output != naive.output {
                return diverged("output changed".into());
            }
            if opt.dynamic_progress != naive.dynamic_progress {
                return diverged("non-check work changed".into());
            }
            if opt.dynamic_checks > naive.dynamic_checks {
                return diverged("dynamic checks increased".into());
            }
            Ok(())
        }
        (Some(nt), Some(ot)) => {
            if ot.at_progress > nt.at_progress {
                return diverged("optimized trap later than naive trap".into());
            }
            if !naive.output.starts_with(&opt.output) {
                return diverged("output before the trap diverged".into());
            }
            Ok(())
        }
        (Some(_), None) => diverged("naive run traps but the optimized run does not".into()),
        (None, Some(ot)) => diverged(format!("optimizer introduced a trap: {}", render_trap(ot))),
    }
}

fn layer_of(name: &str) -> usize {
    let layer = name.split('.').next().unwrap_or(name);
    LAYERS
        .iter()
        .position(|l| *l == layer)
        .unwrap_or_else(|| panic!("span `{name}` names no layer"))
}

/// Splits one request's spans into layer self times, and reconciles
/// them: the layer spans must nest in the request span without
/// overlapping, and self times plus the glue between them must add up to
/// the request span.
fn split(spans: &[SpanRecord], timings: &Timings, static_checks: usize) -> Result<Sample, String> {
    let root = spans
        .iter()
        .find(|s| s.cat == CAT && s.name == "request")
        .ok_or("no request span")?;
    let mut children: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.cat == CAT && s.depth == root.depth + 1)
        .collect();
    children.sort_by_key(|s| s.ts_ns);
    let slack = SLACK_NS_PER_SPAN * (children.len() as u64 + 1);
    let root_end = root.ts_ns + root.dur_ns;

    let mut sample = Sample {
        request_ns: root.dur_ns,
        static_checks,
        timings: timings.clone(),
        ..Sample::default()
    };
    let mut glue = 0u64;
    let mut cursor = root.ts_ns;
    for s in &children {
        if s.ts_ns + slack < cursor || s.ts_ns + s.dur_ns > root_end + slack {
            return Err(format!(
                "span `{}` overlaps a sibling or leaves the request",
                s.name
            ));
        }
        glue += s.ts_ns.saturating_sub(cursor);
        cursor = cursor.max(s.ts_ns + s.dur_ns);
        sample.self_ns[layer_of(s.name)] += s.dur_ns;
        match s.name {
            "interp.lower" => sample.lower_ns += s.dur_ns,
            "interp.naive-run" => sample.naive_run_ns += s.dur_ns,
            "interp.opt-run" => sample.opt_run_ns += s.dur_ns,
            "verify" => sample.certify_ns += s.dur_ns,
            "cback.naive-run" | "cback.opt-run" => {
                let hit = spans
                    .iter()
                    .find(|c| {
                        c.cat == "native"
                            && c.name == "compile"
                            && c.ts_ns >= s.ts_ns
                            && c.ts_ns <= s.ts_ns + s.dur_ns
                    })
                    .and_then(|c| c.attrs.iter().find(|(k, _)| *k == "cached"))
                    .map(|(_, v)| *v == AttrValue::Int(1))
                    .ok_or("native run without a compile span")?;
                sample.cback_runs[usize::from(s.name == "cback.opt-run")] = Some((s.dur_ns, hit));
            }
            _ => {}
        }
    }
    glue += root_end.saturating_sub(cursor);

    // the optimizer's analyses run inside its passes: split them out of
    // the core span
    let analysis_ns = timings.analysis_nanos() as u64;
    let core = layer_of("core");
    if analysis_ns > sample.self_ns[core] + slack {
        return Err("analysis time exceeds the core span".into());
    }
    sample.self_ns[core] = sample.self_ns[core].saturating_sub(analysis_ns);
    sample.self_ns[layer_of("analysis")] = analysis_ns;
    sample.self_ns[layer_of("driver")] = glue;

    let total: u64 = sample.self_ns.iter().sum();
    if total.abs_diff(root.dur_ns) > slack {
        return Err(format!(
            "layer self times sum to {total} ns, request span is {} ns",
            root.dur_ns
        ));
    }

    for s in spans
        .iter()
        .filter(|s| s.cat == "native" && s.kind == EventKind::Complete)
    {
        match s.name {
            "emit" => sample.emit_ns += s.dur_ns,
            "exec" => sample.exec_ns += s.dur_ns,
            _ => {}
        }
    }
    Ok(sample)
}
