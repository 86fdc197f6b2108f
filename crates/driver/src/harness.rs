//! The experiment harness: prepared baselines, per-configuration
//! evaluation, certification, and the parallel configuration × program
//! matrix. The table binaries in `crates/bench`, the service, and the
//! tests all import it from here, so they drive the *same* pipeline
//! layer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nascent_analysis::context::PassContext;
use nascent_frontend::compile;
use nascent_interp::{
    lower, run_compiled, run_with_engine, CompiledProgram, Engine, Limits, RunError, RunResult,
    Value,
};
use nascent_ir::Program;
use nascent_rangecheck::{
    CheckKind, ImplicationMode, OptimizeOptions, OptimizeStats, Scheme, Timings,
};
use nascent_suite::Benchmark;
use nascent_verify::Certificate;

use crate::{Mode, RunConfig};

/// Interpreter limits used by the harness.
pub fn harness_limits() -> Limits {
    Limits {
        max_steps: 2_000_000_000,
        max_call_depth: 128,
    }
}

/// Sums the static instruction cost of a program (cost-model units).
pub fn static_instruction_count(p: &Program) -> u64 {
    let mut total = 0;
    for f in &p.functions {
        for b in &f.blocks {
            for s in &b.stmts {
                total += s.cost();
            }
            total += b.term.cost();
        }
    }
    total
}

/// Counts natural loops across all functions.
pub fn loop_count(p: &Program) -> usize {
    p.functions
        .iter()
        .map(|f| {
            let mut ctx = PassContext::new();
            ctx.loop_forest(f).loops.len()
        })
        .sum()
}

/// One benchmark with everything that is shared across every cell of the
/// configuration matrix: the compiled (naive, checked) program, its run,
/// and its loop count. Computing these once per benchmark — instead of
/// once per scheme × kind × mode cell — is what makes the matrix cheap.
#[derive(Debug)]
pub struct PreparedBenchmark {
    /// The source benchmark.
    pub bench: Benchmark,
    /// Naive compile (checks inserted, nothing optimized).
    pub checked: Program,
    /// The naive program lowered to register bytecode, once; re-runs of
    /// the naive baseline (differential tests, engine benchmarks) go
    /// straight to the VM without paying the lowering again.
    pub lowered: CompiledProgram,
    /// Wall time of that compile (charged to every cell's `total_time`,
    /// mirroring what a per-cell recompile used to cost).
    pub compile_time: Duration,
    /// The naive run: the output/trap/dynamic-check baseline every
    /// optimized configuration is validated against.
    pub naive: RunResult,
    /// Natural loops across all units.
    pub loops: usize,
}

/// Compiles and runs a benchmark once, capturing the shared baseline.
/// The baseline run itself executes on the register-bytecode VM (the two
/// engines are counter-for-counter identical; see the differential test).
///
/// # Panics
///
/// Panics if the benchmark fails to compile or run — the suite is
/// expected to be trap-free.
pub fn prepare(b: &Benchmark) -> PreparedBenchmark {
    let t0 = Instant::now();
    let checked = compile(&b.source).expect("benchmark compiles");
    let compile_time = t0.elapsed();
    let lowered = lower(&checked);
    let naive = run_compiled(&lowered, &harness_limits()).expect("benchmark runs");
    assert!(naive.trap.is_none(), "{} trapped", b.name);
    let loops = loop_count(&checked);
    PreparedBenchmark {
        bench: b.clone(),
        checked,
        lowered,
        compile_time,
        naive,
        loops,
    }
}

/// Result of optimizing and running one benchmark under one configuration.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// % of dynamic checks eliminated relative to the naive run.
    pub percent_eliminated: f64,
    /// Residual dynamic checks.
    pub dynamic_checks: u64,
    /// Dynamic guard operations of hoisted conditional checks.
    pub dynamic_guard_ops: u64,
    /// Time spent in the range-check optimizer (the pipeline's
    /// `optimize` stage span).
    pub optimize_time: Duration,
    /// Total compile + optimize time.
    pub total_time: Duration,
    /// Per-analysis and per-pass wall times from the optimizer's
    /// [`PassContext`]s.
    pub timings: Timings,
    /// Optimizer statistics (static counts: discharged, hoisted, …),
    /// summed across all functions.
    pub stats: OptimizeStats,
}

/// Evaluates one matrix cell: [`crate::evaluate`] of the prepared
/// program against its naive run on the default engine, certified in
/// [`Mode::Certify`] by the same optimizer run. Panics with the
/// pipeline's message on any [`crate::PipelineError`], and if the
/// certifier rejects the run.
fn cell(
    pb: &PreparedBenchmark,
    opts: &OptimizeOptions,
    mode: Mode,
) -> (SchemeResult, Option<Certificate>) {
    let name = pb.bench.name;
    let out = crate::evaluate(
        pb.checked.clone(),
        &pb.naive,
        &RunConfig::from_opts(opts),
        mode,
        &harness_limits(),
    )
    .unwrap_or_else(|e| panic!("{name} under {opts:?}: {e}"));
    if let Some(cert) = &out.certificate {
        assert!(
            cert.ok(),
            "{name} under {opts:?} rejected by the certifier:\n{}",
            cert.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    let optimize_time = Duration::from_nanos(out.stages.optimize_ns);
    let result = SchemeResult {
        percent_eliminated: out.counters.percent_eliminated,
        dynamic_checks: out.counters.dynamic_checks,
        dynamic_guard_ops: out.counters.dynamic_guard_ops,
        optimize_time,
        total_time: pb.compile_time + optimize_time,
        timings: out.timings,
        stats: out.stats,
    };
    (result, out.certificate)
}

/// Optimizes a prepared benchmark under `opts`, runs it on the VM,
/// validates it against the naive run, and reports elimination
/// percentage and timings.
///
/// # Panics
///
/// Panics if the optimized run fails or fails the validation
/// [`crate::compute`] applies (changed output or non-check work, more
/// dynamic checks, a trap introduced, lost or moved later) — optimizer
/// bugs must not produce table rows.
pub fn evaluate_prepared(pb: &PreparedBenchmark, opts: &OptimizeOptions) -> SchemeResult {
    cell(pb, opts, Mode::Optimize).0
}

/// [`evaluate_prepared`] with the static certifier (`nascent-verify`)
/// re-validating every decision of the same optimizer run. The
/// certificate carries the obligation counts and the number of checks
/// the value-range analysis discharges statically.
///
/// # Panics
///
/// As [`evaluate_prepared`], and if the certifier rejects the run —
/// tables must not be produced from uncertified optimizations.
pub fn certify_prepared(pb: &PreparedBenchmark, opts: &OptimizeOptions) -> Certificate {
    cell(pb, opts, Mode::Certify)
        .1
        .expect("certify mode certifies")
}

/// One row of Table 2 / Table 3: a named configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Row label (`NI`, `SE'`, …).
    pub label: &'static str,
    /// Options for the optimizer.
    pub opts: OptimizeOptions,
}

/// The seven Table 2 rows for a check kind.
pub fn table2_configs(kind: CheckKind) -> Vec<Config> {
    Scheme::EACH
        .iter()
        .map(|s| Config {
            label: s.name(),
            opts: OptimizeOptions::scheme(*s).with_kind(kind),
        })
        .collect()
}

/// The six Table 3 rows for a check kind: NI, NI', SE, SE', LLS, LLS'.
pub fn table3_configs(kind: CheckKind) -> Vec<Config> {
    vec![
        Config {
            label: "NI",
            opts: OptimizeOptions::scheme(Scheme::Ni).with_kind(kind),
        },
        Config {
            label: "NI'",
            opts: OptimizeOptions::scheme(Scheme::Ni)
                .with_kind(kind)
                .with_implications(ImplicationMode::None),
        },
        Config {
            label: "SE",
            opts: OptimizeOptions::scheme(Scheme::Se).with_kind(kind),
        },
        Config {
            label: "SE'",
            opts: OptimizeOptions::scheme(Scheme::Se)
                .with_kind(kind)
                .with_implications(ImplicationMode::None),
        },
        Config {
            label: "LLS",
            opts: OptimizeOptions::scheme(Scheme::Lls).with_kind(kind),
        },
        Config {
            label: "LLS'",
            opts: OptimizeOptions::scheme(Scheme::Lls)
                .with_kind(kind)
                .with_implications(ImplicationMode::CrossFamilyOnly),
        },
    ]
}

/// Every scheme × check-kind × implication-mode configuration — the full
/// certification matrix (`table2 --certify`, the service smoke test).
pub fn full_matrix_configs() -> Vec<Config> {
    let mut configs = Vec::new();
    for kind in [CheckKind::Prx, CheckKind::Inx] {
        for scheme in Scheme::EACH {
            for mode in [
                ImplicationMode::All,
                ImplicationMode::CrossFamilyOnly,
                ImplicationMode::None,
            ] {
                configs.push(Config {
                    label: scheme.name(),
                    opts: OptimizeOptions::scheme(scheme)
                        .with_kind(kind)
                        .with_implications(mode),
                });
            }
        }
    }
    configs
}

/// One completed cell of the configuration × benchmark matrix.
#[derive(Debug)]
pub struct MatrixCell {
    /// Index into the `configs` slice passed to [`run_matrix`].
    pub config_index: usize,
    /// Index into the `prepared` slice passed to [`run_matrix`].
    pub bench_index: usize,
    /// Evaluation result (always produced).
    pub result: SchemeResult,
    /// Certifier verdict, when certification was requested.
    pub certificate: Option<Certificate>,
    /// Wall-clock time this cell took on its worker (optimize + optional
    /// certification + run + validate).
    pub wall: Duration,
}

/// The whole matrix plus the parallel-execution accounting for the
/// `--timings` report.
#[derive(Debug)]
pub struct MatrixReport {
    /// All cells, sorted by `(config_index, bench_index)` — identical
    /// order to a serial nested loop, whatever the thread interleaving.
    pub cells: Vec<MatrixCell>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the parallel run.
    pub wall_time: Duration,
    /// Serial estimate: the sum of every cell's wall time plus one
    /// benchmark recompile per cell — what a one-cell-at-a-time loop
    /// that recompiles the program for every configuration (the old
    /// harness) pays for the same matrix.
    pub serial_time: Duration,
    /// Per-analysis/per-pass counters merged across every cell.
    pub timings: Timings,
}

impl MatrixReport {
    /// Serial-estimate / wall-clock speedup factor.
    pub fn speedup(&self) -> f64 {
        self.serial_time.as_secs_f64() / self.wall_time.as_secs_f64().max(1e-9)
    }

    /// The cell for `(config_index, bench_index)`.
    ///
    /// # Panics
    ///
    /// Panics if the pair is out of range.
    pub fn cell(&self, config_index: usize, bench_index: usize) -> &MatrixCell {
        self.cells
            .iter()
            .find(|c| c.config_index == config_index && c.bench_index == bench_index)
            .expect("cell exists")
    }

    /// Stable machine-readable `--timings` block: the merged
    /// [`Timings::report`] followed by one `harness` line.
    pub fn timings_report(&self) -> String {
        format!(
            "{}harness threads={} wall_ms={:.1} serial_ms={:.1} speedup={:.2}\n",
            self.timings.report(),
            self.threads,
            self.wall_time.as_secs_f64() * 1e3,
            self.serial_time.as_secs_f64() * 1e3,
            self.speedup(),
        )
    }
}

/// Worker-thread count for [`run_matrix`]: the machine's available
/// parallelism, capped by the number of cells.
pub fn matrix_threads(cells: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(cells)
        .max(1)
}

/// Bit-level equality of two run results: counters, trap records, and
/// outputs, with `Real` outputs compared by bit pattern (so `-0.0` and
/// `0.0` differ and NaNs equal themselves) — the differential criterion,
/// stricter than [`RunResult`]'s `PartialEq`.
pub fn results_bit_identical(a: &RunResult, b: &RunResult) -> bool {
    a.dynamic_instructions == b.dynamic_instructions
        && a.dynamic_progress == b.dynamic_progress
        && a.dynamic_checks == b.dynamic_checks
        && a.dynamic_guard_ops == b.dynamic_guard_ops
        && a.trap == b.trap
        && a.output.len() == b.output.len()
        && a.output.iter().zip(&b.output).all(|(x, y)| match (x, y) {
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
            _ => false,
        })
}

/// Runs `prog` on every engine in `engines` and asserts the outcomes are
/// bit-identical: counters, outputs (reals by bit pattern), trap records,
/// and error verdicts alike. Returns the first engine's outcome.
///
/// # Panics
///
/// Panics if any two engines diverge, or if the native tier fails for an
/// infrastructure reason (no C compiler, compile rejection, timeout) —
/// gate native runs on [`nascent_cback::cc_available`] first.
pub fn compare_engines(
    name: &str,
    prog: &Program,
    limits: &Limits,
    engines: &[Engine],
) -> Result<RunResult, RunError> {
    assert!(!engines.is_empty(), "compare_engines needs an engine");
    let mut outcomes: Vec<(Engine, Result<RunResult, RunError>)> = Vec::new();
    for &e in engines {
        let r = run_with_engine(prog, limits, e);
        if let Err(RunError::NativeBackend(msg)) = &r {
            panic!("{name}: native tier infrastructure failure: {msg}");
        }
        outcomes.push((e, r));
    }
    let (e0, first) = &outcomes[0];
    for (e, r) in &outcomes[1..] {
        let same = match (first, r) {
            (Ok(a), Ok(b)) => results_bit_identical(a, b),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        assert!(
            same,
            "{name}: engines diverge:\n  {}: {first:?}\n  {}: {r:?}",
            e0.name(),
            e.name(),
        );
    }
    outcomes.swap_remove(0).1
}

/// Evaluates (and optionally certifies) every `configs[i]` × `prepared[j]`
/// cell, fanned out over [`matrix_threads`] worker threads pulling cells
/// from a shared queue. Each cell builds its own per-function
/// [`PassContext`]s inside the optimizer, so no state is shared between
/// concurrent cells; the prepared baselines are read-only.
///
/// # Panics
///
/// Panics (propagated from the workers) if any cell fails validation or
/// certification.
pub fn run_matrix(
    prepared: &[PreparedBenchmark],
    configs: &[Config],
    certify: bool,
) -> MatrixReport {
    let mode = if certify {
        Mode::Certify
    } else {
        Mode::Optimize
    };
    let pairs: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..prepared.len()).map(move |b| (c, b)))
        .collect();
    let threads = matrix_threads(pairs.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<MatrixCell>>> = pairs.iter().map(|_| Mutex::new(None)).collect();
    let wall0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(config_index, bench_index)) = pairs.get(i) else {
                    break;
                };
                let pb = &prepared[bench_index];
                let cfg = &configs[config_index];
                let cell0 = Instant::now();
                let (result, certificate) = cell(pb, &cfg.opts, mode);
                *slots[i].lock().expect("slot lock") = Some(MatrixCell {
                    config_index,
                    bench_index,
                    result,
                    certificate,
                    wall: cell0.elapsed(),
                });
            });
        }
    });
    let wall_time = wall0.elapsed();
    let mut cells: Vec<MatrixCell> = slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("cell computed"))
        .collect();
    cells.sort_by_key(|c| (c.config_index, c.bench_index));
    let serial_time = cells
        .iter()
        .map(|c| c.wall + prepared[c.bench_index].compile_time)
        .sum();
    let mut timings = Timings::default();
    for c in &cells {
        timings.merge(&c.result.timings);
    }
    MatrixReport {
        cells,
        threads,
        wall_time,
        serial_time,
        timings,
    }
}
