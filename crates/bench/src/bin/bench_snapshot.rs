//! Emits a machine-readable performance snapshot (`BENCH_9.json`) that
//! extends the repo's perf trajectory (`BENCH_5.json` seeded it):
//!
//! * per-program ns/step on both execution engines (tree-walker vs
//!   register-bytecode VM) over the naive, fully checked suite,
//! * the Table 2 matrix wall time (7 schemes × {PRX, INX} × 10 programs)
//!   on the parallel harness,
//! * total dataflow solver iterations and the per-analysis/per-pass wall
//!   time split from the optimizer's timing counters.
//!
//! Check and guard counts are engine-invariant (asserted by the
//! differential test); only the timing fields vary between machines.
//!
//! * the obs overhead check: the same optimize sweep with the trace
//!   recorder off vs on (spans recorded and drained), plus the spans
//!   captured per sweep — the evidence behind the "recorder off is
//!   near-free" guarantee (`tests/overhead.rs` enforces the bound).
//!
//! Usage: `cargo run --release -p nascent-bench --bin bench_snapshot
//! [out.json]` (default `BENCH_9.json`).

use std::fmt::Write as _;
use std::time::Instant;

use nascent_driver::harness::{harness_limits, prepare, run_matrix, table2_configs, Config};
use nascent_interp::{run, run_compiled};
use nascent_rangecheck::CheckKind;
use nascent_suite::{suite, Scale};

/// Best-of-N wall time of `f`, in nanoseconds.
fn best_ns<F: FnMut()>(mut f: F) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_9.json".to_string());
    let limits = harness_limits();
    let prepared: Vec<_> = suite(Scale::Small).iter().map(prepare).collect();

    let mut programs = String::new();
    for (i, pb) in prepared.iter().enumerate() {
        let steps = pb.naive.dynamic_instructions + pb.naive.dynamic_checks;
        let tree_ns = best_ns(|| {
            run(&pb.checked, &limits).expect("runs");
        });
        let vm_ns = best_ns(|| {
            run_compiled(&pb.lowered, &limits).expect("runs");
        });
        let per = |ns: u128| ns as f64 / steps.max(1) as f64;
        if i > 0 {
            programs.push_str(",\n");
        }
        write!(
            programs,
            "    {{\"name\": \"{}\", \"steps\": {}, \"dynamic_checks\": {}, \
             \"tree_ns\": {}, \"vm_ns\": {}, \
             \"tree_ns_per_step\": {:.2}, \"vm_ns_per_step\": {:.2}, \
             \"speedup\": {:.2}}}",
            pb.bench.name,
            steps,
            pb.naive.dynamic_checks,
            tree_ns,
            vm_ns,
            per(tree_ns),
            per(vm_ns),
            tree_ns as f64 / vm_ns.max(1) as f64,
        )
        .expect("write");
    }

    // Table 2 matrix (both check kinds) on the parallel harness + VM.
    let configs: Vec<Config> = table2_configs(CheckKind::Prx)
        .into_iter()
        .chain(table2_configs(CheckKind::Inx))
        .collect();
    let report = run_matrix(&prepared, &configs, false);
    let solver_iterations: u64 = {
        // re-derive the solver iteration total serially (OptimizeStats is
        // not carried through matrix cells)
        let mut total = 0u64;
        for pb in &prepared {
            for cfg in &configs {
                let mut prog = pb.checked.clone();
                let (stats, _) = nascent_rangecheck::optimize_program_timed(&mut prog, &cfg.opts);
                total += stats.dataflow_iterations;
            }
        }
        total
    };

    // obs overhead: the identical optimize sweep with the trace recorder
    // off vs on; the on-sweep's spans are drained and counted
    let tracing_off_ns = best_ns(|| {
        for pb in &prepared {
            for cfg in &configs {
                let mut prog = pb.checked.clone();
                let _ = nascent_rangecheck::optimize_program_timed(&mut prog, &cfg.opts);
            }
        }
    });
    nascent_obs::trace::set_global_enabled(true);
    let tracing_on_ns = best_ns(|| {
        let _ = nascent_obs::trace::drain_global();
        for pb in &prepared {
            for cfg in &configs {
                let mut prog = pb.checked.clone();
                let _ = nascent_rangecheck::optimize_program_timed(&mut prog, &cfg.opts);
            }
        }
    });
    nascent_obs::trace::set_global_enabled(false);
    let spans_per_sweep = nascent_obs::trace::drain_global().len();
    let overhead_pct =
        100.0 * (tracing_on_ns as f64 - tracing_off_ns as f64) / tracing_off_ns.max(1) as f64;

    let json = format!(
        "{{\n  \"format\": \"bench-snapshot\",\n  \"pr\": 9,\n  \"suite_scale\": \"small\",\n  \
         \"programs\": [\n{programs}\n  ],\n  \
         \"matrix\": {{\"cells\": {}, \"threads\": {}, \"wall_ms\": {:.3}, \
         \"serial_ms\": {:.3}, \"speedup\": {:.2}}},\n  \
         \"solver\": {{\"dataflow_iterations\": {solver_iterations}, \
         \"analysis_ns\": {}, \"pass_ns\": {}}},\n  \
         \"obs\": {{\"tracing_off_ns\": {tracing_off_ns}, \
         \"tracing_on_ns\": {tracing_on_ns}, \
         \"overhead_pct\": {overhead_pct:.2}, \
         \"spans_per_sweep\": {spans_per_sweep}}}\n}}\n",
        report.cells.len(),
        report.threads,
        report.wall_time.as_secs_f64() * 1e3,
        report.serial_time.as_secs_f64() * 1e3,
        report.speedup(),
        report.timings.analysis_nanos(),
        report.timings.pass_nanos(),
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!("wrote {out_path}");
    print!("{json}");
}
