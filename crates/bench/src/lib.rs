//! Experiment harness: everything needed to regenerate the paper's
//! Tables 1–3 and Figures 1–6.
//!
//! Binaries (see `src/bin/`):
//!
//! * `table1` — program characteristics and naive check overhead,
//! * `table2` — % checks eliminated per scheme × {PRX, INX} + compile time,
//! * `table3` — the implication ablation (`NI'`, `SE'`, `LLS'`),
//! * `figures` — the paper's worked examples, before/after,
//! * `extensions` — experiments beyond the paper (the MCM baseline,
//!   guard overhead, the INX ablation, compile-time scaling),
//! * `dump_suite` — writes the suite's MiniF sources to a directory,
//! * `native_differential` — the tree/VM/native differential over the
//!   full matrix, with the compile-cache and native-speedup checks,
//! * `bench_service` — drives a `nascentd` instance with concurrent
//!   clients and checks byte-parity against the in-process pipeline,
//! * `obs_smoke` — checks a running `nascentd`'s traces and Prometheus
//!   exposition.
//!
//! None of them is a benchmark: the repository's performance numbers
//! come from `perfbench` (see `BENCHMARK.json`).
//!
//! The harness machinery itself (prepared baselines, per-configuration
//! evaluation, certification, the parallel configuration × program
//! matrix) lives in [`nascent_driver::harness`] — the same pipeline
//! layer that serves the `nascentc` CLI and the `nascentd` service — and
//! the binaries import it from there. This crate only keeps what is
//! specific to reproducing the paper's tables: the Table 1 metrics and
//! the text-table formatter.

use nascent_driver::harness::{
    harness_limits, prepare, static_instruction_count, PreparedBenchmark,
};
use nascent_frontend::{compile_with, CheckInsertion};
use nascent_interp::{lower, run_compiled};
use nascent_ir::{Program, Stmt};

/// Static and dynamic characteristics of one benchmark (Table 1 row).
#[derive(Debug, Clone)]
pub struct ProgramMetrics {
    /// Program name.
    pub name: &'static str,
    /// Source lines (non-empty).
    pub lines: usize,
    /// Number of units (program + subroutines).
    pub subroutines: usize,
    /// Natural loops across all units.
    pub loops: usize,
    /// Static instruction count (cost-model units, without checks).
    pub static_instructions: u64,
    /// Dynamic instruction count (without checks).
    pub dynamic_instructions: u64,
    /// Static naive check count.
    pub static_checks: u64,
    /// Dynamic naive check count.
    pub dynamic_checks: u64,
}

impl ProgramMetrics {
    /// Static check/instruction ratio in percent.
    pub fn static_ratio(&self) -> f64 {
        100.0 * self.static_checks as f64 / self.static_instructions.max(1) as f64
    }

    /// Dynamic check/instruction ratio in percent.
    pub fn dynamic_ratio(&self) -> f64 {
        100.0 * self.dynamic_checks as f64 / self.dynamic_instructions.max(1) as f64
    }
}

/// Measures one benchmark's Table 1 row from its prepared baseline
/// (adds the one unchecked compile + run that only Table 1 needs).
pub fn measure_prepared(pb: &PreparedBenchmark) -> ProgramMetrics {
    let unchecked =
        compile_with(&pb.bench.source, CheckInsertion::None).expect("benchmark compiles");
    let ru = run_compiled(&lower(&unchecked), &harness_limits()).expect("benchmark runs");
    ProgramMetrics {
        name: pb.bench.name,
        lines: pb
            .bench
            .source
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count(),
        subroutines: pb.checked.functions.len(),
        loops: pb.loops,
        static_instructions: static_instruction_count(&unchecked),
        dynamic_instructions: ru.dynamic_instructions,
        static_checks: pb.checked.check_count() as u64,
        dynamic_checks: pb.naive.dynamic_checks,
    }
}

/// Measures one benchmark's Table 1 row.
///
/// # Panics
///
/// Panics if the benchmark fails to compile or run — the suite is
/// expected to be trap-free.
pub fn measure_program(b: &nascent_suite::Benchmark) -> ProgramMetrics {
    measure_prepared(&prepare(b))
}

/// Formats an aligned text table from headers and rows.
pub fn format_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(4)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Counts `Check` statements that are conditional (for reports).
pub fn conditional_check_count(p: &Program) -> usize {
    p.functions
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.stmts)
        .filter(|s| matches!(s, Stmt::Check(c) if !c.is_unconditional()))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_driver::harness::{
        evaluate_prepared, run_matrix, table2_configs, table3_configs, Config,
    };
    use nascent_rangecheck::{CheckKind, OptimizeOptions, Scheme};
    use nascent_suite::{suite, Scale};

    #[test]
    fn measure_and_evaluate_one_benchmark() {
        let b = &suite(Scale::Small)[0];
        let m = measure_program(b);
        assert!(m.dynamic_checks > 0);
        assert!(m.dynamic_ratio() > 5.0);
        let r = evaluate_prepared(&prepare(b), &OptimizeOptions::scheme(Scheme::Lls));
        assert!(r.percent_eliminated > 50.0, "got {}", r.percent_eliminated);
        assert!(r.timings.pass_nanos() > 0, "passes were timed");
        assert!(r.timings.report().contains("pass elim "), "elim pass timed");
    }

    #[test]
    fn lls_beats_ni_on_the_small_suite() {
        for b in suite(Scale::Small) {
            let pb = prepare(&b);
            let ni = evaluate_prepared(&pb, &OptimizeOptions::scheme(Scheme::Ni));
            let lls = evaluate_prepared(&pb, &OptimizeOptions::scheme(Scheme::Lls));
            assert!(
                lls.percent_eliminated >= ni.percent_eliminated - 1e-9,
                "{}: LLS {} < NI {}",
                b.name,
                lls.percent_eliminated,
                ni.percent_eliminated
            );
        }
    }

    #[test]
    fn every_config_is_sound_on_the_small_suite() {
        for b in suite(Scale::Small) {
            let pb = prepare(&b);
            for kind in [CheckKind::Prx, CheckKind::Inx] {
                for cfg in table2_configs(kind) {
                    // evaluate_prepared() panics on any soundness violation
                    let r = evaluate_prepared(&pb, &cfg.opts);
                    assert!(
                        r.percent_eliminated >= -1e-9,
                        "{} {} eliminated negative checks",
                        b.name,
                        cfg.label
                    );
                }
                for cfg in table3_configs(kind) {
                    evaluate_prepared(&pb, &cfg.opts);
                }
            }
        }
    }

    #[test]
    fn parallel_matrix_matches_serial_evaluation() {
        let benches = suite(Scale::Small);
        let prepared: Vec<_> = benches.iter().take(4).map(prepare).collect();
        let configs = table2_configs(CheckKind::Prx);
        let report = run_matrix(&prepared, &configs, false);
        assert_eq!(report.cells.len(), configs.len() * prepared.len());
        assert!(report.threads >= 1);
        for (ci, cfg) in configs.iter().enumerate() {
            for (bi, pb) in prepared.iter().enumerate() {
                let serial = evaluate_prepared(pb, &cfg.opts);
                let cell = report.cell(ci, bi);
                assert_eq!(
                    cell.result.dynamic_checks, serial.dynamic_checks,
                    "{} under {}: parallel and serial runs disagree",
                    pb.bench.name, cfg.label
                );
                assert_eq!(cell.result.percent_eliminated, serial.percent_eliminated);
            }
        }
        let rep = report.timings_report();
        assert!(rep.starts_with("timings-format 1\n"), "got:\n{rep}");
        assert!(rep.contains("harness threads="));
    }

    #[test]
    fn matrix_certification_discharges_everything() {
        let benches = suite(Scale::Small);
        let prepared: Vec<_> = benches.iter().take(2).map(prepare).collect();
        let configs = vec![
            Config {
                label: "NI",
                opts: OptimizeOptions::scheme(Scheme::Ni),
            },
            Config {
                label: "LLS",
                opts: OptimizeOptions::scheme(Scheme::Lls),
            },
        ];
        let report = run_matrix(&prepared, &configs, true);
        for cell in &report.cells {
            let cert = cell.certificate.as_ref().expect("certified cell");
            assert!(cert.ok());
            assert!(cert.obligations > 0);
        }
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["a".into(), "bb".into()],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
        assert!(t.contains("bb"));
        assert_eq!(t.lines().count(), 4);
    }
}
