//! Regenerates the paper's **Table 1**: program characteristics of the
//! benchmark programs — lines, subroutines, loops, static/dynamic
//! instruction counts, static/dynamic naive check counts, and the
//! check/instruction ratios. Also prints the §4.1 overhead estimate
//! (each check ≈ 2 instructions). The `disch-st` column is the number of
//! static checks the certifier's value-range analysis proves always-true
//! without any optimization.
//!
//! Run with `cargo run --release -p nascent-bench --bin table1`.
//! Pass `--small` for the test-scale suite. Each benchmark is compiled
//! and its naive baseline run once ([`nascent_driver::harness::prepare`]); the
//! measurement and certification both reuse that baseline.

use nascent_bench::{format_table, measure_prepared};
use nascent_driver::harness::{certify_prepared, prepare};
use nascent_rangecheck::{OptimizeOptions, Scheme};
use nascent_suite::{suite, Scale};

fn main() {
    let scale = if std::env::args().any(|a| a == "--small") {
        Scale::Small
    } else {
        Scale::Paper
    };
    let headers: Vec<String> = [
        "program",
        "lines",
        "subr",
        "loops",
        "instr-st",
        "instr-dyn",
        "checks-st",
        "checks-dyn",
        "st-%",
        "dyn-%",
        "disch-st",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let mut rows = Vec::new();
    let mut min_ratio = f64::MAX;
    let mut max_ratio: f64 = 0.0;
    for b in suite(scale) {
        let pb = prepare(&b);
        let m = measure_prepared(&pb);
        min_ratio = min_ratio.min(m.dynamic_ratio());
        max_ratio = max_ratio.max(m.dynamic_ratio());
        rows.push(vec![
            m.name.to_string(),
            m.lines.to_string(),
            m.subroutines.to_string(),
            m.loops.to_string(),
            m.static_instructions.to_string(),
            m.dynamic_instructions.to_string(),
            m.static_checks.to_string(),
            m.dynamic_checks.to_string(),
            format!("{:.0}", m.static_ratio()),
            format!("{:.0}", m.dynamic_ratio()),
            certify_prepared(&pb, &OptimizeOptions::scheme(Scheme::Ni))
                .vra_discharged
                .to_string(),
        ]);
    }
    println!("Table 1: program characteristics of benchmark programs\n");
    println!("{}", format_table(&headers, &rows));
    println!(
        "Estimated naive range-checking overhead (>= 2 instructions per check):\n  {:.0}% .. {:.0}%   (paper: 44% .. 132%)",
        2.0 * min_ratio,
        2.0 * max_ratio
    );
}
