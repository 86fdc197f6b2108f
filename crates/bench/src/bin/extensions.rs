//! Extension experiments beyond the paper's tables:
//!
//! 1. **MCM vs LI vs LLS** — §5 of the paper proposes implementing the
//!    Markstein–Cocke–Markstein algorithm "to compare its effectiveness
//!    with the loop-limit substitution algorithm"; this harness runs that
//!    comparison.
//! 2. **Guard overhead** — hoisted `Cond-check`s trade checks for guard
//!    evaluations; this reports the residual guard operations that the
//!    check-elimination percentages do not show.
//! 3. **INX substitution depth ablation** — how much of the INX benefit
//!    comes from the rewrite alone (NI-INX vs NI-PRX per program).
//! 4. **Compile-time scaling** — optimizer time per scheme on synthetic
//!    programs whose check universe grows quadratically.
//!
//! Run with `cargo run --release -p nascent-bench --bin extensions`
//! (pass `--small` for the test-scale suite).

use std::fmt::Write as _;
use std::time::Instant;

use nascent_bench::format_table;
use nascent_driver::harness::{evaluate_prepared, prepare};
use nascent_frontend::compile;
use nascent_rangecheck::{optimize_program, CheckKind, OptimizeOptions, Scheme};
use nascent_suite::{suite, Scale};

fn main() {
    let scale = if std::env::args().any(|a| a == "--small") {
        Scale::Small
    } else {
        Scale::Paper
    };
    let benches = suite(scale);
    let prepared: Vec<_> = benches.iter().map(prepare).collect();

    // --- experiment 1: MCM vs LI vs LLS --------------------------------
    let mut headers: Vec<String> = vec!["scheme".into()];
    headers.extend(benches.iter().map(|b| b.name.to_string()));
    headers.push("mean".into());
    let mut rows = Vec::new();
    for scheme in [Scheme::Mcm, Scheme::Li, Scheme::Lls] {
        let mut row = vec![scheme.name().to_string()];
        let mut sum = 0.0;
        for pb in &prepared {
            let r = evaluate_prepared(pb, &OptimizeOptions::scheme(scheme));
            sum += r.percent_eliminated;
            row.push(format!("{:.2}", r.percent_eliminated));
        }
        row.push(format!("{:.2}", sum / benches.len() as f64));
        rows.push(row);
    }
    println!("Extension 1: Markstein-Cocke-Markstein ('82) vs the paper's preheader schemes");
    println!("(% dynamic checks eliminated; the comparison proposed in the paper's section 5)\n");
    println!("{}", format_table(&headers, &rows));

    // --- experiment 2: guard overhead of hoisting ----------------------
    let mut rows = Vec::new();
    for scheme in [Scheme::Li, Scheme::Lls, Scheme::All] {
        let mut row = vec![scheme.name().to_string()];
        for pb in &prepared {
            let r = evaluate_prepared(pb, &OptimizeOptions::scheme(scheme));
            let guards_pct =
                100.0 * r.dynamic_guard_ops as f64 / pb.naive.dynamic_checks.max(1) as f64;
            row.push(format!("{:.2}", guards_pct));
        }
        row.push(String::new());
        rows.push(row);
    }
    println!("\nExtension 2: residual guard evaluations of hoisted Cond-checks");
    println!("(dynamic guard ops as % of the naive dynamic check count — the");
    println!("hidden cost of conditional preheader checks)\n");
    println!("{}", format_table(&headers, &rows));

    // --- experiment 3: what the INX rewrite alone buys ------------------
    let mut rows = Vec::new();
    let mut row_prx = vec!["NI-PRX".to_string()];
    let mut row_inx = vec!["NI-INX".to_string()];
    let mut row_gain = vec!["gain".to_string()];
    for pb in &prepared {
        let prx = evaluate_prepared(pb, &OptimizeOptions::scheme(Scheme::Ni));
        let inx = evaluate_prepared(
            pb,
            &OptimizeOptions::scheme(Scheme::Ni).with_kind(CheckKind::Inx),
        );
        row_prx.push(format!("{:.2}", prx.percent_eliminated));
        row_inx.push(format!("{:.2}", inx.percent_eliminated));
        row_gain.push(format!(
            "{:+.2}",
            inx.percent_eliminated - prx.percent_eliminated
        ));
    }
    row_prx.push(String::new());
    row_inx.push(String::new());
    row_gain.push(String::new());
    rows.push(row_prx);
    rows.push(row_inx);
    rows.push(row_gain);
    println!("\nExtension 3: effect of the induction-expression rewrite alone (under NI)\n");
    println!("{}", format_table(&headers, &rows));

    // --- experiment 4: compile-time scaling --------------------------
    println!("\nExtension 4: optimizer compile-time scaling");
    println!("(synthetic programs with k loops x k accesses; time per scheme, ms)\n");
    let sizes = [4usize, 8, 16, 32];
    let mut headers: Vec<String> = vec!["scheme".into()];
    headers.extend(sizes.iter().map(|k| format!("k={k}")));
    let mut rows = Vec::new();
    for scheme in [Scheme::Ni, Scheme::Cs, Scheme::Se, Scheme::Lls] {
        let mut row = vec![scheme.name().to_string()];
        for &k in &sizes {
            let src = scaling_program(k);
            let prog = compile(&src).expect("scaling program compiles");
            let t0 = Instant::now();
            let mut p = prog.clone();
            optimize_program(&mut p, &OptimizeOptions::scheme(scheme));
            row.push(format!("{:.2}", t0.elapsed().as_secs_f64() * 1e3));
        }
        rows.push(row);
    }
    println!("{}", format_table(&headers, &rows));
}

/// A synthetic program with `k` sequential loops, each performing `k`
/// distinct array accesses (so the check universe grows as k^2).
fn scaling_program(k: usize) -> String {
    let n = 4 * k + 8;
    let mut src = String::new();
    let _ = writeln!(src, "program scale");
    let _ = writeln!(src, " integer a({n})");
    let _ = writeln!(src, " integer i");
    for li in 0..k {
        let _ = writeln!(src, " do i = 1, {}", n - k - 1);
        for ai in 0..k {
            let _ = writeln!(src, "  a(i + {}) = i + {li}", ai + 1);
        }
        let _ = writeln!(src, " enddo");
    }
    let _ = writeln!(src, " print a(1)");
    let _ = writeln!(src, "end");
    src
}
