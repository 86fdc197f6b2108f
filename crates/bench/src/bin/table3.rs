//! Regenerates the paper's **Table 3**: the implication ablation —
//! `NI` vs `NI'` (no implications), `SE` vs `SE'` (no implications), and
//! `LLS` vs `LLS'` (implications between different families only) — for
//! both PRX and INX checks.
//!
//! Run with `cargo run --release -p nascent-bench --bin table3`.
//! Pass `--small` for the test-scale suite, `--timings` for the
//! per-pass decomposition. Baselines are prepared once per benchmark and
//! the matrix runs in parallel, exactly like `table2`.

use std::time::Duration;

use nascent_bench::format_table;
use nascent_driver::harness::{prepare, run_matrix, table3_configs, Config};
use nascent_rangecheck::CheckKind;
use nascent_suite::{suite, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--small") {
        Scale::Small
    } else {
        Scale::Paper
    };
    let timings = args.iter().any(|a| a == "--timings");
    let benches = suite(scale);
    let prepared: Vec<_> = benches.iter().map(prepare).collect();

    let mut kind_labels: Vec<&'static str> = Vec::new();
    let mut configs: Vec<Config> = Vec::new();
    for kind in [CheckKind::Prx, CheckKind::Inx] {
        for cfg in table3_configs(kind) {
            kind_labels.push(match kind {
                CheckKind::Prx => "PRX",
                CheckKind::Inx => "INX",
            });
            configs.push(cfg);
        }
    }
    let report = run_matrix(&prepared, &configs, false);

    let mut headers: Vec<String> = vec!["".into(), "scheme".into()];
    headers.extend(benches.iter().map(|b| b.name.to_string()));
    headers.push("Range(ms)".into());
    headers.push("Nascent(ms)".into());

    let mut rows = Vec::new();
    for (ci, cfg) in configs.iter().enumerate() {
        let mut row = vec![kind_labels[ci].to_string(), cfg.label.to_string()];
        let mut range = Duration::ZERO;
        let mut total = Duration::ZERO;
        for bi in 0..prepared.len() {
            let r = &report.cell(ci, bi).result;
            range += r.optimize_time;
            total += r.total_time;
            row.push(format!("{:.2}", r.percent_eliminated));
        }
        row.push(format!("{:.1}", range.as_secs_f64() * 1e3));
        row.push(format!("{:.1}", total.as_secs_f64() * 1e3));
        rows.push(row);
    }
    println!(
        "Table 3: percentage of checks eliminated with and without\nimplications between checks\n"
    );
    println!("{}", format_table(&headers, &rows));
    println!("NI' / SE' = no implications between checks;");
    println!("LLS' = no implications within a family (cross-family only).");

    if timings {
        println!("\nPer-pass timing decomposition (all cells, merged):\n");
        print!("{}", report.timings_report());
    }
}
