//! Regenerates the paper's **Table 2**: percentage of dynamic checks
//! eliminated by the seven placement schemes × {PRX, INX} check kinds,
//! plus the time spent in the range-check optimizer ("Range") and the
//! total compile time ("Nascent") over the whole suite.
//!
//! Run with `cargo run --release -p nascent-bench --bin table2`.
//!
//! * `--small` — the test-scale suite,
//! * `--timings` — per-analysis/per-pass wall-time decomposition plus
//!   the parallel-harness accounting (stable `timings-format 1` block),
//! * `--certify` — re-validate the **full** scheme × kind ×
//!   implication-mode matrix with the static certifier,
//! * `--discharge on|off` — run the static-discharge tier before every
//!   scheme; the table gains a discharge-rate section and `--certify`
//!   additionally re-proves every logged deletion.
//!
//! Each benchmark is compiled and its naive baseline run exactly once;
//! the configuration × program matrix is then fanned out across worker
//! threads ([`nascent_driver::harness::run_matrix`]).

use std::time::Duration;

use nascent_bench::format_table;
use nascent_driver::harness::{
    certify_prepared, full_matrix_configs, prepare, run_matrix, table2_configs, Config,
};
use nascent_rangecheck::{CheckKind, Discharge, OptimizeOptions, Scheme};
use nascent_suite::{suite, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--small") {
        Scale::Small
    } else {
        Scale::Paper
    };
    let timings = args.iter().any(|a| a == "--timings");
    let certify = args.iter().any(|a| a == "--certify");
    let discharge = match args.iter().position(|a| a == "--discharge") {
        None => Discharge::Off,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("on") => Discharge::On,
            Some("off") => Discharge::Off,
            other => {
                eprintln!("table2: --discharge needs `on` or `off`, got {other:?}");
                std::process::exit(2);
            }
        },
    };
    let benches = suite(scale);
    let prepared: Vec<_> = benches.iter().map(prepare).collect();

    // one flattened kind × scheme configuration list; row order matches
    // the old serial nested loop
    let mut kind_labels: Vec<&'static str> = Vec::new();
    let mut configs: Vec<Config> = Vec::new();
    for kind in [CheckKind::Prx, CheckKind::Inx] {
        for mut cfg in table2_configs(kind) {
            kind_labels.push(match kind {
                CheckKind::Prx => "PRX",
                CheckKind::Inx => "INX",
            });
            cfg.opts = cfg.opts.with_discharge(discharge);
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
        "Table 2: percentage of dynamic checks eliminated by optimizations\nand time required for compilation (all {} programs)\n",
        benches.len()
    );
    println!("{}", format_table(&headers, &rows));
    println!("NI = no insertion, CS = check strengthening, LNI = latest placement,");
    println!("SE = safe-earliest, LI = preheader (invariant), LLS = preheader with");
    println!("loop-limit substitution, ALL = LLS followed by SE.");

    if timings {
        println!("\nPer-pass timing decomposition (all cells, merged):\n");
        print!("{}", report.timings_report());
    }

    if discharge == Discharge::On {
        // Static-discharge rate per table row: checks the value-range
        // tier deleted outright, as a fraction of the naive placement.
        let disch_headers: Vec<String> = ["", "scheme", "static", "discharged", "rate-%"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let mut disch_rows = Vec::new();
        for (ci, cfg) in configs.iter().enumerate() {
            let mut static_before = 0usize;
            let mut discharged = 0usize;
            for bi in 0..prepared.len() {
                let s = &report.cell(ci, bi).result.stats;
                static_before += s.static_before;
                discharged += s.discharged;
            }
            disch_rows.push(vec![
                kind_labels[ci].to_string(),
                cfg.label.to_string(),
                static_before.to_string(),
                discharged.to_string(),
                format!(
                    "{:.1}",
                    100.0 * discharged as f64 / static_before.max(1) as f64
                ),
            ]);
        }
        println!("\nStatic-discharge rate (optimizer value-range tier, per scheme):\n");
        println!("{}", format_table(&disch_headers, &disch_rows));
    }

    if certify {
        let full: Vec<Config> = full_matrix_configs()
            .into_iter()
            .map(|mut cfg| {
                cfg.opts = cfg.opts.with_discharge(discharge);
                cfg
            })
            .collect();
        let cert_report = run_matrix(&prepared, &full, true);
        let mut obligations = 0usize;
        let mut failed = 0usize;
        let mut discharge_events = 0usize;
        let mut discharge_rejected = 0usize;
        for cell in &cert_report.cells {
            let cert = cell.certificate.as_ref().expect("certified cell");
            obligations += cert.obligations;
            failed += cert.diagnostics.len();
            discharge_events += cert.discharge_events;
            discharge_rejected += cert.discharge_rejected;
        }
        println!(
            "\nFull-matrix certification: {} configs x {} programs = {} cells, {} obligations, {} uncovered",
            full.len(),
            prepared.len(),
            cert_report.cells.len(),
            obligations,
            failed
        );
        if discharge == Discharge::On {
            println!(
                "Discharge re-proof: {discharge_events} deletion events, {discharge_rejected} rejected"
            );
        }
        assert_eq!(failed, 0, "uncovered obligations in the full matrix");
        assert_eq!(
            discharge_rejected, 0,
            "rejected discharge events in the full matrix"
        );
        if timings {
            println!(
                "certification harness threads={} wall_ms={:.1}",
                cert_report.threads,
                cert_report.wall_time.as_secs_f64() * 1e3
            );
        }
    }

    // Extension over the paper: the certifier's value-range analysis
    // proves a fraction of the static checks always-true before any
    // placement runs; every table row above was also re-validated here.
    let cert_headers: Vec<String> = ["program", "checks-st", "disch-st", "disch-%"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let mut cert_rows = Vec::new();
    for pb in &prepared {
        let cert = certify_prepared(pb, &OptimizeOptions::scheme(Scheme::Ni));
        let total = pb.checked.check_count();
        cert_rows.push(vec![
            pb.bench.name.to_string(),
            total.to_string(),
            cert.vra_discharged.to_string(),
            format!(
                "{:.1}",
                100.0 * cert.vra_discharged as f64 / total.max(1) as f64
            ),
        ]);
    }
    println!("\nStatically discharged checks (certifier value-range analysis):\n");
    println!("{}", format_table(&cert_headers, &cert_rows));
}
