//! Optimizer and certifier cost on the scaling curve: programs of `k`
//! sequential loops with `k` array stores each (`2k²` naive checks), the
//! shape of the benchmark's `scaling-certify` workload, under NI and LLS
//! with INX checks. Prints the median of three runs per row.
//!
//! Run with `cargo run --release --example certify_scaling [-- K...]`
//! (default k = 32 64 96 128).

use std::fmt::Write as _;
use std::time::Instant;

use nascent::frontend::compile;
use nascent::rangecheck::{optimize_program_logged, CheckKind, OptimizeOptions, Scheme};
use nascent::verify::certify_program;

const RUNS: usize = 3;

/// `k` loops of `k` stores over a bound held in a variable, so every
/// hoisted check keeps its loop-entry guard.
fn scaling_program(k: usize) -> String {
    let n = 4 * k + 8;
    let mut src = format!(
        "program scale\n integer a({n})\n integer i, m\n m = {}\n",
        n - k - 1
    );
    for li in 0..k {
        src.push_str(" do i = 1, m\n");
        for ai in 1..=k {
            let _ = writeln!(src, "  a(i + {ai}) = i + {li}");
        }
        src.push_str(" enddo\n");
    }
    src.push_str(" print a(1)\nend\n");
    src
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let ks: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("k is a positive integer"))
        .collect();
    let ks = if ks.is_empty() {
        vec![32, 64, 96, 128]
    } else {
        ks
    };
    println!(
        "{:>4} {:>6} {:>12} {:>11} {:>11} {:>9}",
        "k", "scheme", "optimize ms", "certify ms", "obligations", "us/oblig"
    );
    for k in ks {
        let naive = compile(&scaling_program(k)).expect("scaling program compiles");
        for scheme in [Scheme::Ni, Scheme::Lls] {
            let opts = OptimizeOptions::scheme(scheme).with_kind(CheckKind::Inx);
            let (mut optimize, mut certify) = (Vec::new(), Vec::new());
            let mut obligations = 0;
            for _ in 0..RUNS {
                let mut prog = naive.clone();
                let t = Instant::now();
                let (_, logs) = optimize_program_logged(&mut prog, &opts);
                optimize.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                let cert = certify_program(&naive, &prog, &logs, &opts);
                certify.push(t.elapsed().as_secs_f64() * 1e3);
                assert!(cert.ok(), "k={k} {} rejected: {cert}", scheme.name());
                obligations = cert.obligations;
            }
            let certify = median(certify);
            println!(
                "{k:>4} {:>6} {:>12.1} {:>11.1} {obligations:>11} {:>9.2}",
                scheme.name(),
                median(optimize),
                certify,
                certify * 1e3 / obligations as f64
            );
        }
    }
}
