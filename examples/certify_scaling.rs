//! Optimizer and certifier cost on the scaling curve: programs of `k`
//! sequential loops with `k` array stores each (`2k²` naive checks), the
//! shape of the benchmark's `scaling-certify` workload, under NI and LLS
//! with INX checks. Prints the median of three runs per row, and from one
//! more, traced, certification the duration of its `vra-ref` span and
//! the span's `visits` and `capped` attributes: the value-range
//! fixpoint's block visits on the reference function, and whether it ran
//! into the iteration cap (which sets every state to top, so the visits
//! bought nothing).
//!
//! Exits non-zero when, at any k ≥ 64, the median LLS optimize time
//! exceeds 4× the median NI optimize time: the preheader hoist pass must
//! stay linear in the loop count. Exits non-zero too when, for either
//! scheme, the median certify µs per obligation at the largest k exceeds
//! 2× its value at the smallest k ≥ 32: certification must stay linear
//! in the program. Exits non-zero too when `vra-ref` is capped at any k:
//! the fixpoint must settle each loop before the next.
//!
//! Run with `cargo run --release --example certify_scaling [-- K...]`
//! (default k = 32 64 96 128).

use std::time::Instant;

use nascent::frontend::compile;
use nascent::ir::Program;
use nascent::obs::trace::{AttrValue, ScopedCollector};
use nascent::rangecheck::{optimize_program_logged, CheckKind, OptimizeOptions, Scheme};
use nascent::suite::scaling_program;
use nascent::verify::certify_program;

const RUNS: usize = 3;

/// Largest allowed LLS / NI optimize-time ratio at k ≥ [`GATE_FROM_K`].
const MAX_LLS_OVER_NI: f64 = 4.0;
const GATE_FROM_K: usize = 64;

/// Largest allowed growth of certify µs per obligation from the smallest
/// k ≥ [`LINEAR_FROM_K`] to the largest k.
const MAX_US_GROWTH: f64 = 2.0;
const LINEAR_FROM_K: usize = 32;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The duration in ms and the `visits` and `capped` attributes of the
/// `vra-ref` span of one traced, untimed optimization and certification.
fn vra_ref_span(naive: &Program, opts: &OptimizeOptions) -> (f64, i64, bool) {
    let mut prog = naive.clone();
    let (_, logs) = optimize_program_logged(&mut prog, opts);
    let collector = ScopedCollector::begin();
    certify_program(naive, &prog, &logs, opts);
    let spans = collector.finish();
    let span = spans
        .iter()
        .find(|s| s.name == "vra-ref")
        .expect("certify opens a vra-ref span");
    let attr = |key| match span.attrs.iter().find(|(k, _)| *k == key) {
        Some((_, AttrValue::Int(v))) => *v,
        _ => panic!("vra-ref has no `{key}` attribute"),
    };
    (
        span.dur_ns as f64 / 1e6,
        attr("visits"),
        attr("capped") == 1,
    )
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
        "{:>4} {:>6} {:>12} {:>11} {:>11} {:>9} {:>7} {:>10} {:>6}",
        "k",
        "scheme",
        "optimize ms",
        "certify ms",
        "obligations",
        "us/oblig",
        "vra ms",
        "vra visits",
        "capped"
    );
    let mut too_slow = Vec::new();
    let mut capped_at = Vec::new();
    // (k, [NI, LLS] median certify µs per obligation) for k ≥ LINEAR_FROM_K
    let mut us_per_obligation: Vec<(usize, [f64; 2])> = Vec::new();
    for k in ks {
        let naive = compile(&scaling_program(k)).expect("scaling program compiles");
        let (mut optimize_ms, mut us) = ([0.0; 2], [0.0; 2]);
        for (i, scheme) in [Scheme::Ni, Scheme::Lls].into_iter().enumerate() {
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
            optimize_ms[i] = median(optimize);
            us[i] = certify * 1e3 / obligations as f64;
            let (vra_ms, visits, capped) = vra_ref_span(&naive, &opts);
            println!(
                "{k:>4} {:>6} {:>12.1} {:>11.1} {obligations:>11} {:>9.2} {vra_ms:>7.1} {visits:>10} {:>6}",
                scheme.name(),
                optimize_ms[i],
                certify,
                us[i],
                if capped { "yes" } else { "no" }
            );
            if capped {
                capped_at.push(format!("k={k} {}", scheme.name()));
            }
        }
        let [ni, lls] = optimize_ms;
        if k >= GATE_FROM_K && lls > MAX_LLS_OVER_NI * ni {
            too_slow.push(format!(
                "LLS optimize {lls:.1} ms vs NI {ni:.1} ms at k={k} (more than {MAX_LLS_OVER_NI}x)"
            ));
        }
        if k >= LINEAR_FROM_K {
            us_per_obligation.push((k, us));
        }
    }
    let smallest = us_per_obligation.iter().min_by_key(|(k, _)| *k);
    let largest = us_per_obligation.iter().max_by_key(|(k, _)| *k);
    if let (Some((k0, us0)), Some((k1, us1))) = (smallest, largest) {
        for (i, scheme) in ["NI", "LLS"].into_iter().enumerate() {
            if us1[i] > MAX_US_GROWTH * us0[i] {
                too_slow.push(format!(
                    "{scheme} certify {:.2} us/obligation at k={k1} vs {:.2} at k={k0} \
                     (more than {MAX_US_GROWTH}x)",
                    us1[i], us0[i]
                ));
            }
        }
    }
    if !too_slow.is_empty() {
        eprintln!("superlinear growth: {}", too_slow.join("; "));
    }
    if !capped_at.is_empty() {
        eprintln!(
            "vra-ref ran into its iteration cap: {}",
            capped_at.join(", ")
        );
    }
    if !too_slow.is_empty() || !capped_at.is_empty() {
        std::process::exit(1);
    }
}
