//! Identity harness: prints one line of hashes per optimize + certify
//! case over a fixed corpus, so two builds can be shown to produce the
//! same results.
//!
//! Each line names the case and hashes the `{:?}` text of the optimized
//! program, the justification logs, the `OptimizeStats` and the
//! `Certificate`, then one hash over the certificates of tampered logs:
//! for a few events spread over the logs, the log with that event
//! deleted, moved to the next block, or with its check's bound lowered
//! by 3.
//!
//! Before the cases of each distinct source, one more line hashes the
//! `{:?}` of the value-range analysis of each of its functions, as
//! compiled and after the INX rewrite, with the load summaries sorted by
//! array id (a `HashMap` prints in an order that varies per process).
//!
//! The corpus:
//! * the Small and Paper suites under the 42 matrix configurations,
//!   discharge off and on;
//! * `random_program` seeds 0–149 (default generator) and 1000–1039
//!   (`max_depth: 3, max_stmts: 12`), under the seven schemes and MCM
//!   with PRX and INX checks and all implications, discharge off and on;
//! * the scaling programs at k = 4 to 64 under the same 32
//!   configurations.
//!
//! To compare two commits, build this file at both (copy it into a
//! checkout of the older one if it lacks it), run
//! `cargo run --release --example identity_hash > FILE` in each, and
//! `cmp` the outputs.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use nascent::analysis::vra::analyze;
use nascent::driver::harness::full_matrix_configs;
use nascent::frontend::compile;
use nascent::ir::{BlockId, Program};
use nascent::rangecheck::inx::rewrite_checks;
use nascent::rangecheck::{
    optimize_program_logged, CheckKind, Discharge, Event, JustLog, OptimizeOptions, Scheme,
};
use nascent::suite::{random_program, scaling_program, suite, GenConfig, Scale};
use nascent::verify::certify_program;

/// Events tampered with per case, spread evenly over all its logs.
const TAMPERED_EVENTS: usize = 6;

const SCALING_KS: [usize; 8] = [4, 8, 16, 28, 29, 32, 48, 64];

fn hash_debug(x: &impl Debug) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{x:?}").hash(&mut h);
    h.finish()
}

/// The ways one event of a log is tampered with.
#[derive(Clone, Copy)]
enum Tamper {
    Delete,
    MoveToNextBlock,
    LowerBound,
}

fn tamper(log: &mut JustLog, idx: usize, how: Tamper) {
    let next = |b: &mut BlockId| *b = BlockId(b.0 + 1);
    match how {
        Tamper::Delete => {
            log.events.remove(idx);
        }
        Tamper::MoveToNextBlock => match &mut log.events[idx] {
            Event::Eliminated { block, .. }
            | Event::Strengthened { block, .. }
            | Event::HoistCovered { block, .. }
            | Event::Inserted { block, .. }
            | Event::FoldedTrue { block, .. }
            | Event::FoldedFalse { block, .. }
            | Event::Discharged { block, .. } => next(block),
            Event::Hoisted { preheader, .. } | Event::Rehoisted { preheader, .. } => {
                next(preheader)
            }
        },
        Tamper::LowerBound => {
            let c = match &mut log.events[idx] {
                Event::Eliminated { check, .. }
                | Event::HoistCovered { check, .. }
                | Event::Inserted { check, .. }
                | Event::FoldedTrue { check, .. }
                | Event::FoldedFalse { check, .. }
                | Event::Discharged { check, .. } => check,
                Event::Strengthened { to, .. } => to,
                Event::Hoisted { cond, .. } | Event::Rehoisted { cond, .. } => cond,
            };
            *c = c.with_bound(c.bound().saturating_sub(3));
        }
    }
}

/// One hash over the certificates of the tampered logs of a case.
fn tampered_hash(
    naive: &Program,
    optimized: &Program,
    logs: &[JustLog],
    opts: &OptimizeOptions,
) -> u64 {
    let at: Vec<(usize, usize)> = logs
        .iter()
        .enumerate()
        .flat_map(|(f, log)| (0..log.events.len()).map(move |e| (f, e)))
        .collect();
    let picks = TAMPERED_EVENTS.min(at.len());
    let mut h = DefaultHasher::new();
    for p in 0..picks {
        let (f, e) = at[p * at.len() / picks];
        for how in [Tamper::Delete, Tamper::MoveToNextBlock, Tamper::LowerBound] {
            let mut forged = logs.to_vec();
            tamper(&mut forged[f], e, how);
            let cert = certify_program(naive, optimized, &forged, opts);
            format!("{cert:?}").hash(&mut h);
        }
    }
    h.finish()
}

/// Prints one hash over the value-range analysis of every function of
/// `src`, as compiled and after the INX rewrite (nothing for a source
/// that does not compile: its cases say so).
fn vra_line(label: &str, src: &str) {
    let Ok(program) = compile(src) else {
        return;
    };
    let mut h = DefaultHasher::new();
    for inx in [false, true] {
        for f in &program.functions {
            let mut f = f.clone();
            if inx {
                rewrite_checks(&mut f);
            }
            let vra = analyze(&f);
            let mut loads: Vec<_> = vra.load_ranges.iter().collect();
            loads.sort_by_key(|(array, _)| **array);
            let text = format!("{:?} {loads:?} {} {}", vra.entry, vra.visits, vra.capped);
            text.hash(&mut h);
        }
    }
    println!("{label} vra={:016x}", h.finish());
}

fn run_case(label: &str, src: &str, opts: &OptimizeOptions) {
    let naive = match compile(src) {
        Ok(p) => p,
        Err(e) => {
            println!("{label} compile-error {}", hash_debug(&e.to_string()));
            return;
        }
    };
    let mut optimized = naive.clone();
    let (stats, logs) = optimize_program_logged(&mut optimized, opts);
    let cert = certify_program(&naive, &optimized, &logs, opts);
    println!(
        "{label} prog={:016x} logs={:016x} stats={:016x} cert={:016x} tampered={:016x}",
        hash_debug(&optimized),
        hash_debug(&logs),
        hash_debug(&stats),
        hash_debug(&cert),
        tampered_hash(&naive, &optimized, &logs, opts),
    );
}

/// The seven schemes and MCM, PRX and INX, discharge off and on, all
/// implications.
fn scheme_configs() -> Vec<OptimizeOptions> {
    let mut out = Vec::new();
    for scheme in Scheme::EACH.into_iter().chain([Scheme::Mcm]) {
        for kind in [CheckKind::Prx, CheckKind::Inx] {
            for discharge in [Discharge::Off, Discharge::On] {
                out.push(
                    OptimizeOptions::scheme(scheme)
                        .with_kind(kind)
                        .with_discharge(discharge),
                );
            }
        }
    }
    out
}

fn describe(opts: &OptimizeOptions) -> String {
    format!(
        "{} {:?} {:?} {:?}",
        opts.scheme.name(),
        opts.kind,
        opts.implications,
        opts.discharge
    )
}

fn main() {
    for scale in [Scale::Small, Scale::Paper] {
        for b in suite(scale) {
            vra_line(&format!("{scale:?}/{}", b.name), &b.source);
            for config in full_matrix_configs() {
                for discharge in [Discharge::Off, Discharge::On] {
                    let opts = config.opts.with_discharge(discharge);
                    let label = format!("{scale:?}/{} {}", b.name, describe(&opts));
                    run_case(&label, &b.source, &opts);
                }
            }
        }
    }
    let deep = GenConfig {
        max_depth: 3,
        max_stmts: 12,
        ..GenConfig::default()
    };
    let seeds = (0..150u64)
        .map(|s| (s, GenConfig::default()))
        .chain((1000..1040u64).map(|s| (s, deep.clone())));
    for (seed, gen) in seeds {
        let src = random_program(seed, &gen);
        vra_line(&format!("random/{seed}"), &src);
        for opts in scheme_configs() {
            run_case(&format!("random/{seed} {}", describe(&opts)), &src, &opts);
        }
    }
    for k in SCALING_KS {
        let src = scaling_program(k);
        vra_line(&format!("scaling/{k}"), &src);
        for opts in scheme_configs() {
            run_case(&format!("scaling/{k} {}", describe(&opts)), &src, &opts);
        }
    }
}
