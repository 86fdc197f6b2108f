//! Three-way engine differential.
//!
//! Drives the full 42-configuration × 10-program matrix through all
//! three execution engines — tree-walker, register-bytecode VM, and the
//! native tier (instrumented C through the content-hash compile cache) —
//! and asserts the outcomes are **bit-identical**: counters, outputs
//! (reals by bit pattern), and trap records. Any divergence panics with
//! the offending cell's label, so a zero exit *is* the 0-divergences
//! assertion.
//!
//! Then it checks what the native tier buys:
//!
//! * a second full native round over the same matrix, whose compile-cache
//!   hit rate (per-round delta, not cumulative) must be ≥ 90%,
//! * the aggregate steps/sec of the native binary's in-process
//!   self-timing (`NASCENT_CBACK_REPEAT` amortizes spawn + protocol
//!   overhead) against the VM over the naive suite, which must be ≥ 10×.
//!
//! Skips with a named reason (exit 0) when the host has no C compiler.
//!
//! Usage: `cargo run --release -p nascent-bench --bin native_differential`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use nascent_cback::cc_available;
use nascent_cback::native::{global, global_stats};
use nascent_driver::harness::{
    compare_engines, full_matrix_configs, harness_limits, matrix_threads, prepare,
    PreparedBenchmark,
};
use nascent_interp::{run_compiled, Engine};
use nascent_ir::Program;
use nascent_suite::{suite, Scale};

const THREE: [Engine; 3] = [Engine::Tree, Engine::Vm, Engine::Native];

/// In-binary repeats for the native timing runs: enough to amortize the
/// per-exec spawn + protocol cost to noise on µs-scale programs.
const REPEAT: u64 = 500;

/// Best-of-N passes for each timing measurement (the minimum is the
/// standard estimator for noisy shared hosts).
const PASSES: usize = 7;

/// Best-of-[`PASSES`] wall time of `f`, in nanoseconds.
fn best_ns<F: FnMut()>(mut f: F) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..PASSES {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

fn main() {
    if !cc_available() {
        eprintln!("native_differential: skipping: no C compiler for the native tier ($CC / cc)");
        return;
    }

    let limits = harness_limits();
    let prepared: Vec<PreparedBenchmark> = suite(Scale::Small).iter().map(prepare).collect();
    let configs = full_matrix_configs();
    assert_eq!(configs.len(), 42, "the full matrix is 42 configurations");

    // ---- every cell's optimized program (cheap; serial) ----
    let cells: Vec<(String, Program)> = configs
        .iter()
        .flat_map(|cfg| {
            prepared.iter().map(move |pb| {
                let mut prog = pb.checked.clone();
                nascent_rangecheck::optimize_program(&mut prog, &cfg.opts);
                let label = format!("{} {} {:?}", pb.bench.name, cfg.label, cfg.opts);
                (label, prog)
            })
        })
        .collect();

    // ---- round 1: the three-way differential over all 420 cells ----
    let threads = matrix_threads(cells.len());
    let before_r1 = global_stats();
    let t1 = Instant::now();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((label, prog)) = cells.get(i) else {
                    break;
                };
                // panics (non-zero exit) on any engine divergence
                let r = compare_engines(label, prog, &limits, &THREE)
                    .unwrap_or_else(|e| panic!("{label}: suite cell errored: {e}"));
                assert!(r.trap.is_none(), "{label}: suite cell trapped");
            });
        }
    });
    let wall_r1 = t1.elapsed();
    let round1 = global_stats().since(&before_r1);
    eprintln!(
        "native_differential: round 1: {} cells x 3 engines, 0 divergences, \
         {} native compiles, {:.1}s on {} threads",
        cells.len(),
        round1.compiles,
        wall_r1.as_secs_f64(),
        threads,
    );

    // ---- round 2: native only, all cells again; must be ~all cache hits ----
    let before_r2 = global_stats();
    let t2 = Instant::now();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((label, prog)) = cells.get(i) else {
                    break;
                };
                global()
                    .run(prog, limits.max_steps, limits.max_call_depth as u64)
                    .unwrap_or_else(|e| panic!("{label}: round-2 native run failed: {e}"));
            });
        }
    });
    let wall_r2 = t2.elapsed();
    let round2 = global_stats().since(&before_r2);
    eprintln!(
        "native_differential: round 2: {} native runs in {:.1}s, \
         compile-cache hit rate {:.1}%",
        cells.len(),
        wall_r2.as_secs_f64(),
        100.0 * round2.hit_rate(),
    );
    assert!(
        round2.hit_rate() >= 0.90,
        "round-2 compile-cache hit rate {:.4} < 0.90 ({round2:?})",
        round2.hit_rate()
    );

    // ---- perf: VM wall time vs native in-binary self-timing ----
    let mut vm_total_ns = 0f64;
    let mut native_total_ns = 0f64;
    let mut total_steps = 0u64;
    for pb in &prepared {
        let steps = pb.naive.dynamic_instructions + pb.naive.dynamic_checks;
        let vm_ns = best_ns(|| {
            run_compiled(&pb.lowered, &limits).expect("runs");
        }) as f64;
        let native_ns = {
            let mut best = f64::MAX;
            for _ in 0..PASSES {
                let r = global()
                    .run_repeat(
                        &pb.checked,
                        limits.max_steps,
                        limits.max_call_depth as u64,
                        REPEAT,
                    )
                    .expect("native timing run");
                let total = r.exec_ns.expect("binary reports exec_ns") as f64;
                best = best.min(total / REPEAT as f64);
            }
            best
        };
        vm_total_ns += vm_ns;
        native_total_ns += native_ns;
        total_steps += steps;
    }
    let aggregate_speedup = vm_total_ns / native_total_ns.max(1.0);
    eprintln!(
        "native_differential: native is {aggregate_speedup:.1}x the VM in steps/sec \
         ({:.2} vs {:.3} ns/step over {total_steps} steps)",
        vm_total_ns / total_steps.max(1) as f64,
        native_total_ns / total_steps.max(1) as f64,
    );
    assert!(
        aggregate_speedup >= 10.0,
        "native tier is only {aggregate_speedup:.1}x the VM (need >= 10x)"
    );
}
