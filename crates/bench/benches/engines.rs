//! Criterion bench: tree-walking interpreter vs register-bytecode VM on
//! the benchmark suite (naive, fully checked programs — the exact runs the
//! measurement harness performs for every matrix cell).
//!
//! `vm/<name>` excludes lowering (the harness lowers once per prepared
//! benchmark); `vm_lower/<name>` includes it, which is what a cold cell
//! pays. `suite/*` runs all ten programs back to back.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nascent_driver::harness::{harness_limits, prepare, PreparedBenchmark};
use nascent_interp::{lower, run, run_compiled};
use nascent_suite::{suite, Scale};

fn prepared() -> Vec<PreparedBenchmark> {
    suite(Scale::Small).iter().map(prepare).collect()
}

fn bench_per_program(c: &mut Criterion) {
    let prepared = prepared();
    let limits = harness_limits();
    let mut g = c.benchmark_group("engine");
    for pb in &prepared {
        g.bench_with_input(BenchmarkId::new("tree", pb.bench.name), pb, |b, pb| {
            b.iter(|| run(&pb.checked, &limits).expect("runs"))
        });
        g.bench_with_input(BenchmarkId::new("vm", pb.bench.name), pb, |b, pb| {
            b.iter(|| run_compiled(&pb.lowered, &limits).expect("runs"))
        });
        g.bench_with_input(BenchmarkId::new("vm_lower", pb.bench.name), pb, |b, pb| {
            b.iter(|| run_compiled(&lower(&pb.checked), &limits).expect("runs"))
        });
    }
    g.finish();
}

fn bench_whole_suite(c: &mut Criterion) {
    let prepared = prepared();
    let limits = harness_limits();
    let mut g = c.benchmark_group("suite");
    g.bench_function("tree", |b| {
        b.iter(|| {
            let mut checks = 0u64;
            for pb in &prepared {
                checks += run(&pb.checked, &limits).expect("runs").dynamic_checks;
            }
            checks
        });
    });
    g.bench_function("vm", |b| {
        b.iter(|| {
            let mut checks = 0u64;
            for pb in &prepared {
                checks += run_compiled(&pb.lowered, &limits)
                    .expect("runs")
                    .dynamic_checks;
            }
            checks
        });
    });
    g.finish();
}

criterion_group!(benches, bench_per_program, bench_whole_suite);
criterion_main!(benches);
