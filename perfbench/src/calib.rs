//! Host-speed calibration.
//!
//! A shared host's speed swings by tens of percent, for seconds to
//! minutes at a time, with the load of its other tenants. To keep the
//! timed metrics comparable between runs, the benchmark times a fixed
//! piece of its own work, the kernel, next to the requests it measures,
//! and scales every measured time by [`REFERENCE_KERNEL_MS`] over the
//! kernel's time there. Timed metrics therefore read as on a host where
//! the kernel takes [`REFERENCE_KERNEL_MS`]: the unloaded speed of the
//! reference machine, a 2-CPU Xeon Linux container. The kernel shares no
//! code with the program under test, so a change to the program moves
//! the metrics and never the scale.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Kernel time on the reference machine when the host is unloaded.
pub const REFERENCE_KERNEL_MS: f64 = 0.8;

/// Kernel runs per probe; a probe reports their median.
const PROBE_RUNS: usize = 3;

/// Insertions per kernel run.
const KERNEL_STEPS: u64 = 4000;

/// The kernel: a xorshift stream of inserts of small vectors into a
/// `BTreeMap` and lookups in it. Allocation, pointer chasing through a
/// few hundred KiB and unpredictable branches are the profile of the
/// optimizer, the certifier and the pipeline around them; on a loaded
/// host this kernel slows down with them, where a tight arithmetic loop
/// slows down far less.
fn kernel() -> u64 {
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..black_box(KERNEL_STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, vec![i; (x % 7) as usize]);
        if let Some(v) = map.get(&(x.rotate_left(7) % 4096)) {
            acc += v.len() as u64;
        }
    }
    black_box(acc + map.len() as u64)
}

/// The kernel's time now, in ms: the median of [`PROBE_RUNS`] runs.
pub fn probe() -> f64 {
    let times: Vec<f64> = (0..PROBE_RUNS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(kernel());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).expect("probe runs")
}

/// The mean of [`probe`] run on `threads` threads at once: the speed of
/// the host's CPUs when that many threads of the benchmark are busy.
pub fn probe_threads(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(probe)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The factor that turns a time measured between probes `before` and
/// `after` into reference-machine time.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_KERNEL_MS / (before + after)
}
