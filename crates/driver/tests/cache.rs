//! Fleet-wide result-cache behavior: hit/miss accounting, invalidation
//! by content (source or configuration edits change the key), and the
//! compute-once guarantee for concurrent identical requests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use nascent_driver::cache::CAPACITY;
use nascent_driver::{compute, harness, Mode, Pipeline, Request, RunConfig};
use nascent_obs::memo::{Memo, Role};
use nascent_rangecheck::Scheme;

const PROGRAM: &str = "program cachetest
 integer a(1:50)
 integer i
 do i = 1, 50
  a(i) = i * 2
 enddo
 print a(50)
end
";

fn request(program: &str) -> Request {
    Request {
        program: program.into(),
        config: RunConfig::default(),
        mode: Mode::Certify,
    }
}

#[test]
fn identical_requests_hit_the_cache() {
    let pipeline = Pipeline::new();
    let req = request(PROGRAM);
    let first = pipeline.run(&req).0.unwrap();
    let stats = pipeline.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1));

    let second = pipeline.run(&req).0.unwrap();
    let stats = pipeline.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    assert_eq!(stats.entries, 1);
    // not merely equal — the same stored outcome
    assert!(Arc::ptr_eq(&first, &second));
    assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
}

#[test]
fn source_edit_invalidates() {
    let pipeline = Pipeline::new();
    let req = request(PROGRAM);
    pipeline.run(&req).0.unwrap();
    // one changed byte in the source is a different key
    let edited = request(&PROGRAM.replace("i * 2", "i * 3"));
    let out = pipeline.run(&edited).0.unwrap();
    let stats = pipeline.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 2));
    assert_eq!(stats.entries, 2);
    assert_eq!(out.counters.output, vec!["150".to_string()]);
}

#[test]
fn config_or_mode_edit_invalidates() {
    let pipeline = Pipeline::new();
    let req = request(PROGRAM);
    pipeline.run(&req).0.unwrap();

    let mut other_scheme = request(PROGRAM);
    other_scheme.config.scheme = Scheme::Ni;
    pipeline.run(&other_scheme).0.unwrap();
    assert_eq!(pipeline.cache_stats().misses, 2);

    let mut other_mode = request(PROGRAM);
    other_mode.mode = Mode::Optimize;
    let out = pipeline.run(&other_mode).0.unwrap();
    let stats = pipeline.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 3));
    assert!(out.certificate.is_none(), "optimize mode: no certificate");
}

#[test]
fn cached_outcome_matches_a_fresh_computation() {
    let pipeline = Pipeline::new();
    let req = request(PROGRAM);
    pipeline.run(&req).0.unwrap();
    let cached = pipeline.run(&req).0.unwrap();
    let fresh = compute(&req, &harness::harness_limits()).unwrap();
    assert_eq!(
        cached.deterministic_json().render(),
        fresh.deterministic_json().render(),
        "cache must replay the exact outcome"
    );
}

/// Two simultaneous identical requests compute exactly once: the
/// requests rendezvous on a barrier before entering the pipeline, and a
/// counter inside the computation proves single execution.
#[test]
fn concurrent_identical_requests_compute_once() {
    const THREADS: usize = 8;
    let pipeline = Arc::new(Pipeline::new());
    let barrier = Arc::new(Barrier::new(THREADS));
    let req = request(PROGRAM);
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let pipeline = Arc::clone(&pipeline);
                let barrier = Arc::clone(&barrier);
                let req = req.clone();
                s.spawn(move || {
                    barrier.wait();
                    pipeline.run(&req).0.unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = pipeline.cache_stats();
    assert_eq!(stats.misses, 1, "exactly one thread computed");
    assert_eq!(
        stats.hits + stats.coalesced,
        (THREADS - 1) as u64,
        "everyone else reused it"
    );
    assert_eq!(stats.entries, 1);
    for o in &outcomes[1..] {
        assert!(
            Arc::ptr_eq(&outcomes[0], o),
            "all threads share one stored outcome"
        );
    }
}

/// The same single-execution property, proven independently of the
/// traffic counters: a side-effect counter in the computed closure,
/// driven through the memo the pipeline caches with.
#[test]
fn coalesced_waiters_never_rerun_the_computation() {
    const THREADS: usize = 6;
    let cache = Memo::new(CAPACITY);
    let runs = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS);
    let req = request(PROGRAM);
    let limits = harness::harness_limits();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                barrier.wait();
                let (out, _) = cache.get_or_compute(req.program.as_str(), || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    compute(&req, &limits).map(Arc::new)
                });
                let out = out.unwrap();
                assert!(out.certificate.as_ref().unwrap().ok());
            });
        }
    });
    assert_eq!(runs.load(Ordering::SeqCst), 1, "computed exactly once");
}

#[test]
fn errors_are_cached_like_outcomes() {
    let pipeline = Pipeline::new();
    let req = request("program broken\n x = \nend\n");
    let first = pipeline.run(&req).0.unwrap_err();
    assert!(first.is_client_error());
    let second = pipeline.run(&req).0.unwrap_err();
    assert_eq!(first, second);
    let stats = pipeline.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

/// A pipeline serving three times its capacity of distinct requests
/// holds at most its capacity of outcomes, keeps the newest, and
/// recomputes an evicted one to the bytes an uncached `compute` gives.
#[test]
fn a_soak_past_capacity_stays_bounded_and_recomputes_evicted_requests() {
    const TINY: &str = "program soak\n integer a(1:4)\n a(2) = 3\n print a(2)\nend\n";
    let soak = |n: usize| Request {
        program: format!("! request {n}\n{TINY}"),
        config: RunConfig::default(),
        mode: Mode::Optimize,
    };
    let total = 3 * CAPACITY;
    let pipeline = Pipeline::new();
    let first = pipeline.run(&soak(0)).0.unwrap();
    for n in 1..total {
        let (out, role) = pipeline.run(&soak(n));
        assert_eq!(role, Role::Miss);
        assert_eq!(out.unwrap().counters.output, ["3"]);
        // one caller, so nothing is in flight between calls
        assert!(pipeline.cache_stats().entries <= CAPACITY);
    }
    let stats = pipeline.cache_stats();
    assert_eq!((stats.misses, stats.entries), (total as u64, CAPACITY));
    assert_eq!(pipeline.cache_evictions(), (total - CAPACITY) as u64);
    assert_eq!(pipeline.run(&soak(total - 1)).1, Role::Hit);

    let (again, role) = pipeline.run(&soak(0));
    assert_eq!(role, Role::Miss, "the oldest request was evicted");
    let again = again.unwrap();
    assert!(!Arc::ptr_eq(&first, &again));
    let fresh = compute(&soak(0), &harness::harness_limits()).unwrap();
    let bytes = fresh.deterministic_json().render();
    assert_eq!(again.deterministic_json().render(), bytes);
    assert_eq!(first.deterministic_json().render(), bytes);
}
