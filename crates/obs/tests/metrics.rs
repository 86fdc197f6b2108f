//! Metrics-registry behavior: the Prometheus exposition a registry
//! renders must pass the crate's own format validator, and histograms
//! stay cumulative and monotone.

use std::time::Duration;

use nascent_obs::metrics::{validate_prom, Registry, LATENCY_BUCKETS};

#[test]
fn rendered_exposition_passes_the_validator() {
    let r = Registry::new();
    r.counter(
        "demo_requests_total",
        "requests",
        &[("endpoint", "optimize")],
    )
    .add(41);
    r.counter(
        "demo_requests_total",
        "requests",
        &[("endpoint", "certify")],
    )
    .inc();
    r.gauge("demo_pool_workers", "workers", &[]).set(8.0);
    let h = r.histogram(
        "demo_latency_seconds",
        "latency",
        &[("endpoint", "optimize")],
        LATENCY_BUCKETS,
    );
    for us in [50u64, 900, 4_000, 250_000, 30_000_000] {
        h.observe_duration(Duration::from_micros(us));
    }
    let text = r.render_prom();
    validate_prom(&text).expect("self-rendered exposition validates");
    assert!(text.contains("# TYPE demo_requests_total counter"));
    assert!(text.contains("demo_requests_total{endpoint=\"optimize\"} 41"));
    assert!(text.contains("# TYPE demo_latency_seconds histogram"));
    assert!(text.contains("demo_latency_seconds_count{endpoint=\"optimize\"} 5"));
}

#[test]
fn histogram_buckets_are_cumulative_and_end_at_count() {
    let r = Registry::new();
    let h = r.histogram("h_seconds", "h", &[], LATENCY_BUCKETS);
    for i in 0..1000u64 {
        h.observe(i as f64 * 0.0005); // 0 .. 0.5s
    }
    assert_eq!(h.count(), 1000);
    let text = r.render_prom();
    validate_prom(&text).expect("validates");
    // extract the bucket counts in order and check monotone growth
    let mut last = 0u64;
    let mut buckets = 0;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("h_seconds_bucket{le=\"") {
            let v: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
            buckets += 1;
        }
    }
    assert_eq!(buckets, LATENCY_BUCKETS.len() + 1, "explicit +Inf bucket");
    assert_eq!(last, 1000, "+Inf bucket equals _count");
}

#[test]
fn registry_handles_are_shared_not_duplicated() {
    let r = Registry::new();
    let a = r.counter("shared_total", "x", &[("k", "v")]);
    let b = r.counter("shared_total", "x", &[("k", "v")]);
    a.inc();
    b.add(2);
    assert_eq!(a.get(), 3, "same series behind both handles");
    let text = r.render_prom();
    assert_eq!(
        text.matches("shared_total{k=\"v\"}").count(),
        1,
        "one series line, not one per handle"
    );
}

#[test]
#[should_panic(expected = "is not a gauge")]
fn name_reuse_across_types_panics() {
    let r = Registry::new();
    r.counter("mixed_total", "x", &[]);
    r.gauge("mixed_total", "x", &[]);
}

#[test]
fn validator_rejects_malformed_expositions() {
    // non-cumulative buckets
    let bad = "# HELP x_seconds x\n# TYPE x_seconds histogram\n\
               x_seconds_bucket{le=\"0.1\"} 5\nx_seconds_bucket{le=\"1\"} 3\n\
               x_seconds_bucket{le=\"+Inf\"} 5\nx_seconds_sum 1\nx_seconds_count 5\n";
    assert!(validate_prom(bad).is_err(), "non-monotone buckets rejected");
    // +Inf bucket disagrees with _count
    let bad = "# HELP y_seconds y\n# TYPE y_seconds histogram\n\
               y_seconds_bucket{le=\"+Inf\"} 4\ny_seconds_sum 1\ny_seconds_count 5\n";
    assert!(validate_prom(bad).is_err(), "+Inf != _count rejected");
    // sample with no type announcement
    assert!(validate_prom("stray_metric 1\n").is_err());
    // garbage line
    assert!(validate_prom("not a metric line at all!\n").is_err());
}
