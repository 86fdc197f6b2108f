//! Trace-correctness tests against the real pipeline: spans captured
//! from a full `compute()` run strictly nest per thread, the Chrome
//! trace JSON round-trips through the driver's own JSON parser, and
//! request IDs stamp every span recorded while set.

use nascent_driver::json::{parse, Json};
use nascent_driver::{compute, harness, Mode, Request, RunConfig};
use nascent_obs::trace::{
    chrome_trace_json, current_request_id, set_request_id, span, timed_span, validate_nesting,
    ScopedCollector,
};

const PROGRAM: &str = "program obstrace
 integer a(1:40)
 integer i
 do i = 1, 40
  a(i) = i + 1
 enddo
 print a(40)
end
";

fn traced_run(discharge: bool) -> Vec<nascent_obs::trace::SpanRecord> {
    let mut config = RunConfig::default();
    if discharge {
        config.discharge = nascent_driver::config::parse_discharge("on").unwrap();
    }
    let req = Request {
        program: PROGRAM.into(),
        config,
        mode: Mode::Certify,
    };
    let collector = ScopedCollector::begin();
    compute(&req, &harness::harness_limits()).expect("pipeline runs");
    collector.finish()
}

#[test]
fn pipeline_spans_cover_every_stage_and_nest() {
    let spans = traced_run(true);
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    for stage in [
        "pipeline",
        "parse",
        "naive-run",
        "optimize",
        "certify",
        "execute",
        "discharge",
        "optimize-function",
    ] {
        assert!(names.contains(&stage), "missing span `{stage}`: {names:?}");
    }
    validate_nesting(&spans).expect("spans strictly nest");

    // stage spans sit strictly inside the root pipeline span
    let root = spans.iter().find(|s| s.name == "pipeline").unwrap();
    for s in spans.iter().filter(|s| s.name != "pipeline") {
        assert!(
            s.ts_ns >= root.ts_ns && s.ts_ns + s.dur_ns <= root.ts_ns + root.dur_ns,
            "`{}` escapes the pipeline span",
            s.name
        );
    }
}

#[test]
fn chrome_trace_round_trips_through_the_json_parser() {
    let spans = traced_run(true);
    let rendered = chrome_trace_json(&spans);
    let doc = parse(&rendered).expect("chrome trace is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    assert_eq!(events.len(), spans.len());
    for (e, s) in events.iter().zip(&spans) {
        assert_eq!(e.get("name").and_then(Json::as_str), Some(s.name));
        assert_eq!(e.get("cat").and_then(Json::as_str), Some(s.cat));
        let ph = e.get("ph").and_then(Json::as_str).unwrap();
        assert!(ph == "X" || ph == "i", "unknown phase {ph}");
        if ph == "X" {
            assert!(e.get("dur").is_some(), "complete event without dur");
        }
        assert!(e.get("args").is_some(), "event without args object");
    }
    // the optimize-function span carries its typed attributes
    let of = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("optimize-function"))
        .expect("optimize-function event");
    let args = of.get("args").unwrap();
    assert!(args.get("fn").and_then(Json::as_str).is_some());
    assert!(args.get("scheme").and_then(Json::as_str).is_some());
}

#[test]
fn spans_nest_per_thread_under_concurrency() {
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let spans = traced_run(i % 2 == 0);
                validate_nesting(&spans).expect("per-thread nesting holds");
                spans
            })
        })
        .collect();
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().unwrap());
    }
    // the merged stream still validates: nesting is checked per tid
    validate_nesting(&all).expect("merged multi-thread stream nests per tid");
    let tids: std::collections::HashSet<u64> = all.iter().map(|s| s.tid).collect();
    assert_eq!(tids.len(), 8, "each thread records under its own tid");
}

#[test]
fn parent_spans_end_after_their_children_on_busy_threads() {
    // A span whose start timestamp and duration timer came from two
    // separate clock reads ended before its child whenever the parent's
    // gap between the reads (a preemption, at worst) outlasted the
    // child's; sixteen busy threads make that likely.
    let handles: Vec<_> = (0..16)
        .map(|_| {
            std::thread::spawn(|| {
                let collector = ScopedCollector::begin();
                for _ in 0..20_000 {
                    let parent = span("parent", "test");
                    timed_span("child", "test").finish();
                    drop(parent);
                }
                let spans = collector.finish();
                assert_eq!(spans.len(), 40_000);
                validate_nesting(&spans)
            })
        })
        .collect();
    for h in handles {
        h.join()
            .unwrap()
            .expect("every parent span contains its child");
    }
}

#[test]
fn request_id_stamps_every_span_while_set() {
    let prev = set_request_id(Some("r0123456789abcdef".into()));
    let spans = traced_run(false);
    set_request_id(prev);
    assert!(!spans.is_empty());
    for s in &spans {
        assert_eq!(
            s.request_id.as_deref(),
            Some("r0123456789abcdef"),
            "span `{}` lost the request id",
            s.name
        );
    }
    let rendered = chrome_trace_json(&spans);
    let doc = parse(&rendered).unwrap();
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents");
    };
    for e in events {
        assert_eq!(
            e.get("args")
                .and_then(|a| a.get("request_id"))
                .and_then(Json::as_str),
            Some("r0123456789abcdef")
        );
    }
    assert_eq!(current_request_id(), None, "restored after the scope");
}

#[test]
fn minted_request_ids_are_well_formed_and_distinct() {
    let a = nascent_obs::mint_request_id();
    let b = nascent_obs::mint_request_id();
    assert_ne!(a, b);
    for id in [&a, &b] {
        assert_eq!(id.len(), 17);
        assert!(id.starts_with('r'));
        assert!(id[1..].chars().all(|c| c.is_ascii_hexdigit()));
    }
}
