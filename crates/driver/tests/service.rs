//! In-process integration tests for the `nascentd` service: endpoint
//! behavior, concurrency, backpressure, panic isolation, and
//! byte-parity between the service and the CLI pipeline path.

use std::sync::Arc;

use nascent_driver::config::Mode;
use nascent_driver::http::request;
use nascent_driver::json::{parse, Json};
use nascent_driver::service::{start, ServerHandle, ServiceConfig};
use nascent_driver::{compute, harness, Request, RunConfig};

const PROGRAM: &str = "program servicetest
 integer a(1:40)
 integer i
 do i = 1, 40
  a(i) = i
 enddo
 print a(40)
end
";

fn test_server() -> ServerHandle {
    start(ServiceConfig {
        test_endpoints: true,
        ..ServiceConfig::default()
    })
    .expect("server starts")
}

fn body_for(program: &str, scheme: &str) -> String {
    Json::Obj(
        [
            ("program".to_string(), Json::Str(program.into())),
            ("scheme".to_string(), Json::Str(scheme.into())),
        ]
        .into_iter()
        .collect(),
    )
    .render()
}

fn addr(h: &ServerHandle) -> String {
    h.addr.to_string()
}

#[test]
fn healthz_and_metrics_respond() {
    let server = test_server();
    let (status, body) = request(&addr(&server), "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        parse(std::str::from_utf8(&body).unwrap())
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("ok")
    );
    let (status, body) = request(&addr(&server), "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    let metrics = parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(metrics.get("cache").is_some());
    assert!(metrics.get("latency_ms").is_some());
    assert!(metrics.get("pool").is_some());
    server.stop();
}

#[test]
fn optimize_and_certify_match_the_cli_path_byte_for_byte() {
    let server = test_server();
    for (path, mode) in [("/optimize", Mode::Optimize), ("/certify", Mode::Certify)] {
        let (status, body) = request(
            &addr(&server),
            "POST",
            path,
            body_for(PROGRAM, "LLS").as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200, "{path}: {}", String::from_utf8_lossy(&body));
        let response = parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));

        // the CLI path: the same driver compute, locally
        let local = compute(
            &Request {
                program: PROGRAM.into(),
                config: RunConfig::default(),
                mode,
            },
            &harness::harness_limits(),
        )
        .unwrap();
        assert_eq!(
            response.get("result").unwrap().render(),
            local.deterministic_json().render(),
            "{path}: service and CLI results must be bit-identical"
        );
    }
    server.stop();
}

#[test]
fn malformed_requests_get_400_not_500() {
    let server = test_server();
    let a = addr(&server);
    // not JSON
    let (status, _) = request(&a, "POST", "/optimize", b"not json").unwrap();
    assert_eq!(status, 400);
    // missing program
    let (status, body) = request(&a, "POST", "/optimize", b"{\"scheme\":\"LLS\"}").unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("program"));
    // unknown field — same strictness as an unknown CLI flag
    let (status, body) = request(
        &a,
        "POST",
        "/optimize",
        b"{\"program\":\"program p\\nend\\n\",\"shceme\":\"LLS\"}",
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("shceme"));
    // bad scheme value — the shared parser's diagnostic
    let (status, body) = request(
        &a,
        "POST",
        "/optimize",
        b"{\"program\":\"program p\\nend\\n\",\"scheme\":\"BOGUS\"}",
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("unknown scheme"));
    // compile errors are client errors
    let (status, _) = request(
        &a,
        "POST",
        "/certify",
        body_for("program p\n x = 1\nend\n", "LLS").as_bytes(),
    )
    .unwrap();
    assert_eq!(status, 400);
    // a 4 KB body nested 2 000 parentheses deep: a positioned compile
    // error, not a stack overflow that takes the whole process down
    let deep = format!(
        "program p\n integer x\n x = {}1{}\nend\n",
        "(".repeat(2_000),
        ")".repeat(2_000)
    );
    let (status, body) =
        request(&a, "POST", "/optimize", body_for(&deep, "LLS").as_bytes()).unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("line 3"));
    let (status, _) = request(&a, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    // wrong method / wrong path
    let (status, _) = request(&a, "GET", "/optimize", b"").unwrap();
    assert_eq!(status, 405);
    let (status, _) = request(&a, "POST", "/nope", b"").unwrap();
    assert_eq!(status, 404);
    server.stop();
}

#[test]
fn a_panicking_request_is_isolated() {
    let server = test_server();
    let a = addr(&server);
    let (status, body) = request(&a, "POST", "/panic", b"").unwrap();
    assert_eq!(status, 500);
    assert!(String::from_utf8_lossy(&body).contains("panicked"));
    // the pool survives: normal requests still work afterwards
    let (status, _) = request(&a, "POST", "/optimize", body_for(PROGRAM, "NI").as_bytes()).unwrap();
    assert_eq!(status, 200);
    let (_, body) = request(&a, "GET", "/metrics", b"").unwrap();
    let metrics = parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let isolated = metrics
        .get("pool")
        .and_then(|p| p.get("panics_isolated"))
        .and_then(Json::as_i64);
    assert_eq!(isolated, Some(1));
    server.stop();
}

#[test]
fn concurrent_identical_requests_share_one_computation() {
    let server = test_server();
    let a = addr(&server);
    const CLIENTS: usize = 16;
    let bodies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let a = a.clone();
                s.spawn(move || {
                    let (status, body) =
                        request(&a, "POST", "/certify", body_for(PROGRAM, "LLS").as_bytes())
                            .unwrap();
                    assert_eq!(status, 200);
                    String::from_utf8(body).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // all clients got the same result bytes
    let first = parse(&bodies[0]).unwrap().get("result").unwrap().render();
    for b in &bodies[1..] {
        assert_eq!(parse(b).unwrap().get("result").unwrap().render(), first);
    }
    // and the shared pipeline computed exactly once
    let stats = server.pipeline().cache_stats();
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.hits + stats.coalesced, (CLIENTS - 1) as u64);
    server.stop();
}

#[test]
fn queue_backpressure_rejects_with_503() {
    // queue_limit 1 and one worker: while one long request holds the only
    // admission permit, any overlapping request is rejected immediately
    let server = start(ServiceConfig {
        workers: 1,
        queue_limit: 1,
        test_endpoints: false,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let a = addr(&server);

    // a program with enough work to stay in flight while we probe
    let slow = "program slow
 integer a(1:200)
 integer i, j, s
 s = 0
 do j = 1, 5000
  do i = 1, 200
   a(i) = i + j
   s = s + a(i)
  enddo
 enddo
 print s
end
";
    let rejected = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    std::thread::scope(|s| {
        let a0 = a.clone();
        let occupant = s.spawn(move || {
            // with one admission permit, a probe may get in first — retry
            // until this request is the one holding the permit
            loop {
                let (status, _) =
                    request(&a0, "POST", "/certify", body_for(slow, "ALL").as_bytes()).unwrap();
                match status {
                    200 => break,
                    503 => continue,
                    other => panic!("occupant got {other}"),
                }
            }
        });
        // hammer until we observe a rejection (or the occupant finishes)
        for _ in 0..2000 {
            let (status, body) =
                request(&a, "POST", "/optimize", body_for(PROGRAM, "NI").as_bytes()).unwrap();
            if status == 503 {
                assert!(String::from_utf8_lossy(&body).contains("queue full"));
                rejected.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                break;
            }
            if occupant.is_finished() {
                break;
            }
        }
        occupant.join().unwrap();
    });
    // backpressure is timing-dependent; accept either observing a 503 or
    // the slow request finishing first, but the server must stay healthy
    let (status, _) = request(&a, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    server.stop();
}

#[test]
fn distinct_configs_are_distinct_cache_entries() {
    let server = test_server();
    let a = addr(&server);
    for scheme in ["NI", "CS", "LLS"] {
        let (status, _) = request(
            &a,
            "POST",
            "/optimize",
            body_for(PROGRAM, scheme).as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200);
    }
    let stats = server.pipeline().cache_stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.entries, 3);
    server.stop();
}

#[test]
fn cached_flag_and_cache_hit_rate_are_reported() {
    let server = test_server();
    let a = addr(&server);
    let (_, first) = request(&a, "POST", "/certify", body_for(PROGRAM, "SE").as_bytes()).unwrap();
    let (_, second) = request(&a, "POST", "/certify", body_for(PROGRAM, "SE").as_bytes()).unwrap();
    let first = parse(std::str::from_utf8(&first).unwrap()).unwrap();
    let second = parse(std::str::from_utf8(&second).unwrap()).unwrap();
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        first.get("result").unwrap().render(),
        second.get("result").unwrap().render()
    );
    let (_, metrics) = request(&a, "GET", "/metrics", b"").unwrap();
    let metrics = parse(std::str::from_utf8(&metrics).unwrap()).unwrap();
    let hits = metrics
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_i64);
    assert_eq!(hits, Some(1));
    let p50 = metrics
        .get("latency_ms")
        .and_then(|l| l.get("p50"))
        .and_then(Json::as_f64);
    assert!(p50.is_some());
    server.stop();
}

#[test]
fn every_response_carries_a_unique_request_id() {
    let server = test_server();
    let a = addr(&server);
    const CLIENTS: usize = 16;
    let ids: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let a = a.clone();
                s.spawn(move || {
                    let path = if i % 2 == 0 { "/optimize" } else { "/certify" };
                    let (status, body) =
                        request(&a, "POST", path, body_for(PROGRAM, "LLS").as_bytes()).unwrap();
                    assert_eq!(status, 200);
                    let response = parse(std::str::from_utf8(&body).unwrap()).unwrap();
                    response
                        .get("request_id")
                        .and_then(Json::as_str)
                        .expect("200 response carries request_id")
                        .to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let distinct: std::collections::HashSet<&String> = ids.iter().collect();
    assert_eq!(
        distinct.len(),
        CLIENTS,
        "request ids must be unique: {ids:?}"
    );

    // error diagnostics carry one too
    let (status, body) = request(&a, "POST", "/optimize", b"not json").unwrap();
    assert_eq!(status, 400);
    let err = parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(
        err.get("request_id").and_then(Json::as_str).is_some(),
        "400 response carries request_id"
    );
    server.stop();
}

#[test]
fn prometheus_exposition_validates_and_reflects_traffic() {
    let server = test_server();
    let a = addr(&server);
    for scheme in ["NI", "LLS"] {
        let (status, _) = request(
            &a,
            "POST",
            "/optimize",
            body_for(PROGRAM, scheme).as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200);
    }
    let (status, _) = request(&a, "POST", "/certify", body_for(PROGRAM, "LLS").as_bytes()).unwrap();
    assert_eq!(status, 200);

    let (status, prom) = request(&a, "GET", "/metrics?format=prom", b"").unwrap();
    assert_eq!(status, 200);
    let prom = String::from_utf8(prom).unwrap();
    nascent_obs::metrics::validate_prom(&prom).expect("exposition format validates");
    for needle in [
        "nascentd_requests_total{endpoint=\"optimize\"} 2",
        "nascentd_requests_total{endpoint=\"certify\"} 1",
        "nascentd_responses_total{code=\"200\"} 3",
        "nascentd_stage_duration_seconds_bucket{stage=\"parse\",le=\"+Inf\"}",
        "nascentd_stage_duration_seconds_bucket{stage=\"execute\",le=\"+Inf\"}",
        "nascentd_checks_eliminated_total{scheme=\"LLS\"}",
        "nascentd_pool_workers",
    ] {
        assert!(prom.contains(needle), "missing `{needle}` in:\n{prom}");
    }
    // the JSON rendering still answers on the same path, same shape
    let (status, json) = request(&a, "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    let metrics = parse(std::str::from_utf8(&json).unwrap()).unwrap();
    assert!(metrics.get("requests").is_some());
    assert!(metrics.get("latency_ms").is_some());
    server.stop();
}

#[test]
fn traced_request_embeds_a_nested_chrome_trace() {
    let server = test_server();
    let a = addr(&server);
    let body = Json::Obj(
        [
            ("program".to_string(), Json::Str(PROGRAM.into())),
            ("scheme".to_string(), Json::Str("LLS".into())),
            ("discharge".to_string(), Json::Str("on".into())),
        ]
        .into_iter()
        .collect(),
    )
    .render();
    let (status, resp) = request(&a, "POST", "/certify?trace=1", body.as_bytes()).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    let resp = parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    let request_id = resp.get("request_id").and_then(Json::as_str).unwrap();
    let trace = resp.get("trace").expect("trace field present");
    let Some(Json::Arr(events)) = trace.get("traceEvents") else {
        panic!("trace has no traceEvents");
    };
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for name in [
        "pipeline",
        "parse",
        "naive-run",
        "optimize",
        "certify",
        "execute",
        "discharge",
        "optimize-function",
    ] {
        assert!(names.contains(&name), "missing `{name}` in {names:?}");
    }
    // stage spans nest inside the root pipeline span
    let span = |name: &str| {
        let e = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .unwrap();
        let ts = e.get("ts").and_then(Json::as_f64).unwrap();
        let dur = e.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
        (ts, ts + dur)
    };
    let (root_start, root_end) = span("pipeline");
    for stage in ["parse", "naive-run", "optimize", "certify", "execute"] {
        let (s, e) = span(stage);
        assert!(
            s >= root_start && e <= root_end,
            "`{stage}` escapes the pipeline span"
        );
    }
    // every event is stamped with the response's request id
    for e in events {
        assert_eq!(
            e.get("args")
                .and_then(|a| a.get("request_id"))
                .and_then(Json::as_str),
            Some(request_id)
        );
    }
    // an untraced request has no trace field
    let (_, plain) = request(&a, "POST", "/certify", body.as_bytes()).unwrap();
    let plain = parse(std::str::from_utf8(&plain).unwrap()).unwrap();
    assert!(plain.get("trace").is_none());
    server.stop();
}

#[test]
fn latency_window_stays_bounded_over_a_soak() {
    use nascent_driver::service::LATENCY_RESERVOIR;
    let server = test_server();
    let a = addr(&server);
    const SOAK: usize = 10_000;
    let payload = body_for(PROGRAM, "NI");
    // prime the cache, then soak with cache hits across a few threads
    let (status, _) = request(&a, "POST", "/optimize", payload.as_bytes()).unwrap();
    assert_eq!(status, 200);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let a = a.clone();
            let payload = payload.clone();
            s.spawn(move || {
                for _ in 0..((SOAK - 1) / 8) {
                    let (status, _) = request(&a, "POST", "/optimize", payload.as_bytes()).unwrap();
                    assert_eq!(status, 200);
                }
            });
        }
    });
    let sent = 1 + 8 * ((SOAK - 1) / 8);
    let (_, body) = request(&a, "GET", "/metrics", b"").unwrap();
    let metrics = parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let lat = metrics.get("latency_ms").unwrap();
    assert_eq!(
        lat.get("count").and_then(Json::as_i64),
        Some(sent as i64),
        "lifetime sample count is exact"
    );
    let window = lat.get("window").and_then(Json::as_i64).unwrap();
    assert!(
        window <= LATENCY_RESERVOIR as i64,
        "sample window {window} exceeds the reservoir bound {LATENCY_RESERVOIR}"
    );
    server.stop();
}
