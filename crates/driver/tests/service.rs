//! In-process integration tests for the `nascentd` service: endpoint
//! behavior, concurrency, backpressure, slow clients, panic isolation,
//! and byte-parity between the service and the CLI pipeline path.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use nascent_driver::config::Mode;
use nascent_driver::http::{request, MAX_HEAD, READ_DEADLINE};
use nascent_driver::json::{parse, Json};
use nascent_driver::service::{start, ServerHandle, ServiceConfig};
use nascent_driver::{compute, harness, Request, RunConfig};
use nascent_obs::metrics::validate_prom;

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

/// `GET /metrics`: the Prometheus exposition, checked by the validator.
fn scrape(a: &str) -> String {
    let (status, body) = request(a, "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    let prom = String::from_utf8(body).unwrap();
    validate_prom(&prom).expect("exposition format validates");
    prom
}

/// The value of one series of an exposition, e.g.
/// `nascentd_cache{stat="hits"}`.
fn sample(prom: &str, series: &str) -> Option<f64> {
    prom.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

/// The `# TYPE` lines of an exposition: its families and their kinds.
fn families(prom: &str) -> Vec<&str> {
    prom.lines().filter(|l| l.starts_with("# TYPE ")).collect()
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
    let prom = scrape(&addr(&server));
    for series in [
        "nascentd_cache{stat=\"hits\"}",
        "nascentd_request_duration_seconds_count{endpoint=\"certify\"}",
        "nascentd_pool_workers",
        "nascentd_pool_queued",
    ] {
        assert!(sample(&prom, series).is_some(), "no `{series}` in:\n{prom}");
    }
    server.stop();
}

/// `/metrics` has one rendering: the Prometheus text, with or without a
/// `format` query.
#[test]
fn metrics_answers_prometheus_text_without_a_query() {
    let server = test_server();
    let a = addr(&server);
    let mut stream = TcpStream::connect(&a).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    assert!(
        head.contains("\r\nContent-Type: text/plain; version=0.0.4\r\n"),
        "{head}"
    );
    validate_prom(body).expect("exposition format validates");
    let (status, prom) = request(&a, "GET", "/metrics?format=prom", b"").unwrap();
    assert_eq!(status, 200);
    let prom = String::from_utf8(prom).unwrap();
    assert!(!families(body).is_empty());
    assert_eq!(families(body), families(&prom));
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
    let prom = scrape(&a);
    assert_eq!(sample(&prom, "nascentd_panics_isolated_total"), Some(1.0));
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
    let prom = scrape(&a);
    assert_eq!(sample(&prom, "nascentd_cache{stat=\"hits\"}"), Some(1.0));
    assert_eq!(
        sample(
            &prom,
            "nascentd_request_duration_seconds_count{endpoint=\"certify\"}"
        ),
        Some(2.0)
    );
    server.stop();
}

/// A hit served while another worker computes a miss is still a hit:
/// the `cached` flag, the cache's miss count and the per-stage metrics
/// (recorded for fresh computations only) agree under concurrent mixed
/// traffic.
#[test]
fn cached_flag_counts_exactly_the_fresh_computations_under_load() {
    const WARM: usize = 50;
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 300;
    let server = start(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let a = addr(&server);
    let program = |n: usize| PROGRAM.replace("a(i) = i", &format!("a(i) = i + {n}"));
    let parse_count = || {
        let (_, prom) = request(&a, "GET", "/metrics?format=prom", b"").unwrap();
        let prom = String::from_utf8(prom).unwrap();
        let line = prom
            .lines()
            .find(|l| l.starts_with("nascentd_stage_duration_seconds_count{stage=\"parse\"}"))
            .expect("parse stage histogram");
        line.rsplit(' ').next().unwrap().parse::<u64>().unwrap()
    };
    for n in 0..WARM {
        let (status, _) = request(
            &a,
            "POST",
            "/optimize",
            body_for(&program(n), "NI").as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200);
    }
    let misses_before = server.pipeline().cache_stats().misses;
    let parses_before = parse_count();
    let fresh_replies: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let a = a.clone();
                s.spawn(move || {
                    let mut fresh = 0;
                    for i in 0..PER_CLIENT {
                        // every 4th request is a program no one sent before
                        let n = if i % 4 == 3 {
                            WARM + c * PER_CLIENT + i
                        } else {
                            (c + i) % WARM
                        };
                        let (status, body) = request(
                            &a,
                            "POST",
                            "/optimize",
                            body_for(&program(n), "NI").as_bytes(),
                        )
                        .unwrap();
                        assert_eq!(status, 200);
                        let reply = parse(std::str::from_utf8(&body).unwrap()).unwrap();
                        if reply.get("cached").and_then(Json::as_bool) == Some(false) {
                            fresh += 1;
                        }
                    }
                    fresh
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let misses = server.pipeline().cache_stats().misses - misses_before;
    let parses = parse_count() - parses_before;
    assert_eq!(misses, (CLIENTS * PER_CLIENT / 4) as u64);
    assert_eq!(
        fresh_replies as u64, misses,
        "\"cached\": false replies vs misses"
    );
    assert_eq!(parses, misses, "parse-stage observations vs misses");
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
    validate_prom(&prom).expect("exposition format validates");
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
fn latency_count_stays_exact_over_a_soak() {
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
    let prom = scrape(&a);
    assert_eq!(
        sample(
            &prom,
            "nascentd_request_duration_seconds_count{endpoint=\"optimize\"}"
        ),
        Some(sent as f64),
        "lifetime sample count is exact"
    );
    server.stop();
}

/// Slack for a deadline check on a loaded test machine.
const MARGIN: Duration = Duration::from_secs(2);

/// Reads `stream` until the server drops it, then sends on `tx`.
fn report_drop(mut stream: TcpStream, tx: mpsc::Sender<()>) {
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
        let _ = tx.send(());
    });
}

/// On a one-worker server, a client that sends nothing and one that
/// trickles a header byte every 500 ms are each cut off by the read
/// deadline, and a `/healthz` queued behind them answers.
#[test]
fn idle_and_trickling_clients_cannot_hold_a_worker() {
    let server = start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let a = addr(&server);
    let start = Instant::now();
    let (idle_tx, idle_rx) = mpsc::channel();
    report_drop(TcpStream::connect(&a).unwrap(), idle_tx);

    let trickle = TcpStream::connect(&a).unwrap();
    let (trickle_tx, trickle_rx) = mpsc::channel();
    report_drop(trickle.try_clone().unwrap(), trickle_tx);
    std::thread::spawn(move || {
        let mut trickle = trickle;
        let head = b"GET /healthz HTTP/1.1\r\nX-Slow: ";
        for byte in head.iter().chain(std::iter::repeat(&b'x')).take(100) {
            if trickle.write_all(&[*byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(500));
        }
    });

    let (health_tx, health_rx) = mpsc::channel();
    {
        let a = a.clone();
        std::thread::spawn(move || {
            let _ = health_tx.send(request(&a, "GET", "/healthz", b"").map(|r| r.0));
        });
    }
    // the idle socket is served first and the trickling one once the
    // idle one is gone, so each is dropped one deadline after the one
    // before it, and the /healthz then answers
    let by = |deadlines: u32| {
        (start + deadlines * READ_DEADLINE + MARGIN).saturating_duration_since(Instant::now())
    };
    idle_rx
        .recv_timeout(by(1))
        .expect("idle socket dropped within the read deadline");
    trickle_rx
        .recv_timeout(by(2))
        .expect("trickling socket dropped within the read deadline");
    let health = health_rx
        .recv_timeout(by(2))
        .expect("/healthz answered behind the slow clients");
    assert_eq!(health, Ok(200));
    server.stop();
}

/// `stop()` returns while an idle socket holds the only worker: the read
/// deadline frees it.
#[test]
fn stop_returns_while_an_idle_socket_is_admitted() {
    let server = start(ServiceConfig {
        workers: 1,
        queue_limit: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let a = addr(&server);
    let _idle = TcpStream::connect(&a).unwrap();
    // with the one admission slot spent, this GET is served inline by
    // the acceptor, which therefore admitted the idle socket before it
    let (status, _) = request(&a, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.stop();
        let _ = tx.send(());
    });
    rx.recv_timeout(READ_DEADLINE + MARGIN)
        .expect("stop() returned within the read deadline");
}

/// A request line plus headers over [`MAX_HEAD`] is refused with a 400
/// that names the limit.
#[test]
fn oversized_request_head_gets_400() {
    let server = test_server();
    let a = addr(&server);
    let mut stream = TcpStream::connect(&a).unwrap();
    let head = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "x".repeat(MAX_HEAD)
    );
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = stream.write_all(head.as_bytes());
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        let _ = tx.send(String::from_utf8_lossy(&response).into_owned());
    });
    let response = rx
        .recv_timeout(READ_DEADLINE + MARGIN)
        .expect("oversized head answered");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains(&MAX_HEAD.to_string()), "{response}");
    server.stop();
}
