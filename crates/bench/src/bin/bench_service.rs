//! Drives a `nascentd` service with concurrent clients over the full
//! 42-configuration × 10-program matrix and proves the service path is
//! **bit-identical** to the CLI path: every response's `result` object
//! is compared byte-for-byte against a locally computed
//! [`nascent_driver::compute`] outcome for the same request.
//!
//! Four phases:
//!
//! 1. local reference outcomes for every (cell, mode) pair,
//! 2. round A — N concurrent clients drain mixed `/optimize` +
//!    `/certify` requests (every key a cache miss),
//! 3. round B — the `/certify` half again (every key a cache hit; the
//!    bytes must not change),
//! 4. round C — mixed-engine requests (`"engine": "vm"` and
//!    `"engine": "native"` for every program under one configuration),
//!    proving the service's native tier is byte-identical to the VM
//!    path and that its compile cache reports a non-zero hit rate in
//!    `/metrics`. Skipped (with a named reason) when the host has no C
//!    compiler.
//!
//! Exit is non-zero if any request fails (non-200), any response
//! diverges from the CLI path, or the service rejected anything
//! (`503`) — the queue is sized so backpressure must never fire here.
//!
//! Usage: `bench_service [--addr HOST:PORT] [--clients N]` (default:
//! in-process server, 64 clients).

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use nascent_cback::cc_available;
use nascent_driver::config::Mode;
use nascent_driver::harness::{full_matrix_configs, harness_limits, Config};
use nascent_driver::http::request;
use nascent_driver::json::{obj, parse, Json};
use nascent_driver::service::{start, ServiceConfig};
use nascent_driver::{compute, Request, RunConfig};
use nascent_interp::Engine;
use nascent_rangecheck::{CheckKind, ImplicationMode, Scheme};
use nascent_suite::{suite, Scale};

/// One service request to issue and check: the wire body plus the
/// locally computed reference bytes it must match.
struct Job {
    path: &'static str,
    body: String,
    reference: String,
    label: String,
}

fn body_json(source: &str, cfg: &Config, engine: Option<Engine>) -> String {
    let mut fields = vec![
        ("program", Json::Str(source.into())),
        ("scheme", Json::Str(cfg.opts.scheme.name().into())),
        (
            "kind",
            Json::Str(
                match cfg.opts.kind {
                    CheckKind::Prx => "prx",
                    CheckKind::Inx => "inx",
                }
                .into(),
            ),
        ),
        (
            "implications",
            Json::Str(
                match cfg.opts.implications {
                    ImplicationMode::All => "all",
                    ImplicationMode::CrossFamilyOnly => "cross",
                    ImplicationMode::None => "none",
                }
                .into(),
            ),
        ),
    ];
    if let Some(e) = engine {
        fields.push(("engine", Json::Str(e.name().into())));
    }
    obj(fields).render()
}

fn main() -> ExitCode {
    let mut addr_arg: Option<String> = None;
    let mut clients = 64usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                addr_arg = Some(args.get(i).expect("--addr needs a value").clone());
            }
            "--clients" => {
                i += 1;
                clients = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("--clients needs a number");
            }
            other => {
                eprintln!(
                    "bench_service: unknown argument `{other}` \
                     (usage: bench_service [--addr HOST:PORT] [--clients N])"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let benches = suite(Scale::Small);
    let configs = full_matrix_configs();
    assert_eq!(configs.len(), 42, "the full matrix is 42 configurations");
    eprintln!(
        "bench_service: {} configs x {} programs, {} concurrent clients",
        configs.len(),
        benches.len(),
        clients
    );

    // ---- local reference: the CLI path, computed in-process ----
    let limits = harness_limits();
    let cells: Vec<(usize, usize, Mode)> = (0..configs.len())
        .flat_map(|c| (0..benches.len()).map(move |b| (c, b)))
        .flat_map(|(c, b)| [(c, b, Mode::Optimize), (c, b, Mode::Certify)])
        .collect();
    let t_local = Instant::now();
    let slots: Vec<Mutex<Option<Job>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..nascent_driver::harness::matrix_threads(cells.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(ci, bi, mode)) = cells.get(i) else {
                    break;
                };
                let cfg = &configs[ci];
                let bench = &benches[bi];
                let req = Request {
                    program: bench.source.clone(),
                    config: RunConfig::from_opts(&cfg.opts),
                    mode,
                };
                let outcome = compute(&req, &limits).expect("suite cell computes");
                *slots[i].lock().expect("slot") = Some(Job {
                    path: match mode {
                        Mode::Optimize => "/optimize",
                        Mode::Certify => "/certify",
                    },
                    body: body_json(&bench.source, cfg, None),
                    reference: outcome.deterministic_json().render(),
                    label: format!("{} {} {:?}", bench.name, cfg.label, mode),
                });
            });
        }
    });
    let jobs: Vec<Job> = slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot").expect("job computed"))
        .collect();
    eprintln!(
        "bench_service: {} local references in {:.1}s",
        jobs.len(),
        t_local.elapsed().as_secs_f64()
    );

    // ---- the server: external (--addr) or in-process ----
    let in_process = addr_arg.is_none().then(|| {
        start(ServiceConfig {
            queue_limit: clients * 8,
            ..ServiceConfig::default()
        })
        .expect("server starts")
    });
    let addr = addr_arg.unwrap_or_else(|| in_process.as_ref().unwrap().addr.to_string());

    // ---- rounds A and B: concurrent mixed requests + byte parity ----
    let divergences = AtomicUsize::new(0);
    let non_200 = AtomicUsize::new(0);
    let missing_ids = AtomicUsize::new(0);
    let request_ids: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let drive = |round: &'static str, pool: &[&Job]| {
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..clients {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = pool.get(i) else { break };
                    match request(&addr, "POST", job.path, job.body.as_bytes()) {
                        Ok((200, body)) => {
                            let response =
                                parse(std::str::from_utf8(&body).expect("utf-8 response"))
                                    .expect("json response");
                            let got = response.get("result").expect("result field").render();
                            if got != job.reference {
                                eprintln!("DIVERGENCE at {}", job.label);
                                divergences.fetch_add(1, Ordering::Relaxed);
                            }
                            // every pipeline response carries a request id
                            match response.get("request_id").and_then(Json::as_str) {
                                Some(id) if !id.is_empty() => {
                                    request_ids.lock().expect("ids").push(id.to_string());
                                }
                                _ => {
                                    eprintln!("MISSING request_id at {}", job.label);
                                    missing_ids.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Ok((status, body)) => {
                            eprintln!(
                                "{} -> {status}: {}",
                                job.label,
                                String::from_utf8_lossy(&body)
                            );
                            non_200.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("{} -> transport error: {e}", job.label);
                            non_200.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        eprintln!(
            "bench_service: round {round}: {} requests in {:.2}s ({:.0} req/s)",
            pool.len(),
            secs,
            pool.len() as f64 / secs.max(1e-9)
        );
    };
    let all: Vec<&Job> = jobs.iter().collect();
    let certify: Vec<&Job> = jobs.iter().filter(|j| j.path == "/certify").collect();
    drive("A (all misses)", &all);
    drive("B (all hits)", &certify);

    // ---- round C: mixed engines, exercising the service's native tier ----
    // One configuration, every program, both modes, under `engine: vm`
    // and `engine: native`. The two pipeline-cache keys per (program,
    // engine=native) pair map to one optimized program, so the second
    // request is a native compile-cache hit — the /metrics assertion
    // below checks the cache actually reports it.
    let native_jobs: Vec<Job> = if cc_available() {
        let cfg = configs
            .iter()
            .find(|c| {
                c.opts.scheme == Scheme::Lls
                    && c.opts.kind == CheckKind::Prx
                    && c.opts.implications == ImplicationMode::All
            })
            .expect("LLS/prx/all is in the full matrix");
        benches
            .iter()
            .flat_map(|bench| {
                [Engine::Vm, Engine::Native]
                    .into_iter()
                    .flat_map(move |engine| {
                        [Mode::Optimize, Mode::Certify]
                            .into_iter()
                            .map(move |mode| {
                                let mut config = RunConfig::from_opts(&cfg.opts);
                                config.engine = engine;
                                let req = Request {
                                    program: bench.source.clone(),
                                    config,
                                    mode,
                                };
                                let outcome = compute(&req, &limits).expect("engine cell computes");
                                Job {
                                    path: match mode {
                                        Mode::Optimize => "/optimize",
                                        Mode::Certify => "/certify",
                                    },
                                    body: body_json(&bench.source, cfg, Some(engine)),
                                    reference: outcome.deterministic_json().render(),
                                    label: format!(
                                        "{} {} {:?} engine={}",
                                        bench.name,
                                        cfg.label,
                                        mode,
                                        engine.name()
                                    ),
                                }
                            })
                    })
            })
            .collect()
    } else {
        eprintln!(
            "bench_service: skipping mixed-engine round: no C compiler for the \
             native tier ($CC / cc)"
        );
        Vec::new()
    };
    if !native_jobs.is_empty() {
        let pool: Vec<&Job> = native_jobs.iter().collect();
        drive("C (mixed engines)", &pool);
    }

    // ---- request ids: present in every response, unique across clients ----
    let missing_ids = missing_ids.load(Ordering::Relaxed);
    let ids = request_ids.into_inner().expect("ids");
    let unique: std::collections::HashSet<&String> = ids.iter().collect();
    let duplicate_ids = ids.len() - unique.len();
    eprintln!(
        "bench_service: {} request ids, {} unique, {missing_ids} missing",
        ids.len(),
        unique.len()
    );

    // ---- Prometheus exposition: scrape, validate, spot-check families ----
    let (status, prom_body) =
        request(&addr, "GET", "/metrics?format=prom", b"").expect("prom metrics reachable");
    assert_eq!(status, 200, "prom metrics endpoint failed");
    let prom_text = String::from_utf8(prom_body).expect("prom metrics are utf-8");
    nascent_obs::metrics::validate_prom(&prom_text).expect("prom exposition validates");
    for needle in [
        "nascentd_stage_duration_seconds_bucket{stage=\"optimize\"",
        "nascentd_stage_duration_seconds_bucket{stage=\"certify\"",
        "nascentd_request_duration_seconds_bucket{endpoint=\"optimize\"",
        "nascentd_checks_eliminated_total{scheme=",
        "nascentd_native_cache{stat=\"hit_rate\"}",
        "nascentd_engine_duration_seconds_bucket{engine=\"native\"",
    ] {
        assert!(
            prom_text.contains(needle),
            "prom exposition is missing `{needle}`"
        );
    }
    eprintln!(
        "bench_service: prom exposition validates ({} lines)",
        prom_text.lines().count()
    );

    // ---- service-side accounting ----
    let (status, body) = request(&addr, "GET", "/metrics", b"").expect("metrics reachable");
    assert_eq!(status, 200, "metrics endpoint failed");
    let metrics = parse(std::str::from_utf8(&body).expect("utf-8")).expect("metrics json");
    let int_at = |a: &str, b: &str| {
        metrics
            .get(a)
            .and_then(|v| v.get(b))
            .and_then(Json::as_i64)
            .unwrap_or(-1)
    };
    let num_at = |a: &str, b: &str| {
        metrics
            .get(a)
            .and_then(|v| v.get(b))
            .and_then(Json::as_f64)
            .unwrap_or(-1.0)
    };
    let rejected = int_at("responses", "503");
    let hit_rate = num_at("cache", "hit_rate");
    let native_hit_rate = num_at("native_cache", "hit_rate");
    assert!(
        native_hit_rate >= 0.0,
        "/metrics is missing the native_cache section"
    );
    if !native_jobs.is_empty() {
        assert!(
            int_at("native_cache", "compiles") > 0,
            "mixed-engine round ran but the native compile cache reports no compiles"
        );
        assert!(
            native_hit_rate > 0.0,
            "mixed-engine round ran but /metrics reports a zero native \
             compile-cache hit rate"
        );
    }

    let divergences = divergences.load(Ordering::Relaxed);
    let non_200 = non_200.load(Ordering::Relaxed);
    eprintln!(
        "bench_service: non_200={non_200} divergences={divergences} rejected={rejected} \
         cache_hit_rate={hit_rate:.4} native_cache_hit_rate={native_hit_rate:.4} \
         p50={}ms p99={}ms",
        num_at("latency_ms", "p50"),
        num_at("latency_ms", "p99"),
    );

    if let Some(server) = in_process {
        server.stop();
    }
    if non_200 > 0 || divergences > 0 || rejected != 0 || missing_ids > 0 || duplicate_ids > 0 {
        eprintln!(
            "bench_service: FAILED (non_200={non_200} divergences={divergences} \
             rejected={rejected} missing_ids={missing_ids} duplicate_ids={duplicate_ids})"
        );
        return ExitCode::FAILURE;
    }
    eprintln!("bench_service: service path is byte-identical to the CLI path");
    ExitCode::SUCCESS
}
