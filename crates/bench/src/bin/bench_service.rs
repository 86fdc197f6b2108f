//! Drives a `nascentd` service with concurrent clients over the full
//! 42-configuration × 10-program matrix and proves the service path is
//! **bit-identical** to the CLI path: every response's `result` object
//! is compared byte-for-byte against a locally computed
//! [`nascent_driver::compute`] outcome for the same request. It also
//! checks the service's observability surface end to end.
//!
//! Six phases:
//!
//! 1. local reference outcomes for every (cell, mode) pair,
//! 2. one traced `POST /certify?trace=1` (LLS, discharge on, a cache
//!    miss): the response must carry a `request_id` and a Chrome trace,
//!    which is written to a file, read back as JSON, and must hold a span
//!    per pipeline stage (`parse`, `naive-run`, `optimize`, `certify`,
//!    `execute`) plus the `discharge` pass, at least one tagged with the
//!    request id,
//! 3. round A — N concurrent clients drain mixed `/optimize` +
//!    `/certify` requests (every key a cache miss),
//! 4. round B — the `/certify` half again (every key a cache hit; the
//!    bytes must not change),
//! 5. round C — mixed-engine requests (`"engine": "vm"` and
//!    `"engine": "native"` for every program under one configuration,
//!    the `/optimize` half, then the `/certify` half), proving the
//!    service's native tier is byte-identical to the VM path and that its
//!    compile cache reports a non-zero hit rate in `/metrics`. Skipped
//!    (with a named reason) when the host has no C compiler,
//! 6. `GET /metrics` — the Prometheus exposition must pass
//!    [`nascent_obs::metrics::validate_prom`] (every line, histogram
//!    bucket monotonicity) and carry the stage, endpoint and engine
//!    histograms and the elimination and cache series.
//!
//! Exit is non-zero if any request fails (non-200), any response
//! diverges from the CLI path, a request id is missing or repeated, the
//! traced request fails a check, or the service rejected anything
//! (`503`) — the queue is sized so backpressure must never fire here.
//!
//! Usage: `bench_service [--addr HOST:PORT] [--clients N] [--trace FILE]`
//! (default: in-process server, 64 clients, `obs_trace.json`).

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

/// Sends the traced certify request, writes its trace to `path`, and
/// checks both; returns a one-line summary.
fn check_traced_request(addr: &str, program: &str, path: &str) -> Result<String, String> {
    let body = obj(vec![
        ("program", Json::Str(program.into())),
        ("scheme", Json::Str("LLS".into())),
        ("discharge", Json::Str("on".into())),
    ])
    .render();
    let (status, resp) = request(addr, "POST", "/certify?trace=1", body.as_bytes())?;
    if status != 200 {
        return Err(format!(
            "traced /certify -> {status}: {}",
            String::from_utf8_lossy(&resp)
        ));
    }
    let resp = parse(std::str::from_utf8(&resp).map_err(|e| e.to_string())?)?;
    let request_id = resp
        .get("request_id")
        .and_then(Json::as_str)
        .ok_or("traced response has no request_id")?;
    let trace = resp
        .get("trace")
        .ok_or("traced response has no trace field")?;
    std::fs::write(path, trace.render()).map_err(|e| format!("write {path}: {e}"))?;
    // the written file must load as valid JSON on its own
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let reloaded = parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let Some(Json::Arr(events)) = reloaded.get("traceEvents") else {
        return Err("trace has no traceEvents array".into());
    };
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for stage in ["parse", "naive-run", "optimize", "certify", "execute"] {
        if !names.contains(&stage) {
            return Err(format!("trace has no `{stage}` stage span ({names:?})"));
        }
    }
    if !names.contains(&"discharge") {
        return Err("trace has no `discharge` pass span despite discharge on".into());
    }
    let tagged = events
        .iter()
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("request_id"))
                .and_then(Json::as_str)
                == Some(request_id)
        })
        .count();
    if tagged == 0 {
        return Err("no trace span carries the response's request_id".into());
    }
    Ok(format!(
        "{} spans ({tagged} tagged {request_id}) -> {path}",
        events.len()
    ))
}

/// The value of one series of a Prometheus exposition, e.g.
/// `nascentd_cache{stat="hit_rate"}`.
fn sample(prom: &str, series: &str) -> Option<f64> {
    prom.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

fn main() -> ExitCode {
    let mut addr_arg: Option<String> = None;
    let mut clients = 64usize;
    let mut trace_path = "obs_trace.json".to_string();
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
            "--trace" => {
                i += 1;
                trace_path = args.get(i).expect("--trace needs a path").clone();
            }
            other => {
                eprintln!(
                    "bench_service: unknown argument `{other}` \
                     (usage: bench_service [--addr HOST:PORT] [--clients N] [--trace FILE])"
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

    // ---- traced request, sent first so that it is a cache miss ----
    let traced = check_traced_request(&addr, &benches[0].source, &trace_path);
    match &traced {
        Ok(summary) => eprintln!("bench_service: trace ok — {summary}"),
        Err(e) => eprintln!("bench_service: traced request FAILED: {e}"),
    }

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
    // engine=native) pair map to one optimized program. The certify half
    // is sent once the optimize half has finished, so each native certify
    // request is a compile-cache hit however many workers serve them (sent
    // together, the pair runs at once and the second coalesces instead) —
    // the /metrics assertion below checks the cache actually reports it.
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
        for (round, path) in [
            ("C (mixed engines, optimize)", "/optimize"),
            ("C (mixed engines, certify)", "/certify"),
        ] {
            let pool: Vec<&Job> = native_jobs.iter().filter(|j| j.path == path).collect();
            drive(round, &pool);
        }
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
    let (status, prom_body) = request(&addr, "GET", "/metrics", b"").expect("metrics reachable");
    assert_eq!(status, 200, "metrics endpoint failed");
    let prom_text = String::from_utf8(prom_body).expect("prom metrics are utf-8");
    nascent_obs::metrics::validate_prom(&prom_text).expect("prom exposition validates");
    for needle in [
        "# TYPE nascentd_requests_total counter",
        "# TYPE nascentd_stage_duration_seconds histogram",
        "nascentd_stage_duration_seconds_bucket{stage=\"parse\"",
        "nascentd_stage_duration_seconds_bucket{stage=\"optimize\"",
        "nascentd_stage_duration_seconds_bucket{stage=\"certify\"",
        "nascentd_stage_duration_seconds_bucket{stage=\"execute\"",
        "nascentd_request_duration_seconds_bucket{endpoint=\"optimize\"",
        "nascentd_request_duration_seconds_bucket{endpoint=\"certify\"",
        "nascentd_checks_eliminated_total{scheme=",
        "nascentd_checks_eliminated_total{scheme=\"LLS\"}",
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
    let at = |series: &str| sample(&prom_text, series).unwrap_or(-1.0);
    let rejected = at("nascentd_responses_total{code=\"503\"}");
    let hit_rate = at("nascentd_cache{stat=\"hit_rate\"}");
    let native_hit_rate = at("nascentd_native_cache{stat=\"hit_rate\"}");
    if !native_jobs.is_empty() {
        assert!(
            at("nascentd_native_cache{stat=\"compiles\"}") > 0.0,
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
         cache_hit_rate={hit_rate:.4} native_cache_hit_rate={native_hit_rate:.4}"
    );

    if let Some(server) = in_process {
        server.stop();
    }
    if non_200 > 0
        || divergences > 0
        || rejected != 0.0
        || missing_ids > 0
        || duplicate_ids > 0
        || traced.is_err()
    {
        eprintln!(
            "bench_service: FAILED (non_200={non_200} divergences={divergences} \
             rejected={rejected} missing_ids={missing_ids} duplicate_ids={duplicate_ids} \
             traced_request_ok={})",
            traced.is_ok()
        );
        return ExitCode::FAILURE;
    }
    eprintln!("bench_service: service path is byte-identical to the CLI path");
    ExitCode::SUCCESS
}
