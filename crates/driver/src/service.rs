//! `nascentd` — the pipeline as a long-running optimize+certify service.
//!
//! Architecture (all std, no external runtime — the build must work
//! without registry access):
//!
//! * an **acceptor** thread owns the listening socket; each accepted
//!   connection is one request (`Connection: close`),
//! * admitted connections wait in **one FIFO job queue**: one mutex over
//!   the waiting connections and the count of admitted-but-unfinished
//!   ones, and one condvar that workers sleep on. When `queue_limit`
//!   connections are admitted and unfinished, new ones are rejected
//!   immediately with `503` — backpressure is explicit, not an unbounded
//!   backlog (`GET /healthz` and `GET /metrics` are exempt and answer
//!   even at saturation),
//! * a **bounded pool** of workers pops the queue from the front; each
//!   request must arrive within
//!   [`READ_DEADLINE`](crate::http::READ_DEADLINE) of its first read, so
//!   an idle or trickling client cannot hold a worker,
//! * every request body is handled under **panic isolation**
//!   ([`std::panic::catch_unwind`] here, plus the cache-level isolation
//!   in [`crate::cache`]): a panicking request produces a `500` for its
//!   client and a counter tick, never a dead worker,
//! * all `/optimize` and `/certify` traffic flows through the shared
//!   [`Pipeline`] and its fleet-wide result cache, so identical
//!   requests — across all clients — compute once.
//!
//! Telemetry (`nascent-obs`): every request is minted a **request id**
//! (echoed as `request_id` in success and error bodies, and carried on
//! the worker thread so any span recorded while handling the request is
//! tagged with it); all counters live in an obs
//! [`metrics::Registry`](nascent_obs::metrics::Registry), which
//! `GET /metrics` renders as Prometheus text format (per-endpoint and
//! per-engine latency histograms, per-stage pipeline timings, cache and
//! pool gauges, per-scheme elimination totals); and `?trace=1` on a
//! pipeline endpoint captures that request's spans with a scoped
//! collector and embeds the Chrome-trace JSON in the response.
//!
//! Endpoints: `POST /optimize`, `POST /certify`, `GET /healthz`,
//! `GET /metrics`.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nascent_interp::{Engine, Limits};
use nascent_obs::memo::Role;
use nascent_obs::metrics::{Counter, Gauge, Histogram, Registry};
use nascent_obs::trace::{chrome_trace_json, set_request_id, ScopedCollector};

use crate::cache::panic_message;
use crate::config::{
    parse_discharge, parse_engine, parse_implications, parse_kind, parse_scheme, Mode,
};
use crate::http::{read_request, write_response, HttpRequest};
use crate::json::{obj, parse, Json};
use crate::{harness, Outcome, Pipeline, Request, RunConfig};

/// Content type for Prometheus text exposition format.
const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

const JSON_CONTENT_TYPE: &str = "application/json";

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Admitted-but-unfinished request limit (the backpressure bound).
    pub queue_limit: usize,
    /// Interpreter limits applied to every request.
    pub limits: Limits,
    /// Enables `POST /panic`, which panics inside the pool — only for
    /// exercising panic isolation in tests.
    pub test_endpoints: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            // floored at 128 so even a single-core box admits the
            // 64-concurrent-client load the service is specified for
            queue_limit: (workers * 16).max(128),
            limits: harness::harness_limits(),
            test_endpoints: false,
        }
    }
}

/// Service-wide telemetry: an obs [`Registry`] plus cheap handles into
/// it. `/metrics` renders the registry as Prometheus text format.
pub struct Metrics {
    registry: Registry,
    optimize_requests: Counter,
    certify_requests: Counter,
    healthz_requests: Counter,
    metrics_requests: Counter,
    /// Response counters for 200/400/404/405/500/503, in that order.
    responses: [Counter; 6],
    panics_isolated: Counter,
    /// Connections waiting for a worker, read from the queue at render
    /// time.
    queued: Gauge,
    /// Cache gauges, synced from [`Pipeline::cache_stats`] at render time.
    cache_hits: Gauge,
    cache_misses: Gauge,
    cache_coalesced: Gauge,
    cache_evictions: Gauge,
    cache_entries: Gauge,
    cache_hit_rate: Gauge,
    /// Native compile-cache gauges, synced from
    /// [`nascent_cback::native::global_stats`] at render time.
    native_hits: Gauge,
    native_compiles: Gauge,
    native_coalesced: Gauge,
    native_evictions: Gauge,
    native_entries: Gauge,
    native_hit_rate: Gauge,
    optimize_latency: Histogram,
    certify_latency: Histogram,
    /// Pipeline-request latency by execution engine (tree/vm/native).
    engine_latency: [Histogram; 3],
    /// Per-stage wall-time histograms (parse, naive-run, optimize,
    /// certify, execute), fed from [`Outcome::stages`] on fresh
    /// computations (cache hits did not run the stages).
    stage_latency: [Histogram; 5],
}

const RESPONSE_CODES: [&str; 6] = ["200", "400", "404", "405", "500", "503"];
const STAGES: [&str; 5] = ["parse", "naive-run", "optimize", "certify", "execute"];
const ENGINES: [Engine; 3] = [Engine::Tree, Engine::Vm, Engine::Native];

impl Metrics {
    fn new(workers: usize, queue_limit: usize) -> Metrics {
        let registry = Registry::new();
        let req = |ep: &str| {
            registry.counter(
                "nascentd_requests_total",
                "Requests received, by endpoint",
                &[("endpoint", ep)],
            )
        };
        let resp = |code: &str| {
            registry.counter(
                "nascentd_responses_total",
                "Responses sent, by status code",
                &[("code", code)],
            )
        };
        let cache_gauge = |stat: &str| {
            registry.gauge(
                "nascentd_cache",
                "Fleet-wide result cache: calls answered as hits, misses or coalesced waits; \
                 outcomes evicted, oldest first, to stay within its capacity; outcomes held; \
                 hit rate",
                &[("stat", stat)],
            )
        };
        let native_gauge = |stat: &str| {
            registry.gauge(
                "nascentd_native_cache",
                "Native-tier compile cache (process-wide): runs answered as hits, compiles or \
                 coalesced waits; binaries evicted, oldest first, to stay within its capacity \
                 and deleted once no run holds them; binaries held; hit rate",
                &[("stat", stat)],
            )
        };
        let lat = |ep: &str| {
            registry.histogram(
                "nascentd_request_duration_seconds",
                "Pipeline request latency, by endpoint",
                &[("endpoint", ep)],
                nascent_obs::metrics::LATENCY_BUCKETS,
            )
        };
        let stage = |s: &str| {
            registry.histogram(
                "nascentd_stage_duration_seconds",
                "Pipeline stage wall time (fresh computations only)",
                &[("stage", s)],
                nascent_obs::metrics::LATENCY_BUCKETS,
            )
        };
        registry
            .gauge("nascentd_pool_workers", "Worker threads in the pool", &[])
            .set(workers as f64);
        registry
            .gauge(
                "nascentd_pool_queue_limit",
                "Admitted-but-unfinished request limit",
                &[],
            )
            .set(queue_limit as f64);
        Metrics {
            optimize_requests: req("optimize"),
            certify_requests: req("certify"),
            healthz_requests: req("healthz"),
            metrics_requests: req("metrics"),
            responses: RESPONSE_CODES.map(resp),
            panics_isolated: registry.counter(
                "nascentd_panics_isolated_total",
                "Request panics caught without losing a worker",
                &[],
            ),
            queued: registry.gauge(
                "nascentd_pool_queued",
                "Admitted connections waiting for a worker",
                &[],
            ),
            cache_hits: cache_gauge("hits"),
            cache_misses: cache_gauge("misses"),
            cache_coalesced: cache_gauge("coalesced"),
            cache_evictions: cache_gauge("evictions"),
            cache_entries: cache_gauge("entries"),
            cache_hit_rate: cache_gauge("hit_rate"),
            native_hits: native_gauge("hits"),
            native_compiles: native_gauge("compiles"),
            native_coalesced: native_gauge("coalesced"),
            native_evictions: native_gauge("evictions"),
            native_entries: native_gauge("entries"),
            native_hit_rate: native_gauge("hit_rate"),
            optimize_latency: lat("optimize"),
            certify_latency: lat("certify"),
            engine_latency: ENGINES.map(|e| {
                registry.histogram(
                    "nascentd_engine_duration_seconds",
                    "Pipeline request latency, by execution engine",
                    &[("engine", e.name())],
                    nascent_obs::metrics::LATENCY_BUCKETS,
                )
            }),
            stage_latency: STAGES.map(stage),
            registry,
        }
    }

    fn count_response(&self, status: u16) {
        let idx = RESPONSE_CODES
            .iter()
            .position(|c| c.parse::<u16>().unwrap() == status)
            .unwrap_or(4); // anything unexpected counts as a 500
        self.responses[idx].inc();
    }

    fn record_latency(&self, mode: Mode, engine: Engine, d: Duration) {
        match mode {
            Mode::Optimize => self.optimize_latency.observe_duration(d),
            Mode::Certify => self.certify_latency.observe_duration(d),
        }
        if let Some(i) = ENGINES.iter().position(|e| *e == engine) {
            self.engine_latency[i].observe_duration(d);
        }
    }

    /// Records per-stage wall time and per-scheme elimination totals of
    /// one freshly computed outcome (cache hits did not run the stages,
    /// so recording them would double-count work that never happened).
    fn record_outcome(&self, outcome: &Outcome) {
        for (hist, (_, ns)) in self.stage_latency.iter().zip(outcome.stages.each()) {
            hist.observe(ns as f64 / 1e9);
        }
        let scheme = outcome.config.scheme.name();
        let static_gone = outcome.stats.eliminated_static + outcome.stats.discharged;
        self.registry
            .counter(
                "nascentd_checks_eliminated_total",
                "Static checks removed by the optimizer, by scheme",
                &[("scheme", scheme)],
            )
            .add(static_gone as u64);
        let dynamic_gone = outcome
            .counters
            .naive_checks
            .saturating_sub(outcome.counters.dynamic_checks);
        self.registry
            .counter(
                "nascentd_dynamic_checks_eliminated_total",
                "Dynamic check executions avoided relative to the naive run, by scheme",
                &[("scheme", scheme)],
            )
            .add(dynamic_gone);
    }

    /// Prometheus text exposition of every registry family, with the
    /// render-time gauges (cache traffic, queued count) first synced from
    /// their sources of truth.
    fn render_prom(&self, pipeline: &Pipeline, queued: usize) -> String {
        let cache = pipeline.cache_stats();
        self.cache_hits.set(cache.hits as f64);
        self.cache_misses.set(cache.misses as f64);
        self.cache_coalesced.set(cache.coalesced as f64);
        self.cache_evictions.set(pipeline.cache_evictions() as f64);
        self.cache_entries.set(cache.entries as f64);
        self.cache_hit_rate
            .set((cache.hit_rate() * 1e4).round() / 1e4);
        let native = nascent_cback::native::global_stats();
        self.native_hits.set(native.hits as f64);
        self.native_compiles.set(native.compiles as f64);
        self.native_coalesced.set(native.coalesced as f64);
        self.native_evictions.set(native.evictions as f64);
        self.native_entries.set(native.entries as f64);
        self.native_hit_rate
            .set((native.hit_rate() * 1e4).round() / 1e4);
        self.queued.set(queued as f64);
        self.registry.render_prom()
    }
}

/// The job queue, behind [`Shared::queue`].
struct Queue {
    /// Admitted connections no worker has taken yet, oldest first.
    waiting: VecDeque<TcpStream>,
    /// Connections admitted and not yet finished, waiting or in service:
    /// the count the backpressure bound applies to.
    admitted: usize,
    /// Set by [`ServerHandle::stop`]: workers exit instead of taking more
    /// work, and the acceptor stops accepting.
    shutdown: bool,
}

struct Shared {
    config: ServiceConfig,
    pipeline: Pipeline,
    metrics: Metrics,
    queue: Mutex<Queue>,
    /// Signalled when a connection is queued and on shutdown.
    work: Condvar,
}

/// A running service; dropping the handle does **not** stop it — call
/// [`ServerHandle::stop`] (tests) or let the process own it (`nascentd`).
pub struct ServerHandle {
    /// The actual bound address (resolves `:0` bindings).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared pipeline (for asserting cache behavior in tests).
    pub fn pipeline(&self) -> &Pipeline {
        &self.shared.pipeline
    }

    /// Requests shutdown and joins every thread. In-flight requests
    /// finish; queued-but-unstarted connections are dropped.
    pub fn stop(mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            queue.shutdown = true;
            self.shared.work.notify_all();
        }
        // unblock the acceptor with one last connection
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Binds the listener and spawns the acceptor + worker pool.
pub fn start(config: ServiceConfig) -> Result<ServerHandle, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        pipeline: Pipeline::with_limits(config.limits),
        metrics: Metrics::new(workers, config.queue_limit),
        queue: Mutex::new(Queue {
            waiting: VecDeque::new(),
            admitted: 0,
            shutdown: false,
        }),
        work: Condvar::new(),
        config,
    });

    let mut worker_handles = Vec::new();
    for id in 0..workers {
        let shared = Arc::clone(&shared);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("nascentd-worker-{id}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| e.to_string())?,
        );
    }
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("nascentd-acceptor".into())
            .spawn(move || acceptor_loop(listener, &shared))
            .map_err(|e| e.to_string())?
    };
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers: worker_handles,
    })
}

fn acceptor_loop(listener: TcpListener, shared: &Shared) {
    let limit = shared.config.queue_limit.max(1);
    for conn in listener.incoming() {
        let Ok(mut stream) = conn else { continue };
        let mut queue = shared.queue.lock().expect("queue lock");
        if queue.shutdown {
            break;
        }
        if queue.admitted < limit {
            queue.admitted += 1;
            queue.waiting.push_back(stream);
            // notified after unlocking, so the woken worker does not
            // sleep again on the lock; it re-checks the queue under it
            drop(queue);
            shared.work.notify_one();
            continue;
        }
        drop(queue);
        // backpressure: the admitted-request budget is spent. Drain the
        // request first (within the read deadline) — closing with unread
        // bytes in the socket would turn the polite 503 into a connection
        // reset on the client side.
        let request = read_request(&mut stream);
        // GET endpoints stay responsive even when the work queue is
        // full: a /healthz that 503s under load would make an
        // orchestrator kill a busy-but-healthy instance, and /metrics
        // is exactly what an operator wants to see at saturation.
        // They do cheap in-memory reads, so serving them here on the
        // acceptor thread is safe.
        if let Ok(r) = &request {
            if r.method == "GET" {
                let (status, body, content_type) = route(r, shared);
                shared.metrics.count_response(status);
                write_response(&mut stream, status, content_type, body.as_bytes());
                continue;
            }
        }
        shared.metrics.count_response(503);
        let body = obj(vec![
            ("status", Json::Str("error".into())),
            ("error", Json::Str("queue full".into())),
        ])
        .render();
        write_response(&mut stream, 503, JSON_CONTENT_TYPE, body.as_bytes());
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.queue.lock().expect("queue lock");
    while !queue.shutdown {
        let Some(stream) = queue.waiting.pop_front() else {
            queue = shared.work.wait(queue).expect("queue lock");
            continue;
        };
        drop(queue);
        serve_connection(stream, shared);
        queue = shared.queue.lock().expect("queue lock");
        queue.admitted -= 1;
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    // every admitted request gets an id: echoed in the response body,
    // carried on this thread so every span recorded while handling the
    // request (pipeline stages, passes, analyses) is tagged with it
    let request_id = nascent_obs::mint_request_id();
    let prev = set_request_id(Some(request_id.clone()));
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.count_response(400);
            let body = error_json(&format!("malformed request: {e}"));
            write_response(&mut stream, 400, JSON_CONTENT_TYPE, body.as_bytes());
            set_request_id(prev);
            return;
        }
    };
    // panic isolation: a request must never take its worker down
    let outcome = catch_unwind(AssertUnwindSafe(|| route(&request, shared)));
    let (status, body, content_type) = match outcome {
        Ok(r) => r,
        Err(payload) => {
            shared.metrics.panics_isolated.inc();
            (
                500,
                error_json(&format!("panicked: {}", panic_message(payload.as_ref()))),
                JSON_CONTENT_TYPE,
            )
        }
    };
    shared.metrics.count_response(status);
    write_response(&mut stream, status, content_type, body.as_bytes());
    set_request_id(prev);
}

/// An error body. Includes the thread's current request id when one is
/// set, so failures can be joined to their traces too.
fn error_json(message: &str) -> String {
    let mut fields = vec![
        ("status", Json::Str("error".into())),
        ("error", Json::Str(message.into())),
    ];
    if let Some(id) = nascent_obs::trace::current_request_id() {
        fields.push(("request_id", Json::Str(id)));
    }
    obj(fields).render()
}

fn route(request: &HttpRequest, shared: &Shared) -> (u16, String, &'static str) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            shared.metrics.healthz_requests.inc();
            (
                200,
                obj(vec![("status", Json::Str("ok".into()))]).render(),
                JSON_CONTENT_TYPE,
            )
        }
        ("GET", "/metrics") => {
            shared.metrics.metrics_requests.inc();
            let queued = shared.queue.lock().expect("queue lock").waiting.len();
            let body = shared.metrics.render_prom(&shared.pipeline, queued);
            (200, body, PROM_CONTENT_TYPE)
        }
        ("POST", "/optimize") => {
            shared.metrics.optimize_requests.inc();
            pipeline_endpoint(request, Mode::Optimize, shared)
        }
        ("POST", "/certify") => {
            shared.metrics.certify_requests.inc();
            pipeline_endpoint(request, Mode::Certify, shared)
        }
        ("POST", "/panic") if shared.config.test_endpoints => {
            panic!("test endpoint requested a panic")
        }
        (_, "/healthz" | "/metrics") => (405, error_json("method not allowed"), JSON_CONTENT_TYPE),
        (_, "/optimize" | "/certify") => (405, error_json("method not allowed"), JSON_CONTENT_TYPE),
        _ => (404, error_json("no such endpoint"), JSON_CONTENT_TYPE),
    }
}

/// Parses a pipeline request body. Field spellings are exactly the CLI
/// flag values — one config parser for both binaries ([`crate::config`]).
pub fn parse_pipeline_request(body: &[u8], mode: Mode) -> Result<Request, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = parse(text)?;
    let Json::Obj(fields) = &v else {
        return Err("body must be a JSON object".into());
    };
    let mut config = RunConfig::default();
    let mut program = None;
    for (key, value) in fields {
        let as_str = || {
            value
                .as_str()
                .ok_or_else(|| format!("field `{key}` must be a string"))
        };
        let as_bool = || {
            value
                .as_bool()
                .ok_or_else(|| format!("field `{key}` must be a boolean"))
        };
        match key.as_str() {
            "program" => program = Some(as_str()?.to_string()),
            "scheme" => config.scheme = parse_scheme(as_str()?)?,
            "kind" => config.kind = parse_kind(as_str()?)?,
            "implications" => config.implications = parse_implications(as_str()?)?,
            "discharge" => config.discharge = parse_discharge(as_str()?)?,
            "engine" => config.engine = parse_engine(as_str()?)?,
            "classic" => config.classic = as_bool()?,
            "optimize" => config.optimize = as_bool()?,
            other => return Err(format!("unknown field `{other}`")),
        }
    }
    Ok(Request {
        program: program.ok_or("missing field `program`")?,
        config,
        mode,
    })
}

/// Renders a successful pipeline response. The `result` object is
/// [`Outcome::deterministic_json`], so a cached response is byte-equal
/// to the original computation and to the CLI path; `request_id` and the
/// optional embedded `trace` ride alongside it, outside the
/// deterministic surface.
pub fn render_pipeline_response(
    outcome: &Outcome,
    cached: bool,
    request_id: Option<&str>,
    trace: Option<Json>,
) -> String {
    let mut fields = vec![
        ("status", Json::Str("ok".into())),
        ("cached", Json::Bool(cached)),
        ("result", outcome.deterministic_json()),
        (
            "timing_ns",
            obj(vec![
                (
                    "analysis",
                    Json::Int(outcome.timings.analysis_nanos() as i64),
                ),
                ("pass", Json::Int(outcome.timings.pass_nanos() as i64)),
            ]),
        ),
    ];
    if let Some(id) = request_id {
        fields.push(("request_id", Json::Str(id.into())));
    }
    if let Some(trace) = trace {
        fields.push(("trace", trace));
    }
    obj(fields).render()
}

fn pipeline_endpoint(
    request: &HttpRequest,
    mode: Mode,
    shared: &Shared,
) -> (u16, String, &'static str) {
    let req = match parse_pipeline_request(&request.body, mode) {
        Ok(r) => r,
        Err(e) => return (400, error_json(&e), JSON_CONTENT_TYPE),
    };
    // ?trace=1: collect this thread's spans for the duration of the run
    // and embed the Chrome-trace JSON in the response. A cache hit or a
    // computation coalesced onto another thread yields few or no spans —
    // the trace shows the work *this* request performed.
    let want_trace = request.query_param("trace") == Some("1");
    let collector = want_trace.then(ScopedCollector::begin);
    let t0 = Instant::now();
    let (result, role) = shared.pipeline.run(&req);
    shared
        .metrics
        .record_latency(mode, req.config.engine, t0.elapsed());
    let trace = collector.map(|c| {
        let spans = c.finish();
        // rendered and re-parsed so it embeds as a JSON value, keeping
        // the response a single well-formed document
        parse(&chrome_trace_json(&spans)).expect("chrome trace renders valid JSON")
    });
    // from this call's role: the cache's counters also move with other
    // workers' requests
    let cached = role != Role::Miss;
    match result {
        Ok(outcome) => {
            if !cached {
                shared.metrics.record_outcome(&outcome);
            }
            let id = nascent_obs::trace::current_request_id();
            (
                200,
                render_pipeline_response(&outcome, cached, id.as_deref(), trace),
                JSON_CONTENT_TYPE,
            )
        }
        Err(e) => {
            let status = if e.is_client_error() { 400 } else { 500 };
            (status, error_json(&e.to_string()), JSON_CONTENT_TYPE)
        }
    }
}
