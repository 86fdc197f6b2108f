//! The service-mix client: two closed-loop connections to an in-process
//! `nascentd`, sending whole passes of the plan over loopback HTTP.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use nascent_driver::json::{obj, parse, Json};
use nascent_driver::service::{self, ServerHandle, ServiceConfig};
use nascent_driver::{CacheStats, Mode, RunConfig};
use nascent_rangecheck::{CheckKind, Discharge, ImplicationMode};

use crate::calib;
use crate::counts::Counts;
use crate::plan::Plan;
use crate::run::Budget;

/// Worker threads of the service under test.
pub const WORKERS: usize = 2;
/// Client connections driving it.
pub const CLIENTS: usize = 2;

/// Starts the service under test on a free loopback port.
pub fn start() -> Result<ServerHandle, String> {
    service::start(ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    })
}

/// What one reply said, as far as the benchmark uses it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Index into the plan's items.
    pub item: usize,
    /// Position in the pass order.
    pub pos: usize,
    /// Pass the request was sent in.
    pub pass: usize,
    /// HTTP round trip.
    pub rtt_ns: u64,
    /// HTTP status.
    pub status: u16,
    /// Whether the output and certificate were right.
    pub correct: bool,
    /// The service reported a cache hit.
    pub cached: bool,
    /// Counters of the `result` object.
    pub counts: Counts,
    /// The deterministic `result` object, kept for the first pass only.
    pub result: Option<Json>,
    /// `timing_ns.analysis` of the reply.
    pub analysis_ns: u64,
    /// Per `(category, name)` span nanoseconds of the embedded trace.
    pub spans: BTreeMap<(String, String), u64>,
}

/// Wall time and service stage time of one pass.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// Wall time of the pass.
    pub secs: f64,
    /// Growth of the `/metrics` stage-time sums over the pass, seconds.
    pub stage_s: BTreeMap<String, f64>,
    /// Factor to reference-machine time, from speed probes before and
    /// after the pass ([`crate::calib`]), one per client thread at once,
    /// while the clients and the workers are idle.
    pub scale: f64,
}

/// The replies of one phase and the service counters around it.
#[derive(Debug, Default)]
pub struct ServicePhase {
    /// Every reply, in no particular order.
    pub replies: Vec<Reply>,
    /// One entry per pass, in order.
    pub passes: Vec<PassStats>,
    /// Result-cache traffic over the first pass.
    pub first_pass_cache: CacheStats,
    /// Result-cache traffic over the whole phase.
    pub cache: CacheStats,
    /// `VmHWM` after the first `budget.min_passes` passes, MB.
    pub rss_mb: f64,
}

fn kind_name(k: CheckKind) -> &'static str {
    match k {
        CheckKind::Prx => "prx",
        CheckKind::Inx => "inx",
    }
}

fn implications_name(m: ImplicationMode) -> &'static str {
    match m {
        ImplicationMode::All => "all",
        ImplicationMode::CrossFamilyOnly => "cross",
        ImplicationMode::None => "none",
    }
}

fn discharge_name(d: Discharge) -> &'static str {
    match d {
        Discharge::On => "on",
        Discharge::Off => "off",
    }
}

/// The request body for a program and configuration. `pass` goes into a
/// leading comment, so each pass sends sources the cache has not seen.
fn body(source: &str, config: &RunConfig, pass: usize) -> String {
    obj(vec![
        ("program", Json::Str(format!("! pass {pass}\n{source}"))),
        ("scheme", Json::Str(config.scheme.name().into())),
        ("kind", Json::Str(kind_name(config.kind).into())),
        (
            "implications",
            Json::Str(implications_name(config.implications).into()),
        ),
        (
            "discharge",
            Json::Str(discharge_name(config.discharge).into()),
        ),
        ("engine", Json::Str(config.engine.name().into())),
    ])
    .render()
}

/// Stage-time sums from the Prometheus rendering of `/metrics`.
fn stage_sums(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = nascent_driver::http::request(addr, "GET", "/metrics?format=prom", b"")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let text = String::from_utf8(body).map_err(|e| e.to_string())?;
    let prefix = "nascentd_stage_duration_seconds_sum{stage=\"";
    let mut sums = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(prefix) {
            let (stage, value) = rest.split_once("\"} ").ok_or("bad stage line")?;
            let v: f64 = value
                .parse()
                .map_err(|_| format!("bad stage sum `{value}`"))?;
            sums.insert(stage.to_string(), v);
        }
    }
    Ok(sums)
}

/// Reads one reply body; `None` fields leave the reply marked incorrect.
fn read_reply(reply: &mut Reply, body: &[u8], mode: Mode, reference: &[String]) -> Option<()> {
    let v = parse(std::str::from_utf8(body).ok()?).ok()?;
    let result = v.get("result")?;
    reply.cached = v.get("cached")?.as_bool()?;
    reply.counts = Counts::of_json(result);
    if reply.pass == 0 {
        reply.result = Some(result.clone());
    }
    reply.analysis_ns = v.get("timing_ns")?.get("analysis")?.as_i64()? as u64;
    if let Some(Json::Obj(trace)) = v.get("trace") {
        if let Some(Json::Arr(events)) = trace.get("traceEvents") {
            for e in events {
                let (Some(name), Some(cat), Some(dur)) = (
                    e.get("name").and_then(Json::as_str),
                    e.get("cat").and_then(Json::as_str),
                    e.get("dur").and_then(Json::as_f64),
                ) else {
                    continue;
                };
                *reply.spans.entry((cat.into(), name.into())).or_insert(0) +=
                    (dur * 1e3).round() as u64;
            }
        }
    }
    let counters = result.get("counters")?;
    let output: Vec<&str> = match counters.get("output")? {
        Json::Arr(a) => a.iter().map(Json::as_str).collect::<Option<_>>()?,
        _ => return None,
    };
    let mut correct = output == reference && *counters.get("trap")? == Json::Null;
    if mode == Mode::Certify {
        let cert = result.get("certificate")?;
        correct &= cert.get("ok")?.as_bool()? && cert.get("discharge_rejected")?.as_i64()? == 0;
    }
    reply.correct = correct;
    Some(())
}

/// Sends whole passes of `plan.order` from [`CLIENTS`] closed-loop
/// clients as `budget` allows, pass numbers starting at `first_pass`.
/// With `traced`, every request asks for its spans (`?trace=1`).
pub fn phase(
    server: &ServerHandle,
    plan: &Plan,
    reference: &[Vec<String>],
    budget: Budget,
    first_pass: usize,
    traced: bool,
) -> Result<ServicePhase, String> {
    let addr = server.addr.to_string();
    let cache_before = server.pipeline().cache_stats();
    let mut stages = stage_sums(&addr)?;
    let mut out = ServicePhase::default();
    let phase_start = Instant::now();
    let mut speed = calib::probe_threads(CLIENTS);
    while budget.another(out.passes.len(), phase_start.elapsed().as_secs_f64()) {
        let pass = first_pass + out.passes.len();
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let replies: Vec<Reply> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let pos = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&item) = plan.order.get(pos) else {
                                break;
                            };
                            mine.push(send(&addr, plan, reference, (pos, item), pass, traced));
                        }
                        mine
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let secs = start.elapsed().as_secs_f64();
        let after = calib::probe_threads(CLIENTS);
        let scale = calib::scale(speed, after);
        speed = after;
        let now = stage_sums(&addr)?;
        let stage_s = now
            .iter()
            .map(|(k, v)| (k.clone(), v - stages.get(k).copied().unwrap_or(0.0)))
            .collect();
        stages = now;
        if pass == first_pass {
            out.first_pass_cache = since(&server.pipeline().cache_stats(), &cache_before);
        }
        out.passes.push(PassStats {
            secs,
            stage_s,
            scale,
        });
        out.replies.extend(replies);
        if out.passes.len() == budget.min_passes {
            out.rss_mb = crate::run::peak_rss_mb();
        }
    }
    out.cache = since(&server.pipeline().cache_stats(), &cache_before);
    Ok(out)
}

/// Sends one request and reads its reply.
fn send(
    addr: &str,
    plan: &Plan,
    reference: &[Vec<String>],
    (pos, item): (usize, usize),
    pass: usize,
    traced: bool,
) -> Reply {
    let it = &plan.items[item];
    let body = body(&plan.sources[it.program], &it.config, pass);
    let path = match (it.mode, traced) {
        (Mode::Optimize, false) => "/optimize",
        (Mode::Optimize, true) => "/optimize?trace=1",
        (Mode::Certify, false) => "/certify",
        (Mode::Certify, true) => "/certify?trace=1",
    };
    let t0 = Instant::now();
    let response = nascent_driver::http::request(addr, "POST", path, body.as_bytes());
    let mut reply = Reply {
        item,
        pos,
        pass,
        rtt_ns: t0.elapsed().as_nanos() as u64,
        status: 0,
        correct: false,
        cached: false,
        counts: Counts::default(),
        result: None,
        analysis_ns: 0,
        spans: BTreeMap::new(),
    };
    if let Ok((status, bytes)) = response {
        reply.status = status;
        if status == 200 {
            read_reply(&mut reply, &bytes, it.mode, &reference[it.program]);
        }
    }
    reply
}

fn since(now: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
        coalesced: now.coalesced - before.coalesced,
        entries: now.entries,
    }
}
