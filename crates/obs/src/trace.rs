//! Span-based tracing with a per-thread buffer and Chrome-trace export.
//!
//! Two independent recorders, both off by default:
//!
//! * the **global recorder** ([`set_global_enabled`]) — completed spans
//!   accumulate in a per-thread buffer (no lock on the recording path)
//!   that is flushed to the process-wide sink when the thread's span
//!   stack empties or the buffer fills; [`drain_global`] collects
//!   everything for `nascentc --trace`,
//! * a **scoped collector** ([`ScopedCollector`]) — activated on one
//!   thread for the duration of one service request (`?trace=1`); spans
//!   recorded by that thread land in the collector and are returned by
//!   [`ScopedCollector::finish`].
//!
//! When neither is active, [`span`] returns an inert guard after one
//! relaxed atomic load and one thread-local flag read — cheap enough to
//! leave in every hot path (`tests/overhead.rs` holds the whole layer to
//! ≤1% of the optimizer suite total). [`timed_span`] *always* measures
//! wall time (its callers feed timing counters that must work with the
//! recorder off — `PassContext::Timings` is a view over these spans) but
//! records only when a recorder is active.
//!
//! Every recorded span carries the thread's current request id (set by
//! the service via [`set_request_id`]), its nesting depth, and typed
//! attributes; [`chrome_trace_json`] renders a batch as a
//! `chrome://tracing`-loadable JSON object and [`validate_nesting`]
//! checks the strict per-thread nesting invariant the RAII guards
//! guarantee by construction.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Global recorder switch.
static GLOBAL_ON: AtomicBool = AtomicBool::new(false);

/// Process-wide sink for the global recorder.
static GLOBAL_SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Monotone thread-id source (std's `ThreadId` has no stable integer).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Per-thread buffer flush threshold (spans).
const FLUSH_AT: usize = 4096;

/// The process trace epoch. Fixed before any recorder turns on
/// ([`set_global_enabled`], [`ScopedCollector::begin`]), so every clock
/// read a recorder sees is later than it and `now − epoch` never
/// saturates.
fn epoch() -> Instant {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static SCOPED_ON: Cell<bool> = const { Cell::new(false) };
    static REQUEST_ID: RefCell<Option<String>> = const { RefCell::new(None) };
    static SCOPED_BUF: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
    static LOCAL_BUF: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
}

fn tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// Turns the process-wide recorder on or off.
pub fn set_global_enabled(on: bool) {
    if on {
        epoch();
    }
    GLOBAL_ON.store(on, Ordering::SeqCst);
}

/// Whether any recorder (global, or a scoped collector on this thread)
/// would receive a span recorded right now.
#[inline]
pub fn enabled() -> bool {
    GLOBAL_ON.load(Ordering::Relaxed) || SCOPED_ON.with(Cell::get)
}

/// One typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Integer attribute.
    Int(i64),
    /// String attribute.
    Str(String),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::Int(v as i64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::Int(v as i64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::Int(i64::from(v))
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

/// Span kind: a closed duration or a point event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span with a duration (Chrome phase `X`).
    Complete,
    /// An instantaneous event (Chrome phase `i`).
    Instant,
}

/// One completed span (or instant event) as recorded.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (a stable, static label: pass/analysis/stage name).
    pub name: &'static str,
    /// Category (`stage`, `pass`, `analysis`, `engine`, `event`, …).
    pub cat: &'static str,
    /// Start time, nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for [`EventKind::Instant`]).
    pub dur_ns: u64,
    /// Recording thread (process-local integer id).
    pub tid: u64,
    /// Nesting depth at the time the span opened (0 = top level).
    pub depth: u32,
    /// The request id current on the thread, if any.
    pub request_id: Option<String>,
    /// Typed key-value attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Duration span or point event.
    pub kind: EventKind,
}

fn record(rec: SpanRecord) {
    if SCOPED_ON.with(Cell::get) {
        SCOPED_BUF.with(|b| b.borrow_mut().push(rec.clone()));
    }
    if GLOBAL_ON.load(Ordering::Relaxed) {
        let flush = LOCAL_BUF.with(|b| {
            let mut b = b.borrow_mut();
            b.push(rec);
            b.len() >= FLUSH_AT || DEPTH.with(Cell::get) == 0
        });
        if flush {
            flush_thread();
        }
    }
}

/// Flushes this thread's buffered spans into the global sink. Called
/// automatically whenever the thread's span stack empties; threads that
/// park while holding open spans can call it explicitly.
pub fn flush_thread() {
    LOCAL_BUF.with(|b| {
        let mut b = b.borrow_mut();
        if !b.is_empty() {
            GLOBAL_SINK.lock().expect("trace sink").append(&mut b);
        }
    });
}

/// Takes every span recorded by the global recorder so far (this
/// thread's buffer included).
pub fn drain_global() -> Vec<SpanRecord> {
    flush_thread();
    std::mem::take(&mut GLOBAL_SINK.lock().expect("trace sink"))
}

/// An in-flight span. Created by [`span`] / [`timed_span`]; recorded when
/// dropped or [`Span::finish`]ed. Inert (no timestamps, no recording)
/// when no recorder was active at creation and the span is untimed.
#[derive(Debug)]
pub struct Span {
    live: Option<LiveSpan>,
    /// `Some` iff the span records or measures wall time. The recorded
    /// start timestamp comes from this same clock read, so a parent
    /// never ends before its child.
    timer: Option<Instant>,
}

#[derive(Debug)]
struct LiveSpan {
    name: &'static str,
    cat: &'static str,
    ts_ns: u64,
    depth: u32,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// Opens a span. When no recorder is active this is one atomic load plus
/// one thread-local read, and the guard does nothing on drop.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    if !enabled() {
        return Span {
            live: None,
            timer: None,
        };
    }
    let start = Instant::now();
    Span {
        live: Some(LiveSpan::open(name, cat, start)),
        timer: Some(start),
    }
}

/// Opens a span that **always** measures wall time — callers use the
/// [`Span::finish`] duration for timing counters that must keep working
/// with the recorder off (`PassContext::Timings`). Recorded only when a
/// recorder is active.
#[inline]
pub fn timed_span(name: &'static str, cat: &'static str) -> Span {
    // read the clock after the check: a recorder that is on has fixed
    // the epoch, so `start` cannot precede it
    let on = enabled();
    let start = Instant::now();
    Span {
        live: on.then(|| LiveSpan::open(name, cat, start)),
        timer: Some(start),
    }
}

impl LiveSpan {
    fn open(name: &'static str, cat: &'static str, start: Instant) -> LiveSpan {
        let ts_ns = start.duration_since(epoch()).as_nanos() as u64;
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        LiveSpan {
            name,
            cat,
            ts_ns,
            depth,
            attrs: Vec::new(),
        }
    }
}

impl Span {
    /// Attaches an attribute. No-op on an inert span.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(live) = &mut self.live {
            live.attrs.push((key, value.into()));
        }
    }

    /// Whether this span is actually being recorded.
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    /// Closes the span, returning its measured wall time
    /// ([`Duration::ZERO`] for an inert untimed span).
    pub fn finish(mut self) -> Duration {
        let elapsed = self.timer.map(|t| t.elapsed()).unwrap_or(Duration::ZERO);
        self.close(elapsed);
        elapsed
    }

    fn close(&mut self, elapsed: Duration) {
        let Some(live) = self.live.take() else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        record(SpanRecord {
            name: live.name,
            cat: live.cat,
            ts_ns: live.ts_ns,
            dur_ns: elapsed.as_nanos() as u64,
            tid: tid(),
            depth: live.depth,
            request_id: REQUEST_ID.with(|r| r.borrow().clone()),
            attrs: live.attrs,
            kind: EventKind::Complete,
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live.is_some() {
            let elapsed = self.timer.map(|t| t.elapsed()).unwrap_or(Duration::ZERO);
            self.close(elapsed);
        }
    }
}

/// Records an instantaneous event under the current span context.
/// Callers on hot paths should gate attribute construction behind
/// [`enabled`]; the function itself checks again before recording.
pub fn instant(name: &'static str, cat: &'static str, attrs: Vec<(&'static str, AttrValue)>) {
    if !enabled() {
        return;
    }
    record(SpanRecord {
        name,
        cat,
        ts_ns: epoch().elapsed().as_nanos() as u64,
        dur_ns: 0,
        tid: tid(),
        depth: DEPTH.with(Cell::get),
        request_id: REQUEST_ID.with(|r| r.borrow().clone()),
        attrs,
        kind: EventKind::Instant,
    });
}

/// Sets this thread's current request id; spans recorded while it is set
/// carry it. Returns the previous value so callers can restore it.
pub fn set_request_id(id: Option<String>) -> Option<String> {
    REQUEST_ID.with(|r| std::mem::replace(&mut *r.borrow_mut(), id))
}

/// This thread's current request id.
pub fn current_request_id() -> Option<String> {
    REQUEST_ID.with(|r| r.borrow().clone())
}

/// Collects every span recorded **by this thread** between construction
/// and [`ScopedCollector::finish`] — the `?trace=1` per-request recorder.
/// Nesting collectors is not supported (the inner one wins).
pub struct ScopedCollector {
    was_on: bool,
}

impl ScopedCollector {
    /// Starts collecting on this thread.
    pub fn begin() -> ScopedCollector {
        epoch();
        let was_on = SCOPED_ON.with(|s| s.replace(true));
        if !was_on {
            SCOPED_BUF.with(|b| b.borrow_mut().clear());
        }
        ScopedCollector { was_on }
    }

    /// Stops collecting and returns the spans, in recording (close)
    /// order.
    pub fn finish(self) -> Vec<SpanRecord> {
        SCOPED_ON.with(|s| s.set(self.was_on));
        SCOPED_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()))
    }
}

/// JSON string escaping for the Chrome-trace writer.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders spans as a Chrome `chrome://tracing` / Perfetto-loadable JSON
/// object: `{"displayTimeUnit":"ms","traceEvents":[...]}` with one
/// complete (`"ph":"X"`) or instant (`"ph":"i"`) event per record.
/// Timestamps and durations are microseconds (fractional), as the format
/// requires.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_into(&mut out, s.name);
        out.push_str("\",\"cat\":\"");
        escape_into(&mut out, s.cat);
        out.push_str("\",\"ph\":\"");
        out.push_str(match s.kind {
            EventKind::Complete => "X",
            EventKind::Instant => "i",
        });
        out.push_str(&format!(
            "\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
            s.ts_ns as f64 / 1e3,
            s.tid
        ));
        match s.kind {
            EventKind::Complete => out.push_str(&format!(",\"dur\":{:.3}", s.dur_ns as f64 / 1e3)),
            EventKind::Instant => out.push_str(",\"s\":\"t\""),
        }
        out.push_str(",\"args\":{");
        let mut first = true;
        if let Some(rid) = &s.request_id {
            out.push_str("\"request_id\":\"");
            escape_into(&mut out, rid);
            out.push('"');
            first = false;
        }
        for (k, v) in &s.attrs {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            escape_into(&mut out, k);
            out.push_str("\":");
            match v {
                AttrValue::Int(n) => out.push_str(&n.to_string()),
                AttrValue::Str(v) => {
                    out.push('"');
                    escape_into(&mut out, v);
                    out.push('"');
                }
            }
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Checks the strict per-thread nesting invariant: on each thread, any
/// two complete spans are either disjoint in time or one contains the
/// other, and containment agrees with the recorded depths. Instant
/// events are exempt (they are points).
pub fn validate_nesting(spans: &[SpanRecord]) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut by_tid: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        if s.kind == EventKind::Complete {
            by_tid.entry(s.tid).or_default().push(s);
        }
    }
    for (tid, mut list) in by_tid {
        // parents first: earlier start, then longer duration
        list.sort_by(|a, b| {
            a.ts_ns
                .cmp(&b.ts_ns)
                .then(b.dur_ns.cmp(&a.dur_ns))
                .then(a.depth.cmp(&b.depth))
        });
        let mut stack: Vec<&SpanRecord> = Vec::new();
        for s in list {
            while let Some(top) = stack.last() {
                if top.ts_ns + top.dur_ns <= s.ts_ns && s.ts_ns > top.ts_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                let contained =
                    s.ts_ns >= top.ts_ns && s.ts_ns + s.dur_ns <= top.ts_ns + top.dur_ns;
                if !contained {
                    return Err(format!(
                        "thread {tid}: span `{}` [{}, {}] overlaps `{}` [{}, {}] without nesting",
                        s.name,
                        s.ts_ns,
                        s.ts_ns + s.dur_ns,
                        top.name,
                        top.ts_ns,
                        top.ts_ns + top.dur_ns,
                    ));
                }
                // depth must agree with containment; a start-time tie at
                // nanosecond resolution can be a sibling coincidence, so
                // only a strictly-later start is held to it
                let strict = s.ts_ns > top.ts_ns;
                if strict && s.depth <= top.depth {
                    return Err(format!(
                        "thread {tid}: span `{}` (depth {}) nests inside `{}` (depth {}) but does not record a greater depth",
                        s.name, s.depth, top.name, top.depth,
                    ));
                }
            }
            stack.push(s);
        }
    }
    Ok(())
}
