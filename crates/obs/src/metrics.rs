//! Metrics registry: counters, gauges, fixed-bucket histograms,
//! Prometheus text-format rendering, and an exposition-format validator.
//!
//! The registry hands out cheap atomic handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) keyed by `(name, labels)`; the hot path never touches
//! the registry lock again. [`Registry::render_prom`] renders the whole
//! registry in Prometheus exposition format — `# HELP`/`# TYPE` comments,
//! one sample per series, cumulative `_bucket{le=...}` series plus
//! `_sum`/`_count` for histograms — and is the one rendering `nascentd`
//! serves at `/metrics`. A histogram's `_count` is exact and its memory
//! fixed however many observations arrive. [`validate_prom`] parses the
//! format back, checking every line and the monotonicity of histogram
//! buckets (`bench_service`, its CI job and the service tests run it
//! against a live `/metrics` scrape).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotone counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge (set-to-current-value semantics, `f64`).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds (seconds), strictly increasing; an implicit `+Inf`
    /// bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (not cumulative; rendering
    /// accumulates). `counts[bounds.len()]` is the `+Inf` bucket.
    counts: Vec<AtomicU64>,
    /// Sum of observations, in nanoseconds.
    sum_ns: AtomicU64,
}

/// A fixed-bucket histogram of durations (observed in seconds).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation of `seconds`.
    pub fn observe(&self, seconds: f64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|&b| seconds <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0
            .sum_ns
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// Records one observation of a [`Duration`].
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of observations, in seconds.
    pub fn sum(&self) -> f64 {
        self.0.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Default latency buckets (seconds): 100µs … 10s, roughly geometric.
pub const LATENCY_BUCKETS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

#[derive(Debug)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: &'static str,
    /// `labels rendered as {k="v",…}` (or empty) → series.
    series: BTreeMap<String, Series>,
}

/// A named collection of metric families. Cheap handles come out;
/// [`Registry::render_prom`] renders the whole thing.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

/// Renders a label set deterministically: `{a="x",b="y"}` or `""`.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut pairs: Vec<_> = labels.to_vec();
    pairs.sort();
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", body.join(","))
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates a counter series.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a different metric type.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Counter {
        let mut fams = self.families.lock().expect("registry lock");
        let fam = fams.entry(name).or_insert_with(|| Family {
            help,
            series: BTreeMap::new(),
        });
        match fam
            .series
            .entry(label_key(labels))
            .or_insert_with(|| Series::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Series::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Gets or creates a gauge series.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a different metric type.
    pub fn gauge(&self, name: &'static str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
        let mut fams = self.families.lock().expect("registry lock");
        let fam = fams.entry(name).or_insert_with(|| Family {
            help,
            series: BTreeMap::new(),
        });
        match fam
            .series
            .entry(label_key(labels))
            .or_insert_with(|| Series::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))))
        {
            Series::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// Gets or creates a histogram series with the given bucket bounds
    /// (strictly increasing, seconds; `+Inf` is implicit).
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a different metric type or if the
    /// bounds are not strictly increasing.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let mut fams = self.families.lock().expect("registry lock");
        let fam = fams.entry(name).or_insert_with(|| Family {
            help,
            series: BTreeMap::new(),
        });
        match fam.series.entry(label_key(labels)).or_insert_with(|| {
            Series::Histogram(Histogram(Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_ns: AtomicU64::new(0),
            })))
        }) {
            Series::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render_prom(&self) -> String {
        use std::fmt::Write as _;
        let fams = self.families.lock().expect("registry lock");
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            let kind = match fam.series.values().next() {
                Some(Series::Counter(_)) => "counter",
                Some(Series::Gauge(_)) => "gauge",
                Some(Series::Histogram(_)) => "histogram",
                None => continue,
            };
            let _ = writeln!(out, "# HELP {name} {}", fam.help);
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, series) in &fam.series {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {}", render_f64(g.get()));
                    }
                    Series::Histogram(h) => {
                        let inner = &h.0;
                        let mut cumulative = 0u64;
                        for (i, bound) in inner.bounds.iter().enumerate() {
                            cumulative += inner.counts[i].load(Ordering::Relaxed);
                            let le = render_f64(*bound);
                            let series_labels = merge_le(labels, &le);
                            let _ = writeln!(out, "{name}_bucket{series_labels} {cumulative}");
                        }
                        cumulative += inner.counts[inner.bounds.len()].load(Ordering::Relaxed);
                        let series_labels = merge_le(labels, "+Inf");
                        let _ = writeln!(out, "{name}_bucket{series_labels} {cumulative}");
                        let _ = writeln!(out, "{name}_sum{labels} {}", render_f64(h.sum()));
                        let _ = writeln!(out, "{name}_count{labels} {cumulative}");
                    }
                }
            }
        }
        out
    }
}

/// Inserts `le="…"` into a rendered label set.
fn merge_le(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
    }
}

/// Renders an `f64` the way Prometheus expects (no trailing `.0` noise
/// beyond what `{}` produces; integers render without a fraction).
fn render_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Validates Prometheus text exposition format: every line is a
/// well-formed comment or sample, every sample's metric was announced by
/// a `# TYPE` line, and every histogram's cumulative buckets are
/// monotone with a `+Inf` bucket equal to its `_count`.
pub fn validate_prom(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    // (family, labels-without-le) -> [(le, value)]
    let mut buckets: HashMap<(String, String), Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<(String, String), f64> = HashMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {n}: TYPE without a name"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {n}: TYPE without a kind"))?;
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return Err(format!("line {n}: unknown TYPE `{kind}`"));
                }
                types.insert(name.to_string(), kind.to_string());
            } else if !rest.starts_with("HELP ") && !rest.is_empty() {
                return Err(format!("line {n}: unknown comment `{line}`"));
            }
            continue;
        }
        let (series, value) = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        let (name, labels) = series;
        // map _bucket/_sum/_count back to the histogram family name
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(&name);
        if !types.contains_key(family) {
            return Err(format!("line {n}: sample for unannounced metric `{name}`"));
        }
        if name.ends_with("_bucket") && types.get(family).map(String::as_str) == Some("histogram") {
            let (le, others) = split_le(&labels)
                .ok_or_else(|| format!("line {n}: histogram bucket without `le` label"))?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("line {n}: bad le `{le}`"))?
            };
            buckets
                .entry((family.to_string(), others))
                .or_default()
                .push((le, value));
        }
        if name.ends_with("_count") && types.get(family).map(String::as_str) == Some("histogram") {
            counts.insert((family.to_string(), labels), value);
        }
    }

    for ((family, labels), mut series) in buckets {
        series.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le ordering"));
        for w in series.windows(2) {
            if w[1].1 < w[0].1 {
                return Err(format!(
                    "histogram `{family}{labels}`: bucket le={} count {} < le={} count {}",
                    w[1].0, w[1].1, w[0].0, w[0].1
                ));
            }
        }
        let last = series.last().expect("non-empty bucket series");
        if !last.0.is_infinite() {
            return Err(format!("histogram `{family}{labels}`: missing +Inf bucket"));
        }
        if let Some(count) = counts.get(&(family.clone(), labels.clone())) {
            if *count != last.1 {
                return Err(format!(
                    "histogram `{family}{labels}`: +Inf bucket {} != _count {count}",
                    last.1
                ));
            }
        }
    }
    Ok(())
}

/// Parses one sample line into `((name, rendered labels), value)`.
#[allow(clippy::type_complexity)]
fn parse_sample(line: &str) -> Result<((String, String), f64), String> {
    let (series, value) = match line.find('}') {
        Some(close) => {
            let (head, tail) = line.split_at(close + 1);
            (head.to_string(), tail.trim())
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            let name = parts.next().ok_or("empty line")?;
            (name.to_string(), parts.next().unwrap_or("").trim())
        }
    };
    let value: f64 = value
        .split_whitespace()
        .next()
        .ok_or("sample without a value")?
        .parse()
        .map_err(|_| format!("bad sample value in `{line}`"))?;
    let (name, labels) = match series.find('{') {
        Some(open) => {
            let labels = &series[open..];
            if !labels.ends_with('}') {
                return Err(format!("unterminated label set in `{line}`"));
            }
            validate_labels(labels)?;
            (series[..open].to_string(), labels.to_string())
        }
        None => (series.clone(), String::new()),
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.starts_with(|c: char| c.is_ascii_digit())
    {
        return Err(format!("bad metric name `{name}`"));
    }
    Ok(((name, labels), value))
}

/// Validates a rendered `{k="v",…}` label set.
fn validate_labels(labels: &str) -> Result<(), String> {
    let body = &labels[1..labels.len() - 1];
    if body.is_empty() {
        return Ok(());
    }
    for pair in split_label_pairs(body) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("label without `=` in `{labels}`"))?;
        if k.is_empty() || !k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad label name `{k}`"));
        }
        if !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
            return Err(format!("unquoted label value `{v}`"));
        }
    }
    Ok(())
}

/// Splits `k="v",k2="v2"` on commas outside quotes.
fn split_label_pairs(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    out.push(&body[start..]);
    out
}

/// Extracts the `le` label from a rendered label set, returning
/// `(le value, labels with le removed)`.
fn split_le(labels: &str) -> Option<(String, String)> {
    if labels.is_empty() {
        return None;
    }
    let body = &labels[1..labels.len() - 1];
    let mut le = None;
    let mut rest = Vec::new();
    for pair in split_label_pairs(body) {
        match pair.split_once('=') {
            Some(("le", v)) => le = Some(v.trim_matches('"').to_string()),
            _ => rest.push(pair),
        }
    }
    let le = le?;
    let rest = if rest.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", rest.join(","))
    };
    Some((le, rest))
}
