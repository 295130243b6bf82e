//! Live sweep observability: a lock-cheap metrics registry plus the sinks
//! that publish it while a sweep is still running.
//!
//! Everything post-hoc stays where it was — [`crate::metrics::HostPerf`] and
//! the telemetry report are the record of a *finished* cell. This module is
//! the in-flight view: the sweep driver and the run loop publish named
//! counters/gauges/histograms into one process-wide [`MetricsRegistry`],
//! and three sinks read it out in the tiny-vector sources→sinks idiom:
//!
//! 1. a Prometheus text-exposition HTTP endpoint on a background thread
//!    (`PUNO_METRICS_ADDR`, `std::net` only, default off),
//! 2. a throttled console heartbeat with cells done/total and an ETA from
//!    the persisted LPT cost model (`PUNO_PROGRESS`, stderr only — stdout
//!    stays byte-identical),
//! 3. the cross-run result warehouse (`PUNO_WAREHOUSE`, see
//!    [`crate::warehouse`]).
//!
//! Determinism contract: the registry is observability-only. Nothing in the
//! simulation reads a metric back, samplers only *copy* host counters out of
//! the running [`crate::System`], and with every sink off the single cost is
//! one relaxed atomic load per would-be publish site ([`global`] returning
//! `None`). The 16-cell golden suite runs with observability on and off and
//! must stay bit-identical either way.

use crate::knobs::{env_setting, parse_setting};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

/// What a metric family is, for the `# TYPE` exposition line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Monotone counter handle. Cloning shares the underlying cell; updates are
/// single relaxed atomics (no registry lock).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous-value gauge handle (an `f64` stored as bits).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the finite buckets (ascending); an implicit `+Inf`
    /// bucket follows. Stored per-bucket (non-cumulative); rendering
    /// cumulates, as the exposition format requires.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// Histogram handle with fixed buckets chosen at registration.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    pub fn observe(&self, v: f64) {
        let c = &self.0;
        let idx = c
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(c.bounds.len());
        c.buckets[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = c.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match c
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Family {
    kind: MetricKind,
    help: String,
    /// Label sets are normalized (sorted by label name) so one logical
    /// series has one cell regardless of registration order.
    series: BTreeMap<Vec<(String, String)>, Series>,
}

/// Registry of named metric families. Registration takes the one lock;
/// handles returned from it update lock-free. Registering the same
/// (name, labels) again returns a handle to the same cell.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Prometheus metric/label-name charset: `[a-zA-Z_:][a-zA-Z0-9_:]*` (labels
/// without the colon).
fn valid_name(name: &str, allow_colon: bool) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    let head_ok = first.is_ascii_alphabetic() || first == '_' || (allow_colon && first == ':');
    head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || (allow_colon && c == ':'))
}

fn normalize_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, val)| {
            assert!(valid_name(k, false), "invalid label name {k:?}");
            (k.to_string(), val.to_string())
        })
        .collect();
    v.sort();
    v
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Poison-tolerant registry lock: a panicking worker holding it can at
    /// worst leave a fully-registered family behind, never a torn one.
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Family>> {
        self.families.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn family_cell(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        mk: impl FnOnce() -> Series,
    ) -> Series {
        assert!(valid_name(name, true), "invalid metric name {name:?}");
        let key = normalize_labels(labels);
        let mut families = self.lock();
        let fam = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert!(
            fam.kind == kind,
            "metric {name} re-registered as {kind:?}, was {:?}",
            fam.kind
        );
        match fam.series.entry(key).or_insert_with(mk) {
            Series::Counter(c) => Series::Counter(c.clone()),
            Series::Gauge(g) => Series::Gauge(g.clone()),
            Series::Histogram(h) => Series::Histogram(h.clone()),
        }
    }

    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.family_cell(name, help, MetricKind::Counter, labels, || {
            Series::Counter(Arc::new(AtomicU64::new(0)))
        }) {
            Series::Counter(c) => Counter(c),
            _ => unreachable!("counter family holds counter series"),
        }
    }

    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.family_cell(name, help, MetricKind::Gauge, labels, || {
            Series::Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
        }) {
            Series::Gauge(g) => Gauge(g),
            _ => unreachable!("gauge family holds gauge series"),
        }
    }

    /// `bounds` are ascending finite upper bounds; the `+Inf` bucket is
    /// implicit. Bounds are fixed by the first registration of the family's
    /// first series.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be ascending"
        );
        match self.family_cell(name, help, MetricKind::Histogram, labels, || {
            Series::Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }))
        }) {
            Series::Histogram(h) => Histogram(h),
            _ => unreachable!("histogram family holds histogram series"),
        }
    }

    /// Render the whole registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` per family, one sample line per
    /// series, histogram series expanded to cumulative `_bucket`/`_sum`/
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        let families = self.lock();
        let mut out = String::new();
        for (name, fam) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&fam.help)));
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind.as_str()));
            for (labels, series) in fam.series.iter() {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(labels, None),
                            c.load(Ordering::Relaxed)
                        ));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(labels, None),
                            fmt_value(f64::from_bits(g.load(Ordering::Relaxed)))
                        ));
                    }
                    Series::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, bound) in h.bounds.iter().enumerate() {
                            cum += h.buckets[i].load(Ordering::Relaxed);
                            out.push_str(&format!(
                                "{name}_bucket{} {cum}\n",
                                render_labels(labels, Some(&fmt_value(*bound)))
                            ));
                        }
                        cum += h.buckets[h.bounds.len()].load(Ordering::Relaxed);
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}\n",
                            render_labels(labels, Some("+Inf"))
                        ));
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            render_labels(labels, None),
                            fmt_value(f64::from_bits(h.sum_bits.load(Ordering::Relaxed)))
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            render_labels(labels, None),
                            h.count.load(Ordering::Relaxed)
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Escape a label value per the exposition format: backslash, double quote,
/// and line feed.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escape a HELP string: backslash and line feed (quotes are legal there).
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Sample-value formatting: plain `f64` display, with the special values
/// spelled the way the exposition format expects.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// Process-wide registry and enablement.

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();

/// Turn the process-wide registry on (idempotent, sticky) and return it.
/// Publish sites go live from here on; already-running code keeps paying
/// only its one relaxed load until it next checks.
pub fn enable() -> &'static MetricsRegistry {
    let reg = REGISTRY.get_or_init(MetricsRegistry::new);
    ENABLED.store(true, Ordering::Release);
    reg
}

/// Whether any publish site should bother. One relaxed atomic load — this
/// is the entire cost of observability-off.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry, or `None` when observability is off.
pub fn global() -> Option<&'static MetricsRegistry> {
    if enabled() {
        Some(REGISTRY.get_or_init(MetricsRegistry::new))
    } else {
        None
    }
}

/// Resolve the observability environment once per process: any of
/// `PUNO_METRICS_ADDR`, `PUNO_OBS`, `PUNO_PROGRESS`, or `PUNO_WAREHOUSE`
/// being set enables the registry, and a metrics address additionally
/// starts the exporter thread. Harness entry points (sweep driver, run
/// entry points, the grid binaries) call this; it is a no-op after the
/// first call and when nothing is configured.
pub fn init_from_env() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let addr = env_setting("PUNO_METRICS_ADDR");
        let wanted = addr.is_some()
            || env_setting("PUNO_OBS").is_some()
            || env_progress().is_some()
            || crate::warehouse::env_warehouse().is_some();
        if !wanted {
            return;
        }
        let reg = enable();
        if let Some(addr) = addr {
            match serve(reg, &addr) {
                Ok(bound) => eprintln!("obs: serving Prometheus metrics on http://{bound}/metrics"),
                Err(e) => {
                    eprintln!("warning: PUNO_METRICS_ADDR={addr} unusable ({e}); exporter disabled")
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Sink 1: Prometheus text-exposition HTTP endpoint (std::net only).

/// Start the exporter thread serving `registry` on `addr` (any
/// `ToSocketAddrs` string; port 0 picks a free port). Returns the bound
/// address. The thread lives for the rest of the process — the scrape
/// endpoint outliving the sweep is the point.
pub fn serve(registry: &'static MetricsRegistry, addr: &str) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name("puno-obs-exporter".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                let _ = handle_scrape(registry, stream);
            }
        })?;
    Ok(bound)
}

/// Answer one scrape: drain the request head (bounded, with a timeout — a
/// stalled client must not wedge the exporter), then write a minimal
/// HTTP/1.0 response carrying the exposition text. Any path serves the
/// metrics; there is nothing else to route.
fn handle_scrape(registry: &MetricsRegistry, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut req = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = registry.render_prometheus();
    let resp = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(resp.as_bytes())
}

// ---------------------------------------------------------------------------
// Worker identity and per-cell notes (sweep worker threads → publish sites).

thread_local! {
    static WORKER: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
    static CACHE_HIT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Tag this thread's published run-loop series (`worker="…"`); sweep
/// workers set their index, everything else defaults to `main`.
pub fn set_worker(label: &str) {
    WORKER.with(|w| *w.borrow_mut() = label.to_string());
}

/// This thread's worker label for metric series.
pub fn current_worker() -> String {
    WORKER.with(|w| {
        let w = w.borrow();
        if w.is_empty() {
            "main".to_string()
        } else {
            w.clone()
        }
    })
}

/// Note that the cell currently running on this thread was served from the
/// result cache (set inside the sweep's cell runner, consumed by the sweep
/// driver when the cell returns).
pub fn note_cache_hit() {
    CACHE_HIT.with(|c| c.set(true));
}

/// Consume the cache-hit note for the cell that just finished.
pub fn take_cache_hit() -> bool {
    CACHE_HIT.with(|c| c.replace(false))
}

// ---------------------------------------------------------------------------
// Live run-loop sampling.

/// Default cycle interval between run-loop samples (`PUNO_OBS_SAMPLE_CYCLES`
/// overrides). Coarse on purpose: one sample is four relaxed atomics and an
/// `Instant::now`, and the golden gate only cares that it never touches
/// simulated state.
pub const DEFAULT_SAMPLE_CYCLES: u64 = 5000;

/// The run-loop sample cadence in simulated cycles (0 disables sampling
/// even when the registry is on).
pub fn env_sample_every() -> u64 {
    std::env::var("PUNO_OBS_SAMPLE_CYCLES")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_SAMPLE_CYCLES)
}

/// Publishes a running [`crate::System`]'s live throughput: cumulative
/// simulated cycles/events and the instantaneous rates since the previous
/// sample, labeled by the sweep worker thread driving the run. Created at
/// run-loop entry when the registry is enabled; the run loop calls
/// [`RunSampler::sample`] at its batch boundary and [`RunSampler::finish`]
/// on exit.
#[derive(Debug)]
pub struct RunSampler {
    every: u64,
    /// Absolute cycle of the next due sample (the run loop compares and
    /// calls; keeping the threshold here keeps the loop's check branch-free
    /// on the common path).
    pub next_at: u64,
    last_wall: Instant,
    last_cycles: u64,
    last_events: u64,
    cycles_total: Counter,
    events_total: Counter,
    cps: Gauge,
    eps: Gauge,
}

impl RunSampler {
    pub fn new(
        registry: &MetricsRegistry,
        every: u64,
        start_cycle: u64,
        start_events: u64,
    ) -> Self {
        let worker = current_worker();
        let labels: [(&str, &str); 1] = [("worker", worker.as_str())];
        Self {
            every,
            next_at: start_cycle.saturating_add(every),
            last_wall: Instant::now(),
            last_cycles: start_cycle,
            last_events: start_events,
            cycles_total: registry.counter(
                "puno_sim_cycles_total",
                "Simulated cycles advanced by run loops on this worker.",
                &labels,
            ),
            events_total: registry.counter(
                "puno_sim_events_total",
                "Events dispatched by run loops on this worker.",
                &labels,
            ),
            cps: registry.gauge(
                "puno_sim_cycles_per_sec",
                "Live simulated cycles per wall second (last sample window).",
                &labels,
            ),
            eps: registry.gauge(
                "puno_sim_events_per_sec",
                "Live events dispatched per wall second (last sample window).",
                &labels,
            ),
        }
    }

    /// Publish the window since the last sample and rearm `next_at`.
    pub fn sample(&mut self, now_cycle: u64, events: u64) {
        let dc = now_cycle.saturating_sub(self.last_cycles);
        let de = events.saturating_sub(self.last_events);
        self.cycles_total.add(dc);
        self.events_total.add(de);
        let wall = self.last_wall.elapsed().as_secs_f64();
        if wall > 0.0 {
            self.cps.set(dc as f64 / wall);
            self.eps.set(de as f64 / wall);
        }
        self.last_wall = Instant::now();
        self.last_cycles = now_cycle;
        self.last_events = events;
        self.next_at = now_cycle.saturating_add(self.every.max(1));
    }

    /// Publish the residual window and zero the instantaneous rates (the
    /// run is over; a scrape between runs should not see a stale rate).
    pub fn finish(&mut self, now_cycle: u64, events: u64) {
        let dc = now_cycle.saturating_sub(self.last_cycles);
        let de = events.saturating_sub(self.last_events);
        self.cycles_total.add(dc);
        self.events_total.add(de);
        self.last_cycles = now_cycle;
        self.last_events = events;
        self.cps.set(0.0);
        self.eps.set(0.0);
    }
}

// ---------------------------------------------------------------------------
// Sink 2: console progress heartbeat.

/// Parse a `PUNO_PROGRESS` value into a heartbeat interval. Off values
/// (see [`crate::knobs::parse_setting`]) disable it; a positive number is
/// the interval in seconds; any other on value means the 1 s default.
pub fn parse_progress(value: Option<&str>) -> Option<Duration> {
    let v = parse_setting(value)?;
    if let Ok(secs) = v.parse::<f64>() {
        if secs > 0.0 && secs.is_finite() {
            return Some(Duration::from_secs_f64(secs.min(3600.0)));
        }
        return None;
    }
    Some(Duration::from_secs(1))
}

/// The heartbeat interval requested by `PUNO_PROGRESS` (off by default).
pub fn env_progress() -> Option<Duration> {
    parse_progress(std::env::var("PUNO_PROGRESS").ok().as_deref())
}

/// One heartbeat line. Pure so the format is unit-testable; the sweep
/// driver prints it to stderr (stdout stays byte-identical with
/// observability off).
pub fn render_heartbeat(
    done: usize,
    total: usize,
    running: usize,
    elapsed_secs: f64,
    eta_secs: Option<f64>,
) -> String {
    let eta = match eta_secs {
        Some(e) if e.is_finite() && e >= 0.0 => format!("~{e:.1}s"),
        _ => "--".to_string(),
    };
    format!(
        "progress: {done}/{total} cells done, {running} running, elapsed {elapsed_secs:.1}s, eta {eta}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_rendering() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("puno_test_total", "A test counter.", &[("kind", "a")]);
        c.inc();
        c.add(2);
        // Re-registration returns the same cell.
        let c2 = reg.counter("puno_test_total", "A test counter.", &[("kind", "a")]);
        c2.inc();
        assert_eq!(c.get(), 4);
        let g = reg.gauge("puno_test_gauge", "A test gauge.", &[]);
        g.set(2.5);
        g.add(-0.5);
        assert!((g.get() - 2.0).abs() < 1e-12);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE puno_test_total counter\n"));
        assert!(text.contains("puno_test_total{kind=\"a\"} 4\n"));
        assert!(text.contains("# TYPE puno_test_gauge gauge\n"));
        assert!(text.contains("puno_test_gauge 2\n"));
    }

    #[test]
    fn label_order_is_normalized() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("puno_norm_total", "h", &[("b", "2"), ("a", "1")]);
        let b = reg.counter("puno_norm_total", "h", &[("a", "1"), ("b", "2")]);
        a.inc();
        b.inc();
        let text = reg.render_prometheus();
        assert!(
            text.contains("puno_norm_total{a=\"1\",b=\"2\"} 2\n"),
            "{text}"
        );
    }

    #[test]
    fn label_values_and_help_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter(
            "puno_esc_total",
            "help with \\ and\nnewline",
            &[("path", "a\\b \"q\"\nend")],
        );
        let text = reg.render_prometheus();
        assert!(
            text.contains("# HELP puno_esc_total help with \\\\ and\\nnewline\n"),
            "{text}"
        );
        assert!(
            text.contains("puno_esc_total{path=\"a\\\\b \\\"q\\\"\\nend\"} 0\n"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_metric_names_are_rejected() {
        MetricsRegistry::new().counter("bad name", "h", &[]);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_is_rejected() {
        let reg = MetricsRegistry::new();
        reg.counter("puno_kind_total", "h", &[]);
        reg.gauge("puno_kind_total", "h", &[]);
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("puno_hist_secs", "h", &[], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 5.55).abs() < 1e-9);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE puno_hist_secs histogram\n"));
        assert!(
            text.contains("puno_hist_secs_bucket{le=\"0.1\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("puno_hist_secs_bucket{le=\"1\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("puno_hist_secs_bucket{le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("puno_hist_secs_count 3\n"), "{text}");
    }

    #[test]
    fn special_values_render_in_exposition_spelling() {
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_value(f64::NAN), "NaN");
        assert_eq!(fmt_value(2.0), "2");
        assert_eq!(fmt_value(0.25), "0.25");
    }

    #[test]
    fn progress_parsing() {
        assert_eq!(parse_progress(None), None);
        assert_eq!(parse_progress(Some("0")), None);
        assert_eq!(parse_progress(Some("off")), None);
        assert_eq!(parse_progress(Some("-3")), None);
        assert_eq!(
            parse_progress(Some("2.5")),
            Some(Duration::from_secs_f64(2.5))
        );
        assert_eq!(parse_progress(Some("on")), Some(Duration::from_secs(1)));
    }

    #[test]
    fn heartbeat_format() {
        assert_eq!(
            render_heartbeat(3, 16, 4, 2.25, Some(7.04)),
            "progress: 3/16 cells done, 4 running, elapsed 2.2s, eta ~7.0s"
        );
        assert_eq!(
            render_heartbeat(0, 16, 4, 0.0, None),
            "progress: 0/16 cells done, 4 running, elapsed 0.0s, eta --"
        );
    }

    #[test]
    fn sampler_publishes_deltas_and_rates() {
        let reg = MetricsRegistry::new();
        set_worker("t9");
        let mut s = RunSampler::new(&reg, 100, 0, 0);
        assert_eq!(s.next_at, 100);
        s.sample(100, 40);
        s.sample(250, 90);
        s.finish(300, 100);
        set_worker("main");
        let text = reg.render_prometheus();
        assert!(
            text.contains("puno_sim_cycles_total{worker=\"t9\"} 300\n"),
            "{text}"
        );
        assert!(
            text.contains("puno_sim_events_total{worker=\"t9\"} 100\n"),
            "{text}"
        );
        assert!(
            text.contains("puno_sim_cycles_per_sec{worker=\"t9\"} 0\n"),
            "{text}"
        );
    }

    #[test]
    fn scrape_over_http_roundtrips() {
        let reg = enable();
        let c = reg.counter("puno_scrape_total", "Scrape test series.", &[]);
        c.add(7);
        let bound = serve(reg, "127.0.0.1:0").expect("bind an ephemeral port");
        let mut stream = TcpStream::connect(bound).expect("connect to exporter");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 200 OK\r\n"), "{resp}");
        assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
        assert!(resp.contains("puno_scrape_total 7\n"), "{resp}");
    }

    #[test]
    fn cache_hit_note_is_per_thread_and_consumed() {
        assert!(!take_cache_hit());
        note_cache_hit();
        assert!(take_cache_hit());
        assert!(!take_cache_hit());
        std::thread::spawn(|| {
            assert!(!take_cache_hit());
        })
        .join()
        .unwrap();
    }
}
