//! The metric registry: named, labelled families of counters, gauges,
//! and histograms, plus a bounded event ring.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a `Mutex` and is
//! meant for setup paths — callers grab handles once and keep them.
//! The handles themselves ([`Counter`], [`Gauge`],
//! [`Histogram`](crate::Histogram)) are `Arc`-backed atomics: hot
//! paths touch only relaxed atomic ops, never the registry lock.
//! Rendering ([`Registry::render_prometheus`]) walks the families
//! under the lock but only *reads* the atomic cells, so it never
//! blocks a recorder.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::histogram::Histogram;

/// A monotonically increasing counter. Clones share the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Overwrite the value. For mirroring an externally tracked
    /// monotone total (e.g. a cache's own hit counter) into the
    /// registry at scrape time — not for hot-path use.
    pub fn store(&self, n: u64) {
        self.cell.store(n, Ordering::Relaxed);
    }
}

/// A gauge holding an `f64` (stored as bits in an `AtomicU64`).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }

    /// Raise the gauge to `v` if `v` is larger, in one atomic
    /// read-modify-write (a high-water mark). Only for gauges that hold
    /// non-negative values: the bits of non-negative `f64`s order as the
    /// values do, so an integer `fetch_max` on the bits is the float
    /// max. A negative value, `-0.0` or a NaN breaks that order.
    #[inline]
    pub fn set_max(&self, v: f64) {
        debug_assert!(
            v >= 0.0 && v.is_sign_positive(),
            "Gauge::set_max takes non-negative values, got {v}"
        );
        self.cell.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: f64) {
        // CAS loop: gauges are low-frequency (queue depth, not tokens).
        let mut cur = self.cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .cell
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// One recorded event in the bounded ring.
#[derive(Clone, Debug)]
pub struct Event {
    /// Seconds since the registry was created.
    pub at_seconds: f64,
    /// Short machine-friendly kind, e.g. `"reload"`.
    pub kind: String,
    /// Free-form human detail.
    pub detail: String,
}

enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    help: String,
    /// Series keyed by their sorted `(label, value)` pairs.
    series: BTreeMap<Vec<(String, String)>, Cell>,
}

struct Inner {
    families: BTreeMap<String, Family>,
    events: std::collections::VecDeque<Event>,
}

/// The top-level metric registry. `Arc<Registry>` is the unit of
/// sharing: the trainer, the serve runtime, and the TCP server can all
/// point at one registry so a single scrape sees every layer.
pub struct Registry {
    inner: Mutex<Inner>,
    started: Instant,
    event_capacity: usize,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("Registry")
            .field("families", &inner.families.len())
            .field("events", &inner.events.len())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Default bound on the event ring.
const DEFAULT_EVENT_CAPACITY: usize = 256;

impl Registry {
    pub fn new() -> Self {
        Registry {
            inner: Mutex::new(Inner {
                families: BTreeMap::new(),
                events: std::collections::VecDeque::new(),
            }),
            started: Instant::now(),
            event_capacity: DEFAULT_EVENT_CAPACITY,
        }
    }

    /// Seconds since this registry was created (process-local uptime).
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Get-or-register a counter series. Panics if `name` was already
    /// registered with a different metric type (programmer error).
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.cell(name, help, labels, || Cell::Counter(Counter::new())) {
            Cell::Counter(c) => c.clone(),
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Get-or-register a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.cell(name, help, labels, || Cell::Gauge(Gauge::new())) {
            Cell::Gauge(g) => g.clone(),
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get-or-register a histogram series (durations in nanoseconds,
    /// rendered in seconds).
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.cell(name, help, labels, || Cell::Histogram(Histogram::new())) {
            Cell::Histogram(h) => h.clone(),
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    fn cell(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        let key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut inner = self.inner.lock().unwrap();
        let family = inner
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                series: BTreeMap::new(),
            });
        let cell = family.series.entry(key).or_insert_with(make);
        match cell {
            Cell::Counter(c) => Cell::Counter(c.clone()),
            Cell::Gauge(g) => Cell::Gauge(g.clone()),
            Cell::Histogram(h) => Cell::Histogram(h.clone()),
        }
    }

    /// Append an event to the bounded ring (oldest entries evicted).
    pub fn event(&self, kind: &str, detail: impl Into<String>) {
        let at_seconds = self.uptime_seconds();
        let mut inner = self.inner.lock().unwrap();
        if inner.events.len() == self.event_capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(Event {
            at_seconds,
            kind: kind.to_string(),
            detail: detail.into(),
        });
    }

    /// The most recent events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().unwrap().events.iter().cloned().collect()
    }

    /// Render every registered family in the Prometheus text
    /// exposition format, version 0.0.4.
    ///
    /// Families come out sorted by name and series by label set, so
    /// the output is byte-stable for a fixed set of values. Counters
    /// render as `counter` (callers name them `*_total` by
    /// convention), gauges as `gauge`, and histograms as Prometheus
    /// `summary` series — `{quantile="0.5|0.99|0.999"}` plus `_sum`
    /// and `_count`, with durations converted from recorded
    /// nanoseconds to seconds.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for (name, family) in &inner.families {
            let kind = family
                .series
                .values()
                .next()
                .map(|c| match c {
                    Cell::Counter(_) => "counter",
                    Cell::Gauge(_) => "gauge",
                    Cell::Histogram(_) => "summary",
                })
                .unwrap_or("untyped");
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&family.help)));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (labels, cell) in &family.series {
                match cell {
                    Cell::Counter(c) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(labels, &[]),
                            c.get()
                        ));
                    }
                    Cell::Gauge(g) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(labels, &[]),
                            fmt_f64(g.get())
                        ));
                    }
                    Cell::Histogram(h) => {
                        for (q, qs) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
                            out.push_str(&format!(
                                "{name}{} {}\n",
                                render_labels(labels, &[("quantile", qs)]),
                                fmt_f64(h.quantile(q) / 1e9)
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            render_labels(labels, &[]),
                            fmt_f64(h.sum_nanos() as f64 / 1e9)
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            render_labels(labels, &[]),
                            h.count()
                        ));
                    }
                }
            }
        }
        out
    }
}

/// `{k="v",...}` with escaped values, or `""` when there are no labels.
fn render_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", parts.join(","))
}

/// Escape a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escape HELP text: `\` → `\\`, newline → `\n`.
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Prometheus-friendly float formatting (plain decimal; `Display` for
/// `f64` in Rust never produces exponent notation).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("x_total", "help", &[("k", "v")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Re-registration returns the same cell.
        assert_eq!(r.counter("x_total", "help", &[("k", "v")]).get(), 3);

        let g = r.gauge("g", "help", &[]);
        g.set(1.5);
        g.add(1.0);
        assert!((g.get() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn gauge_set_max_keeps_the_largest_value() {
        let g = Gauge::new();
        for v in [3.0, 1.0, 0.0, 2.5e9, 7.0] {
            g.set_max(v);
        }
        assert_eq!(g.get(), 2.5e9);
        let fresh = Gauge::new();
        fresh.set_max(0.0);
        assert_eq!(fresh.get(), 0.0);
        fresh.set_max(0.25);
        assert_eq!(fresh.get(), 0.25);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-negative")]
    fn gauge_set_max_refuses_negative_values() {
        Gauge::new().set_max(-1.0);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m", "help", &[]);
        r.gauge("m", "help", &[]);
    }

    #[test]
    fn event_ring_is_bounded() {
        let r = Registry::new();
        for i in 0..(DEFAULT_EVENT_CAPACITY + 10) {
            r.event("tick", format!("{i}"));
        }
        let events = r.events();
        assert_eq!(events.len(), DEFAULT_EVENT_CAPACITY);
        assert_eq!(events[0].detail, "10");
    }
}
