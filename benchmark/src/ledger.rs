//! The benchmark's own spans, recorded around each public call into a
//! layer and kept in memory until the run ends. A stage row aggregates
//! every span of one name: count, total, median and p99.

use crate::json::Json;
use crate::stats::{median, percentile};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    pub name: String,
    /// Offsets from the ledger's epoch.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Spans beyond this many are still aggregated into their stage rows but
/// not kept individually.
const KEEP_SPANS: usize = 20_000;

#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    /// Every recorded duration per stage, in first-seen stage order.
    stages: Vec<(String, Vec<f64>)>,
}

impl Ledger {
    pub fn new(epoch: Instant) -> Self {
        Ledger {
            epoch,
            next_id: 1,
            spans: Vec::new(),
            stages: Vec::new(),
        }
    }

    /// Record a finished span; returns its id for children to name.
    pub fn record(&mut self, name: &str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        };
        self.push_stage(name, span.secs());
        if self.spans.len() < KEEP_SPANS {
            self.spans.push(span);
        }
        id
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &str, parent: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// A derived row (a residual or a difference of measured stages) with
    /// no span of its own.
    pub fn derived(&mut self, name: &str, secs: f64) {
        self.push_stage(name, secs);
    }

    fn push_stage(&mut self, name: &str, secs: f64) {
        match self.stages.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => v.push(secs),
            None => self.stages.push((name.to_string(), vec![secs])),
        }
    }

    /// Fold another ledger's spans in (one per generator thread).
    pub fn absorb(&mut self, other: Ledger) {
        let shift = self.next_id;
        for mut span in other.spans {
            if self.spans.len() >= KEEP_SPANS {
                break;
            }
            span.id += shift;
            if span.parent != 0 {
                span.parent += shift;
            }
            self.spans.push(span);
        }
        self.next_id += other.next_id;
        for (name, secs) in other.stages {
            for s in secs {
                self.push_stage(&name, s);
            }
        }
    }

    /// Median seconds of a stage, if it ran.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples(name).map(median)
    }

    /// Mean seconds of a stage, if it ran: for a stage whose calls mix a
    /// cheap and a costly kind, where the median flips between the two.
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.samples(name)
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
    }

    fn samples(&self, name: &str) -> Option<&[f64]> {
        self.stages
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// One row per stage: count, total, median and p99 seconds.
    pub fn rows(&self) -> Vec<(String, usize, f64, f64, f64)> {
        self.stages
            .iter()
            .map(|(name, secs)| {
                let mut v = secs.clone();
                v.sort_by(f64::total_cmp);
                let total = v.iter().sum();
                (
                    name.clone(),
                    v.len(),
                    total,
                    median(&v),
                    percentile(&v, 0.99),
                )
            })
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let rows = self
            .rows()
            .into_iter()
            .map(|(name, n, total, p50, p99)| {
                Json::obj([
                    ("stage", Json::from(name)),
                    ("n", Json::from(n)),
                    ("total_s", Json::from(total)),
                    ("median_s", Json::from(p50)),
                    ("p99_s", Json::from(p99)),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::from(s.id)),
                    ("parent", Json::from(s.parent)),
                    ("name", Json::from(s.name.as_str())),
                    ("start_s", Json::from(s.start.as_secs_f64())),
                    ("end_s", Json::from(s.end.as_secs_f64())),
                ])
            })
            .collect();
        Json::obj([("stages", Json::Arr(rows)), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_aggregate_spans_and_derived_values() {
        let t0 = Instant::now();
        let mut a = Ledger::new(t0);
        let root = a.record("fit", 0, t0, t0 + Duration::from_millis(10));
        a.record("sweep", root, t0, t0 + Duration::from_millis(4));
        a.record("sweep", root, t0, t0 + Duration::from_millis(2));
        a.derived("residual", 0.004);
        let mut b = Ledger::new(t0);
        b.record("sweep", 0, t0, t0 + Duration::from_millis(6));
        a.absorb(b);
        assert_eq!(a.median("sweep").unwrap(), 0.004);
        for secs in [0.001, 0.001, 0.010] {
            a.derived("mixed", secs);
        }
        assert_eq!(a.median("mixed"), Some(0.001));
        assert!((a.mean("mixed").unwrap() - 0.004).abs() < 1e-12);
        assert_eq!(a.median("residual"), Some(0.004));
        assert_eq!(a.median("missing"), None);
        let rows = a.rows();
        assert_eq!(rows[0].0, "fit");
        let (name, n, total, p50, p99) = &rows[1];
        assert_eq!((name.as_str(), *n, *p50, *p99), ("sweep", 3, 0.004, 0.006));
        assert!((total - 0.012).abs() < 1e-12);
        // Absorbed span ids do not collide with the host ledger's.
        let ids: Vec<u64> = a.spans.iter().map(|s| s.id).collect();
        let mut unique = ids.clone();
        unique.dedup();
        assert_eq!(ids, unique);
        assert_eq!(a.spans[1].parent, root);
    }
}
