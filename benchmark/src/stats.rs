//! The benchmark's own statistics: percentiles with sample counts, the
//! highest percentile a sample supports, window-median p99, quartiles as
//! Python's `statistics.quantiles(n=4)` computes them, and the open-loop
//! schedule whose due times every serving latency is charged from.

use std::ops::Range;

/// Slack for rank and schedule arithmetic, so `0.99 * 1000` is rank 990
/// and a request due at exactly `now` counts as due.
const EPS: f64 = 1e-9;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64 - EPS).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample: the middle value, or the mean of the
/// two middle values.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The percentiles a report may quote, lowest first.
const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// Highest percentile of [`LADDER`] with at least ten of `n` samples
/// beyond it, or `None` when even the median is unsupported.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|q| (n as f64) * (1.0 - q) >= 10.0 - EPS)
}

/// A latency sample reduced to what a report quotes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Samples.
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest supported percentile and its value.
    pub top: Option<(f64, f64)>,
}

impl Dist {
    pub fn of(values: &[f64]) -> Option<Dist> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Dist {
            n: v.len(),
            p50: percentile(&v, 0.5),
            p99: percentile(&v, 0.99),
            top: highest_supported(v.len()).map(|q| (q, percentile(&v, q))),
        })
    }
}

/// Median of the per-window p99s of `(due_seconds, latency)` samples,
/// with windows of `window` seconds by due time; windows with fewer than
/// 100 samples (too few for a p99) are skipped. Returns the value and
/// the number of windows it rests on.
pub fn window_median_p99(samples: &[(f64, f64)], window: f64) -> Option<(f64, usize)> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(due, latency) in samples {
        let w = (due.max(0.0) / window) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(latency);
    }
    let p99s: Vec<f64> = windows
        .iter_mut()
        .filter(|w| w.len() >= 100)
        .map(|w| {
            w.sort_by(f64::total_cmp);
            percentile(w, 0.99)
        })
        .collect();
    if p99s.is_empty() {
        None
    } else {
        Some((median(&p99s), p99s.len()))
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 1, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// One generator thread's open-loop schedule: request `i` is due at
/// `offset + i * interval` seconds after the phase start, for every due
/// time before `end`. Requests are sent in batches of everything due,
/// and each is charged from its *due* time, so a stall is charged to
/// every request queued behind it.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    offset: f64,
    interval: f64,
    total: usize,
    next: usize,
}

impl OpenLoop {
    /// Thread `thread` of `threads` sharing a total `rate` for `secs`.
    pub fn new(rate: f64, thread: usize, threads: usize, secs: f64) -> Self {
        let interval = threads as f64 / rate;
        let offset = thread as f64 / rate;
        let total = if secs > offset {
            ((secs - offset) / interval - EPS).ceil() as usize
        } else {
            0
        };
        OpenLoop {
            offset,
            interval,
            total,
            next: 0,
        }
    }

    /// Due time of request `i`, seconds from the phase start.
    pub fn due(&self, i: usize) -> f64 {
        self.offset + i as f64 * self.interval
    }

    /// Requests due by `now` that have not been sent, at most `cap` of
    /// them: the next batch. Requests left over stay due.
    pub fn take_due(&mut self, now: f64, cap: usize) -> Range<usize> {
        let due = if now < self.offset {
            0
        } else {
            ((now - self.offset) / self.interval + EPS)
                .floor()
                .min(self.total as f64) as usize
                + 1
        };
        let end = due.min(self.total).min(self.next.saturating_add(cap));
        let batch = self.next..end.max(self.next);
        self.next = batch.end;
        batch
    }

    /// Due time of the next request not yet taken, if any.
    pub fn next_due(&self) -> Option<f64> {
        (self.next < self.total).then(|| self.due(self.next))
    }

    /// Requests the phase offers.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Latency of each request of `batch`, answered at `done` seconds.
    pub fn charge(&self, batch: Range<usize>, done: f64) -> impl Iterator<Item = f64> + '_ {
        batch.map(move |i| done - self.due(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn dist_reports_count_and_supported_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Dist::of(&v).unwrap();
        assert_eq!(d.n, 1000);
        assert_eq!(d.p50, 500.0);
        assert_eq!(d.p99, 990.0);
        // 1000 samples leave exactly ten beyond p99, none beyond p99.9.
        assert_eq!(d.top, Some((0.99, 990.0)));
        assert!(Dist::of(&[]).is_none());
    }

    #[test]
    fn highest_supported_percentile_needs_ten_beyond() {
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(10_000_000), Some(0.99999));
    }

    #[test]
    fn window_median_p99_ignores_one_bad_window() {
        // Three one-second windows of 200 samples; the middle one has a
        // 100x tail that a whole-phase p99 would report.
        let mut samples = Vec::new();
        for w in 0..3 {
            for i in 0..200 {
                let due = w as f64 + i as f64 / 200.0;
                let tail = w == 1 && i >= 190;
                samples.push((due, if tail { 100.0 } else { 1.0 + i as f64 / 1000.0 }));
            }
        }
        let (p99, windows) = window_median_p99(&samples, 1.0).unwrap();
        assert_eq!(windows, 3);
        assert!((p99 - 1.197).abs() < 1e-9, "{p99}");
        // Sparse windows carry no p99 at all.
        assert!(window_median_p99(&samples[..50], 1.0).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn open_loop_splits_the_rate_across_threads() {
        // 1000 rps over two threads for 10 ms: five requests each,
        // interleaved at 1 ms spacing overall.
        let a = OpenLoop::new(1000.0, 0, 2, 0.010);
        let b = OpenLoop::new(1000.0, 1, 2, 0.010);
        assert_eq!((a.total(), b.total()), (5, 5));
        let mut dues: Vec<f64> = (0..5).flat_map(|i| [a.due(i), b.due(i)]).collect();
        dues.sort_by(f64::total_cmp);
        for (i, d) in dues.iter().enumerate() {
            assert!((d - i as f64 * 0.001).abs() < 1e-12);
        }
    }

    #[test]
    fn a_stalled_batch_charges_the_requests_queued_behind_it() {
        // One thread, one request per millisecond for 20 ms.
        let mut gen = OpenLoop::new(1000.0, 0, 1, 0.020);
        let mut latencies = Vec::new();
        // t = 0: request 0 is due, answered promptly.
        let batch = gen.take_due(0.0, usize::MAX);
        assert_eq!(batch, 0..1);
        latencies.extend(gen.charge(batch, 0.0001));
        // t = 1 ms: request 1 is sent and stalls until 15 ms.
        let batch = gen.take_due(0.001, usize::MAX);
        assert_eq!(batch, 1..2);
        latencies.extend(gen.charge(batch, 0.015));
        // The generator wakes at 15 ms: requests 2..=15 were due during
        // the stall and go out as one batch, answered at 15.1 ms.
        let batch = gen.take_due(0.015, usize::MAX);
        assert_eq!(batch, 2..16);
        latencies.extend(gen.charge(batch, 0.0151));
        // The rest of the phase runs on time.
        for t in 16..20 {
            let batch = gen.take_due(t as f64 * 0.001, usize::MAX);
            assert_eq!(batch.len(), 1);
            latencies.extend(gen.charge(batch, t as f64 * 0.001 + 0.0001));
        }
        assert_eq!(gen.next_due(), None);
        assert_eq!(latencies.len(), 20);
        // The stalled request and everything due behind it are charged
        // their wait: request 2 (due at 2 ms) waited 13.1 ms.
        assert!((latencies[1] - 0.014).abs() < 1e-12);
        assert!((latencies[2] - 0.0131).abs() < 1e-12);
        assert!((latencies[15] - 0.0001).abs() < 1e-12);
        let charged = latencies.iter().filter(|&&l| l > 0.001).count();
        assert_eq!(charged, 14, "request 1 plus the 13 due during the stall");
        // A closed-loop timer (send to answer) would have seen one slow
        // request; due-time accounting sees the median move.
        assert!(median(&latencies) > 0.001);
    }
}
