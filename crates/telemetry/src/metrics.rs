//! Metric primitives: counters, gauges, and log-scale histograms.
//!
//! Everything here is lock-free and `Sync`: a recording call is a handful
//! of relaxed atomic operations, cheap enough to sit on the controller's
//! fast path (§4.3.2) without perturbing the latencies it measures.
//!
//! The [`Histogram`] uses 64 fixed power-of-two buckets over `u64`
//! values (bucket 0 holds exactly `0`, bucket *i* holds
//! `[2^(i-1), 2^i)`, the last bucket saturates to `u64::MAX`). Log-scale
//! buckets give a bounded relative error (< 2×) on quantile readout at
//! any magnitude — nanoseconds to minutes — with a fixed 512-byte
//! footprint and no allocation.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use crate::json::Json;

/// Number of histogram buckets (covers the whole `u64` range).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log-scale histogram of `u64` observations with
/// quantile readout.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    /// Saturating sum of all observations.
    sum: AtomicU64,
    /// `u64::MAX` while empty.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket an observation lands in: 0 for 0, else `floor(log2(v)) + 1`,
/// saturating at the last bucket.
fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (used as the quantile
/// representative, clamped to the observed min/max).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating add via CAS-free best effort: fetch_add wraps, so
        // clamp by fetch_update (rare contention, cold path anyway).
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        let _ = self
            .min
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |m| {
                (v < m).then_some(v)
            });
        let _ = self
            .max
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |m| {
                (v > m).then_some(v)
            });
    }

    /// Records a duration, as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.min.load(Ordering::Relaxed))
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Mean observation, if any.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    /// Nearest-rank quantile (`0.0..=1.0`), `None` while empty.
    ///
    /// The returned value is the upper bound of the bucket containing the
    /// rank, clamped to the observed `[min, max]` — so a one-sample
    /// histogram reports that exact sample at every quantile, and the
    /// relative error is bounded by the bucket width (< 2×) otherwise.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                let lo = self.min.load(Ordering::Relaxed);
                let hi = self.max.load(Ordering::Relaxed);
                return Some(bucket_upper(i).clamp(lo, hi));
            }
        }
        // Unreachable: bucket totals always sum to `count`.
        self.max()
    }

    /// A serializable point-in-time image.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }
}

/// A point-in-time image of a [`Histogram`] (zeros while empty).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation (0 if empty).
    pub min: u64,
    /// Largest observation (0 if empty).
    pub max: u64,
    /// Median (nearest-rank over log buckets).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean observation, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The image as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count".to_string(), Json::from(self.count)),
            ("sum".to_string(), Json::from(self.sum)),
            ("min".to_string(), Json::from(self.min)),
            ("max".to_string(), Json::from(self.max)),
            ("p50".to_string(), Json::from(self.p50)),
            ("p90".to_string(), Json::from(self.p90)),
            ("p99".to_string(), Json::from(self.p99)),
        ])
    }

    /// Reads an image back from [`to_json`](Self::to_json) output
    /// (missing members default to zero).
    pub fn from_json(v: &Json) -> HistogramSnapshot {
        let field = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        HistogramSnapshot {
            count: field("count"),
            sum: field("sum"),
            min: field("min"),
            max: field("max"),
            p50: field("p50"),
            p90: field("p90"),
            p99: field("p99"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn one_sample_is_exact_at_every_quantile() {
        let h = Histogram::new();
        h.record(12_345);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(12_345), "q={q}");
        }
        assert_eq!(h.min(), Some(12_345));
        assert_eq!(h.max(), Some(12_345));
        assert_eq!(h.mean(), Some(12_345.0));
    }

    #[test]
    fn zero_sample_lands_in_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(0.5), Some(0));
        assert_eq!(h.max(), Some(0));
    }

    #[test]
    fn saturated_top_bucket_reports_observed_max() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 62);
        // Both land in the last bucket; quantiles clamp to observed range.
        assert_eq!(h.quantile(0.99), Some(u64::MAX));
        assert_eq!(h.quantile(0.25), Some(u64::MAX));
        // Sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p90 && p90 <= p99);
        // Log-bucket relative error is bounded by 2x.
        assert!((256..=1023).contains(&p50), "p50={p50}");
        assert!((512..=1023).contains(&p90), "p90={p90}");
        assert_eq!(h.quantile(1.0), Some(1000));
        assert_eq!(h.quantile(0.0), Some(1));
    }
}
