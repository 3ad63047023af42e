//! Cycle-domain metrics registry: counters, gauges and fixed log2-bucket
//! histograms keyed by `(name, sorted labels)`.
//!
//! Everything here is deterministic by construction: storage is
//! `BTreeMap` (sorted iteration), and the merge rules — counters sum,
//! gauges take the max, histogram buckets add — are commutative and
//! associative, so merging per-shard or per-frame registries yields the
//! same bytes regardless of how the work was split.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of log2 buckets: bucket 0 holds the value `0`, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b)`, up to bucket 64 for the top of the
/// `u64` range.
pub const LOG2_BUCKETS: usize = 65;

/// A fixed log2-bucketed histogram over `u64` observations.
///
/// Bucketing is value-independent (no quantile sketches, no sampling),
/// so two histograms over the same multiset of observations are
/// identical no matter the observation order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Log2 bucket index for a value: `0 → 0`, otherwise `1 + floor(log2 v)`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        1 + (63 - v.leading_zeros() as usize)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; LOG2_BUCKETS],
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = bucket_index(v).min(LOG2_BUCKETS - 1);
        if let Some(b) = self.buckets.get_mut(idx) {
            *b += 1;
        }
    }

    /// Records `n` observations of `v`: [`Histogram::observe`] repeated
    /// `n` times, in one step.
    pub fn observe_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = bucket_index(v).min(LOG2_BUCKETS - 1);
        if let Some(b) = self.buckets.get_mut(idx) {
            *b += n;
        }
    }

    /// Folds another histogram into this one (buckets add, min/max fold).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Per-bucket counts, indexed by log2 bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

/// A metric identity: name plus a canonically sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `esca_fifo_pushes_total`.
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels into canonical order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// A deterministic metrics registry for one time domain.
///
/// A registry holds either cycle-domain or host-domain metrics — never
/// both; [`crate::snapshot::TelemetrySnapshot`] pairs one snapshot of
/// each. All mutation is by-value (`u64`), so the registry itself never
/// touches a clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, u64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `v` to a monotonic counter.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        *self
            .counters
            .entry(MetricKey::new(name, labels))
            .or_insert(0) += v;
    }

    /// Raises a high-water-mark gauge to at least `v`.
    ///
    /// ESCA gauges record peaks (FIFO occupancy, resident bytes, queue
    /// depth); `max` is the only merge rule that stays deterministic
    /// when per-shard registries are folded together.
    pub fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        let slot = self.gauges.entry(MetricKey::new(name, labels)).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Records one observation into a log2 histogram.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.histograms
            .entry(MetricKey::new(name, labels))
            .or_default()
            .observe(v);
    }

    /// Folds a histogram into the registry under `name`/`labels`.
    pub fn merge_histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.histograms
            .entry(MetricKey::new(name, labels))
            .or_default()
            .merge(h);
    }

    /// Merges another registry into this one: counters sum, gauges max,
    /// histogram buckets add. Commutative and associative.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Current value of a counter, if recorded.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters.get(&MetricKey::new(name, labels)).copied()
    }

    /// Current value of a gauge, if recorded.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.gauges.get(&MetricKey::new(name, labels)).copied()
    }

    /// Histogram under `name`/`labels`, if recorded.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(&MetricKey::new(name, labels))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Number of distinct metric series.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Sorted iterators for snapshotting.
    pub(crate) fn parts(&self) -> RegistryParts<'_> {
        (&self.counters, &self.gauges, &self.histograms)
    }
}

/// Borrowed views of the three metric families (counters, gauges,
/// histograms), in that order — the snapshot layer's input.
pub(crate) type RegistryParts<'a> = (
    &'a BTreeMap<MetricKey, u64>,
    &'a BTreeMap<MetricKey, u64>,
    &'a BTreeMap<MetricKey, Histogram>,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        for v in [3, 0, 17, 5] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 25);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(17));
        assert_eq!(h.mean(), Some(6.25));
    }

    #[test]
    fn observe_n_equals_repeated_observe() {
        let mut bulk = Histogram::new();
        let mut each = Histogram::new();
        for (v, n) in [(12, 3), (0, 2), (7, 0), (u64::MAX / 2, 3)] {
            bulk.observe_n(v, n);
            for _ in 0..n {
                each.observe(v);
            }
        }
        assert_eq!(bulk, each);
        assert_eq!(bulk.sum(), u64::MAX);
        assert_eq!(bulk.min(), Some(0));
    }

    #[test]
    fn histogram_merge_equals_sequential_observation() {
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 9, 200, 0, 31] {
            all.observe(v);
        }
        for v in [1u64, 9] {
            a.observe(v);
        }
        for v in [200u64, 0, 31] {
            b.observe(v);
        }
        let mut merged = Histogram::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, all, "merge is order-independent and lossless");
    }

    #[test]
    fn registry_merge_rules() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add("hits", &[], 3);
        b.counter_add("hits", &[], 4);
        a.gauge_max("peak", &[("fifo", "0")], 7);
        b.gauge_max("peak", &[("fifo", "0")], 5);
        a.observe("lat", &[], 8);
        b.observe("lat", &[], 2);
        let mut m1 = a.clone();
        m1.merge(&b);
        let mut m2 = b.clone();
        m2.merge(&a);
        assert_eq!(m1, m2, "merge is commutative");
        assert_eq!(m1.counter("hits", &[]), Some(7));
        assert_eq!(m1.gauge("peak", &[("fifo", "0")]), Some(7));
        assert_eq!(m1.histogram("lat", &[]).map(Histogram::count), Some(2));
        assert_eq!(m1.len(), 3);
        assert!(!m1.is_empty());
    }

    #[test]
    fn label_order_is_canonicalized() {
        let k1 = MetricKey::new("m", &[("b", "2"), ("a", "1")]);
        let k2 = MetricKey::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(k1, k2);
    }
}
