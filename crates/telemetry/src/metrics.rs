//! Counters and fixed-bucket log-scale histograms.
//!
//! The histogram buckets are fixed at construction (eight sub-buckets per
//! power of two across the whole `u64` range, ~9 % relative resolution),
//! so merging, quantiles, and serialization never depend on the order
//! values arrived in — a histogram is a pure function of the multiset of
//! recorded values, which keeps every telemetry artifact deterministic.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Sub-buckets per power of two.
const SUB: u64 = 8;
/// Bucket count: one zero bucket plus `SUB` per octave over `u64`.
const BUCKETS: usize = 1 + 64 * SUB as usize;

/// A fixed-bucket base-2 log-scale histogram over `u64` values
/// (nanoseconds, bytes, packets — the unit is the caller's).
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v == 0 {
            return 0;
        }
        let octave = 63 - v.leading_zeros() as u64;
        let base = 1u64 << octave;
        // Position of `v` inside its octave, in eighths of the octave
        // width (shift instead of multiply: `v - base` can be 2^63 − 1).
        let offset = if octave >= 3 {
            (v - base) >> (octave - 3)
        } else {
            ((v - base) * SUB) >> octave
        };
        1 + (octave * SUB + offset) as usize
    }

    /// Inclusive lower bound of bucket `i`.
    fn bucket_low(i: usize) -> u64 {
        if i == 0 {
            return 0;
        }
        let i = (i - 1) as u64;
        let octave = i / SUB;
        let offset = i % SUB;
        let base = 1u64 << octave;
        // u128 keeps the top octave from overflowing; for octaves < 3 the
        // sub-bucket boundaries are fractional and floor-divide, so a few
        // low buckets share a bound (and never receive counts).
        base + ((base as u128 * offset as u128) / SUB as u128) as u64
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (0..=1): the representative value of the bucket
    /// holding the rank-`round(q·(n−1))` observation, clamped to the
    /// observed min/max so single-bucket histograms report exactly.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > rank {
                // Geometric-ish midpoint of the bucket, clamped to the
                // exact extremes actually observed.
                let low = Self::bucket_low(i);
                let high = if i + 1 < BUCKETS {
                    Self::bucket_low(i + 1).saturating_sub(1).max(low)
                } else {
                    u64::MAX
                };
                let mid = low + (high - low) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub(crate) fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other` into `self`. Because both sides are pure functions
    /// of their value multisets, the merge is too — merging per-bucket
    /// histograms of a partitioned stream equals the histogram of the
    /// whole stream, in any merge order.
    pub(crate) fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Geometry of a rolling window: time is quantized into buckets of
/// `bucket_ns`, and the window is the most recent `buckets` *completed*
/// buckets. An event at `t_ns` belongs to absolute bucket
/// `t_ns / bucket_ns`, so bucket membership — and therefore every
/// windowed aggregate — is a pure function of the event multiset,
/// independent of arrival order or thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowSpec {
    /// Width of one bucket in nanoseconds (clamped to at least 1).
    pub bucket_ns: u64,
    /// Number of buckets the window spans (clamped to at least 1).
    pub buckets: usize,
}

impl WindowSpec {
    /// A window of `buckets` buckets of `bucket_ns` each.
    pub fn new(bucket_ns: u64, buckets: usize) -> WindowSpec {
        WindowSpec {
            bucket_ns: bucket_ns.max(1),
            buckets: buckets.max(1),
        }
    }

    /// Total window width in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.bucket_ns.saturating_mul(self.buckets as u64)
    }
}

/// What a [`RollingWindow`] keeps per bucket: a `u64` sum (a windowed
/// counter) or a [`LogHistogram`] (a windowed distribution).
pub trait WindowAggregate: Clone + Default {
    /// Folds one value in.
    fn add(&mut self, v: u64);

    /// Folds another aggregate in. Must be order-independent.
    fn absorb(&mut self, other: &Self);
}

impl WindowAggregate for u64 {
    fn add(&mut self, v: u64) {
        *self += v;
    }

    fn absorb(&mut self, other: &u64) {
        *self += *other;
    }
}

impl WindowAggregate for LogHistogram {
    fn add(&mut self, v: u64) {
        self.record(v);
    }

    fn absorb(&mut self, other: &LogHistogram) {
        self.merge(other);
    }
}

/// A rolling-window aggregate: a ring of per-bucket aggregates keyed by
/// absolute bucket index, plus the all-time aggregate. The high-water
/// bucket only ever advances, so any event inside the final window is
/// storable whenever it arrives, and any event below it would be below
/// the final window too — which makes [`window`](Self::window)
/// order-invariant.
#[derive(Clone, Debug, PartialEq)]
pub struct RollingWindow<A> {
    spec: WindowSpec,
    /// Highest absolute bucket index materialized so far.
    max_bucket: u64,
    slots: Vec<A>,
    all: A,
}

impl<A: WindowAggregate> RollingWindow<A> {
    /// An empty window initially covering buckets `0..spec.buckets`.
    /// `spec` is re-clamped here: its fields are public and it
    /// deserializes, so a zero width or count can reach this point.
    pub fn new(spec: WindowSpec) -> RollingWindow<A> {
        let spec = WindowSpec::new(spec.bucket_ns, spec.buckets);
        RollingWindow {
            spec,
            max_bucket: spec.buckets as u64 - 1,
            slots: vec![A::default(); spec.buckets],
            all: A::default(),
        }
    }

    /// The (clamped) window geometry.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Slides the window forward so it covers the bucket containing
    /// `t_ns`, evicting buckets that fall off the back. Never moves the
    /// window backward.
    pub fn advance_to(&mut self, t_ns: u64) {
        let b = t_ns / self.spec.bucket_ns;
        let n = self.slots.len() as u64;
        if b <= self.max_bucket {
            return;
        }
        if b - self.max_bucket >= n {
            self.slots.fill(A::default());
            self.max_bucket = b;
            return;
        }
        while self.max_bucket < b {
            self.max_bucket += 1;
            let idx = (self.max_bucket % n) as usize;
            self.slots[idx] = A::default();
        }
    }

    /// Folds `v` in at time `t_ns`. The all-time aggregate always takes
    /// it; the window takes it iff its bucket is inside (or ahead of)
    /// the current window.
    pub fn add(&mut self, t_ns: u64, v: u64) {
        self.all.add(v);
        let b = t_ns / self.spec.bucket_ns;
        let n = self.slots.len() as u64;
        if b > self.max_bucket {
            self.advance_to(t_ns);
        }
        if b + n > self.max_bucket {
            let idx = (b % n) as usize;
            self.slots[idx].add(v);
        }
    }

    /// The aggregate over the current window.
    pub fn window(&self) -> A {
        let mut merged = A::default();
        for s in &self.slots {
            merged.absorb(s);
        }
        merged
    }

    /// The all-time aggregate (window-independent).
    pub fn all(&self) -> &A {
        &self.all
    }

    /// Inclusive start of the current window, in nanoseconds.
    pub fn window_start_ns(&self) -> u64 {
        let first = (self.max_bucket + 1).saturating_sub(self.slots.len() as u64);
        first.saturating_mul(self.spec.bucket_ns)
    }

    /// Exclusive end of the current window, in nanoseconds.
    pub fn window_end_ns(&self) -> u64 {
        (self.max_bucket + 1).saturating_mul(self.spec.bucket_ns)
    }
}

/// A named registry of counters and histograms, fed by the same hooks
/// that fill the flight recorder's event rings. Names are `'static`
/// (every metric name is a literal), so a bump never allocates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, LogHistogram>,
    windowed_counters: BTreeMap<&'static str, RollingWindow<u64>>,
    windowed_histograms: BTreeMap<&'static str, RollingWindow<LogHistogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `by` to the named counter, creating it at zero.
    pub(crate) fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Records `v` into the named histogram, creating it empty.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// The named counter's value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any value was recorded under it.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms in name order.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Adds `by` at time `t_ns` to the named rolling-window counter,
    /// creating it with geometry `spec` on first use (later calls keep
    /// the original geometry).
    pub(crate) fn inc_windowed(
        &mut self,
        name: &'static str,
        spec: WindowSpec,
        t_ns: u64,
        by: u64,
    ) {
        self.windowed_counters
            .entry(name)
            .or_insert_with(|| RollingWindow::new(spec))
            .add(t_ns, by);
    }

    /// Records `v` at time `t_ns` into the named rolling-window
    /// histogram, creating it with geometry `spec` on first use.
    pub(crate) fn observe_windowed(
        &mut self,
        name: &'static str,
        spec: WindowSpec,
        t_ns: u64,
        v: u64,
    ) {
        self.windowed_histograms
            .entry(name)
            .or_insert_with(|| RollingWindow::new(spec))
            .add(t_ns, v);
    }

    /// Slides every rolling window forward to cover the bucket
    /// containing `t_ns` (used at snapshot boundaries so quiet metrics
    /// still evict stale buckets).
    pub(crate) fn advance_windows(&mut self, t_ns: u64) {
        for c in self.windowed_counters.values_mut() {
            c.advance_to(t_ns);
        }
        for h in self.windowed_histograms.values_mut() {
            h.advance_to(t_ns);
        }
    }

    /// The named rolling-window counter, if it exists.
    pub(crate) fn windowed_counter(&self, name: &str) -> Option<&RollingWindow<u64>> {
        self.windowed_counters.get(name)
    }

    /// The named rolling-window histogram, if it exists.
    pub(crate) fn windowed_histogram(&self, name: &str) -> Option<&RollingWindow<LogHistogram>> {
        self.windowed_histograms.get(name)
    }

    /// All rolling-window counters in name order.
    pub(crate) fn windowed_counters(
        &self,
    ) -> impl Iterator<Item = (&'static str, &RollingWindow<u64>)> {
        self.windowed_counters.iter().map(|(k, v)| (*k, v))
    }

    /// All rolling-window histograms in name order.
    pub(crate) fn windowed_histograms(
        &self,
    ) -> impl Iterator<Item = (&'static str, &RollingWindow<LogHistogram>)> {
        self.windowed_histograms.iter().map(|(k, v)| (*k, v))
    }
}

/// The five-number summary a report carries per histogram. Values are in
/// the histogram's own unit (the name says which).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Registry name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Mean of recorded values.
    pub mean: f64,
    /// Smallest recorded value.
    pub min: u64,
    /// Median (bucket representative).
    pub p50: u64,
    /// 95th percentile (bucket representative).
    pub p95: u64,
    /// 99th percentile (bucket representative).
    pub p99: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSummary {
    /// Summarizes one named histogram.
    pub(crate) fn of(name: &str, h: &LogHistogram) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
            max: h.max(),
        }
    }

    /// Structural validation: a finite mean and ordered quantiles.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !self.mean.is_finite() {
            return Err(format!("histogram `{}`: non-finite mean", self.name));
        }
        let ordered = self.min <= self.p50
            && self.p50 <= self.p95
            && self.p95 <= self.p99
            && self.p99 <= self.max;
        if !ordered {
            return Err(format!("histogram `{}`: quantiles out of order", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = 0;
        for i in 1..BUCKETS {
            let low = LogHistogram::bucket_low(i);
            assert!(low >= prev, "bucket {i}: {low} < {prev}");
            prev = low;
        }
        for v in [0, 1, 2, 3, 7, 8, 9, 1000, u64::MAX / 2, u64::MAX] {
            let b = LogHistogram::bucket(v);
            assert!(b < BUCKETS, "{v} -> {b}");
            assert!(LogHistogram::bucket_low(b) <= v, "{v} below bucket {b}");
            // The next *distinct* bucket bound lies above `v`.
            let next = (b + 1..BUCKETS)
                .map(LogHistogram::bucket_low)
                .find(|&low| low > LogHistogram::bucket_low(b));
            if let Some(next) = next {
                assert!(v < next, "{v} beyond bucket {b}");
            }
        }
    }

    #[test]
    fn quantiles_track_known_distributions() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        // Log-bucket representatives are within one bucket (~9 %) of truth.
        let p50 = h.p50() as f64;
        let p99 = h.p99() as f64;
        assert!((p50 / 500.0 - 1.0).abs() < 0.15, "p50 {p50}");
        assert!((p99 / 990.0 - 1.0).abs() < 0.15, "p99 {p99}");
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn single_value_histogram_is_exact() {
        let mut h = LogHistogram::new();
        for _ in 0..10 {
            h.record(1234);
        }
        assert_eq!(h.p50(), 1234);
        assert_eq!(h.p99(), 1234);
        assert_eq!(h.min(), 1234);
        assert_eq!(h.max(), 1234);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn order_invariance() {
        let values = [5u64, 0, 1 << 40, 77, 77, 12345, 3, u64::MAX];
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in values {
            a.record(v);
        }
        for v in values.iter().rev() {
            b.record(*v);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_merge_matches_single_stream() {
        let values = [5u64, 0, 1 << 40, 77, 77, 12345, 3, u64::MAX, 9];
        let mut whole = LogHistogram::new();
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, whole);
        let empty = LogHistogram::new();
        merged.merge(&empty);
        assert_eq!(merged, whole);
        let mut from_empty = LogHistogram::new();
        from_empty.merge(&whole);
        assert_eq!(from_empty, whole);
    }

    #[test]
    fn rolling_sum_slides_and_evicts() {
        let spec = WindowSpec::new(10, 4); // buckets [0,10), [10,20), ...
        let mut c = RollingWindow::<u64>::new(spec);
        c.add(5, 1); // bucket 0
        c.add(15, 2); // bucket 1
        c.add(35, 4); // bucket 3 (window now 0..=3)
        assert_eq!(c.window(), 7);
        assert_eq!(*c.all(), 7);
        assert_eq!(c.window_start_ns(), 0);
        assert_eq!(c.window_end_ns(), 40);
        // Exact boundary: t=40 opens bucket 4, evicting bucket 0.
        c.add(40, 8);
        assert_eq!(c.window(), 2 + 4 + 8);
        assert_eq!(c.window_start_ns(), 10);
        // A straggler below the window counts toward the total only.
        c.add(5, 100);
        assert_eq!(c.window(), 14);
        assert_eq!(*c.all(), 115);
        // A jump farther than the whole window clears everything.
        c.add(1_000, 3);
        assert_eq!(c.window(), 3);
        assert_eq!(*c.all(), 118);
    }

    #[test]
    fn rolling_sum_is_order_invariant() {
        let spec = WindowSpec::new(7, 3);
        let events = [(3u64, 1u64), (50, 2), (10, 4), (49, 8), (21, 16), (0, 32)];
        let mut a = RollingWindow::<u64>::new(spec);
        let mut b = RollingWindow::<u64>::new(spec);
        for &(t, v) in &events {
            a.add(t, v);
        }
        for &(t, v) in events.iter().rev() {
            b.add(t, v);
        }
        assert_eq!(a.window(), b.window());
        assert_eq!(a.all(), b.all());
        assert_eq!(a, b);
    }

    #[test]
    fn rolling_histogram_window_matches_manual_merge() {
        let spec = WindowSpec::new(100, 2);
        let mut w = RollingWindow::<LogHistogram>::new(spec);
        w.add(10, 1_000); // bucket 0
        w.add(150, 2_000); // bucket 1
        assert_eq!(w.window().count(), 2);
        w.add(250, 4_000); // bucket 2: evicts bucket 0
        let win = w.window();
        assert_eq!(win.count(), 2);
        assert_eq!(win.min(), 2_000);
        assert_eq!(win.max(), 4_000);
        assert_eq!(w.all().count(), 3);
        assert_eq!(w.all().min(), 1_000);
        assert_eq!(w.window_start_ns(), 100);
        assert_eq!(w.window_end_ns(), 300);
    }

    #[test]
    fn registry_windowed_metrics_round_through_accessors() {
        let spec = WindowSpec::new(10, 2);
        let mut r = Registry::new();
        r.inc_windowed("w_decisions", spec, 5, 3);
        r.observe_windowed("w_qdelay", spec, 5, 500);
        assert_eq!(r.windowed_counter("w_decisions").unwrap().window(), 3);
        assert_eq!(
            r.windowed_histogram("w_qdelay").unwrap().window().count(),
            1
        );
        r.advance_windows(35);
        assert_eq!(r.windowed_counter("w_decisions").unwrap().window(), 0);
        assert_eq!(
            r.windowed_histogram("w_qdelay").unwrap().window().count(),
            0
        );
        assert_eq!(*r.windowed_counter("w_decisions").unwrap().all(), 3);
        assert_eq!(r.windowed_histogram("w_qdelay").unwrap().all().count(), 1);
        assert_eq!(r.windowed_counters().count(), 1);
        assert_eq!(r.windowed_histograms().count(), 1);
        assert_eq!(r.windowed_counter("missing"), None);
    }

    #[test]
    fn registry_counts_and_observes() {
        let mut r = Registry::new();
        r.inc("decisions_total", 1);
        r.inc("decisions_total", 2);
        r.observe("qdelay_ns", 1_000_000);
        assert_eq!(r.counter("decisions_total"), 3);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.histogram("qdelay_ns").unwrap().count(), 1);
        assert_eq!(r.counters().count(), 1);
        let s = HistogramSummary::of("qdelay_ns", r.histogram("qdelay_ns").unwrap());
        assert_eq!(s.p50, 1_000_000);
    }
}
