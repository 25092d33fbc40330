//! Log-bucketed latency histogram.
//!
//! The paper reports latency at very different magnitudes — sub-microsecond
//! FPGA stages (Tab. 4), tens of microseconds of gateway processing
//! (Fig. 11), and 100 µs reorder timeouts. A histogram with
//! logarithmically-spaced buckets covers the whole range with bounded error
//! and constant memory, like HdrHistogram but small enough to read in one
//! sitting.
//!
//! Values are recorded in integer nanoseconds. Each power-of-two range is
//! split into linear sub-buckets (the upper half of `SUB_BUCKETS` slots per
//! octave), giving a relative quantization error below `2 / SUB_BUCKETS`
//! (≈3.1% with 64 sub-buckets), far below the run-to-run variation of any
//! experiment here.

/// Number of linear sub-buckets per power-of-two range.
const SUB_BUCKETS: usize = 64;
/// log2 of [`SUB_BUCKETS`].
const SUB_BUCKET_BITS: u32 = 6;
/// Number of power-of-two ranges covered (values up to 2^40 ns ≈ 18 minutes).
const RANGES: usize = 40;

/// A fixed-size log-bucketed histogram of `u64` values (nanoseconds by
/// convention).
///
/// ```
/// use albatross_telemetry::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for v in [10_000, 20_000, 30_000, 100_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.50) >= 19_000); // bucket lower bound, ≤3.1% low
/// assert!(h.max() >= 100_000);
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; SUB_BUCKETS * RANGES],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Index of the bucket holding `value`.
    fn bucket_index(value: u64) -> usize {
        // Values below SUB_BUCKETS land in the first linear range directly.
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let range = msb - SUB_BUCKET_BITS + 1;
        let sub = (value >> range) as usize & (SUB_BUCKETS - 1);
        let idx = (range as usize + 1) * SUB_BUCKETS + sub;
        idx.min(SUB_BUCKETS * RANGES - 1)
    }

    /// Lower bound of the value range covered by bucket `idx`.
    fn bucket_low(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            return idx as u64;
        }
        let range = (idx / SUB_BUCKETS - 1) as u32;
        let sub = (idx % SUB_BUCKETS) as u64;
        sub << range
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `n` occurrences of `value`. `n == 0` is a no-op.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` (lower bound of its bucket).
    ///
    /// Returns 0 for an empty histogram. `q = 1.0` returns the exact recorded
    /// maximum.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((self.count as f64) * q.max(0.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_low(idx).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Fraction of recorded values strictly above `threshold`'s bucket.
    pub fn fraction_above(&self, threshold: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let cut = Self::bucket_index(threshold);
        let above: u64 = self.buckets[cut + 1..].iter().sum();
        above as f64 / self.count as f64
    }

    /// Fraction of recorded values at or below `threshold`'s bucket.
    pub fn fraction_at_or_below(&self, threshold: u64) -> f64 {
        1.0 - self.fraction_above(threshold)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Clears all recorded values.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Iterates over `(bucket_low, count)` pairs for non-empty buckets.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_low(i), c))
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_value_percentiles() {
        let mut h = LatencyHistogram::new();
        h.record(12_345);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let p = h.percentile(q);
            assert!((12_000..=12_345).contains(&p), "q={q} p={p}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
        // First linear range is exact.
        assert_eq!(h.percentile(1.0), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn bucket_low_below_bucket_value() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            100,
            1000,
            4096,
            123_456,
            u32::MAX as u64,
        ] {
            let idx = LatencyHistogram::bucket_index(v);
            let low = LatencyHistogram::bucket_low(idx);
            assert!(low <= v, "v={v} low={low}");
            // Relative quantization error bound.
            if v >= SUB_BUCKETS as u64 {
                assert!((v - low) as f64 / v as f64 <= 2.0 / SUB_BUCKETS as f64 + 1e-9);
            }
        }
    }

    #[test]
    fn percentile_ordering_is_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 17);
        }
        let mut prev = 0;
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let p = h.percentile(q);
            assert!(p >= prev, "q={q}: {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for i in 0..1000u64 {
            a.record(i * 3 + 1);
            both.record(i * 3 + 1);
        }
        for i in 0..500u64 {
            b.record(i * 7 + 2);
            both.record(i * 7 + 2);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.percentile(q), both.percentile(q));
        }
    }

    #[test]
    fn merge_with_empty_is_a_noop_both_ways() {
        let mut a = LatencyHistogram::new();
        for v in [1_000u64, 5_000, 9_999] {
            a.record(v);
        }
        let empty = LatencyHistogram::new();
        // Non-empty ← empty: nothing changes, including min/max/sum.
        let before: Vec<_> = a.nonempty_buckets().collect();
        a.merge(&empty);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 1_000);
        assert_eq!(a.max(), 9_999);
        assert_eq!(a.mean(), (1_000.0 + 5_000.0 + 9_999.0) / 3.0);
        assert_eq!(a.nonempty_buckets().collect::<Vec<_>>(), before);
        // Empty ← non-empty: becomes an exact copy (min not poisoned by
        // the empty side's u64::MAX sentinel).
        let mut b = LatencyHistogram::new();
        b.merge(&a);
        assert_eq!(b.count(), a.count());
        assert_eq!(b.min(), a.min());
        assert_eq!(b.max(), a.max());
        assert_eq!(b.nonempty_buckets().collect::<Vec<_>>(), before);
        // Empty ← empty stays genuinely empty.
        let mut c = LatencyHistogram::new();
        c.merge(&LatencyHistogram::new());
        assert_eq!(c.count(), 0);
        assert_eq!(c.min(), 0);
        assert_eq!(c.max(), 0);
    }

    #[test]
    fn fraction_above_threshold() {
        let mut h = LatencyHistogram::new();
        // 99 values at 10 µs, 1 value at 200 µs.
        h.record_n(10_000, 99);
        h.record(200_000);
        let f = h.fraction_above(100_000);
        assert!((f - 0.01).abs() < 1e-9, "f={f}");
        assert!((h.fraction_at_or_below(100_000) - 0.99).abs() < 1e-9);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_n(5_000, 10);
        for _ in 0..10 {
            b.record(5_000);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.percentile(0.5), b.percentile(0.5));
    }

    #[test]
    fn record_n_of_zero_is_a_noop() {
        let mut h = LatencyHistogram::new();
        h.record_n(5_000, 0);
        // No bucket touched, no count: identical to a fresh histogram.
        assert_eq!(h.count(), 0);
        assert_eq!(h.nonempty_buckets().count(), 0);
        assert_eq!(h.min(), LatencyHistogram::new().min());
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = LatencyHistogram::new();
        h.record(1234);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn huge_values_saturate_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
    }
}
