//! Counters and windowed rate meters.
//!
//! The tenant rate-limiting experiments (Fig. 13/14) plot per-tenant
//! delivered rate in Mpps against time; [`RateMeter`] produces exactly that:
//! a per-window packet count converted to a rate, keyed by virtual time.

/// A simple monotonic event counter with a name, used for drop/forward
/// accounting all over the data plane.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Resets to zero and returns the previous value.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.value)
    }

    /// Folds another counter into this one (the fleet merge layer: per-pod
    /// counts sum into server-level counts). Merging a zeroed counter is a
    /// no-op.
    pub fn merge(&mut self, other: &Counter) {
        self.value += other.value;
    }
}

/// Converts timestamped event counts into a rate time series.
///
/// Events are bucketed into fixed windows of `window_ns`; [`RateMeter::series`]
/// then yields `(window_start_ns, events_per_second)` points. Used by the
/// Fig. 13/14 harnesses with 1-second windows.
///
/// ```
/// use albatross_telemetry::RateMeter;
/// let mut m = RateMeter::new(1_000_000_000); // 1 s windows
/// for i in 0..100 {
///     m.record(i * 10_000_000, 1); // 100 events in the first second
/// }
/// let s = m.series();
/// assert_eq!(s[0], (0, 100.0));
/// ```
#[derive(Debug, Clone)]
pub struct RateMeter {
    window_ns: u64,
    /// Count per window index; windows are dense from 0.
    windows: Vec<u64>,
}

impl RateMeter {
    /// Creates a meter with the given window width in nanoseconds.
    ///
    /// # Panics
    /// Panics if `window_ns` is zero.
    pub fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "window must be non-empty");
        Self {
            window_ns,
            windows: Vec::new(),
        }
    }

    /// Records `n` events at virtual time `now_ns`.
    pub fn record(&mut self, now_ns: u64, n: u64) {
        let idx = (now_ns / self.window_ns) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, 0);
        }
        self.windows[idx] += n;
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.windows.iter().sum()
    }

    /// Returns `(window_start_ns, events_per_second)` for every window seen so
    /// far, including empty interior windows.
    pub fn series(&self) -> Vec<(u64, f64)> {
        let per_sec = 1e9 / self.window_ns as f64;
        self.windows
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 * self.window_ns, c as f64 * per_sec))
            .collect()
    }

    /// Rate in events/second over the window containing `now_ns`, or 0.0 if
    /// nothing was recorded there.
    pub fn rate_at(&self, now_ns: u64) -> f64 {
        let idx = (now_ns / self.window_ns) as usize;
        let per_sec = 1e9 / self.window_ns as f64;
        self.windows.get(idx).copied().unwrap_or(0) as f64 * per_sec
    }

    /// Window width in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Merges another meter into this one by summing per-window counts.
    /// Counts are integers, so the merge is exact, commutative, and
    /// associative — fleet scenarios can merge in any grouping and the result
    /// is bit-identical.
    ///
    /// # Panics
    /// Panics if the meters use different window widths.
    pub fn merge(&mut self, other: &RateMeter) {
        assert_eq!(
            self.window_ns, other.window_ns,
            "cannot merge meters with different windows"
        );
        if other.windows.len() > self.windows.len() {
            self.windows.resize(other.windows.len(), 0);
        }
        for (a, &b) in self.windows.iter_mut().zip(&other.windows) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.take(), 10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn rate_meter_windows() {
        let mut m = RateMeter::new(1_000); // 1 µs windows
        m.record(0, 5);
        m.record(999, 5);
        m.record(1_000, 2);
        m.record(3_500, 1);
        let s = m.series();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].1, 10.0 * 1e6);
        assert_eq!(s[1].1, 2.0 * 1e6);
        assert_eq!(s[2].1, 0.0);
        assert_eq!(s[3].1, 1.0 * 1e6);
        assert_eq!(m.total(), 13);
    }

    #[test]
    fn rate_at_is_window_local() {
        let mut m = RateMeter::new(1_000_000_000);
        m.record(500_000_000, 42);
        assert_eq!(m.rate_at(0), 42.0);
        assert_eq!(m.rate_at(999_999_999), 42.0);
        assert_eq!(m.rate_at(1_000_000_000), 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn zero_window_panics() {
        let _ = RateMeter::new(0);
    }

    #[test]
    fn counter_merge_sums_and_empty_is_noop() {
        let mut a = Counter::new();
        a.add(7);
        let mut b = Counter::new();
        b.add(5);
        a.merge(&b);
        assert_eq!(a.get(), 12);
        a.merge(&Counter::new());
        assert_eq!(a.get(), 12);
    }

    #[test]
    fn rate_meter_merge_equals_combined_recording() {
        let mut a = RateMeter::new(1_000);
        let mut b = RateMeter::new(1_000);
        let mut both = RateMeter::new(1_000);
        for (t, n) in [(0u64, 3u64), (500, 2), (2_500, 1)] {
            a.record(t, n);
            both.record(t, n);
        }
        for (t, n) in [(900u64, 4u64), (5_100, 7)] {
            b.record(t, n);
            both.record(t, n);
        }
        a.merge(&b);
        assert_eq!(a.total(), both.total());
        assert_eq!(a.series(), both.series());
        // Merging an empty meter changes nothing.
        a.merge(&RateMeter::new(1_000));
        assert_eq!(a.series(), both.series());
    }

    #[test]
    #[should_panic(expected = "different windows")]
    fn rate_meter_merge_rejects_mismatched_windows() {
        let mut a = RateMeter::new(1_000);
        a.merge(&RateMeter::new(2_000));
    }
}
