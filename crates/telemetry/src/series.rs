//! Sampled time series and cross-core dispersion statistics.
//!
//! Fig. 10 of the paper plots the *standard deviation of per-core CPU
//! utilization* over a week for a PLB pod and an RSS pod. The harness samples
//! per-core utilization periodically into a [`CoreUtilization`] and reads the
//! dispersion series back out.

/// A `(time_ns, value)` series with summary statistics.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample. Times should be non-decreasing (asserted in debug
    /// builds only, since harnesses always sample from a monotonic clock).
    pub fn push(&mut self, time_ns: u64, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| t <= time_ns),
            "time series must be sampled in order"
        );
        self.points.push((time_ns, value));
    }

    /// All points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of all values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Largest value, or 0.0 if empty.
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Merges another (time-sorted) series into this one, keeping the
    /// result time-sorted. The merge is *stable*: on a timestamp tie,
    /// `self`'s points precede `other`'s — so merging a fixed sequence of
    /// scenario series in scenario order always yields the same
    /// byte-identical result, regardless of which thread finished first
    /// (the fleet's ordered-merge rule, DESIGN.md §4d).
    pub fn merge_ordered(&mut self, other: &TimeSeries) {
        if other.points.is_empty() {
            return;
        }
        let mine = std::mem::take(&mut self.points);
        self.points.reserve(mine.len() + other.points.len());
        let mut b = other.points.iter().copied().peekable();
        for a in mine {
            while let Some(&(tb, vb)) = b.peek() {
                if tb < a.0 {
                    self.points.push((tb, vb));
                    b.next();
                } else {
                    break;
                }
            }
            self.points.push(a);
        }
        self.points.extend(b);
    }

    /// Population standard deviation of values, or 0.0 if empty.
    pub fn stddev(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        let var = self
            .points
            .iter()
            .map(|&(_, v)| (v - m) * (v - m))
            .sum::<f64>()
            / self.points.len() as f64;
        var.sqrt()
    }
}

/// Population standard deviation of a slice.
pub fn stddev(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = values.iter().sum::<f64>() / values.len() as f64;
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Tracks per-core utilization samples and exposes the cross-core standard
/// deviation series that Fig. 10 plots.
///
/// One `sample()` call per sampling interval supplies the instantaneous
/// utilization (0.0–1.0, or percent — units are caller's choice) of every
/// core; the tracker records both per-core series and the dispersion at each
/// instant.
#[derive(Debug, Clone)]
pub struct CoreUtilization {
    cores: usize,
    per_core: Vec<TimeSeries>,
    dispersion: TimeSeries,
}

impl CoreUtilization {
    /// Creates a tracker for `cores` cores.
    ///
    /// # Panics
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        Self {
            cores,
            per_core: vec![TimeSeries::new(); cores],
            dispersion: TimeSeries::new(),
        }
    }

    /// Number of tracked cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Records one utilization sample per core at `time_ns`.
    ///
    /// # Panics
    /// Panics if `utils.len() != cores`.
    pub fn sample(&mut self, time_ns: u64, utils: &[f64]) {
        assert_eq!(utils.len(), self.cores, "one sample per core required");
        for (series, &u) in self.per_core.iter_mut().zip(utils) {
            series.push(time_ns, u);
        }
        self.dispersion.push(time_ns, stddev(utils));
    }

    /// The series of cross-core standard deviations (the Fig. 10 y-axis).
    pub fn dispersion(&self) -> &TimeSeries {
        &self.dispersion
    }

    /// Per-core utilization series for core `i`.
    pub fn core(&self, i: usize) -> &TimeSeries {
        &self.per_core[i]
    }

    /// Absorbs another pod's tracker: `other`'s cores are appended after
    /// this tracker's cores (so a merged server report indexes pod 0's
    /// cores first, then pod 1's, in merge order), and the dispersion
    /// series are interleaved by time via [`TimeSeries::merge_ordered`].
    /// The merged dispersion is therefore *per-pod* dispersion over time,
    /// not cross-server dispersion — documented in DESIGN.md §4d.
    pub fn merge_pods(&mut self, other: &CoreUtilization) {
        self.per_core.extend(other.per_core.iter().cloned());
        self.cores += other.cores;
        self.dispersion.merge_ordered(&other.dispersion);
    }

    /// Mean utilization across all cores and samples.
    pub fn mean_utilization(&self) -> f64 {
        if self.per_core[0].is_empty() {
            return 0.0;
        }
        self.per_core.iter().map(TimeSeries::mean).sum::<f64>() / self.cores as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_stats() {
        let mut s = TimeSeries::new();
        s.push(0, 1.0);
        s.push(1, 2.0);
        s.push(2, 3.0);
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.max(), 3.0);
        let expected = ((1.0f64 + 0.0 + 1.0) / 3.0).sqrt();
        assert!((s.stddev() - expected).abs() < 1e-12);
    }

    #[test]
    fn stddev_of_uniform_is_zero() {
        assert_eq!(stddev(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
    }

    #[test]
    fn balanced_cores_have_zero_dispersion() {
        let mut cu = CoreUtilization::new(4);
        cu.sample(0, &[0.2, 0.2, 0.2, 0.2]);
        cu.sample(1_000, &[0.5, 0.5, 0.5, 0.5]);
        assert_eq!(cu.dispersion().max(), 0.0);
        assert!((cu.mean_utilization() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn skewed_cores_have_positive_dispersion() {
        let mut cu = CoreUtilization::new(3);
        // One overloaded core, as under RSS with a heavy hitter.
        cu.sample(0, &[0.9, 0.1, 0.1]);
        assert!(cu.dispersion().max() > 0.3);
    }

    #[test]
    #[should_panic(expected = "one sample per core")]
    fn sample_arity_checked() {
        let mut cu = CoreUtilization::new(2);
        cu.sample(0, &[0.5]);
    }

    #[test]
    fn merge_ordered_interleaves_by_time_stably() {
        let mut a = TimeSeries::new();
        a.push(10, 1.0);
        a.push(20, 2.0);
        a.push(30, 3.0);
        let mut b = TimeSeries::new();
        b.push(5, 9.0);
        b.push(20, 8.0); // tie: must land AFTER self's t=20 point
        b.push(40, 7.0);
        a.merge_ordered(&b);
        assert_eq!(
            a.points(),
            &[
                (5, 9.0),
                (10, 1.0),
                (20, 2.0),
                (20, 8.0),
                (30, 3.0),
                (40, 7.0)
            ]
        );
        // Merging an empty series is a no-op.
        let before = a.points().to_vec();
        a.merge_ordered(&TimeSeries::new());
        assert_eq!(a.points(), &before[..]);
        // Empty ← non-empty copies.
        let mut c = TimeSeries::new();
        c.merge_ordered(&a);
        assert_eq!(c.points(), a.points());
    }

    #[test]
    fn merge_pods_appends_cores_in_order() {
        let mut a = CoreUtilization::new(2);
        a.sample(0, &[0.1, 0.2]);
        let mut b = CoreUtilization::new(1);
        b.sample(0, &[0.9]);
        a.merge_pods(&b);
        assert_eq!(a.cores(), 3);
        assert_eq!(a.core(0).points(), &[(0, 0.1)]);
        assert_eq!(a.core(2).points(), &[(0, 0.9)]);
        // Dispersion series interleaved (both sampled at t=0; self first).
        assert_eq!(a.dispersion().len(), 2);
        assert_eq!(a.dispersion().points()[1], (0, 0.0));
    }
}
