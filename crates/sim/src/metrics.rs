//! Measurement utilities: latency series, summaries, ECDFs, and histograms.
//!
//! Experiments record nanosecond latencies into a [`Series`] and derive
//! [`Summary`] statistics or [`Ecdf`] curves from it, matching how the paper
//! reports Figure 6 (ECDFs), Figure 7/Table 2 (means), and tail percentiles.

use std::fmt;

use crate::time::SimDuration;

/// An append-only collection of nanosecond samples.
///
/// # Examples
///
/// ```
/// use lnic_sim::metrics::Series;
/// use lnic_sim::time::SimDuration;
///
/// let mut s = Series::new("latency");
/// for us in [10, 20, 30] {
///     s.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.summary().mean_ns, 20_000.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Series {
    name: String,
    samples_ns: Vec<u64>,
}

impl Series {
    /// Creates an empty, named series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            samples_ns: Vec::new(),
        }
    }

    /// Returns the series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples_ns.push(d.as_nanos());
    }

    /// Appends one raw nanosecond sample.
    pub fn record_ns(&mut self, ns: u64) {
        self.samples_ns.push(ns);
    }

    /// Returns the number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// Returns `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    /// Returns the raw samples in recording order.
    pub fn samples_ns(&self) -> &[u64] {
        &self.samples_ns
    }

    /// Computes summary statistics over all samples.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples_ns)
    }

    /// Builds the empirical CDF of the samples.
    pub fn ecdf(&self) -> Ecdf {
        Ecdf::of(&self.samples_ns)
    }

    /// Returns the `q`-quantile (0.0 ..= 1.0) in nanoseconds using
    /// nearest-rank interpolation, or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples_ns.is_empty() {
            return None;
        }
        // The nearest-rank element is the rank-th smallest: a selection
        // finds it in linear time, with no full sort of the copy.
        let mut samples = self.samples_ns.clone();
        let rank = nearest_rank(q, samples.len());
        Some(*samples.select_nth_unstable(rank).1)
    }

    /// Merges another series' samples into this one.
    pub fn merge(&mut self, other: &Series) {
        self.samples_ns.extend_from_slice(&other.samples_ns);
    }
}

impl Extend<SimDuration> for Series {
    fn extend<T: IntoIterator<Item = SimDuration>>(&mut self, iter: T) {
        self.samples_ns
            .extend(iter.into_iter().map(|d| d.as_nanos()));
    }
}

impl FromIterator<SimDuration> for Series {
    fn from_iter<T: IntoIterator<Item = SimDuration>>(iter: T) -> Self {
        let mut s = Series::new("collected");
        s.extend(iter);
        s
    }
}

/// Zero-based index of the `q`-quantile under the nearest-rank convention:
/// `ceil(q * n)` clamped to `[1, n]`, minus one.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Summary statistics of a sample set, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum sample.
    pub min_ns: u64,
    /// Maximum sample.
    pub max_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Population standard deviation.
    pub stddev_ns: f64,
    /// Median (p50).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
}

impl Summary {
    /// Computes a summary over raw nanosecond samples.
    pub fn of(samples: &[u64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        let mean = sum as f64 / count as f64;
        let var = sorted
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / count as f64;
        let pct = |q: f64| -> u64 { sorted[nearest_rank(q, count)] };
        Summary {
            count,
            min_ns: sorted[0],
            max_ns: sorted[count - 1],
            mean_ns: mean,
            stddev_ns: var.sqrt(),
            p50_ns: pct(0.50),
            p90_ns: pct(0.90),
            p99_ns: pct(0.99),
            p999_ns: pct(0.999),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.count,
            SimDuration::from_nanos(self.mean_ns as u64),
            SimDuration::from_nanos(self.p50_ns),
            SimDuration::from_nanos(self.p99_ns),
            SimDuration::from_nanos(self.max_ns),
        )
    }
}

/// An empirical cumulative distribution function over nanosecond samples.
///
/// Points are `(value_ns, fraction <= value)` with fractions in `(0, 1]`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ecdf {
    points: Vec<(u64, f64)>,
}

impl Ecdf {
    /// Builds the ECDF of `samples`.
    pub fn of(samples: &[u64]) -> Ecdf {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let mut points: Vec<(u64, f64)> = Vec::new();
        for (i, v) in sorted.iter().enumerate() {
            let frac = (i + 1) as f64 / n;
            match points.last_mut() {
                Some(last) if last.0 == *v => last.1 = frac,
                _ => points.push((*v, frac)),
            }
        }
        Ecdf { points }
    }

    /// Returns the `(value_ns, cumulative fraction)` steps.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Evaluates the ECDF at `value_ns`: the fraction of samples `<= value`.
    pub fn at(&self, value_ns: u64) -> f64 {
        match self.points.binary_search_by_key(&value_ns, |p| p.0) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }
}

/// A monotonically increasing event counter with throughput derivation.
///
/// # Examples
///
/// ```
/// use lnic_sim::metrics::Counter;
/// use lnic_sim::time::SimDuration;
///
/// let mut c = Counter::default();
/// c.add(500);
/// assert_eq!(c.per_second(SimDuration::from_millis(500)), 1_000.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    count: u64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.count += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Returns the current count.
    pub fn get(&self) -> u64 {
        self.count
    }

    /// Returns the average rate per second over `elapsed` virtual time.
    ///
    /// Returns `0.0` when `elapsed` is zero.
    pub fn per_second(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.count as f64 / elapsed.as_secs_f64()
        }
    }
}

/// A fixed-layout log-bucketed histogram for cheap, bounded-memory recording
/// of long-running experiments (buckets double from 1 ns to ~18.4 s).
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; 64],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one nanosecond sample.
    pub fn record_ns(&mut self, ns: u64) {
        let idx = (64 - ns.leading_zeros()).min(63) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.record_ns(d.as_nanos());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Approximate `q`-quantile: returns the upper bound of the bucket that
    /// contains the requested rank (within 2x of the true value).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile_upper_bound_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if idx >= 63 {
                    u64::MAX
                } else {
                    (1u64 << idx) - 1
                };
            }
        }
        self.max_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[10, 20, 30, 40]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 40);
        assert_eq!(s.mean_ns, 25.0);
        assert_eq!(s.p50_ns, 20); // nearest-rank: ceil(0.5*4) = 2nd value
    }

    #[test]
    fn summary_of_empty_is_default() {
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn ecdf_steps_and_lookup() {
        let e = Ecdf::of(&[1, 1, 2, 4]);
        assert_eq!(e.points(), &[(1, 0.5), (2, 0.75), (4, 1.0)]);
        assert_eq!(e.at(0), 0.0);
        assert_eq!(e.at(1), 0.5);
        assert_eq!(e.at(3), 0.75);
        assert_eq!(e.at(100), 1.0);
    }

    #[test]
    fn series_quantiles() {
        let mut s = Series::new("t");
        for v in 1..=100u64 {
            s.record_ns(v);
        }
        assert_eq!(s.quantile_ns(0.0), Some(1));
        assert_eq!(s.quantile_ns(1.0), Some(100));
        assert_eq!(s.quantile_ns(0.5), Some(50));
        assert!(Series::new("e").quantile_ns(0.5).is_none());
    }

    #[test]
    fn counter_rate() {
        let mut c = Counter::new();
        for _ in 0..10 {
            c.incr();
        }
        assert_eq!(c.get(), 10);
        assert_eq!(c.per_second(SimDuration::from_secs(2)), 5.0);
        assert_eq!(c.per_second(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn log_histogram_tracks_mass() {
        let mut h = LogHistogram::new();
        for v in [1u64, 10, 100, 1_000, 10_000] {
            h.record_ns(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ns(), 10_000);
        assert!((h.mean_ns() - 2_222.2).abs() < 0.1);
        // p100 upper bound must cover the max.
        assert!(h.quantile_upper_bound_ns(1.0) >= 10_000);
        // p20 covers only the smallest bucket.
        assert!(h.quantile_upper_bound_ns(0.2) <= 1);
    }

    #[test]
    fn series_merge_and_extend() {
        let mut a = Series::new("a");
        a.record(SimDuration::from_nanos(1));
        let mut b = Series::new("b");
        b.extend([SimDuration::from_nanos(2), SimDuration::from_nanos(3)]);
        a.merge(&b);
        assert_eq!(a.samples_ns(), &[1, 2, 3]);
        let c: Series = (1..=3).map(SimDuration::from_micros).collect();
        assert_eq!(c.len(), 3);
        assert_eq!(c.summary().mean_ns, 2_000.0);
    }

    proptest! {
        #[test]
        fn ecdf_is_monotone_and_ends_at_one(samples in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let e = Ecdf::of(&samples);
            let pts = e.points();
            for w in pts.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
                prop_assert!(w[0].1 < w[1].1 + 1e-12);
            }
            prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-9);
        }

        #[test]
        fn summary_bounds_hold(samples in proptest::collection::vec(0u64..u32::MAX as u64, 1..200)) {
            let s = Summary::of(&samples);
            prop_assert!(s.min_ns <= s.p50_ns);
            prop_assert!(s.p50_ns <= s.p90_ns);
            prop_assert!(s.p90_ns <= s.p99_ns);
            prop_assert!(s.p99_ns <= s.p999_ns);
            prop_assert!(s.p999_ns <= s.max_ns);
            prop_assert!(s.mean_ns >= s.min_ns as f64 && s.mean_ns <= s.max_ns as f64);
        }

        #[test]
        fn quantile_matches_the_sorted_reference(
            samples in proptest::collection::vec(0u64..1_000, 1..300),
            q in 0.0f64..=1.0,
        ) {
            let series: Series = samples.iter().map(|&v| SimDuration::from_nanos(v)).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            prop_assert_eq!(series.quantile_ns(q), Some(sorted[nearest_rank(q, sorted.len())]));
            for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
                prop_assert_eq!(series.quantile_ns(q), Some(sorted[nearest_rank(q, sorted.len())]));
            }
        }

        #[test]
        fn log_histogram_quantile_upper_bounds_true_quantile(
            samples in proptest::collection::vec(1u64..1_000_000_000, 1..200),
            q in 0.0f64..=1.0,
        ) {
            let mut h = LogHistogram::new();
            let mut series = Series::new("s");
            for &v in &samples {
                h.record_ns(v);
                series.record_ns(v);
            }
            let exact = series.quantile_ns(q).unwrap();
            // The bucket upper bound can never under-report by more than the
            // rank rounding difference of one bucket; assert >= exact/2.
            prop_assert!(h.quantile_upper_bound_ns(q) >= exact / 2);
        }
    }
}
