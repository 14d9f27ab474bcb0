//! Measurement instruments for the experiment harness.
//!
//! Everything the paper reproduction reports — processor/thread utilization
//! (claim C7's "near 100% utilization"), mean NoC packet latency (C4, C5),
//! per-invocation latency percentiles — is collected through these small,
//! allocation-light collectors. Event counts are plain `u64` fields of the
//! component that counts them.

use nw_types::Cycles;

/// Busy/idle accounting for one resource (a thread context, a PE, a link).
///
/// Call [`Utilization::busy`] or [`Utilization::idle`] exactly once per
/// cycle; the ratio of busy cycles to total observed cycles is the
/// utilization the paper's claim C7 is stated in.
///
/// # Examples
///
/// ```
/// use nw_sim::Utilization;
///
/// let mut u = Utilization::new();
/// for i in 0..100 {
///     if i % 4 == 0 { u.idle() } else { u.busy() }
/// }
/// assert!((u.fraction() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Utilization {
    busy: u64,
    total: u64,
}

impl Utilization {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Utilization::default()
    }

    /// Records one busy cycle.
    #[inline]
    pub fn busy(&mut self) {
        self.busy += 1;
        self.total += 1;
    }

    /// Records one idle cycle.
    #[inline]
    pub fn idle(&mut self) {
        self.total += 1;
    }

    /// Records `n` busy cycles at once — exactly equivalent to `n` calls to
    /// [`Utilization::busy`]. The active-set scheduler uses this to settle
    /// accounting for cycles it skipped without perturbing the counters.
    #[inline]
    pub fn busy_n(&mut self, n: u64) {
        self.busy += n;
        self.total += n;
    }

    /// Records `n` idle cycles at once — exactly equivalent to `n` calls to
    /// [`Utilization::idle`].
    #[inline]
    pub fn idle_n(&mut self, n: u64) {
        self.total += n;
    }

    /// Busy cycles observed so far.
    pub fn busy_cycles(&self) -> u64 {
        self.busy
    }

    /// Total cycles observed so far.
    pub fn total_cycles(&self) -> u64 {
        self.total
    }

    /// Busy fraction in `[0, 1]`; 0.0 before any observation.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.busy as f64 / self.total as f64
        }
    }
}

/// Exact summary moments of a stream of cycle counts: count, sum, min and
/// max, in constant space with no heap.
///
/// What the NoC keeps for packet latency (every reader wants the mean), and
/// the exact half of a [`LatencyHistogram`]. Two accumulators fed the same
/// samples in any order are equal, and [`Moments::merge`] is associative
/// and commutative.
///
/// # Examples
///
/// ```
/// use nw_sim::Moments;
/// use nw_types::Cycles;
///
/// let mut m = Moments::new();
/// assert_eq!(m.min(), None);
/// for v in [10, 20, 30, 40, 100] { m.record(Cycles(v)); }
/// assert_eq!(m.count(), 5);
/// assert_eq!(m.min(), Some(Cycles(10)));
/// assert_eq!(m.max(), Some(Cycles(100)));
/// assert!((m.mean() - 40.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Moments {
    count: u64,
    sum: u128,
    /// Smallest sample while `count > 0`; `u64::MAX` while empty, so
    /// recording and merging need no branch.
    min: u64,
    /// Largest sample while `count > 0`; 0 while empty.
    max: u64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Moments {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: Cycles) {
        self.count += 1;
        self.sum += u128::from(v.0);
        self.min = self.min.min(v.0);
        self.max = self.max.max(v.0);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<Cycles> {
        (self.count > 0).then_some(Cycles(self.min))
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<Cycles> {
        (self.count > 0).then_some(Cycles(self.max))
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Moments) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Moments {
    fn default() -> Self {
        Moments::new()
    }
}

/// A log-scale latency histogram with sub-octave resolution.
///
/// The per-invocation latency telemetry needs tail quantiles (p95/p99).
/// This collector keeps 16 sub-buckets per octave (plus 16 exact buckets
/// for values below 16), bounding the relative error of any quantile at
/// 1/16 ≈ 6.25%. O(1) record, O(buckets) merge; count, min, max and mean
/// are exact ([`Moments`]).
///
/// The bucket array holds the buckets up to the highest sample's and no
/// more: a new histogram allocates nothing, and [`LatencyHistogram::record`]
/// and [`LatencyHistogram::merge`] allocate only when a new highest bucket
/// appears, never past the bucket of `u64::MAX` (976 entries).
///
/// Two histograms fed the same samples in any order are equal
/// (`PartialEq` compares bucket counts, whose length follows the largest
/// sample, and the exact moments), and
/// [`LatencyHistogram::merge`] is associative and commutative, so serial
/// and parallel sweeps aggregating per-shard histograms agree bit-for-bit.
///
/// # Examples
///
/// ```
/// use nw_sim::LatencyHistogram;
/// use nw_types::Cycles;
///
/// let mut h = LatencyHistogram::new();
/// for v in 1..=1000u64 { h.record(Cycles(v)); }
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.max(), Some(Cycles(1000)));
/// // p50 lands within one sub-bucket (6.25%) of the true median.
/// let p50 = h.quantile(0.5).0;
/// assert!((500..=532).contains(&p50), "{p50}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts samples whose value falls in bucket `i`; see
    /// [`LatencyHistogram::bucket_of`] for the layout.
    buckets: Vec<u64>,
    /// The exact half: count, sum, min and max.
    moments: Moments,
}

// One per DSOC object of a platform (49 on `ipv4-sat`): the heap
// footprint's `warmed` and `fork` rows grow by any growth per histogram.
const _: () = assert!(std::mem::size_of::<LatencyHistogram>() <= 80);

/// Sub-buckets per octave (and the number of exact low-value buckets).
const LAT_SUB: usize = 16;
/// log2 of [`LAT_SUB`].
const LAT_SUB_BITS: u32 = 4;

impl LatencyHistogram {
    /// Creates an empty histogram; it allocates nothing until its first
    /// sample.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Vec::new(),
            moments: Moments::new(),
        }
    }

    /// The bucket index of a value: values `< 16` get exact buckets; larger
    /// values share an octave (`2^o ≤ v < 2^(o+1)`) split into 16 equal
    /// sub-buckets keyed on the 4 bits after the leading bit.
    fn bucket_of(v: u64) -> usize {
        if v < LAT_SUB as u64 {
            v as usize
        } else {
            let o = 63 - v.leading_zeros() as usize;
            let sub = ((v >> (o - LAT_SUB_BITS as usize)) & (LAT_SUB as u64 - 1)) as usize;
            LAT_SUB + (o - LAT_SUB_BITS as usize) * LAT_SUB + sub
        }
    }

    /// The largest value that falls into bucket `i` — what quantile
    /// extraction reports, making every quantile an upper bound at most one
    /// sub-bucket (1/16th of the sample's octave) above the true order
    /// statistic.
    fn bucket_upper(i: usize) -> u64 {
        if i < LAT_SUB {
            i as u64
        } else {
            let rel = i - LAT_SUB;
            let o = LAT_SUB_BITS as usize + rel / LAT_SUB;
            let sub = (rel % LAT_SUB) as u64;
            // 2^o - 1 + (sub + 1) · 2^(o-4); tops out at u64::MAX exactly.
            ((1u64 << o) - 1) + ((sub + 1) << (o - LAT_SUB_BITS as usize))
        }
    }

    /// Grows the bucket array to `len` entries; it never shrinks, so its
    /// length is one past the highest bucket recorded or merged in.
    #[cold]
    fn grow_to(&mut self, len: usize) {
        if len > self.buckets.len() {
            self.buckets.reserve_exact(len - self.buckets.len());
            self.buckets.resize(len, 0);
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: Cycles) {
        let i = Self::bucket_of(v.0);
        match self.buckets.get_mut(i) {
            Some(n) => *n += 1,
            None => {
                self.grow_to(i + 1);
                self.buckets[i] = 1;
            }
        }
        self.moments.record(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Buckets allocated: up to the highest sample's, 0 before the first.
    pub fn bucket_len(&self) -> usize {
        self.buckets.len()
    }

    /// Exact arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Smallest recorded sample (exact).
    pub fn min(&self) -> Option<Cycles> {
        self.moments.min()
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> Option<Cycles> {
        self.moments.max()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1): the upper bound of the bucket holding
    /// the `⌈count · q⌉`-th smallest sample, clamped to the exact observed
    /// min/max. At most 1/16 ≈ 6.25% above the true order statistic.
    /// Returns zero cycles when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Cycles {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let Moments {
            count, min, max, ..
        } = self.moments;
        if count == 0 {
            return Cycles::ZERO;
        }
        let target = ((count as f64 * q).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The histogram's exact extremes tighten the bucket bound.
                return Cycles(Self::bucket_upper(i).clamp(min, max));
            }
        }
        Cycles(max)
    }

    /// Median latency (see [`LatencyHistogram::quantile`]).
    pub fn p50(&self) -> Cycles {
        self.quantile(0.50)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Cycles {
        self.quantile(0.95)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Cycles {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one (per-shard aggregation in
    /// parallel sweeps). Associative and commutative: any merge tree over
    /// the same shards yields the same histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.grow_to(other.buckets.len());
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.moments.merge(&other.moments);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Streaming mean and variance (Welford's algorithm): the replica
/// confidence interval of [`summarize_replicas`].
#[derive(Debug, Clone, Copy, Default)]
struct OnlineMean {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineMean {
    /// Creates an empty accumulator.
    fn new() -> Self {
        OnlineMean::default()
    }

    /// Adds one observation.
    fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Unbiased sample variance; 0.0 with fewer than two observations.
    fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Spread of one statistic across N independent measurement replicas:
/// the summary the multi-seed replica experiments report per percentile
/// column instead of a single draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSummary {
    /// Replicas summarized.
    pub n: usize,
    /// Smallest replica value.
    pub min: f64,
    /// Median replica value (midpoint average for even N).
    pub median: f64,
    /// Largest replica value.
    pub max: f64,
    /// Normal-approximation 95% confidence half-width of the replica mean:
    /// `1.96 * s / sqrt(n)` with `s` the sample standard deviation. Zero
    /// with fewer than two replicas.
    pub ci_half_width: f64,
}

/// Summarizes one statistic measured on each of N replicas.
///
/// # Examples
///
/// ```
/// use nw_sim::stats::summarize_replicas;
///
/// let s = summarize_replicas(&[10.0, 14.0, 12.0]);
/// assert_eq!((s.min, s.median, s.max), (10.0, 12.0, 14.0));
/// assert!(s.ci_half_width > 0.0);
/// ```
///
/// # Panics
///
/// Panics on an empty slice or a NaN value — replica measurements are
/// concrete percentile readings, so neither has a meaningful summary.
pub fn summarize_replicas(values: &[f64]) -> ReplicaSummary {
    assert!(!values.is_empty(), "no replicas to summarize");
    assert!(
        values.iter().all(|v| !v.is_nan()),
        "replica values must not be NaN"
    );
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    let mut mean = OnlineMean::new();
    for &v in &sorted {
        mean.push(v);
    }
    let ci_half_width = if n < 2 {
        0.0
    } else {
        1.96 * mean.std_dev() / (n as f64).sqrt()
    };
    ReplicaSummary {
        n,
        min: sorted[0],
        median,
        max: sorted[n - 1],
        ci_half_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_summary_orders_and_bounds() {
        let s = summarize_replicas(&[5.0, 1.0, 3.0, 9.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.0);
        // 1.96 * s / sqrt(n) against a hand-computed sample std dev:
        // mean 4.5, squared deviations 0.25 + 12.25 + 2.25 + 20.25 = 35.
        let expect = 1.96 * ((35.0 / 3.0f64).sqrt()) / 2.0;
        assert!((s.ci_half_width - expect).abs() < 1e-9);
    }

    #[test]
    fn replica_summary_single_value_has_zero_width() {
        let s = summarize_replicas(&[7.5]);
        assert_eq!((s.min, s.median, s.max), (7.5, 7.5, 7.5));
        assert_eq!(s.ci_half_width, 0.0);
    }

    #[test]
    #[should_panic(expected = "no replicas")]
    fn replica_summary_rejects_empty() {
        let _ = summarize_replicas(&[]);
    }

    #[test]
    fn utilization_bounds_and_fraction() {
        let mut a = Utilization::new();
        assert_eq!(a.fraction(), 0.0);
        a.busy();
        a.busy();
        a.idle();
        a.idle();
        assert_eq!(a.busy_cycles(), 2);
        assert_eq!(a.total_cycles(), 4);
        assert!((a.fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_summary() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), Cycles::ZERO);
        for v in 1..=100u64 {
            h.record(Cycles(v));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), Some(Cycles(1)));
        assert_eq!(h.max(), Some(Cycles(100)));
        assert!((h.mean() - 50.5).abs() < 1e-12);
        // The 50th sample of 1..=100 lies in sub-bucket [48,52): upper bound 51.
        assert_eq!(h.quantile(0.5), Cycles(51));
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHistogram::new();
        a.record(Cycles(5));
        let mut b = LatencyHistogram::new();
        b.record(Cycles(50));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(Cycles(5)));
        assert_eq!(a.max(), Some(Cycles(50)));
        // An empty side changes nothing, and an empty histogram takes the
        // other's extremes.
        a.merge(&LatencyHistogram::new());
        let mut empty = LatencyHistogram::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        assert_eq!(empty.min(), Some(Cycles(5)));
    }

    #[test]
    fn histogram_quantile_is_at_most_max_in_the_top_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(Cycles(1 << 63));
        assert_eq!(h.quantile(1.0), Cycles(1 << 63));
        h.record(Cycles(u64::MAX));
        assert_eq!(h.quantile(1.0), Cycles(u64::MAX));
    }

    #[test]
    fn latency_histogram_buckets_end_at_the_highest_sample() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.bucket_len(), 0);
        h.record(Cycles(40));
        assert_eq!(h.bucket_len(), LatencyHistogram::bucket_of(40) + 1);
        h.record(Cycles(3));
        assert_eq!(h.bucket_len(), LatencyHistogram::bucket_of(40) + 1);
        let mut top = LatencyHistogram::new();
        top.record(Cycles(u64::MAX));
        h.merge(&top);
        assert_eq!(h.bucket_len(), LatencyHistogram::bucket_of(u64::MAX) + 1);
        let upper = LatencyHistogram::bucket_upper(LatencyHistogram::bucket_of(40));
        assert_eq!(h.quantile(0.5), Cycles(upper));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn quantile_out_of_range_panics() {
        LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn latency_histogram_low_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(Cycles(v));
        }
        // One sample per exact bucket: every quantile is the exact value.
        for v in 0..16u64 {
            let q = (v + 1) as f64 / 16.0;
            assert_eq!(h.quantile(q), Cycles(v), "q={q}");
        }
    }

    #[test]
    fn latency_histogram_bucket_layout() {
        // Exact region.
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(15), 15);
        // First octave region: 16..32 in sub-buckets of width 1.
        assert_eq!(LatencyHistogram::bucket_of(16), 16);
        assert_eq!(LatencyHistogram::bucket_of(31), 31);
        // 32..64: width-2 sub-buckets.
        assert_eq!(LatencyHistogram::bucket_of(32), 32);
        assert_eq!(LatencyHistogram::bucket_of(33), 32);
        assert_eq!(LatencyHistogram::bucket_of(34), 33);
        // Upper bounds invert the mapping.
        for v in [0u64, 15, 16, 31, 32, 100, 1 << 20, u64::MAX] {
            let i = LatencyHistogram::bucket_of(v);
            assert!(LatencyHistogram::bucket_upper(i) >= v, "v={v}");
            if i < LatencyHistogram::bucket_of(u64::MAX) {
                assert!(
                    LatencyHistogram::bucket_upper(i) < LatencyHistogram::bucket_upper(i + 1),
                    "v={v}"
                );
            }
        }
        assert_eq!(
            LatencyHistogram::bucket_upper(LatencyHistogram::bucket_of(u64::MAX)),
            u64::MAX
        );
    }

    #[test]
    fn latency_histogram_percentiles_bound_the_oracle() {
        let mut h = LatencyHistogram::new();
        let samples: Vec<u64> = (1..=10_000).map(|i| i * 7 % 9973 + 1).collect();
        for &v in &samples {
            h.record(Cycles(v));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.95, 0.99, 1.0] {
            let target = ((sorted.len() as f64 * q).ceil() as usize).max(1);
            let oracle = sorted[target - 1];
            let got = h.quantile(q).0;
            assert!(got >= oracle, "q={q}: {got} < oracle {oracle}");
            assert!(
                got <= oracle + oracle / 16 + 1,
                "q={q}: {got} overshoots oracle {oracle}"
            );
        }
    }

    #[test]
    fn latency_histogram_merge_matches_combined() {
        let mut all = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in 0..500u64 {
            let s = Cycles(v * v % 7919);
            all.record(s);
            if v % 2 == 0 {
                a.record(s);
            } else {
                b.record(s);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, all);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ba, all);
    }

    #[test]
    fn online_mean_matches_naive() {
        let xs = [1.5, 2.5, 3.5, 10.0, -4.0];
        let mut m = OnlineMean::new();
        for &x in &xs {
            m.push(x);
        }
        let naive: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((m.mean - naive).abs() < 1e-12);
        assert!(m.std_dev() > 0.0);
    }

    #[test]
    fn online_mean_variance_small_n() {
        let mut m = OnlineMean::new();
        assert_eq!(m.variance(), 0.0);
        m.push(3.0);
        assert_eq!(m.variance(), 0.0);
    }
}
