//! Statistics collection for experiment harnesses.
//!
//! Two percentile collectors with an explicit division of labor:
//!
//! * [`Summary`] retains **every sample** and answers *exact*
//!   nearest-rank percentiles. Memory is O(total samples), so it is the
//!   reference implementation — use it for small runs and as the oracle
//!   that pins [`LogHistogram`]'s error bound in tests.
//! * [`LogHistogram`] keeps a **fixed ~30 KB** of log-spaced buckets
//!   regardless of sample count, is mergeable across shards, and bounds
//!   its percentile error by the relative bucket width (< 2⁻⁶ ≈ 1.6 %).
//!   Use it whenever the sample count is unbounded — e.g. the streaming
//!   million-flow harnesses, where retaining per-flow samples would make
//!   RSS scale with *total* flows instead of *active* flows.
//!
//! [`WindowSeries`] complements them with a windowed counter of
//! completions, their bytes, and failures per fixed window of simulated
//! time.

use crate::time::{Duration, Time};

/// A sample-collecting summary: mean, variance, min/max, and exact
/// nearest-rank percentiles.
///
/// Samples are **retained**: memory is O(count), and `percentile` sorts
/// (amortized) — fine for the classic few-thousand-flow experiments, and
/// exactly what makes it the oracle for [`LogHistogram`]'s error-bound
/// tests. Do *not* feed it an unbounded stream; for million-flow runs
/// record into a [`LogHistogram`] instead and keep RSS independent of
/// total sample count.
///
/// ```
/// use edm_sim::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.record(x); }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.percentile(50.0), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Records a duration, in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_ns_f64());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean. Zero if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Population variance. Zero if fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        self.samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / self.samples.len() as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample. Zero if empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample. Zero if empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 100]`. Zero if empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample recorded"));
            self.sorted = true;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1).min(self.samples.len() - 1)]
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }
}

/// Sub-bucket resolution bits for [`LogHistogram`]: each power-of-two
/// octave is split into `2^SUB_BITS = 64` linear sub-buckets, so the
/// relative bucket width — and therefore the percentile error bound — is
/// `2^-SUB_BITS = 1/64`.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count: one linear region `[0, 64)` plus `63 - SUB_BITS + 1`
/// octaves of `64` sub-buckets each (covers all of `u64`).
const LOG_BUCKETS: usize = SUB + (63 - SUB_BITS as usize + 1) * SUB;

/// A log-bucketed histogram over `u64` values with bounded memory and
/// bounded relative error — the streaming counterpart to [`Summary`].
///
/// Values below 64 land in exact unit-width buckets; larger values fall
/// into one of 64 linear sub-buckets per power-of-two octave (the
/// HDR-histogram layout). [`percentile`](LogHistogram::percentile)
/// returns the *inclusive upper bound* of the bucket holding the
/// nearest-rank sample, so the reported quantile `q̂` satisfies
/// `q ≤ q̂ < q · (1 + 1/64)` relative to the exact nearest-rank value
/// `q` (and is exact for values `< 64`). Memory is a fixed
/// `3776 × 8 B ≈ 30 KB` regardless of sample count, and histograms from
/// independent shards [`merge`](LogHistogram::merge) by bucket-wise
/// addition with no loss beyond the bucketing itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Upper bound on the relative error of [`percentile`](Self::percentile):
    /// the reported value overshoots the exact nearest-rank sample by less
    /// than this fraction of the sample's value.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

    /// Creates an empty histogram (all ~3.7k buckets zeroed, ≈30 KB).
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; LOG_BUCKETS],
            total: 0,
            max: 0,
        }
    }

    /// Bucket index for a value: identity below `SUB`, then
    /// `(octave << SUB_BITS) | sub` where `sub` is the top `SUB_BITS`
    /// bits after the leading one.
    fn bucket_index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let octave = (msb - SUB_BITS + 1) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (octave << SUB_BITS) | sub
    }

    /// Smallest value mapping to bucket `i` (inverse of `bucket_index`).
    fn bucket_low(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let octave = (i >> SUB_BITS) as u32;
        let sub = (i & (SUB - 1)) as u64;
        (SUB as u64 + sub) << (octave - 1)
    }

    /// Inclusive upper bound of bucket `i`.
    fn bucket_high(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let octave = (i >> SUB_BITS) as u32;
        Self::bucket_low(i) + ((1u64 << (octave - 1)) - 1)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Records a duration, in picoseconds (the simulator's native unit,
    /// so integer latencies bucket exactly).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_ps());
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no values have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest value recorded (exact, not bucketed). Zero if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (nearest-rank over buckets), `p` in
    /// `[0, 100]`. Returns the inclusive upper bound of the bucket
    /// containing the nearest-rank sample — never less than the exact
    /// value, and within [`MAX_RELATIVE_ERROR`](Self::MAX_RELATIVE_ERROR)
    /// above it. Zero if empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Cap at the true max so p100 is exact.
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Bucket-midpoint estimate of the mean — the composition helper the
    /// approximate engine's reports use. Each sample contributes the
    /// midpoint of its bucket, so the estimate sits within
    /// [`MAX_RELATIVE_ERROR`](Self::MAX_RELATIVE_ERROR)`/2` of the true
    /// mean (exact below 64). Zero if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                let mid = (Self::bucket_low(i) + Self::bucket_high(i)) as f64 / 2.0;
                sum += mid * c as f64;
            }
        }
        sum / self.total as f64
    }

    /// Adds another histogram's counts into this one (shard merge).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

/// Windowed completion series: per fixed window of simulated time, the
/// operations that completed, the bytes they carried, and the operations
/// that failed — throughput, goodput-under-failure, degraded spans and
/// recovery time after an incident, from one counter.
///
/// Memory is O(simulated span / window) — independent of how many
/// operations pass through — and two series with the same window merge
/// by element-wise addition, so per-shard series combine exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSeries {
    window: Duration,
    slots: Vec<Window>,
}

/// One window's counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Window {
    ops: u64,
    bytes: u64,
    failed: u64,
}

impl WindowSeries {
    /// Creates an empty series with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Duration) -> Self {
        assert!(window > Duration::ZERO, "window must be positive");
        WindowSeries {
            window,
            slots: Vec::new(),
        }
    }

    /// The window holding `at`, grown into the series.
    fn slot(&mut self, at: Time) -> &mut Window {
        let idx = (at.as_ps() / self.window.as_ps()) as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, Window::default());
        }
        &mut self.slots[idx]
    }

    /// Records one completion of `bytes` bytes at simulated time `at`.
    pub fn record(&mut self, at: Time, bytes: u64) {
        let w = self.slot(at);
        w.ops += 1;
        w.bytes += bytes;
    }

    /// Records one failure at simulated time `at`.
    pub fn record_failure(&mut self, at: Time) {
        self.slot(at).failed += 1;
    }

    /// The window size.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Number of windows touched so far, by a completion or a failure
    /// (index of the last + 1).
    pub fn windows(&self) -> usize {
        self.slots.len()
    }

    /// Completions in window `i` (0 beyond the recorded span).
    pub fn ops_in(&self, i: usize) -> u64 {
        self.slots.get(i).map_or(0, |w| w.ops)
    }

    /// Bytes completed in window `i` (0 beyond the recorded span).
    pub fn bytes_in(&self, i: usize) -> u64 {
        self.slots.get(i).map_or(0, |w| w.bytes)
    }

    /// Failures in window `i` (0 beyond the recorded span).
    pub fn failed_in(&self, i: usize) -> u64 {
        self.slots.get(i).map_or(0, |w| w.failed)
    }

    /// Total completions recorded.
    pub fn total_ops(&self) -> u64 {
        self.slots.iter().map(|w| w.ops).sum()
    }

    /// Total bytes completed.
    pub fn total_bytes(&self) -> u64 {
        self.slots.iter().map(|w| w.bytes).sum()
    }

    /// Peak completions in any single window.
    pub fn peak_ops(&self) -> u64 {
        self.slots.iter().map(|w| w.ops).max().unwrap_or(0)
    }

    /// Windows with at least one failure.
    pub fn degraded_windows(&self) -> usize {
        self.slots.iter().filter(|w| w.failed > 0).count()
    }

    /// Fraction of touched windows with no failure. 1.0 if no window
    /// was touched.
    pub fn availability(&self) -> f64 {
        if self.slots.is_empty() {
            return 1.0;
        }
        1.0 - self.degraded_windows() as f64 / self.slots.len() as f64
    }

    /// Time from `incident` until the end of the first window at or
    /// after it that completes at least one operation — the campaign's
    /// recovery-time metric. `None` if nothing completes after the
    /// incident within the recorded span.
    pub fn recovery_after(&self, incident: Time) -> Option<Duration> {
        let first = (incident.as_ps() / self.window.as_ps()) as usize;
        let i = (first..self.slots.len()).find(|&i| self.slots[i].ops > 0)?;
        let end = Time::ZERO + self.window * (i as u64 + 1);
        Some(end.saturating_since(incident))
    }

    /// Adds another series' windows into this one.
    ///
    /// # Panics
    ///
    /// Panics if the window sizes differ.
    pub fn merge(&mut self, other: &WindowSeries) {
        assert_eq!(
            self.window, other.window,
            "cannot merge window series with different windows"
        );
        if other.slots.len() > self.slots.len() {
            self.slots.resize(other.slots.len(), Window::default());
        }
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            a.ops += b.ops;
            a.bytes += b.bytes;
            a.failed += b.failed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Summary::new();
        for x in 1..=100 {
            s.record(x as f64);
        }
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(1.0), 1.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn percentile_after_more_records_resorts() {
        let mut s = Summary::new();
        s.record(10.0);
        assert_eq!(s.median(), 10.0);
        s.record(1.0);
        s.record(2.0);
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    fn record_duration_in_ns() {
        let mut s = Summary::new();
        s.record_duration(Duration::from_ns(300));
        assert_eq!(s.mean(), 300.0);
    }

    #[test]
    fn log_histogram_small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(50.0), 31);
        assert_eq!(h.percentile(100.0), 63);
    }

    #[test]
    fn log_histogram_bucket_roundtrip() {
        // Every bucket boundary maps into its own bucket, and the
        // inclusive bounds tile the u64 range without gaps or overlap.
        for i in 1..LOG_BUCKETS {
            let low = LogHistogram::bucket_low(i);
            let high = LogHistogram::bucket_high(i);
            assert_eq!(LogHistogram::bucket_index(low), i, "low of bucket {i}");
            assert_eq!(LogHistogram::bucket_index(high), i, "high of bucket {i}");
            assert_eq!(
                LogHistogram::bucket_high(i - 1).wrapping_add(1),
                low,
                "gap before bucket {i}"
            );
        }
        assert_eq!(LogHistogram::bucket_high(LOG_BUCKETS - 1), u64::MAX);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), LOG_BUCKETS - 1);
    }

    #[test]
    fn log_histogram_error_is_bounded() {
        let mut h = LogHistogram::new();
        let mut exact = Summary::new();
        let mut v = 1u64;
        for i in 0..10_000u64 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(i) % 1_000_000_007;
            h.record(v);
            exact.record(v as f64);
        }
        for p in [50.0, 90.0, 99.0, 99.9, 99.99] {
            let approx = h.percentile(p) as f64;
            let truth = exact.percentile(p);
            assert!(approx >= truth, "p{p}: {approx} < exact {truth}");
            assert!(
                approx <= truth * (1.0 + LogHistogram::MAX_RELATIVE_ERROR),
                "p{p}: {approx} exceeds error bound over exact {truth}"
            );
        }
    }

    #[test]
    fn log_histogram_merge_matches_combined() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in [3u64, 77, 1024, 90_000, 12, 500_000] {
            all.record(v);
            if v % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max(), all.max());
        for p in [10.0, 50.0, 99.0] {
            assert_eq!(a.percentile(p), all.percentile(p));
        }
    }

    #[test]
    fn throughput_windows_and_merge() {
        let w = Duration::from_ns(100);
        let mut t = WindowSeries::new(w);
        t.record(Time::from_ns(10), 64);
        t.record(Time::from_ns(99), 64);
        t.record(Time::from_ns(100), 128);
        t.record(Time::from_ns(350), 64);
        assert_eq!(t.windows(), 4);
        assert_eq!(t.ops_in(0), 2);
        assert_eq!(t.ops_in(1), 1);
        assert_eq!(t.ops_in(2), 0);
        assert_eq!(t.bytes_in(1), 128);
        assert_eq!(t.peak_ops(), 2);
        assert_eq!(t.total_ops(), 4);
        assert_eq!(t.total_bytes(), 320);

        let mut other = WindowSeries::new(w);
        other.record(Time::from_ns(120), 32);
        other.record(Time::from_ns(600), 32);
        t.merge(&other);
        assert_eq!(t.windows(), 7);
        assert_eq!(t.ops_in(1), 2);
        assert_eq!(t.bytes_in(1), 160);
        assert_eq!(t.total_ops(), 6);
    }

    #[test]
    fn availability_windows_degradation_and_recovery() {
        let w = Duration::from_us(10);
        let mut a = WindowSeries::new(w);
        // Healthy start, a blackout with failures, then recovery.
        a.record(Time::from_us(5), 64);
        a.record(Time::from_us(12), 64);
        a.record_failure(Time::from_us(25));
        a.record_failure(Time::from_us(33));
        a.record(Time::from_us(47), 64);
        assert_eq!(a.windows(), 5);
        assert_eq!(a.ops_in(0), 1);
        assert_eq!(a.failed_in(2), 1);
        assert_eq!(a.degraded_windows(), 2);
        assert_eq!(a.availability(), 0.6);
        // Failures count toward neither completions nor bytes.
        assert_eq!(a.total_ops(), 3);
        assert_eq!(a.total_bytes(), 192);
        // Incident at 20µs: windows [20,30) and [30,40) deliver nothing;
        // the first delivering window is [40,50), which ends at 50µs.
        assert_eq!(
            a.recovery_after(Time::from_us(20)),
            Some(Duration::from_us(30))
        );
        assert_eq!(a.recovery_after(Time::from_us(60)), None);

        let mut b = WindowSeries::new(w);
        b.record_failure(Time::from_us(71));
        a.merge(&b);
        assert_eq!(a.windows(), 8);
        assert_eq!(a.failed_in(7), 1);
        assert_eq!(a.degraded_windows(), 3);
    }
}
