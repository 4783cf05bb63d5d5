//! Latency accounting shared by the experiment engines and the metrics
//! registry. It lives here, not in `dc-core`, so every layer (fabric upward)
//! can register histograms without a dependency cycle.

use std::cell::RefCell;

use dc_sim::SimTime;

/// A latency histogram with exact aggregate moments and nearest-rank
/// quantiles over the raw samples.
///
/// Empty-histogram contract: every accessor (`min_ns`, `max_ns`, `mean_ns`,
/// `quantile_ns`, and the `summary()` struct) returns 0 when no sample has
/// been recorded — callers never see the `u64::MAX` sentinel used
/// internally for the running minimum.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
    samples: Vec<u64>,
    /// Sorted copy of `samples`, built lazily on the first quantile query
    /// and invalidated by `record` — experiment reports ask for several
    /// quantiles back to back, and re-sorting per query made that O(k·n log n).
    sorted: RefCell<Option<Vec<u64>>>,
}

/// One-struct view of a histogram, used by the exporters and bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Minimum sample (0 when empty).
    pub min_ns: u64,
    /// Maximum sample (0 when empty).
    pub max_ns: u64,
    /// Mean (0 when empty).
    pub mean_ns: u64,
    /// Median by nearest rank (0 when empty).
    pub p50_ns: u64,
    /// 99th percentile by nearest rank (0 when empty).
    pub p99_ns: u64,
    /// 99.9th percentile by nearest rank (0 when empty).
    pub p999_ns: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            samples: Vec::new(),
            sorted: RefCell::new(None),
        }
    }

    /// Record one latency.
    pub fn record(&mut self, ns: SimTime) {
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.samples.push(ns);
        *self.sorted.borrow_mut() = None;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_ns / self.count as u128) as u64
        }
    }

    /// Minimum sample (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Maximum sample (0 when empty — guarded like `min_ns`, rather than
    /// leaking whatever the raw field holds).
    pub fn max_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max_ns
        }
    }

    /// The q-quantile (0.0–1.0) by nearest-rank on the sorted samples.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        if self.samples.is_empty() {
            return 0;
        }
        let mut cache = self.sorted.borrow_mut();
        let sorted = cache.get_or_insert_with(|| {
            let mut v = self.samples.clone();
            v.sort_unstable();
            v
        });
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Median (nearest rank).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.5)
    }

    /// 99th percentile (nearest rank).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// 99.9th percentile (nearest rank).
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }

    /// Snapshot every headline statistic at once.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            min_ns: self.min_ns(),
            max_ns: self.max_ns(),
            mean_ns: self.mean_ns(),
            p50_ns: self.p50_ns(),
            p99_ns: self.p99_ns(),
            p999_ns: self.p999_ns(),
        }
    }
}

/// Sub-bucket precision of [`StreamHist`]: 2^5 = 32 sub-buckets per octave,
/// bounding the relative bucket width at 1/32 ≈ 3.1%.
const STREAM_PRECISION: u32 = 5;
/// Sub-buckets per octave.
const STREAM_SUBS: u64 = 1 << STREAM_PRECISION;
/// Total bucket count covering the full `u64` range: one exact octave for
/// values `< 32` plus 59 log octaves of 32 sub-buckets each.
const STREAM_BUCKETS: usize = (64 - STREAM_PRECISION as usize + 1) * STREAM_SUBS as usize;

/// A streaming log-bucketed (HDR-style) latency histogram.
///
/// Constant memory regardless of sample count — `record` is O(1) with no
/// allocation, so it survives the 10^8-sample at-scale runs that would OOM
/// the exact [`LatencyHist`]. Quantiles are answered from the bucket
/// cumulative counts and are accurate to one bucket width (≤ 1/32 relative
/// error above 32 ns, exact below); `count`/`sum`/`min`/`max` stay exact.
/// Shard-local histograms merge losslessly with [`StreamHist::merge`],
/// which is associative and commutative bucket-for-bucket.
///
/// The empty-histogram contract matches [`LatencyHist`]: every accessor
/// returns 0 until the first sample.
#[derive(Debug, Clone)]
pub struct StreamHist {
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
    buckets: Box<[u64; STREAM_BUCKETS]>,
}

impl Default for StreamHist {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamHist {
    /// An empty histogram.
    pub fn new() -> Self {
        StreamHist {
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: Box::new([0; STREAM_BUCKETS]),
        }
    }

    /// Bucket index for a value. Values below 32 get exact unit buckets;
    /// above, the top `STREAM_PRECISION + 1` significant bits select the
    /// bucket, so consecutive octaves tile the range with no gaps.
    #[inline]
    fn index(ns: u64) -> usize {
        if ns < STREAM_SUBS {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let octave = (msb - STREAM_PRECISION + 1) as u64;
        let offset = (ns >> (msb - STREAM_PRECISION)) - STREAM_SUBS;
        (octave * STREAM_SUBS + offset) as usize
    }

    /// Inclusive `[lo, hi]` value range of bucket `idx`.
    fn bucket_bounds(idx: usize) -> (u64, u64) {
        let octave = idx as u64 / STREAM_SUBS;
        let offset = idx as u64 % STREAM_SUBS;
        if octave == 0 {
            return (offset, offset);
        }
        let lo = (STREAM_SUBS + offset) << (octave - 1);
        (lo, lo + ((1u64 << (octave - 1)) - 1))
    }

    /// Width of the bucket containing `ns` (the quantile error bound at
    /// that magnitude).
    pub fn bucket_width(ns: u64) -> u64 {
        let (lo, hi) = Self::bucket_bounds(Self::index(ns));
        hi - lo + 1
    }

    /// Record one latency.
    #[inline]
    pub fn record(&mut self, ns: SimTime) {
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[Self::index(ns)] += 1;
    }

    /// Fold another histogram into this one. Lossless: the merged buckets
    /// equal what a single histogram fed both sample streams would hold,
    /// in any merge order (associative and commutative).
    pub fn merge(&mut self, other: &StreamHist) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency in nanoseconds (exact; 0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_ns / self.count as u128) as u64
        }
    }

    /// Minimum sample (exact; 0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Maximum sample (exact; 0 when empty).
    pub fn max_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max_ns
        }
    }

    /// The q-quantile (0.0–1.0) by nearest rank over the bucket counts.
    ///
    /// The rank-selected sample lies inside the returned bucket, so the
    /// answer is within one bucket width of the exact nearest-rank value
    /// (and clamped into `[min, max]`). Rank 1 and rank `count` return the
    /// exact min/max.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return self.min_ns;
        }
        if rank == self.count {
            return self.max_ns;
        }
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (_, hi) = Self::bucket_bounds(idx);
                return hi.clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median (nearest rank, one-bucket accuracy).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.5)
    }

    /// 99th percentile (nearest rank, one-bucket accuracy).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// 99.9th percentile (nearest rank, one-bucket accuracy).
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }

    /// Snapshot every headline statistic at once.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            min_ns: self.min_ns(),
            max_ns: self.max_ns(),
            mean_ns: self.mean_ns(),
            p50_ns: self.p50_ns(),
            p99_ns: self.p99_ns(),
            p999_ns: self.p999_ns(),
        }
    }

    /// Non-empty `(bucket_lo_ns, count)` pairs in value order — the raw
    /// shape for sparkline rendering and merge tests.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_bounds(i).0, n))
            .collect()
    }
}

/// Throughput over a span: `completed / span`.
pub fn tps(completed: u64, span_ns: SimTime) -> f64 {
    if span_ns == 0 {
        return 0.0;
    }
    completed as f64 / (span_ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_sim::time::{ms, us};

    #[test]
    fn moments_and_quantiles() {
        let mut h = LatencyHist::new();
        for v in [us(1), us(2), us(3), us(4), us(100)] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean_ns(), us(22));
        assert_eq!(h.min_ns(), us(1));
        assert_eq!(h.max_ns(), us(100));
        assert_eq!(h.quantile_ns(0.5), us(3));
        assert_eq!(h.quantile_ns(1.0), us(100));
        assert_eq!(h.quantile_ns(0.2), us(1));
    }

    #[test]
    fn repeated_quantile_queries_agree_and_track_new_samples() {
        let mut h = LatencyHist::new();
        for v in [us(5), us(1), us(9), us(3), us(7)] {
            h.record(v);
        }
        // Repeated queries hit the cached sort and must agree exactly.
        for _ in 0..3 {
            assert_eq!(h.quantile_ns(0.5), us(5));
            assert_eq!(h.quantile_ns(0.0), us(1));
            assert_eq!(h.quantile_ns(1.0), us(9));
        }
        // A new record invalidates the cache; queries see the new sample.
        h.record(us(11));
        assert_eq!(h.quantile_ns(1.0), us(11));
        assert_eq!(h.quantile_ns(0.5), us(5));
        // Cloned histograms answer independently and identically.
        let c = h.clone();
        assert_eq!(c.quantile_ns(0.5), h.quantile_ns(0.5));
        assert_eq!(c.quantile_ns(0.99), h.quantile_ns(0.99));
    }

    #[test]
    fn empty_histogram_is_safe_everywhere() {
        let h = LatencyHist::new();
        assert!(h.is_empty());
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.p99_ns(), 0);
        assert_eq!(h.p999_ns(), 0);
        assert_eq!(h.summary(), HistSummary::default());
    }

    /// A default-built histogram is `new()`: its running minimum starts at
    /// the sentinel, not at 0, so the first sample sets it.
    #[test]
    fn default_histogram_tracks_the_minimum_like_new() {
        let mut h = LatencyHist::default();
        h.record(us(7));
        assert_eq!(h.min_ns(), us(7));
    }

    #[test]
    fn percentile_accessors_match_quantiles() {
        let mut h = LatencyHist::new();
        for i in 1..=1000u64 {
            h.record(us(i));
        }
        assert_eq!(h.p50_ns(), us(500));
        assert_eq!(h.p99_ns(), us(990));
        assert_eq!(h.p999_ns(), us(999));
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min_ns, us(1));
        assert_eq!(s.max_ns, us(1000));
        assert_eq!(s.p50_ns, us(500));
        assert_eq!(s.p99_ns, us(990));
        assert_eq!(s.p999_ns, us(999));
    }

    /// Regression (PR 1 stale-cache path): a `record` issued *after* a
    /// quantile read must drop the cached sort, including when the new
    /// sample lands below the cached minimum or between cached ranks.
    #[test]
    fn record_after_quantile_read_invalidates_cached_sort() {
        let mut h = LatencyHist::new();
        for v in [us(10), us(20), us(30)] {
            h.record(v);
        }
        assert_eq!(h.quantile_ns(0.5), us(20)); // builds the cache
        h.record(us(1)); // below the cached min
        assert_eq!(h.quantile_ns(0.0), us(1));
        assert_eq!(h.quantile_ns(0.5), us(10));
        h.record(us(15)); // interior insert after another read
        assert_eq!(h.quantile_ns(0.5), us(15));
        assert_eq!(h.quantile_ns(1.0), us(30));
        // Every quantile must match a freshly-built histogram.
        let mut fresh = LatencyHist::new();
        for v in [us(10), us(20), us(30), us(1), us(15)] {
            fresh.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), fresh.quantile_ns(q), "q={q}");
        }
    }

    #[test]
    fn stream_index_and_bounds_tile_the_range() {
        // Every bucket's hi + 1 equals the next bucket's lo, and each value
        // maps into the bucket whose bounds contain it.
        for idx in 0..STREAM_BUCKETS - 1 {
            let (lo, hi) = StreamHist::bucket_bounds(idx);
            assert!(lo <= hi, "bucket {idx}");
            let (next_lo, _) = StreamHist::bucket_bounds(idx + 1);
            assert_eq!(hi.wrapping_add(1), next_lo, "gap after bucket {idx}");
        }
        for v in [0, 1, 31, 32, 33, 63, 64, 1000, us(7), ms(3), u64::MAX] {
            let idx = StreamHist::index(v);
            let (lo, hi) = StreamHist::bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} [{lo},{hi}]");
        }
        assert_eq!(
            StreamHist::index(u64::MAX),
            STREAM_BUCKETS - 1,
            "top value lands in the last bucket"
        );
    }

    #[test]
    fn stream_small_values_are_exact_and_moments_always_exact() {
        let mut h = StreamHist::new();
        for v in [3, 1, 4, 1, 5, 9, 2, 6] {
            h.record(v);
        }
        // Values < 32 get unit buckets: quantiles are exact.
        assert_eq!(h.quantile_ns(0.5), 3);
        assert_eq!(h.min_ns(), 1);
        assert_eq!(h.max_ns(), 9);
        assert_eq!(h.count(), 8);
        assert_eq!(h.mean_ns(), 31 / 8);
    }

    #[test]
    fn stream_quantiles_within_one_bucket_of_exact() {
        let mut s = StreamHist::new();
        let mut exact = LatencyHist::new();
        // A deliberately skewed mix: dense low band plus a long tail.
        for i in 0..5000u64 {
            let v = us(1) + i * 37;
            s.record(v);
            exact.record(v);
        }
        for i in 0..50u64 {
            let v = ms(1) + i * us(100);
            s.record(v);
            exact.record(v);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let e = exact.quantile_ns(q);
            let a = s.quantile_ns(q);
            let w = StreamHist::bucket_width(e);
            assert!(
                a.abs_diff(e) <= w,
                "q={q}: stream {a} vs exact {e}, bucket width {w}"
            );
        }
    }

    #[test]
    fn stream_merge_is_lossless_and_order_free() {
        let mut a = StreamHist::new();
        let mut b = StreamHist::new();
        let mut whole = StreamHist::new();
        for i in 0..1000u64 {
            let v = (i * i) % 100_000 + 1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for m in [&ab, &ba] {
            assert_eq!(m.nonzero_buckets(), whole.nonzero_buckets());
            assert_eq!(m.count(), whole.count());
            assert_eq!(m.min_ns(), whole.min_ns());
            assert_eq!(m.max_ns(), whole.max_ns());
            assert_eq!(m.mean_ns(), whole.mean_ns());
            assert_eq!(m.summary(), whole.summary());
        }
    }

    #[test]
    fn stream_empty_histogram_is_safe_everywhere() {
        let h = StreamHist::new();
        assert!(h.is_empty());
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.p99_ns(), 0);
        assert_eq!(h.p999_ns(), 0);
        assert_eq!(h.summary(), HistSummary::default());
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn tps_math() {
        assert_eq!(tps(1000, ms(500)), 2000.0);
        assert_eq!(tps(0, ms(500)), 0.0);
        assert_eq!(tps(5, 0), 0.0);
    }
}
