//! Zipf document-popularity sampler.
//!
//! Web-document popularity follows a Zipf distribution: the i-th most
//! popular of `n` documents is requested with probability proportional to
//! `1 / i^alpha`. The paper's Figure 8b sweeps `alpha` over
//! {0.9, 0.75, 0.5, 0.25}: higher alpha means more temporal locality (a few
//! hot documents), lower alpha a flatter, cache-hostile distribution.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rand::Rng;

/// A Zipf(α) sampler over ranks `0..n` via inverse-CDF binary search.
///
/// The inverse-CDF table is immutable and shared: [`Zipf::new`] consults a
/// process-wide cache keyed on `(n, α)`, so building a sampler per client
/// across a 10^6-client population costs one `O(n)` table build total (plus
/// an `Arc` clone per client) instead of `O(n)` work and memory each.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Arc<[f64]>,
    alpha: f64,
}

/// Process-wide table cache. α is keyed by its bit pattern — two α values
/// share a table iff they are the same f64, which is exactly the condition
/// for their tables being identical.
type TableCache = Mutex<HashMap<(usize, u64), Arc<[f64]>>>;

fn table_cache() -> &'static TableCache {
    static CACHE: OnceLock<TableCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn build_cdf(n: usize, alpha: f64) -> Arc<[f64]> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for i in 1..=n {
        acc += 1.0 / (i as f64).powf(alpha);
        cdf.push(acc);
    }
    let total = acc;
    for v in &mut cdf {
        *v /= total;
    }
    // Guard against floating-point shortfall at the top.
    *cdf.last_mut().unwrap() = 1.0;
    cdf.into()
}

impl Zipf {
    /// Build a sampler over `n` items with exponent `alpha ≥ 0`, sharing
    /// the inverse-CDF table with every other sampler of the same shape.
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero items");
        assert!(alpha >= 0.0 && alpha.is_finite(), "invalid alpha");
        let cdf = table_cache()
            .lock()
            .expect("zipf table cache poisoned")
            .entry((n, alpha.to_bits()))
            .or_insert_with(|| build_cdf(n, alpha))
            .clone();
        Zipf { cdf, alpha }
    }

    /// Build a sampler with a private table, bypassing the shared cache, so
    /// tests can pin cached and uncached samplers to identical behaviour.
    #[cfg(test)]
    pub fn uncached(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero items");
        assert!(alpha >= 0.0 && alpha.is_finite(), "invalid alpha");
        Zipf {
            cdf: build_cdf(n, alpha),
            alpha,
        }
    }

    /// Number of items.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// The exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Sample a rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sample_u(rng.gen())
    }

    /// Sample from an externally supplied uniform `u ∈ [0, 1)`. Lets
    /// callers with their own compact RNG (the open-loop drivers) sample
    /// without implementing `rand::Rng`.
    #[inline]
    pub fn sample_u(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Cumulative probability mass of ranks `0..=i` — the analytic hit rate
    /// of a cache holding exactly the `i + 1` hottest documents.
    pub fn cdf(&self, i: usize) -> f64 {
        self.cdf[i.min(self.cdf.len() - 1)]
    }

    /// Probability mass of rank `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        let lo = if i == 0 { 0.0 } else { self.cdf[i - 1] };
        self.cdf[i] - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn histogram(alpha: f64, n: usize, draws: usize) -> Vec<usize> {
        let z = Zipf::new(n, alpha);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut h = vec![0usize; n];
        for _ in 0..draws {
            h[z.sample(&mut rng)] += 1;
        }
        h
    }

    #[test]
    fn high_alpha_concentrates_on_head() {
        let h = histogram(0.9, 100, 20_000);
        // Rank 0 should dominate rank 50 by a large factor.
        assert!(h[0] > 10 * h[50].max(1), "h0={} h50={}", h[0], h[50]);
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let h = histogram(0.0, 10, 50_000);
        let expect = 5_000.0;
        for (i, &c) in h.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.1, "rank {i} count {c} deviates {dev:.3}");
        }
    }

    #[test]
    fn lower_alpha_flattens_distribution() {
        let hot_share = |alpha: f64| {
            let h = histogram(alpha, 1000, 20_000);
            let head: usize = h[..10].iter().sum();
            head as f64 / 20_000.0
        };
        let s09 = hot_share(0.9);
        let s05 = hot_share(0.5);
        let s025 = hot_share(0.25);
        assert!(s09 > s05 && s05 > s025, "{s09} {s05} {s025}");
    }

    #[test]
    fn pmf_sums_to_one_and_is_monotone() {
        let z = Zipf::new(50, 0.75);
        let total: f64 = (0..50).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for i in 1..50 {
            assert!(
                z.pmf(i) <= z.pmf(i - 1) + 1e-12,
                "pmf not decreasing at {i}"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let z = Zipf::new(100, 0.9);
        let mut a = rand::rngs::StdRng::seed_from_u64(7);
        let mut b = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn cached_and_uncached_samplers_are_identical() {
        // The shared-table fix must not change a single sample: pin the
        // cached sampler against a freshly built private table, across two
        // cache hits (first build and shared reuse).
        let first = Zipf::new(777, 0.85);
        let reused = Zipf::new(777, 0.85);
        let private = Zipf::uncached(777, 0.85);
        assert!(
            Arc::ptr_eq(&first.cdf, &reused.cdf),
            "same (n, alpha) must share one table"
        );
        let mut ra = rand::rngs::StdRng::seed_from_u64(9);
        let mut rb = rand::rngs::StdRng::seed_from_u64(9);
        let mut rc = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..2_000 {
            let (a, b, c) = (
                first.sample(&mut ra),
                reused.sample(&mut rb),
                private.sample(&mut rc),
            );
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
        for i in 0..777 {
            assert_eq!(first.pmf(i), private.pmf(i));
        }
    }

    #[test]
    fn sample_u_matches_rng_sampling() {
        let z = Zipf::new(64, 0.9);
        for u in [0.0, 0.1, 0.5, 0.937, 0.999999] {
            let r = z.sample_u(u);
            assert!(r < 64);
        }
        assert_eq!(z.sample_u(0.0), 0, "u=0 must map to the hottest rank");
    }

    #[test]
    fn all_ranks_reachable() {
        let z = Zipf::new(5, 0.9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..10_000 {
            seen[z.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
