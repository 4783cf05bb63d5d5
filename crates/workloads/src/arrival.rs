//! Open-loop arrival processes for at-scale load generation.
//!
//! Closed-loop clients (issue → wait → think → issue) throttle themselves
//! exactly when the system saturates, hiding overload collapse. The
//! at-scale web-farm scenario therefore drives *open-loop* arrivals: each
//! simulated client emits requests on its own clock regardless of how the
//! farm is doing, so offered load past saturation translates into queueing,
//! shedding, and tail growth instead of silent back-pressure.
//!
//! Two interarrival processes are provided:
//!
//! * [`ArrivalProcess::poisson`] — exponential interarrivals (a Poisson
//!   process). The superposition of many independent per-client Poisson
//!   streams is itself Poisson at the summed rate, which
//!   [`MergedArrivals`] relies on and the proptests verify.
//! * [`ArrivalProcess::bursty`] — a two-state Markov-modulated Poisson
//!   process (MMPP-2): the client alternates between a *calm* and a
//!   *burst* phase with exponentially distributed dwell times, emitting at
//!   a low rate in calm phases and `burst_intensity`× that in bursts. The
//!   phase rates are normalised so the long-run mean rate equals the
//!   requested one, but interarrival variance exceeds Poisson's
//!   (coefficient of variation > 1) — the squared-CV is what drives tail
//!   latency at equal utilisation.
//!
//! Contract (DESIGN.md §17): generators are seeded
//! and byte-deterministic — the same `(seed, rate, kind)` yields the same
//! arrival stream forever; `next_ns` never allocates and returns
//! non-decreasing absolute virtual-time nanoseconds; all state lives in a
//! few machine words so a 10^6-client population stays cheap. The internal
//! RNG is a dedicated splitmix64 stream per process (not `StdRng`, whose
//! per-instance state would cost ~250 MB across a million clients).

/// Compact deterministic RNG: one splitmix64 stream per generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SplitMix(u64);

impl SplitMix {
    pub(crate) fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential with the given mean (rejects the u = 0 endpoint so
    /// `ln` never sees zero).
    #[inline]
    fn next_exp(&mut self, mean: f64) -> f64 {
        let u = self.next_f64();
        -(1.0 - u).ln() * mean
    }
}

/// Shape of the bursty (MMPP-2) process. All knobs are normalised so the
/// long-run mean rate still equals the rate handed to
/// [`ArrivalProcess::bursty`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstyCfg {
    /// Burst-phase rate as a multiple of the calm-phase rate (> 1).
    pub burst_intensity: f64,
    /// Mean dwell time in the calm phase, ns.
    pub calm_mean_ns: u64,
    /// Mean dwell time in the burst phase, ns.
    pub burst_mean_ns: u64,
}

impl Default for BurstyCfg {
    fn default() -> Self {
        BurstyCfg {
            burst_intensity: 9.0,
            calm_mean_ns: 160_000_000,
            burst_mean_ns: 40_000_000,
        }
    }
}

/// Which interarrival process a generator runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Exponential interarrivals at the configured rate.
    Poisson,
    /// Two-state MMPP with the given burst shape.
    Bursty(BurstyCfg),
}

/// One client's seeded open-loop arrival stream.
///
/// `next_ns` returns the absolute virtual time of the next arrival,
/// monotone non-decreasing, without allocating. State is ~48 bytes.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    rng: SplitMix,
    /// Current virtual time (last arrival), ns.
    now_ns: f64,
    /// Rate of the *current phase*, arrivals per ns.
    phase_rate: f64,
    /// Calm-phase rate, arrivals per ns (equals the mean rate for Poisson).
    calm_rate: f64,
    /// Burst-phase rate, arrivals per ns (0 marks a pure Poisson process).
    burst_rate: f64,
    /// End of the current phase, ns (`f64::INFINITY` for Poisson).
    phase_end_ns: f64,
    /// Mean dwell times (calm, burst), ns.
    dwell_ns: (f64, f64),
    /// Whether the process is currently in a burst phase.
    in_burst: bool,
}

impl ArrivalProcess {
    /// A Poisson process emitting `rate_rps` arrivals per (virtual) second.
    pub fn poisson(seed: u64, rate_rps: f64) -> ArrivalProcess {
        assert!(rate_rps > 0.0 && rate_rps.is_finite(), "invalid rate");
        let rate_per_ns = rate_rps / 1e9;
        ArrivalProcess {
            rng: SplitMix::new(seed),
            now_ns: 0.0,
            phase_rate: rate_per_ns,
            calm_rate: rate_per_ns,
            burst_rate: 0.0,
            phase_end_ns: f64::INFINITY,
            dwell_ns: (0.0, 0.0),
            in_burst: false,
        }
    }

    /// An MMPP-2 process with long-run mean rate `rate_rps`.
    ///
    /// With calm/burst dwell means `Tc`/`Tb` and burst intensity `k`, the
    /// calm rate solves `(rc·Tc + k·rc·Tb) / (Tc + Tb) = rate`, so the
    /// time-averaged rate is exactly the requested one while bursts run
    /// `k`× hotter than calms.
    pub fn bursty(seed: u64, rate_rps: f64, cfg: BurstyCfg) -> ArrivalProcess {
        assert!(rate_rps > 0.0 && rate_rps.is_finite(), "invalid rate");
        assert!(cfg.burst_intensity > 1.0, "burst must run hotter than calm");
        assert!(cfg.calm_mean_ns > 0 && cfg.burst_mean_ns > 0);
        let rate_per_ns = rate_rps / 1e9;
        let (tc, tb) = (cfg.calm_mean_ns as f64, cfg.burst_mean_ns as f64);
        let calm_rate = rate_per_ns * (tc + tb) / (tc + cfg.burst_intensity * tb);
        let mut p = ArrivalProcess {
            rng: SplitMix::new(seed),
            now_ns: 0.0,
            phase_rate: calm_rate,
            calm_rate,
            burst_rate: calm_rate * cfg.burst_intensity,
            phase_end_ns: 0.0,
            dwell_ns: (tc, tb),
            in_burst: false,
        };
        p.phase_end_ns = p.rng.next_exp(tc);
        p
    }

    /// Absolute virtual time of the next arrival, ns. Non-decreasing.
    ///
    /// MMPP phase changes exploit memorylessness: an exponential candidate
    /// drawn at the old rate that crosses the phase boundary is discarded
    /// and redrawn from the boundary at the new rate, which is exact (not
    /// an approximation) for exponential interarrivals.
    #[inline]
    pub fn next_ns(&mut self) -> u64 {
        loop {
            let candidate = self.now_ns + self.rng.next_exp(1.0 / self.phase_rate);
            if candidate <= self.phase_end_ns {
                self.now_ns = candidate;
                return candidate as u64;
            }
            // Cross into the next phase and redraw from its start.
            self.now_ns = self.phase_end_ns;
            self.in_burst = !self.in_burst;
            let (dwell, rate) = if self.in_burst {
                (self.dwell_ns.1, self.burst_rate)
            } else {
                (self.dwell_ns.0, self.calm_rate)
            };
            self.phase_rate = rate;
            self.phase_end_ns = self.now_ns + self.rng.next_exp(dwell);
        }
    }
}

/// Deterministic k-way merge of per-client arrival streams.
///
/// Holds one pending arrival per stream in a binary min-heap keyed on
/// `(time, stream index)` — the index tie-break keeps simultaneous
/// arrivals in a fixed order. After construction, `next` is
/// allocation-free: pop the minimum, refill from that stream, sift.
pub struct MergedArrivals {
    /// Min-heap of (next arrival time, stream index).
    heap: Vec<(u64, u32)>,
    streams: Vec<ArrivalProcess>,
}

impl MergedArrivals {
    /// Merge the given streams (one heap prime per stream; the only
    /// allocations this type ever performs happen here).
    pub fn new(mut streams: Vec<ArrivalProcess>) -> MergedArrivals {
        let mut heap: Vec<(u64, u32)> = streams
            .iter_mut()
            .enumerate()
            .map(|(i, s)| (s.next_ns(), i as u32))
            .collect();
        // Floyd heap construction: sift down from the last parent.
        if heap.len() > 1 {
            for i in (0..heap.len() / 2).rev() {
                sift_down(&mut heap, i);
            }
        }
        MergedArrivals { heap, streams }
    }

    /// Number of merged streams.
    pub fn streams(&self) -> usize {
        self.streams.len()
    }

    /// Pop the next arrival: `(time_ns, stream index)`. Times are globally
    /// non-decreasing. Panics if constructed with zero streams.
    ///
    /// Not `Iterator::next`: the merged stream is infinite, so an
    /// `Option` wrapper would only add an `unwrap` at every call site.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> (u64, u32) {
        let (t, idx) = self.heap[0];
        let refill = self.streams[idx as usize].next_ns();
        self.heap[0] = (refill, idx);
        sift_down(&mut self.heap, 0);
        (t, idx)
    }
}

#[inline]
fn sift_down(heap: &mut [(u64, u32)], mut i: usize) {
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut smallest = i;
        if l < heap.len() && heap[l] < heap[smallest] {
            smallest = l;
        }
        if r < heap.len() && heap[r] < heap[smallest] {
            smallest = r;
        }
        if smallest == i {
            return;
        }
        heap.swap(i, smallest);
        i = smallest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interarrivals(mut p: ArrivalProcess, n: usize) -> Vec<u64> {
        let mut prev = 0u64;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let t = p.next_ns();
            assert!(t >= prev, "arrival time went backwards");
            out.push(t - prev);
            prev = t;
        }
        out
    }

    fn mean_cv(gaps: &[u64]) -> (f64, f64) {
        let n = gaps.len() as f64;
        let mean = gaps.iter().map(|&g| g as f64).sum::<f64>() / n;
        let var = gaps
            .iter()
            .map(|&g| {
                let d = g as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        (mean, var.sqrt() / mean)
    }

    #[test]
    fn poisson_mean_matches_rate_and_cv_is_one() {
        // 1000 rps → mean gap 1 ms.
        let gaps = interarrivals(ArrivalProcess::poisson(7, 1000.0), 20_000);
        let (mean, cv) = mean_cv(&gaps);
        assert!((mean - 1e6).abs() < 0.03 * 1e6, "mean {mean}");
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn bursty_preserves_mean_rate_but_is_overdispersed() {
        let gaps = interarrivals(
            ArrivalProcess::bursty(11, 1000.0, BurstyCfg::default()),
            60_000,
        );
        let (mean, cv) = mean_cv(&gaps);
        assert!((mean - 1e6).abs() < 0.06 * 1e6, "mean {mean}");
        assert!(cv > 1.3, "bursty stream should be overdispersed, cv {cv}");
    }

    #[test]
    fn streams_are_byte_identical_per_seed() {
        let mks: [fn(u64) -> ArrivalProcess; 2] = [
            |s| ArrivalProcess::poisson(s, 250.0),
            |s| ArrivalProcess::bursty(s, 250.0, BurstyCfg::default()),
        ];
        for mk in mks {
            let (mut a, mut b) = (mk(42), mk(42));
            for _ in 0..5_000 {
                assert_eq!(a.next_ns(), b.next_ns());
            }
            let (mut c, mut d) = (mk(42), mk(43));
            let diverged = (0..5_000).any(|_| c.next_ns() != d.next_ns());
            assert!(diverged, "different seeds produced identical streams");
        }
    }

    #[test]
    fn merge_is_ordered_and_preserves_global_rate() {
        let streams: Vec<ArrivalProcess> = (0..64)
            .map(|i| ArrivalProcess::poisson(1000 + i, 50.0))
            .collect();
        let mut m = MergedArrivals::new(streams);
        assert_eq!(m.streams(), 64);
        let mut prev = 0u64;
        let mut count = 0u64;
        let mut last = 0u64;
        let mut seen = [false; 64];
        loop {
            let (t, idx) = m.next();
            if t >= 10_000_000_000 {
                break;
            }
            assert!(t >= prev, "merge emitted out of order");
            prev = t;
            last = t;
            seen[idx as usize] = true;
            count += 1;
        }
        // 64 × 50 rps over 10 s ≈ 32_000 arrivals.
        let rate = count as f64 / (last as f64 / 1e9);
        assert!((rate - 3200.0).abs() < 0.05 * 3200.0, "rate {rate}");
        assert!(seen.iter().all(|&s| s), "a stream never surfaced");
    }

    #[test]
    fn merged_stream_equals_manual_merge() {
        let mk = || -> Vec<ArrivalProcess> {
            (0..8)
                .map(|i| ArrivalProcess::poisson(77 + i, 100.0))
                .collect()
        };
        let mut merged = MergedArrivals::new(mk());
        let mut manual: Vec<Vec<u64>> = mk()
            .into_iter()
            .map(|mut p| (0..200).map(|_| p.next_ns()).collect())
            .collect();
        for _ in 0..1_000 {
            let (t, idx) = merged.next();
            let lane = &mut manual[idx as usize];
            assert_eq!(t, lane.remove(0));
        }
    }
}
