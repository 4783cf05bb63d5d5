//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] is generated up front from a seed: every crash window,
//! latency-inflation window, and CPU-stall window is fixed before the
//! simulation starts, and per-message drops are decided by hashing a send
//! counter. Because the executor itself is deterministic, two runs with the
//! same (workload seed, fault seed) pair observe byte-identical fault
//! schedules — which is what lets the soak tests assert bit-identical
//! outcomes under chaos.
//!
//! The crash model is NIC fail-stop with state-preserving restart: while a
//! node is inside a crash window, verbs targeting it fail with
//! [`FabricError::Unreachable`], verbs issued from it fail the same way, and
//! two-sided messages to or from it vanish. Registered memory and daemon
//! tasks survive the window (the "restart" rejoins with state intact), so
//! protocols face the hard part — timeouts, retries, and duplicate
//! suppression — without the simulator having to tear tasks down.
//!
//! A plan is the schedule plus the drop decision; it counts nothing. What
//! a run actually exercised lives in the cluster's `fault.*` registry
//! counters, which [`crate::Cluster::fault_stats`] reads as [`FaultStats`].

use std::cell::Cell;

use dc_sim::rng::splitmix64;
use dc_sim::time::ms;
use dc_sim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::NodeId;

/// Why a fabric operation failed under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// The named node was inside a crash window when the operation reached
    /// its NIC (as issuer or target).
    Unreachable(NodeId),
    /// The message was dropped in flight (never delivered).
    Dropped,
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Unreachable(n) => write!(f, "node {} unreachable (crashed)", n.0),
            FabricError::Dropped => write!(f, "message dropped in flight"),
        }
    }
}

// The one bounded retransmission schedule under every reliable send and
// retrying verb: 24 attempts, 50us doubling to a 20ms cap. It rides out the
// crash windows (tens of ms) with margin, yet gives up within ~0.5s of
// simulated time instead of spinning forever.

/// Total attempts of a reliable operation, the first try included.
pub const MAX_ATTEMPTS: u32 = 24;
/// Backoff before the second attempt.
const BACKOFF_NS: SimTime = 50_000;
/// Ceiling of the exponential backoff.
const BACKOFF_CAP_NS: SimTime = 20_000_000;

const _: () = assert!(MAX_ATTEMPTS >= 1, "need at least one attempt");

/// The backoff to sleep after failed attempt number `attempt` (0-based).
pub fn backoff_after(attempt: u32) -> SimTime {
    let shifted = BACKOFF_NS.saturating_shl(attempt.min(40));
    shifted.min(BACKOFF_CAP_NS)
}

trait SaturatingShl {
    fn saturating_shl(self, by: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, by: u32) -> u64 {
        if by >= self.leading_zeros() {
            u64::MAX
        } else {
            self << by
        }
    }
}

/// Crash-window duration bounds.
const CRASH_MIN_NS: SimTime = ms(5);
/// See [`CRASH_MIN_NS`].
const CRASH_MAX_NS: SimTime = ms(40);
/// Stall duration bounds (CPU time hogged per window).
const STALL_MIN_NS: SimTime = ms(5);
/// See [`STALL_MIN_NS`].
const STALL_MAX_NS: SimTime = ms(20);
/// Latency multiplication factor bounds.
const LATENCY_FACTOR_MIN: f64 = 1.5;
/// See [`LATENCY_FACTOR_MIN`].
const LATENCY_FACTOR_MAX: f64 = 4.0;

// The factor is drawn from the half-open range `MIN..MAX`, so it must not
// be empty.
const _: () = assert!(
    LATENCY_FACTOR_MIN >= 1.0 && LATENCY_FACTOR_MAX > LATENCY_FACTOR_MIN,
    "latency factors must be >= 1 and ordered"
);

/// Knobs for [`FaultPlan::generate`]. All windows are scheduled within
/// `[0, horizon_ns)` of virtual time. Crash windows last 5–40 ms, stalls
/// 5–20 ms, and latency windows inflate by 1.5–4×, whatever the config.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Virtual-time horizon within which fault windows are placed.
    pub horizon_ns: SimTime,
    /// Upper bound on crash windows drawn per (non-immune) node.
    pub max_crashes_per_node: u32,
    /// Per-message drop probability on two-sided sends, in `[0, 1]`.
    pub drop_prob: f64,
    /// Number of global latency-inflation windows.
    pub latency_windows: u32,
    /// Latency-window duration bounds.
    pub latency_min_ns: SimTime,
    /// See `latency_min_ns`.
    pub latency_max_ns: SimTime,
    /// Upper bound on CPU-stall windows drawn per (non-immune) node.
    pub max_stalls_per_node: u32,
    /// Nodes exempt from crashes and stalls (e.g. a backend origin whose
    /// loss would make every outcome undefined). Drops and latency still
    /// apply to their traffic.
    pub immune_nodes: Vec<NodeId>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            horizon_ns: ms(1_000),
            max_crashes_per_node: 1,
            drop_prob: 0.02,
            latency_windows: 3,
            latency_min_ns: ms(10),
            latency_max_ns: ms(50),
            max_stalls_per_node: 2,
            immune_nodes: Vec::new(),
        }
    }
}

/// A node-down interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed node.
    pub node: NodeId,
    /// Window start (inclusive), virtual ns.
    pub start: SimTime,
    /// Window end (exclusive), virtual ns.
    pub end: SimTime,
}

/// A global latency-inflation interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyWindow {
    /// Window start (inclusive), virtual ns.
    pub start: SimTime,
    /// Window end (exclusive), virtual ns.
    pub end: SimTime,
    /// Multiplication factor in thousandths (1500 = 1.5×). Integral so that
    /// inflated durations stay exact and reproducible.
    pub factor_milli: u64,
}

/// A CPU-hog interval: `dur` ns of work injected on `node` at `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallWindow {
    /// The stalled node.
    pub node: NodeId,
    /// When the hog job arrives, virtual ns.
    pub start: SimTime,
    /// CPU work the hog demands, ns.
    pub dur: SimTime,
}

/// A reading of the `fault.*` counters: the faults a run actually
/// exercised, for asserting that a soak run really injected something.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped in flight.
    pub dropped_msgs: u64,
    /// Verb/send attempts that failed on a crashed node.
    pub unreachable_ops: u64,
    /// Retries performed by reliable wrappers.
    pub retries: u64,
}

/// A fully materialized, seeded fault schedule. Install on a cluster with
/// [`crate::Cluster::install_faults`]; the cluster consults it on every verb
/// and send, and counts what it exercised under `fault.*`.
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<CrashWindow>,
    latency: Vec<LatencyWindow>,
    stalls: Vec<StallWindow>,
    /// Drop iff `splitmix64(salt ^ counter) < drop_threshold`.
    drop_threshold: u64,
    drop_salt: u64,
    msg_counter: Cell<u64>,
}

impl FaultPlan {
    /// Materialize the schedule for a `nodes`-node cluster from `seed`.
    /// Identical `(seed, cfg, nodes)` triples yield identical plans.
    pub fn generate(seed: u64, cfg: &FaultConfig, nodes: usize) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(splitmix64(seed));
        let mut crashes = Vec::new();
        let mut stalls = Vec::new();
        for n in 0..nodes {
            let node = NodeId(n as u32);
            let immune = cfg.immune_nodes.contains(&node);
            let n_crashes = rng.gen_range(0..=cfg.max_crashes_per_node);
            for _ in 0..n_crashes {
                let start = rng.gen_range(0..cfg.horizon_ns.max(1));
                let dur = rng.gen_range(CRASH_MIN_NS..=CRASH_MAX_NS);
                if !immune {
                    crashes.push(CrashWindow {
                        node,
                        start,
                        end: start.saturating_add(dur),
                    });
                }
            }
            let n_stalls = rng.gen_range(0..=cfg.max_stalls_per_node);
            for _ in 0..n_stalls {
                let start = rng.gen_range(0..cfg.horizon_ns.max(1));
                let dur = rng.gen_range(STALL_MIN_NS..=STALL_MAX_NS);
                if !immune {
                    stalls.push(StallWindow { node, start, dur });
                }
            }
        }
        let mut latency = Vec::new();
        for _ in 0..cfg.latency_windows {
            let start = rng.gen_range(0..cfg.horizon_ns.max(1));
            let dur = rng.gen_range(cfg.latency_min_ns..=cfg.latency_max_ns);
            let factor = rng.gen_range(LATENCY_FACTOR_MIN..LATENCY_FACTOR_MAX);
            latency.push(LatencyWindow {
                start,
                end: start.saturating_add(dur),
                factor_milli: (factor * 1000.0) as u64,
            });
        }
        FaultPlan::from_parts(seed, crashes, latency, stalls, cfg.drop_prob)
    }

    /// Hand-build a plan from explicit windows — for targeted tests and
    /// experiments that need a specific scenario rather than a seeded one.
    /// `seed` drives only the message-drop stream.
    pub fn from_parts(
        seed: u64,
        crashes: Vec<CrashWindow>,
        latency: Vec<LatencyWindow>,
        stalls: Vec<StallWindow>,
        drop_prob: f64,
    ) -> FaultPlan {
        assert!((0.0..=1.0).contains(&drop_prob), "drop_prob out of range");
        // drop_prob maps to a threshold over the full u64 hash range.
        let drop_threshold = if drop_prob >= 1.0 {
            u64::MAX
        } else {
            (drop_prob * (u64::MAX as f64)) as u64
        };
        FaultPlan {
            seed,
            crashes,
            latency,
            stalls,
            drop_threshold,
            drop_salt: splitmix64(seed ^ 0xD09F_5EED_0000_0001),
            msg_counter: Cell::new(0),
        }
    }

    /// The seed this plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether `node` is inside a crash window at virtual time `now`.
    pub fn is_down(&self, node: NodeId, now: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|w| w.node == node && w.start <= now && now < w.end)
    }

    /// The latency multiplier (in thousandths; 1000 = none) in force at
    /// `now`. Overlapping windows take the maximum factor.
    pub fn latency_factor_milli(&self, now: SimTime) -> u64 {
        self.latency
            .iter()
            .filter(|w| w.start <= now && now < w.end)
            .map(|w| w.factor_milli)
            .max()
            .unwrap_or(1000)
            .max(1000)
    }

    /// Decide whether the next message is dropped. Each call consumes one
    /// counter value, so the decision sequence is a pure function of the
    /// seed and the order of sends.
    pub fn should_drop(&self) -> bool {
        let c = self.msg_counter.get();
        self.msg_counter.set(c + 1);
        splitmix64(self.drop_salt ^ c) < self.drop_threshold
    }

    /// Pure per-stream drop draw: decides draw number `n` of logical
    /// stream `stream` without touching the shared message counter.
    ///
    /// [`Self::should_drop`] consumes one *global* counter, so the drop
    /// sequence depends on the global interleaving of callers — fine on a
    /// single thread, but a sharded run would make the sequence a function
    /// of shard count. Callers that partition work across shards keep one
    /// monotonically increasing draw counter per stream (e.g. per proxy)
    /// and call this instead: the outcome is a pure function of
    /// `(seed, stream, n)`, so it is identical at every shard count. The
    /// drop *probability* per draw matches `should_drop` exactly.
    pub fn stream_should_drop(&self, stream: u64, n: u64) -> bool {
        let c = splitmix64(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(n));
        splitmix64(self.drop_salt ^ c) < self.drop_threshold
    }

    /// The scheduled crash windows.
    pub fn crash_windows(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// The scheduled latency windows.
    pub fn latency_windows(&self) -> &[LatencyWindow] {
        &self.latency
    }

    /// The scheduled CPU-stall windows.
    pub fn stall_windows(&self) -> &[StallWindow] {
        &self.stalls
    }
}

/// Scale `ns` by a milli-factor (1000 = identity, exact).
#[inline]
pub fn inflate(ns: SimTime, factor_milli: u64) -> SimTime {
    if factor_milli == 1000 {
        ns
    } else {
        ns.saturating_mul(factor_milli) / 1000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic_cfg() -> FaultConfig {
        FaultConfig {
            max_crashes_per_node: 2,
            latency_windows: 4,
            max_stalls_per_node: 2,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let cfg = chaotic_cfg();
        let a = FaultPlan::generate(7, &cfg, 6);
        let b = FaultPlan::generate(7, &cfg, 6);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.stalls, b.stalls);
        assert_eq!(a.drop_threshold, b.drop_threshold);
        let da: Vec<bool> = (0..1000).map(|_| a.should_drop()).collect();
        let db: Vec<bool> = (0..1000).map(|_| b.should_drop()).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = chaotic_cfg();
        let a = FaultPlan::generate(1, &cfg, 6);
        let b = FaultPlan::generate(2, &cfg, 6);
        // Schedules are random; at minimum the drop streams must diverge.
        let da: Vec<bool> = (0..4096).map(|_| a.should_drop()).collect();
        let db: Vec<bool> = (0..4096).map(|_| b.should_drop()).collect();
        assert_ne!((a.crashes.clone(), da), (b.crashes.clone(), db));
    }

    #[test]
    fn immune_nodes_never_crash_or_stall() {
        let cfg = FaultConfig {
            max_crashes_per_node: 3,
            max_stalls_per_node: 3,
            immune_nodes: vec![NodeId(0), NodeId(3)],
            ..FaultConfig::default()
        };
        let p = FaultPlan::generate(42, &cfg, 5);
        for w in p.crash_windows() {
            assert!(w.node != NodeId(0) && w.node != NodeId(3));
        }
        for w in p.stall_windows() {
            assert!(w.node != NodeId(0) && w.node != NodeId(3));
        }
    }

    #[test]
    fn is_down_tracks_windows() {
        let cfg = FaultConfig {
            max_crashes_per_node: 1,
            ..FaultConfig::default()
        };
        // Find a seed that actually crashes node 1.
        let plan = (0..64)
            .map(|s| FaultPlan::generate(s, &cfg, 4))
            .find(|p| p.crash_windows().iter().any(|w| w.node == NodeId(1)))
            .expect("some seed crashes node 1");
        let w = *plan
            .crash_windows()
            .iter()
            .find(|w| w.node == NodeId(1))
            .unwrap();
        assert!(!plan.is_down(NodeId(1), w.start.saturating_sub(1)));
        assert!(plan.is_down(NodeId(1), w.start));
        assert!(plan.is_down(NodeId(1), w.end - 1));
        assert!(!plan.is_down(NodeId(1), w.end));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let cfg = FaultConfig {
            drop_prob: 0.1,
            ..FaultConfig::default()
        };
        let p = FaultPlan::generate(9, &cfg, 2);
        let n = 100_000;
        let drops = (0..n).filter(|_| p.should_drop()).count();
        let rate = drops as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "rate={rate}");
    }

    #[test]
    fn zero_drop_prob_never_drops() {
        let cfg = FaultConfig {
            drop_prob: 0.0,
            ..FaultConfig::default()
        };
        let p = FaultPlan::generate(3, &cfg, 2);
        assert!((0..10_000).all(|_| !p.should_drop()));
    }

    #[test]
    fn latency_factor_defaults_to_identity() {
        let cfg = FaultConfig {
            latency_windows: 0,
            ..FaultConfig::default()
        };
        let p = FaultPlan::generate(5, &cfg, 2);
        assert_eq!(p.latency_factor_milli(0), 1000);
        assert_eq!(inflate(12_345, 1000), 12_345);
        assert_eq!(inflate(1_000, 2500), 2_500);
    }

    #[test]
    fn retry_policy_backoff_is_capped() {
        assert_eq!(backoff_after(0), BACKOFF_NS);
        assert_eq!(backoff_after(1), BACKOFF_NS * 2);
        assert_eq!(backoff_after(63), BACKOFF_CAP_NS);
        let total: u64 = (0..MAX_ATTEMPTS).map(backoff_after).sum();
        // The whole schedule must outlast the longest crash window.
        assert!(total > CRASH_MAX_NS * 2);
    }
}
