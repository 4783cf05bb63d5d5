//! Ablation studies for the design choices called out in DESIGN.md.
//!
//! * Coherence-model cost decomposition: exact verb counts per DDSS op.
//! * Cooperative-cache capacity sweep: hit rate / backend pressure vs
//!   per-node cache size, BCC vs CCWR (what redundancy elimination buys).
//! * Monitoring granularity: staleness vs monitoring-induced CPU overhead
//!   across refresh periods.

use bytes::Bytes;
use dc_coopcache::CacheScheme;
use dc_core::{run_webfarm, WebFarmCfg};
use dc_ddss::{Coherence, Ddss, DdssConfig};
use dc_fabric::{Cluster, FabricModel, NodeId, VerbStats};
use dc_resmon::{Monitor, MonitorCfg, MonitorScheme};
use dc_sim::time::{ms, secs};
use dc_sim::Sim;

// ------------------------------------------------------ coherence ablation

/// Verb counts of one put+get pair under a coherence model.
#[derive(Debug, Clone, Copy)]
pub struct VerbProfile {
    /// The model.
    pub model: Coherence,
    /// Reads per put+get.
    pub reads: u64,
    /// Writes per put+get.
    pub writes: u64,
    /// Atomics (CAS + FAA) per put+get.
    pub atomics: u64,
}

/// Count the verbs a put+get pair issues under `model` (averaged over
/// `rounds` uncontended rounds, which is exact for these protocols).
pub fn verb_profile(model: Coherence, rounds: u64) -> VerbProfile {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    let ddss = Ddss::new(&cluster, DdssConfig::default(), &[NodeId(0), NodeId(1)]);
    let client = ddss.client(NodeId(0));
    let cl = cluster.clone();
    let (before, after): (VerbStats, VerbStats) = sim.run_to(async move {
        let key = client.allocate(NodeId(1), 64, model).await.unwrap();
        // Settle allocation traffic before counting.
        client.put(&key, &Bytes::from_static(&[1u8; 64])).await;
        let before = cl.stats();
        for _ in 0..rounds {
            client.put(&key, &Bytes::from_static(&[2u8; 64])).await;
            client.get(&key).await;
        }
        (before, cl.stats())
    });
    VerbProfile {
        model,
        reads: (after.reads - before.reads) / rounds,
        writes: (after.writes - before.writes) / rounds,
        atomics: (after.cas + after.faa - before.cas - before.faa) / rounds,
    }
}

/// Render the coherence ablation table.
pub fn coherence_table(profiles: &[VerbProfile]) -> dc_core::Table {
    let mut t = dc_core::Table::new(
        "Ablation — verbs per put+get pair by coherence model",
        &["model", "reads", "writes", "atomics"],
    );
    for p in profiles {
        t.row(vec![
            p.model.to_string(),
            p.reads.to_string(),
            p.writes.to_string(),
            p.atomics.to_string(),
        ]);
    }
    t
}

/// Run the coherence ablation over all Figure 3a models.
pub fn run_coherence() -> Vec<VerbProfile> {
    Coherence::FIG3A
        .iter()
        .map(|&m| verb_profile(m, 10))
        .collect()
}

// --------------------------------------------------------- capacity sweep

/// One cell of the cache capacity sweep.
#[derive(Debug, Clone, Copy)]
pub struct CapacityCell {
    /// Scheme.
    pub scheme: CacheScheme,
    /// Per-node cache bytes.
    pub per_node: usize,
    /// Hit rate.
    pub hit_rate: f64,
    /// Backend misses per 1000 requests.
    pub misses_per_k: f64,
    /// TPS.
    pub tps: f64,
    /// Mean response latency (ns).
    pub mean_latency_ns: u64,
}

/// Per-node cache sizes swept.
pub const CACHE_SIZES: [usize; 4] = [512 * 1024, 1024 * 1024, 2 * 1024 * 1024, 4 * 1024 * 1024];

/// Run the sweep for BCC and CCWR.
pub fn run_capacity() -> Vec<CapacityCell> {
    let mut cells = Vec::new();
    for &scheme in &[CacheScheme::Bcc, CacheScheme::Ccwr] {
        for &per_node in &CACHE_SIZES {
            let cfg = WebFarmCfg {
                scheme,
                proxies: 4,
                app_nodes: 2,
                num_docs: 1024,
                doc_size: 16 * 1024,
                cache_bytes_per_node: per_node,
                zipf_alpha: 0.9,
                clients_per_proxy: 6,
                requests: 1_500,
                seed: 7_411,
                ..WebFarmCfg::default()
            };
            let r = run_webfarm(&cfg);
            cells.push(CapacityCell {
                scheme,
                per_node,
                hit_rate: r.cache.hit_rate(),
                misses_per_k: 1000.0 * r.cache.backend_misses as f64 / r.cache.total() as f64,
                tps: r.tps,
                mean_latency_ns: r.mean_latency_ns,
            });
        }
    }
    cells
}

/// Render the capacity table.
pub fn capacity_table(cells: &[CapacityCell]) -> dc_core::Table {
    let mut t = dc_core::Table::new(
        "Ablation — hit rate vs per-node cache size (working set 16MB)",
        &[
            "scheme",
            "cache/node",
            "hit rate",
            "misses/1k",
            "TPS",
            "mean lat",
        ],
    );
    for c in cells {
        t.row(vec![
            c.scheme.label().to_string(),
            format!("{}k", c.per_node / 1024),
            dc_core::table::pct(c.hit_rate),
            format!("{:.0}", c.misses_per_k),
            format!("{:.0}", c.tps),
            dc_sim::time::fmt_time(c.mean_latency_ns),
        ]);
    }
    t
}

// ---------------------------------------------------- monitoring cadence

/// One cell of the monitoring granularity sweep.
#[derive(Debug, Clone, Copy)]
pub struct GranularityCell {
    /// Scheme (an async one — the period is its refresh cadence).
    pub scheme: MonitorScheme,
    /// Refresh period (ns).
    pub period_ns: u64,
    /// Mean absolute thread-count deviation under the burst schedule.
    pub mean_deviation: f64,
    /// Monitoring-induced CPU on an otherwise idle target (ns per second).
    pub overhead_ns_per_s: u64,
}

/// Periods swept.
pub const PERIODS: [u64; 4] = [1_000_000, 10_000_000, 100_000_000, 1_000_000_000];

/// Run the sweep for the two async schemes.
pub fn run_granularity() -> Vec<GranularityCell> {
    let mut cells = Vec::new();
    for &scheme in &[MonitorScheme::RdmaAsync, MonitorScheme::SocketAsync] {
        for &period in &PERIODS {
            // Accuracy under load.
            let acc = crate::fig8a::run_scheme_with_period(scheme, secs(1), ms(10), period);
            // Overhead on an idle node.
            let overhead = idle_overhead(scheme, period);
            cells.push(GranularityCell {
                scheme,
                period_ns: period,
                mean_deviation: acc.mean_deviation(),
                overhead_ns_per_s: overhead,
            });
        }
    }
    cells
}

fn idle_overhead(scheme: MonitorScheme, period_ns: u64) -> u64 {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    let _monitor = Monitor::spawn(
        &cluster,
        scheme,
        MonitorCfg { period_ns },
        NodeId(0),
        &[NodeId(1)],
    );
    sim.run_until(secs(1));
    cluster.cpu(NodeId(1)).snapshot().busy_ns
}

/// Render the granularity table.
pub fn granularity_table(cells: &[GranularityCell]) -> dc_core::Table {
    let mut t = dc_core::Table::new(
        "Ablation — monitoring cadence: staleness vs target-CPU overhead",
        &["scheme", "period", "mean |dev|", "idle CPU (us/s)"],
    );
    for c in cells {
        t.row(vec![
            c.scheme.label().to_string(),
            dc_sim::time::fmt_time(c.period_ns),
            format!("{:.2}", c.mean_deviation),
            format!("{:.1}", c.overhead_ns_per_s as f64 / 1e3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_counts_match_the_documented_protocols() {
        let null = verb_profile(Coherence::Null, 5);
        assert_eq!((null.reads, null.writes, null.atomics), (1, 1, 0));
        let strict = verb_profile(Coherence::Strict, 5);
        // put: CAS + write + write + CAS; get: CAS + read + CAS.
        assert_eq!(strict.atomics, 4);
        assert_eq!(strict.writes, 2);
        assert_eq!(strict.reads, 1);
        let version = verb_profile(Coherence::Version, 5);
        // put: write + FAA; get: read + verify-read.
        assert_eq!(version.atomics, 1);
        assert_eq!(version.reads, 2);
    }

    #[test]
    fn bigger_caches_hit_more() {
        let small = {
            let cfg = WebFarmCfg {
                scheme: CacheScheme::Ccwr,
                proxies: 2,
                app_nodes: 1,
                num_docs: 256,
                doc_size: 16 * 1024,
                cache_bytes_per_node: 512 * 1024,
                requests: 800,
                ..WebFarmCfg::default()
            };
            run_webfarm(&cfg).cache.hit_rate()
        };
        let large = {
            let cfg = WebFarmCfg {
                scheme: CacheScheme::Ccwr,
                proxies: 2,
                app_nodes: 1,
                num_docs: 256,
                doc_size: 16 * 1024,
                cache_bytes_per_node: 4 * 1024 * 1024,
                requests: 800,
                ..WebFarmCfg::default()
            };
            run_webfarm(&cfg).cache.hit_rate()
        };
        assert!(large > small, "large {large:.3} vs small {small:.3}");
    }

    #[test]
    fn slower_cadence_means_staler_views_but_less_overhead() {
        let fast = idle_overhead(MonitorScheme::SocketAsync, 10_000_000);
        let slow = idle_overhead(MonitorScheme::SocketAsync, 1_000_000_000);
        assert!(fast > 10 * slow, "fast {fast} vs slow {slow}");
        // RDMA polling costs the target nothing at any cadence.
        assert_eq!(idle_overhead(MonitorScheme::RdmaAsync, 1_000_000), 0);
    }
}
