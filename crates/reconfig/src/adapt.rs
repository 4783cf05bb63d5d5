//! The active resource adaptation agent.
//!
//! Periodically reads per-node load through a [`Monitor`], aggregates it per
//! site (weighted by QoS priority), and when one site is overloaded relative
//! to another, claims a node from the donor site through the shared map's
//! CAS protocol, pays the reconfiguration cost (server processes restart on
//! the moved node), and completes the move.
//!
//! Safeguards from the paper's design:
//! * **Concurrency control** — CAS claims mean concurrent agents cannot
//!   live-lock or double-move a node.
//! * **History-aware hysteresis** — a node that just moved is ineligible for
//!   `HYSTERESIS_NS`, preventing thrashing under oscillating load.
//! * **QoS guarantees** — each site keeps at least `min_nodes` nodes, and
//!   loads are compared after dividing by the site's priority weight.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use dc_fabric::NodeId;
use dc_resmon::Monitor;
use dc_sim::{SimHandle, SimTime};

use crate::sitemap::SiteMap;

/// Move a node when `load(hot)/load(cold) > IMBALANCE_RATIO` (after
/// priority weighting).
const IMBALANCE_RATIO: f64 = 1.6;
/// Minimum time between moves of the same node.
const HYSTERESIS_NS: u64 = 40_000_000;
/// Time a moved node spends in transition (process restart, cache warm
/// handoff) before serving its new site.
const SWITCH_COST_NS: u64 = 5_000_000;

/// Tunables of the adaptation agent.
#[derive(Debug, Clone)]
pub struct AdaptCfg {
    /// How often load is evaluated.
    pub check_period_ns: u64,
    /// Every site keeps at least this many serving nodes.
    pub min_nodes: usize,
    /// QoS priority weight per site (higher = more entitled to capacity).
    pub priorities: Vec<f64>,
}

impl AdaptCfg {
    /// Fine-grained profile: millisecond-scale checks (viable only with
    /// RDMA-based monitoring).
    pub fn fine(num_sites: usize) -> AdaptCfg {
        AdaptCfg {
            check_period_ns: 2_000_000,
            min_nodes: 1,
            priorities: vec![1.0; num_sites],
        }
    }

    /// Coarse-grained profile: the traditional few-hundred-millisecond
    /// monitoring cadence.
    pub fn coarse(num_sites: usize) -> AdaptCfg {
        AdaptCfg {
            check_period_ns: 500_000_000,
            ..AdaptCfg::fine(num_sites)
        }
    }
}

/// A completed move record (for tests and benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveRecord {
    /// The moved node.
    pub node: NodeId,
    /// Donor site.
    pub from: u32,
    /// Receiving site.
    pub to: u32,
    /// When the move completed (node serving again).
    pub at: SimTime,
}

struct Inner {
    sim: SimHandle,
    map: SiteMap,
    monitor: Monitor,
    cfg: AdaptCfg,
    agent: NodeId,
    num_sites: usize,
    last_move: RefCell<HashMap<NodeId, SimTime>>,
    moves: RefCell<Vec<MoveRecord>>,
    checks: Cell<u64>,
    /// Reusable per-check buffers; fine-grained agents evaluate thousands of
    /// times per run, and rebuilding these each check dominated its cost.
    scratch_nodes: RefCell<Vec<Vec<NodeId>>>,
    scratch_load: RefCell<Vec<f64>>,
}

/// The adaptation agent. Spawning starts its periodic loop.
#[derive(Clone)]
pub struct Reconfigurator {
    inner: Rc<Inner>,
}

impl Reconfigurator {
    /// Start the agent on `agent` (typically the front-end holding the map).
    pub fn spawn(
        sim: SimHandle,
        agent: NodeId,
        map: SiteMap,
        monitor: Monitor,
        num_sites: usize,
        cfg: AdaptCfg,
    ) -> Reconfigurator {
        assert_eq!(cfg.priorities.len(), num_sites);
        let r = Reconfigurator {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                map,
                monitor,
                cfg,
                agent,
                num_sites,
                last_move: RefCell::new(HashMap::new()),
                moves: RefCell::new(Vec::new()),
                checks: Cell::new(0),
                scratch_nodes: RefCell::new(Vec::new()),
                scratch_load: RefCell::new(Vec::new()),
            }),
        };
        let rr = r.clone();
        sim.clone().spawn_detached(async move {
            loop {
                rr.check_once().await;
                sim.sleep(rr.inner.cfg.check_period_ns).await;
            }
        });
        r
    }

    /// Completed moves so far.
    pub fn moves(&self) -> Vec<MoveRecord> {
        self.inner.moves.borrow().clone()
    }

    /// Load evaluations performed so far.
    pub fn checks(&self) -> u64 {
        self.inner.checks.get()
    }

    /// One evaluation: measure, compare, maybe move one node.
    pub async fn check_once(&self) {
        let inner = &self.inner;
        inner.checks.set(inner.checks.get() + 1);
        // Gather weighted per-site load from the monitor, into buffers reused
        // across checks (a re-entrant check simply starts from empty ones).
        let mut site_nodes = std::mem::take(&mut *inner.scratch_nodes.borrow_mut());
        let mut site_load = std::mem::take(&mut *inner.scratch_load.borrow_mut());
        for v in site_nodes.iter_mut() {
            v.clear();
        }
        site_nodes.resize_with(inner.num_sites, Vec::new);
        site_load.clear();
        site_load.resize(inner.num_sites, 0.0);
        for &n in inner.map.nodes() {
            let a = inner.map.peek(n);
            if !a.in_transition {
                site_nodes[a.site as usize].push(n);
            }
        }
        for (site, nodes) in site_nodes.iter().enumerate() {
            if nodes.is_empty() {
                continue;
            }
            let mut total = 0u64;
            for &n in nodes {
                total += inner.monitor.load(n).await;
            }
            // Per-node load, weighted down by the site's priority.
            site_load[site] =
                total as f64 / nodes.len() as f64 / inner.cfg.priorities[site].max(1e-9);
        }
        let now = inner.sim.now();
        let decision = (|| {
            // Hottest and coldest sites.
            let (hot, _) = site_load
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())?;
            let (cold, _) = site_load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            if hot == cold {
                return None;
            }
            let hot_load = site_load[hot];
            let cold_load = site_load[cold].max(1e-9);
            if hot_load < 0.5 || hot_load / cold_load <= IMBALANCE_RATIO {
                return None;
            }
            // Donor must keep its QoS minimum.
            if site_nodes[cold].len() <= inner.cfg.min_nodes {
                return None;
            }
            // Pick the donor node that moved least recently (history-aware).
            let node = site_nodes[cold]
                .iter()
                .copied()
                .filter(|n| {
                    now.saturating_sub(inner.last_move.borrow().get(n).copied().unwrap_or(0))
                        >= HYSTERESIS_NS
                        || !inner.last_move.borrow().contains_key(n)
                })
                .min_by_key(|n| inner.last_move.borrow().get(n).copied().unwrap_or(0))?;
            Some((hot, cold, node))
        })();
        *inner.scratch_nodes.borrow_mut() = site_nodes;
        *inner.scratch_load.borrow_mut() = site_load;
        let Some((hot, cold, node)) = decision else {
            return;
        };
        if !inner
            .map
            .claim(inner.agent, node, cold as u32, hot as u32)
            .await
        {
            return; // another agent got there first
        }
        inner.last_move.borrow_mut().insert(node, now);
        inner.sim.sleep(SWITCH_COST_NS).await;
        inner.map.complete(inner.agent, node, hot as u32).await;
        inner.moves.borrow_mut().push(MoveRecord {
            node,
            from: cold as u32,
            to: hot as u32,
            at: inner.sim.now(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::{Cluster, FabricModel};
    use dc_resmon::{MonitorCfg, MonitorScheme};
    use dc_sim::time::ms;
    use dc_sim::Sim;

    /// 0: front-end/agent; 1-4: back-ends, sites 0 and 1.
    fn setup(cfg: AdaptCfg) -> (Sim, Cluster, SiteMap, Reconfigurator) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 5);
        let map = SiteMap::new(
            &cluster,
            NodeId(0),
            &[
                (NodeId(1), 0),
                (NodeId(2), 0),
                (NodeId(3), 1),
                (NodeId(4), 1),
            ],
        );
        let monitor = Monitor::spawn(
            &cluster,
            MonitorScheme::RdmaSync,
            MonitorCfg::default(),
            NodeId(0),
            &[NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
        );
        let r = Reconfigurator::spawn(sim.handle(), NodeId(0), map.clone(), monitor, 2, cfg);
        (sim, cluster, map, r)
    }

    fn load_node(sim: &Sim, cluster: &Cluster, node: NodeId, jobs: usize) {
        for _ in 0..jobs {
            let cpu = cluster.cpu(node);
            sim.spawn(async move { cpu.execute(ms(500)).await });
        }
    }

    #[test]
    fn moves_node_to_overloaded_site() {
        let (sim, cluster, map, r) = setup(AdaptCfg::fine(2));
        // Site 0 (nodes 1,2) gets hammered; site 1 idles.
        load_node(&sim, &cluster, NodeId(1), 6);
        load_node(&sim, &cluster, NodeId(2), 6);
        sim.run_until(ms(100));
        let moves = r.moves();
        assert!(!moves.is_empty(), "no adaptation happened");
        assert_eq!(moves[0].from, 1);
        assert_eq!(moves[0].to, 0);
        assert_eq!(map.serving(0).len(), 3);
        // QoS minimum: site 1 keeps one node.
        assert_eq!(map.serving(1).len(), 1);
    }

    #[test]
    fn respects_min_nodes_guarantee() {
        let mut cfg = AdaptCfg::fine(2);
        cfg.min_nodes = 2;
        let (sim, cluster, map, r) = setup(cfg);
        load_node(&sim, &cluster, NodeId(1), 8);
        load_node(&sim, &cluster, NodeId(2), 8);
        sim.run_until(ms(200));
        assert!(r.moves().is_empty(), "moved below the QoS minimum");
        assert_eq!(map.serving(1).len(), 2);
    }

    #[test]
    fn hysteresis_prevents_thrashing() {
        let (sim, cluster, _map, r) = setup(AdaptCfg::fine(2));
        load_node(&sim, &cluster, NodeId(1), 6);
        load_node(&sim, &cluster, NodeId(2), 6);
        sim.run_until(ms(300));
        let moves = r.moves();
        // Load stays on site 0's original nodes; the agent must not bounce
        // nodes back and forth every check period (checks run every 2ms).
        assert!(
            moves.len() <= 3,
            "thrashing: {} moves in 300ms",
            moves.len()
        );
        assert!(r.checks() > 50);
    }

    #[test]
    fn balanced_load_causes_no_moves() {
        let (sim, cluster, _map, r) = setup(AdaptCfg::fine(2));
        for n in 1..5u32 {
            load_node(&sim, &cluster, NodeId(n), 2);
        }
        sim.run_until(ms(100));
        assert!(r.moves().is_empty());
    }

    #[test]
    fn priority_shifts_the_balance_point() {
        // Site 1 has 4x priority: equal raw load looks like site 0 is
        // "hotter" per weighted capacity… but weighting *divides*, so site
        // 0 (weight 1) with the same load as site 1 (weight 4) appears 4x
        // as loaded and receives a node.
        let mut cfg = AdaptCfg::fine(2);
        cfg.priorities = vec![1.0, 4.0];
        let (sim, cluster, map, r) = setup(cfg);
        for n in 1..5u32 {
            load_node(&sim, &cluster, NodeId(n), 4);
        }
        sim.run_until(ms(100));
        let moves = r.moves();
        assert!(!moves.is_empty());
        assert_eq!(
            moves[0].to, 0,
            "node should flow to the low-priority-weighted hot site"
        );
        assert!(map.serving(0).len() >= 3);
    }
}
