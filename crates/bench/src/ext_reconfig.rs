//! §6 extension — fine-grained vs coarse-grained dynamic reconfiguration.
//!
//! The discussion section reports a fine-grained resource-adaptation module
//! driven by RDMA-based monitoring that achieves "an order of magnitude
//! performance benefit compared to existing schemes". We measure the
//! reaction time: a load burst hits one site at a known instant; how long
//! until the adaptation agent has moved a node to it?

use dc_fabric::NodeId;
use dc_reconfig::{AdaptCfg, Reconfigurator, SiteMap};
use dc_resmon::{Monitor, MonitorCfg, MonitorScheme};
use dc_sim::time::{ms, secs};
use dc_sim::{Sim, SimTime};

use crate::scenario::RunCtx;

/// Result of one reaction-time measurement.
#[derive(Debug, Clone, Copy)]
pub struct ReactionResult {
    /// Whether the profile was fine-grained.
    pub fine: bool,
    /// Time from burst start to the first completed move (ns); `None` if
    /// the agent never reacted within the horizon.
    pub reaction_ns: Option<SimTime>,
    /// Number of moves over the horizon.
    pub moves: usize,
    /// Load evaluations performed.
    pub checks: u64,
}

/// Run one profile. `fine` selects RDMA monitoring at a 2 ms cadence;
/// coarse selects the traditional socket daemon at 500 ms.
pub fn reaction(ctx: &RunCtx, fine: bool) -> ReactionResult {
    let sim = Sim::new();
    let cluster = ctx.cluster(&sim, 5);
    let backends = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
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
    let (scheme, cfg) = if fine {
        (MonitorScheme::RdmaSync, AdaptCfg::fine(2))
    } else {
        (MonitorScheme::SocketSync, AdaptCfg::coarse(2))
    };
    let monitor = Monitor::spawn(
        &cluster,
        scheme,
        MonitorCfg::default(),
        NodeId(0),
        &backends,
    );
    let agent = Reconfigurator::spawn(sim.handle(), NodeId(0), map, monitor, 2, cfg);

    // Burst hits site 0 (nodes 1 and 2) at t = 100 ms.
    let burst_start = ms(100);
    for node in [NodeId(1), NodeId(2)] {
        let cpu = cluster.cpu(node);
        let h = sim.handle();
        sim.handle().spawn_detached(async move {
            h.sleep_until(burst_start).await;
            for _ in 0..6 {
                let c = cpu.clone();
                h.spawn_detached(async move { c.execute(secs(3)).await });
            }
        });
    }
    sim.run_until(secs(2));
    ctx.fold(&cluster, || if fine { "fine" } else { "coarse" }.into());
    let moves = agent.moves();
    ReactionResult {
        fine,
        reaction_ns: moves
            .iter()
            .find(|m| m.to == 0 && m.at >= burst_start)
            .map(|m| m.at - burst_start),
        moves: moves.len(),
        checks: agent.checks(),
    }
}

/// Render the table.
pub fn table(fine: &ReactionResult, coarse: &ReactionResult) -> dc_core::Table {
    let mut t = dc_core::Table::new(
        "§6 ext — Reconfiguration reaction time to a load burst",
        &["profile", "reaction (ms)", "moves", "load checks"],
    );
    for r in [fine, coarse] {
        t.row(vec![
            if r.fine {
                "fine (RDMA, 2ms)"
            } else {
                "coarse (socket, 500ms)"
            }
            .to_string(),
            match r.reaction_ns {
                Some(ns) => format!("{:.1}", ns as f64 / 1e6),
                None => "never".to_string(),
            },
            r.moves.to_string(),
            r.checks.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_reacts_an_order_of_magnitude_faster() {
        let fine = reaction(&RunCtx::pinned(), true);
        let coarse = reaction(&RunCtx::pinned(), false);
        let f = fine.reaction_ns.expect("fine profile never reacted");
        let c = coarse.reaction_ns.expect("coarse profile never reacted");
        assert!(
            c >= 8 * f,
            "expected ~order-of-magnitude: fine {}ms coarse {}ms",
            f / 1_000_000,
            c / 1_000_000
        );
        assert!(fine.checks > coarse.checks);
    }
}
