//! An auction site (RUBiS-like) plus a document service hosted on a shared
//! back-end pool, with the load balancer driven by each monitoring scheme —
//! the Figure 8b scenario — followed by a live demonstration of active
//! resource adaptation reacting to a burst.
//!
//! Run with: `cargo run --release --example auction_site`

use nextgen_datacenter::core::{run_hosting, HostingCfg, Table};
use nextgen_datacenter::fabric::{Cluster, FabricModel, NodeId};
use nextgen_datacenter::reconfig::{AdaptCfg, Reconfigurator, SiteMap};
use nextgen_datacenter::resmon::{Monitor, MonitorCfg, MonitorScheme};
use nextgen_datacenter::sim::time::{ms, secs};
use nextgen_datacenter::sim::Sim;

fn main() {
    // Part 1: throughput by monitoring scheme.
    let mut table = Table::new(
        "Auction + document hosting: throughput by monitoring scheme",
        &["scheme", "TPS", "mean latency", "p99"],
    );
    for scheme in [
        MonitorScheme::SocketAsync,
        MonitorScheme::SocketSync,
        MonitorScheme::RdmaAsync,
        MonitorScheme::RdmaSync,
        MonitorScheme::ERdmaSync,
    ] {
        let r = run_hosting(&HostingCfg {
            scheme,
            backends: 4,
            clients: 24,
            requests: 2_000,
            ..HostingCfg::default()
        });
        table.row(vec![
            scheme.label().to_string(),
            format!("{:.0}", r.tps),
            nextgen_datacenter::sim::time::fmt_time(r.mean_latency_ns),
            nextgen_datacenter::sim::time::fmt_time(r.p99_latency_ns),
        ]);
    }
    table.print();

    // Part 2: the adaptation agent moves a node to the bursting site.
    println!("\nActive resource adaptation demo:");
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
    let agent = Reconfigurator::spawn(
        sim.handle(),
        NodeId(0),
        map.clone(),
        monitor,
        2,
        AdaptCfg::fine(2),
    );
    // Site 0 (the auction site) gets slammed at t = 50ms.
    for node in [NodeId(1), NodeId(2)] {
        let cpu = cluster.cpu(node);
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep_until(ms(50)).await;
            for _ in 0..6 {
                let c = cpu.clone();
                h.spawn_detached(async move { c.execute(secs(2)).await });
            }
        });
    }
    sim.run_until(ms(500));
    for m in agent.moves() {
        println!(
            "  moved {:?} from site {} to site {} at t={} ({} after the burst)",
            m.node,
            m.from,
            m.to,
            nextgen_datacenter::sim::time::fmt_time(m.at),
            nextgen_datacenter::sim::time::fmt_time(m.at.saturating_sub(ms(50))),
        );
    }
    println!(
        "  site 0 now serves with {} nodes; site 1 keeps its QoS minimum of {}.",
        map.serving(0).len(),
        map.serving(1).len()
    );
}
