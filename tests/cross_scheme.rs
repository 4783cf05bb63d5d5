//! Cross-crate sanity: the orderings the paper's figures rest on, checked
//! end to end through the public API.

use nextgen_datacenter::coopcache::CacheScheme;
use nextgen_datacenter::core::{run_hosting, run_webfarm, HostingCfg, WebFarmCfg};
use nextgen_datacenter::dlm::LockMode;
use nextgen_datacenter::resmon::MonitorScheme;

fn farm(scheme: CacheScheme, proxies: usize) -> nextgen_datacenter::core::WebFarmResult {
    run_webfarm(&WebFarmCfg {
        scheme,
        proxies,
        app_nodes: 2,
        num_docs: 256,
        doc_size: 16 * 1024,
        cache_bytes_per_node: 1024 * 1024,
        zipf_alpha: 0.9,
        clients_per_proxy: 6,
        requests: 1_200,
        seed: 99,
        ..WebFarmCfg::default()
    })
}

#[test]
fn caching_hierarchy_holds_end_to_end() {
    let ac = farm(CacheScheme::Ac, 2);
    let bcc = farm(CacheScheme::Bcc, 2);
    let mtacc = farm(CacheScheme::Mtacc, 2);
    // The paper's Figure 6 ordering at a capacity-pressured working set.
    assert!(bcc.tps > ac.tps, "BCC {:.0} vs AC {:.0}", bcc.tps, ac.tps);
    assert!(
        mtacc.tps > bcc.tps,
        "MTACC {:.0} vs BCC {:.0}",
        mtacc.tps,
        bcc.tps
    );
    assert!(mtacc.cache.hit_rate() > ac.cache.hit_rate());
}

#[test]
fn more_proxies_help_cooperative_schemes_more_than_ac() {
    let ac2 = farm(CacheScheme::Ac, 2);
    let ac4 = farm(CacheScheme::Ac, 4);
    let coop2 = farm(CacheScheme::Ccwr, 2);
    let coop4 = farm(CacheScheme::Ccwr, 4);
    let ac_gain = ac4.tps / ac2.tps;
    let coop_gain = coop4.tps / coop2.tps;
    assert!(
        coop_gain > ac_gain,
        "cooperation should scale better: coop {coop_gain:.2} vs ac {ac_gain:.2}"
    );
}

#[test]
fn monitoring_hierarchy_holds_end_to_end() {
    let quick = |scheme| {
        run_hosting(&HostingCfg {
            scheme,
            backends: 4,
            clients: 20,
            requests: 1_200,
            seed: 5,
            ..HostingCfg::default()
        })
        .tps
    };
    let socket_sync = quick(MonitorScheme::SocketSync);
    let rdma_sync = quick(MonitorScheme::RdmaSync);
    let e_rdma = quick(MonitorScheme::ERdmaSync);
    assert!(
        rdma_sync > socket_sync,
        "RDMA {rdma_sync:.0} vs socket {socket_sync:.0}"
    );
    assert!(
        e_rdma > socket_sync,
        "e-RDMA {e_rdma:.0} vs socket {socket_sync:.0}"
    );
}

#[test]
fn lock_cascades_order_as_in_figure_5() {
    use dc_bench_shim::*;
    // Shared cascade at 12 waiters: DQNL worst, N-CoSED best.
    let n = cascade(LockScheme::Ncosed, 12, LockMode::Shared);
    let d = cascade(LockScheme::Dqnl, 12, LockMode::Shared);
    let s = cascade(LockScheme::Srsl, 12, LockMode::Shared);
    assert!(d > s && s > n, "shared cascade: n={n} s={s} d={d}");
    // Exclusive chain: SRSL pays the server round trip per hop.
    let ne = cascade(LockScheme::Ncosed, 12, LockMode::Exclusive);
    let se = cascade(LockScheme::Srsl, 12, LockMode::Exclusive);
    assert!(se > ne, "exclusive cascade: n={ne} s={se}");
}

/// A local reimplementation of the bench's cascade driver, exercising the
/// DLM public API directly (the root package depends on the library crates,
/// not on the bench harness).
mod dc_bench_shim {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use nextgen_datacenter::dlm::{DqnlDlm, LockMode, NcosedDlm, SrslDlm};
    use nextgen_datacenter::fabric::{Cluster, FabricModel, NodeId};
    use nextgen_datacenter::sim::time::ms;
    use nextgen_datacenter::sim::Sim;

    #[derive(Clone, Copy)]
    pub(super) enum LockScheme {
        Ncosed,
        Dqnl,
        Srsl,
    }

    pub(super) fn cascade(scheme: LockScheme, waiters: usize, mode: LockMode) -> u64 {
        let sim = Sim::new();
        let nodes = 2 + waiters;
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
        let members: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let release_at: Rc<Cell<u64>> = Rc::default();
        let grants: Rc<RefCell<Vec<u64>>> = Rc::default();
        let h = sim.handle();

        macro_rules! drive {
            ($mgr:expr) => {{
                let mgr = $mgr;
                let holder = mgr.client(NodeId(1));
                let ra = Rc::clone(&release_at);
                let hh = h.clone();
                sim.spawn(async move {
                    holder.lock(0, LockMode::Exclusive).await;
                    hh.sleep(ms(5)).await;
                    ra.set(hh.now());
                    holder.unlock(0).await;
                });
                for (i, &n) in members[2..].iter().enumerate() {
                    let w = mgr.client(n);
                    let g = Rc::clone(&grants);
                    let hh = h.clone();
                    sim.spawn(async move {
                        hh.sleep(ms(1) + (i as u64) * 40_000).await;
                        w.lock(0, mode).await;
                        g.borrow_mut().push(hh.now());
                        w.unlock(0).await;
                    });
                }
            }};
        }
        match scheme {
            LockScheme::Ncosed => {
                drive!(NcosedDlm::new(&cluster, NodeId(0), 1, &members))
            }
            LockScheme::Dqnl => {
                drive!(DqnlDlm::new(&cluster, NodeId(0), 1, &members))
            }
            LockScheme::Srsl => {
                drive!(SrslDlm::new(&cluster, NodeId(0), &members))
            }
        }
        sim.run();
        let g = grants.borrow();
        assert_eq!(g.len(), waiters);
        g.iter().max().unwrap() - release_at.get()
    }
}
