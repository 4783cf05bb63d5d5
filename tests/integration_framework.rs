//! Integrated evaluation (the paper's §6 point that the designs "cannot be
//! evaluated in a standalone fashion"): all three layers — fabric, the two
//! primitives, and the three services — coexist in one simulation on one
//! cluster, interacting through real shared resources (CPUs, links, memory).

use std::rc::Rc;

use nextgen_datacenter::coopcache::{Backend, CacheCfg, CacheScheme, CoopCache};
use nextgen_datacenter::ddss::{Coherence, Ddss, DdssConfig};
use nextgen_datacenter::dlm::{DlmConfig, LockMode, NcosedDlm};
use nextgen_datacenter::fabric::{Cluster, FabricModel, NodeId};
use nextgen_datacenter::reconfig::{AdaptCfg, Reconfigurator, SiteMap};
use nextgen_datacenter::resmon::{Monitor, MonitorCfg, MonitorScheme};
use nextgen_datacenter::sim::time::{ms, secs, us};
use nextgen_datacenter::sim::Sim;
use nextgen_datacenter::workloads::FileSet;

/// Everything the framework offers, running together on an 8-node cluster:
/// a cooperative cache serving requests while the DLM coordinates writers,
/// DDSS shares operational state, the monitor watches real load, and the
/// reconfigurator stands by.
#[test]
fn full_stack_coexists_in_one_simulation() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 8);
    let all: Vec<NodeId> = (0..8).map(NodeId).collect();

    // Primitives.
    let ddss = Ddss::new(&cluster, DdssConfig::default(), &all);
    let dlm = NcosedDlm::new(&cluster, DlmConfig::default(), NodeId(0), 4, &all);

    // Services.
    let fileset = Rc::new(FileSet::uniform(64, 8 * 1024));
    let backend = Backend::spawn(&cluster, NodeId(7), Rc::clone(&fileset));
    let cache = CoopCache::build(
        &cluster,
        CacheScheme::Hybcc,
        &[NodeId(1), NodeId(2)],
        &[NodeId(3)],
        backend,
        fileset,
        CacheCfg::default(),
        NodeId(0),
    );
    let monitor = Monitor::spawn(
        &cluster,
        MonitorScheme::RdmaSync,
        MonitorCfg::default(),
        NodeId(0),
        &[NodeId(4), NodeId(5)],
    );
    let map = SiteMap::new(&cluster, NodeId(0), &[(NodeId(4), 0), (NodeId(5), 1)]);
    let _agent = Reconfigurator::spawn(
        sim.handle(),
        NodeId(0),
        map.clone(),
        monitor.clone(),
        2,
        AdaptCfg::fine(2),
    );

    // Workload A: cache traffic on the proxies.
    let served: Rc<std::cell::Cell<u32>> = Rc::default();
    for p in [NodeId(1), NodeId(2)] {
        let cache = cache.clone();
        let served = Rc::clone(&served);
        sim.spawn(async move {
            // Two passes: the first warms the tier, the second hits.
            for round in 0..2 {
                for doc in 0..32u32 {
                    let (data, _) = cache.serve(p, doc % 64).await;
                    assert_eq!(data.len(), 8 * 1024, "round {round}");
                    served.set(served.get() + 1);
                }
            }
        });
    }
    // Workload B: DDSS state updates under DLM locks from three nodes.
    let key_owner = ddss.client(NodeId(0));
    let key_cell: Rc<std::cell::RefCell<Option<nextgen_datacenter::ddss::SharedKey>>> =
        Rc::default();
    {
        let kc = Rc::clone(&key_cell);
        sim.spawn(async move {
            let key = key_owner
                .allocate(NodeId(0), 8, Coherence::Version)
                .await
                .unwrap();
            *kc.borrow_mut() = Some(key);
        });
    }
    sim.run_until(ms(5));
    let key = key_cell.borrow().expect("key allocated");
    let counted: Rc<std::cell::Cell<u64>> = Rc::default();
    for n in [NodeId(4), NodeId(5), NodeId(6)] {
        let client = ddss.client(n);
        let lock = dlm.client(n);
        let counted = Rc::clone(&counted);
        let h = sim.handle();
        sim.spawn(async move {
            for _ in 0..10 {
                lock.lock(1, LockMode::Exclusive).await;
                let cur = client.get(&key).await;
                let v = u64::from_le_bytes(cur[..8].try_into().unwrap());
                h.sleep(us(20)).await;
                client.put(&key, &(v + 1).to_le_bytes()).await;
                lock.unlock(1).await;
                counted.set(counted.get() + 1);
            }
        });
    }
    sim.run_until(secs(3));

    // Everything made progress, nothing deadlocked, invariants held.
    assert_eq!(served.get(), 128, "cache traffic incomplete");
    assert_eq!(counted.get(), 30, "locked updates incomplete");
    let reader = ddss.client(NodeId(1));
    let final_v = sim.run_to(async move {
        let raw = reader.get(&key).await;
        u64::from_le_bytes(raw[..8].try_into().unwrap())
    });
    assert_eq!(final_v, 30, "lost update under the DLM");
    assert!(cache.stats().hit_rate() > 0.3);
}

/// The monitor keeps working (and stays accurate) while the cache loads the
/// cluster — services interact through the CPU model, not in isolation.
#[test]
fn monitoring_stays_accurate_under_cache_load() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 5);
    let fileset = Rc::new(FileSet::uniform(128, 16 * 1024));
    let backend = Backend::spawn(&cluster, NodeId(4), Rc::clone(&fileset));
    let cache = CoopCache::build(
        &cluster,
        CacheScheme::Bcc,
        &[NodeId(1), NodeId(2)],
        &[],
        backend,
        fileset,
        CacheCfg::default(),
        NodeId(0),
    );
    let monitor = Monitor::spawn(
        &cluster,
        MonitorScheme::RdmaSync,
        MonitorCfg::default(),
        NodeId(0),
        &[NodeId(1), NodeId(2), NodeId(4)],
    );
    // Drive cache traffic to completion.
    let mut joins = Vec::new();
    for p in [NodeId(1), NodeId(2)] {
        let cache = cache.clone();
        joins.push(sim.spawn(async move {
            for doc in 0..128u32 {
                cache.serve(p, doc % 128).await;
            }
        }));
    }
    sim.run_to(async move {
        for j in joins {
            j.await;
        }
    });
    // The RDMA monitor reads the true accumulated busy counters — the same
    // values the kernel statistics hold locally.
    let cl = cluster.clone();
    let view = sim.run_to(async move { monitor.observe(NodeId(4)).await });
    let truth = cl.cpu(NodeId(4)).snapshot();
    assert_eq!(view.stats.busy_ns, truth.busy_ns);
    assert!(truth.busy_ns > ms(1), "backend never worked");
}
