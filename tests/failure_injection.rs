//! Failure injection: the services must degrade gracefully — never
//! deadlock, never serve wrong bytes — when nodes slow down, caches
//! thrash, heaps exhaust, or lock holders stall.

use std::rc::Rc;

use nextgen_datacenter::coopcache::{Backend, CacheCfg, CacheScheme, CoopCache, ServeOutcome};
use nextgen_datacenter::ddss::{Coherence, Ddss, DdssConfig};
use nextgen_datacenter::dlm::{LockMode, NcosedDlm};
use nextgen_datacenter::fabric::{Cluster, FabricModel, NodeId};
use nextgen_datacenter::reconfig::{AdaptCfg, Reconfigurator, SiteMap};
use nextgen_datacenter::resmon::{Monitor, MonitorCfg, MonitorScheme};
use nextgen_datacenter::sim::time::{ms, secs};
use nextgen_datacenter::sim::Sim;
use nextgen_datacenter::workloads::FileSet;

/// A lock holder that stalls for a long time delays its successors but the
/// chain drains completely once it releases — no waiter is orphaned.
#[test]
fn stalled_lock_holder_delays_but_never_orphans() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 6);
    let members: Vec<NodeId> = (0..6).map(NodeId).collect();
    let dlm = NcosedDlm::new(&cluster, NodeId(0), 1, &members);

    // The holder sits on the lock for a full simulated second.
    let holder = dlm.client(NodeId(1));
    let h = sim.handle();
    let hh = h.clone();
    sim.spawn(async move {
        holder.lock(0, LockMode::Exclusive).await;
        hh.sleep(secs(1)).await;
        holder.unlock(0).await;
    });
    let granted: Rc<std::cell::Cell<u32>> = Rc::default();
    for n in 2..6u32 {
        let c = dlm.client(NodeId(n));
        let g = Rc::clone(&granted);
        let hh = h.clone();
        sim.spawn(async move {
            hh.sleep(ms(1)).await;
            c.lock(
                0,
                if n % 2 == 0 {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                },
            )
            .await;
            g.set(g.get() + 1);
            c.unlock(0).await;
        });
    }
    // Nothing is granted while the holder stalls…
    sim.run_until(ms(900));
    assert_eq!(granted.get(), 0);
    // …and everything drains after the release.
    sim.run_until(secs(2));
    assert_eq!(granted.get(), 4, "a waiter was orphaned");
}

/// An eviction storm (working set ≫ cache) must never produce wrong bytes:
/// stale soft state falls back to the backend, and every response matches
/// the document's true content.
#[test]
fn eviction_storm_preserves_correctness() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
    let fileset = Rc::new(FileSet::uniform(256, 8 * 1024));
    let backend = Backend::spawn(&cluster, NodeId(0), Rc::clone(&fileset));
    // Tiny caches: ~3 docs per node against a 256-doc working set.
    let cache = CoopCache::build(
        &cluster,
        CacheScheme::Bcc,
        &[NodeId(1), NodeId(2)],
        &[],
        backend,
        Rc::clone(&fileset),
        CacheCfg {
            per_node_bytes: 25 * 1024,
        },
        NodeId(0),
    );
    let wrong: Rc<std::cell::Cell<u32>> = Rc::default();
    let mut joins = Vec::new();
    for p in [NodeId(1), NodeId(2)] {
        let cache = cache.clone();
        let fs = Rc::clone(&fileset);
        let wrong = Rc::clone(&wrong);
        joins.push(sim.spawn(async move {
            for i in 0..200u32 {
                let doc = (i * 7 + p.0 * 3) % 256;
                let (data, _) = cache.serve(p, doc).await;
                let expect = fs.content(doc as usize, 8 * 1024);
                if data[..] != expect[..] {
                    wrong.set(wrong.get() + 1);
                }
            }
        }));
    }
    sim.run_to(async move {
        for j in joins {
            j.await;
        }
    });
    assert_eq!(wrong.get(), 0, "served corrupted content under thrashing");
    // Thrashing means plenty of misses, and likely some stale fallbacks —
    // but all handled.
    assert!(cache.stats().backend_misses > 100);
}

/// DDSS heap exhaustion surfaces as `None`, poisons nothing, and recovers
/// after frees.
#[test]
fn ddss_exhaustion_recovers() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    let cfg = DdssConfig {
        heap_bytes: 1024,
        ..DdssConfig::default()
    };
    let ddss = Ddss::new(&cluster, cfg, &[NodeId(0), NodeId(1)]);
    let client = ddss.client(NodeId(0));
    sim.run_to(async move {
        let mut held = Vec::new();
        while let Some(k) = client.allocate(NodeId(1), 100, Coherence::Null).await {
            held.push(k);
        }
        assert!(held.len() >= 8, "heap filled too early: {}", held.len());
        // Still functional for reads/writes on live segments.
        client.put(&held[0], b"alive").await;
        assert_eq!(&client.get(&held[0]).await[..5], b"alive");
        // Free half; allocation works again.
        let n = held.len() / 2;
        for k in held.drain(..n) {
            assert!(client.free(k).await);
        }
        assert!(client
            .allocate(NodeId(1), 100, Coherence::Null)
            .await
            .is_some());
    });
}

/// A permanently saturated cluster: the adaptation agent must not thrash or
/// violate QoS minimums no matter how long the overload lasts.
#[test]
fn saturation_respects_qos_and_stability() {
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
    // Overload EVERY node, forever (within the horizon).
    for n in 1..5u32 {
        for _ in 0..8 {
            let cpu = cluster.cpu(NodeId(n));
            sim.spawn(async move { cpu.execute(secs(10)).await });
        }
    }
    sim.run_until(secs(2));
    // Balanced saturation: no reason to move anything.
    assert!(
        agent.moves().len() <= 1,
        "agent thrashed under uniform saturation: {:?}",
        agent.moves()
    );
    assert!(!map.serving(0).is_empty());
    assert!(!map.serving(1).is_empty());
}

/// CCWR's owner going cold (its cached copy evicted between the remote
/// probe and the read) falls back without duplicating the document at the
/// requester.
#[test]
fn ccwr_fallback_never_duplicates() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
    let fileset = Rc::new(FileSet::uniform(64, 8 * 1024));
    let backend = Backend::spawn(&cluster, NodeId(0), Rc::clone(&fileset));
    let cache = CoopCache::build(
        &cluster,
        CacheScheme::Ccwr,
        &[NodeId(1), NodeId(2)],
        &[],
        backend,
        fileset,
        CacheCfg {
            per_node_bytes: 64 * 1024, // ~8 docs — constant churn
        },
        NodeId(0),
    );
    let c2 = cache.clone();
    sim.run_to(async move {
        for i in 0..120u32 {
            let doc = i % 64;
            let proxy = if i % 2 == 0 { NodeId(1) } else { NodeId(2) };
            let (_, outcome) = c2.serve(proxy, doc).await;
            // Under CCWR a non-owner must never record a local hit.
            if c2.owner_of(doc) != proxy {
                assert_ne!(
                    outcome,
                    ServeOutcome::LocalHit,
                    "doc {doc} duplicated at non-owner {proxy:?}"
                );
            }
        }
    });
}
