//! Quickstart: build a four-node simulated RDMA cluster, share state
//! through the DDSS, and coordinate with the N-CoSED distributed lock
//! manager — the two service primitives of the paper, in ~60 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use nextgen_datacenter::ddss::{Coherence, Ddss, DdssConfig};
use nextgen_datacenter::dlm::{LockMode, NcosedDlm};
use nextgen_datacenter::fabric::{Cluster, FabricModel, NodeId};
use nextgen_datacenter::sim::time::fmt_time;
use nextgen_datacenter::sim::Sim;

fn main() {
    // A deterministic virtual-time simulation of a 4-node IB cluster.
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
    let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();

    // Layer 2a: the distributed data sharing substrate.
    let ddss = Ddss::new(&cluster, DdssConfig::default(), &nodes);
    // Layer 2b: the distributed lock manager (locks homed on node 0).
    let dlm = NcosedDlm::new(&cluster, NodeId(0), 8, &nodes);

    // Node 1 publishes a versioned segment; nodes 2 and 3 update it under
    // an exclusive lock; node 1 reads the result.
    let writer_a = ddss.client(NodeId(2));
    let writer_b = ddss.client(NodeId(3));
    let owner = ddss.client(NodeId(1));
    let lock_a = dlm.client(NodeId(2));
    let lock_b = dlm.client(NodeId(3));

    let h = sim.handle();
    let final_value = sim.run_to(async move {
        let key = owner
            .allocate(NodeId(1), 64, Coherence::Version)
            .await
            .expect("allocate");
        owner.put(&key, b"initial state from node 1").await;

        // Two remote writers append under mutual exclusion.
        let t0 = h.now();
        let (ja, jb) = {
            let h2 = h.clone();
            let ja = h.spawn(async move {
                lock_a.lock(0, LockMode::Exclusive).await;
                writer_a.put(&key, b"node 2 wrote this").await;
                lock_a.unlock(0).await;
            });
            let jb = h2.spawn(async move {
                lock_b.lock(0, LockMode::Exclusive).await;
                writer_b.put(&key, b"node 3 wrote this").await;
                lock_b.unlock(0).await;
            });
            (ja, jb)
        };
        ja.await;
        jb.await;
        println!(
            "two locked remote updates completed in {} of virtual time",
            fmt_time(h.now() - t0)
        );
        println!("segment version is now {}", owner.version(&key).await);
        owner.get(&key).await
    });

    let text = String::from_utf8_lossy(&final_value[..17]);
    println!("final segment contents: {text:?}");
    let stats = cluster.stats();
    println!(
        "fabric verbs issued: {} reads, {} writes, {} CAS, {} FAA",
        stats.reads, stats.writes, stats.cas, stats.faa
    );
}
