//! A distributed lock service under contention: readers and writers on
//! sixteen nodes hammer one lock under each of the three managers, showing
//! why one-sided shared locking matters.
//!
//! Run with: `cargo run --release --example lock_service`

use std::cell::Cell;
use std::rc::Rc;

use nextgen_datacenter::dlm::{DesignKind, DlmConfig, LockMode};
use nextgen_datacenter::fabric::{Cluster, FabricModel, NodeId};
use nextgen_datacenter::sim::time::{as_ms, us};
use nextgen_datacenter::sim::Sim;

const NODES: usize = 17; // home/server + 16 workers
const OPS_PER_NODE: usize = 20;
const READ_FRACTION: usize = 4; // 4 of 5 ops are reads

/// Run the workload and return (virtual completion ms, reads+writes done).
fn run(scheme: &str) -> (f64, u64) {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), NODES);
    let members: Vec<NodeId> = (0..NODES as u32).map(NodeId).collect();
    let done: Rc<Cell<u64>> = Rc::default();
    let design = DesignKind::by_label(scheme).expect("a lock design's legend label");
    let clients = design.build(&cluster, DlmConfig::default(), NodeId(0), 1, &members);

    let mut joins = Vec::new();
    // Node 0 is the home/server only; every other node runs a worker.
    for client in clients.into_iter().skip(1) {
        let d = Rc::clone(&done);
        let h = sim.handle();
        joins.push(sim.spawn(async move {
            for op in 0..OPS_PER_NODE {
                let mode = if op % (READ_FRACTION + 1) == READ_FRACTION {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                client.lock(0, mode).await;
                // Critical section: read ~50us, write ~200us.
                h.sleep(if mode == LockMode::Exclusive {
                    us(200)
                } else {
                    us(50)
                })
                .await;
                client.unlock(0).await;
                d.set(d.get() + 1);
            }
        }));
    }
    sim.run_to(async move {
        for j in joins {
            j.await;
        }
    });
    (as_ms(sim.now()), done.get())
}

fn main() {
    println!("16 nodes × {OPS_PER_NODE} ops on one lock (80% shared / 20% exclusive)\n");
    println!("{:>8}  {:>14}  {:>8}", "scheme", "completion", "ops");
    for scheme in ["SRSL", "DQNL", "N-CoSED"] {
        let (ms_taken, ops) = run(scheme);
        println!("{scheme:>8}  {ms_taken:>12.1}ms  {ops:>8}");
    }
    println!(
        "\nDQNL serializes the 80% shared majority; N-CoSED admits them\n\
         together with one fetch-and-add each and no lock server."
    );
}
