//! Flow control head to head — the §6 work-in-progress experiment as a
//! runnable demo: stream small messages through each socket protocol and
//! watch the credit-based scheme stall where the packetized scheme flows.
//!
//! Run with: `cargo run --release --example flow_control`

use bytes::Bytes;
use nextgen_datacenter::fabric::{Cluster, FabricModel, NodeId};
use nextgen_datacenter::sim::time::as_ms;
use nextgen_datacenter::sim::Sim;
use nextgen_datacenter::sockets::{connect, SocketsConfig, StreamKind};

fn stream(kind: StreamKind, size: usize, count: usize) -> (f64, f64) {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    let (mut tx, mut rx) = connect(
        &cluster,
        NodeId(0),
        NodeId(1),
        kind,
        SocketsConfig::default(),
    );
    let h = sim.handle();
    let done = sim.spawn(async move {
        for _ in 0..count {
            rx.recv().await;
        }
        h.now()
    });
    let payload = Bytes::from(vec![7u8; size]);
    sim.handle().spawn_detached(async move {
        for _ in 0..count {
            tx.send_bytes(payload.clone()).await;
        }
    });
    sim.run();
    let elapsed = done.try_take().expect("receiver unfinished");
    let mbs = (count * size) as f64 / (elapsed as f64 / 1e3);
    (as_ms(elapsed), mbs)
}

fn main() {
    const COUNT: usize = 300;
    println!("Streaming {COUNT} messages per cell (same 32KiB pinned budget)\n");
    println!(
        "{:>12}  {:>6}  {:>12}  {:>10}",
        "scheme", "size", "elapsed", "bandwidth"
    );
    for size in [64usize, 1024, 16384] {
        for kind in StreamKind::ALL {
            let (ms_taken, mbs) = stream(kind, size, COUNT);
            println!(
                "{:>12}  {:>5}B  {:>10.2}ms  {:>7.1}MB/s",
                kind.label(),
                size,
                ms_taken,
                mbs
            );
        }
        println!();
    }
    println!(
        "Credit-based SDP charges one preposted buffer per message no matter\n\
         how small; packetized flow control charges bytes — the paper's §6\n\
         'order of magnitude' observation."
    );
}
