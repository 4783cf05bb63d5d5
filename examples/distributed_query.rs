//! A STORM-style distributed query offloaded over the DDSS — the paper's
//! Figure 3b scenario: a data node scans records and publishes the result
//! set as shared segments; the client pulls them with one-sided RDMA
//! instead of streaming them over sockets.
//!
//! Run with: `cargo run --release --example distributed_query`

use bytes::Bytes;
use nextgen_datacenter::ddss::{Coherence, Ddss, DdssConfig};
use nextgen_datacenter::fabric::{Cluster, FabricModel, NodeId, Transport};
use nextgen_datacenter::sim::time::fmt_time;
use nextgen_datacenter::sim::Sim;
use nextgen_datacenter::sockets::{connect, SocketsConfig, StreamKind};
use nextgen_datacenter::svc::bind_raw;
use nextgen_datacenter::workloads::StormQuery;

const CHUNK: usize = 32 * 1024;

/// Traditional build: scan at the data node, stream results over host TCP.
fn run_sockets(records: usize) -> u64 {
    let q = StormQuery::with_records(records);
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    let (mut client, mut server) = connect(
        &cluster,
        NodeId(0),
        NodeId(1),
        StreamKind::HostTcp,
        SocketsConfig::default(),
    );
    let cl = cluster.clone();
    sim.handle().spawn_detached(async move {
        let _query = server.recv().await;
        cl.cpu(NodeId(1)).execute(q.scan_ns()).await;
        let result = Bytes::from(vec![1u8; CHUNK]);
        for chunk in q.chunks(CHUNK) {
            server.send_bytes(result.slice(..chunk)).await;
        }
    });
    let h = sim.handle();
    sim.run_to(async move {
        client
            .send_bytes(Bytes::from_static(
                b"SELECT name, size FROM satellite_tiles",
            ))
            .await;
        let mut got = 0;
        while got < q.result_bytes() {
            got += client.recv().await.len();
        }
        h.now()
    })
}

/// DDSS build: results become shared segments, pulled with RDMA reads.
fn run_ddss(records: usize) -> u64 {
    let q = StormQuery::with_records(records);
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    let cfg = DdssConfig {
        heap_bytes: 16 * 1024 * 1024,
        ..DdssConfig::default()
    };
    let ddss = Ddss::new(&cluster, cfg, &[NodeId(0), NodeId(1)]);
    let query_port = cluster.alloc_port_for(NodeId(1), "example.query");
    let done_port = cluster.alloc_port_for(NodeId(0), "example.done");
    let mut query_ep = bind_raw(&cluster, NodeId(1), query_port);
    let server = ddss.client(NodeId(1));
    let cl = cluster.clone();
    sim.handle().spawn_detached(async move {
        let _query = query_ep.recv().await;
        cl.cpu(NodeId(1)).execute(q.scan_ns()).await;
        let mut notice = Vec::new();
        for chunk in q.chunks(CHUNK) {
            let key = server
                .allocate(NodeId(1), chunk, Coherence::Read)
                .await
                .expect("heap");
            server.put(&key, &vec![1u8; chunk]).await;
            notice.extend_from_slice(&key.id.to_le_bytes());
            notice.extend_from_slice(&(key.block_off as u64).to_le_bytes());
            notice.extend_from_slice(&(key.len as u64).to_le_bytes());
            notice.extend_from_slice(&key.region.0.to_le_bytes());
        }
        cl.send(
            NodeId(1),
            NodeId(0),
            done_port,
            Bytes::from(notice),
            Transport::RdmaSend,
        )
        .await;
    });
    let mut done_ep = bind_raw(&cluster, NodeId(0), done_port);
    let reader = ddss.client(NodeId(0));
    let cl2 = cluster.clone();
    let h = sim.handle();
    sim.run_to(async move {
        cl2.send(
            NodeId(0),
            NodeId(1),
            query_port,
            Bytes::from_static(b"SELECT name, size FROM satellite_tiles"),
            Transport::RdmaSend,
        )
        .await;
        let notice = done_ep.recv().await;
        let mut got = 0;
        for e in notice.data.chunks_exact(28) {
            let key = nextgen_datacenter::ddss::SharedKey {
                id: u64::from_le_bytes(e[0..8].try_into().unwrap()),
                home: NodeId(1),
                region: nextgen_datacenter::fabric::RegionId(u32::from_le_bytes(
                    e[24..28].try_into().unwrap(),
                )),
                block_off: u64::from_le_bytes(e[8..16].try_into().unwrap()) as usize,
                len: u64::from_le_bytes(e[16..24].try_into().unwrap()) as usize,
                coherence: Coherence::Read,
            };
            got += reader.get(&key).await.len();
        }
        assert_eq!(got, q.result_bytes());
        h.now()
    })
}

fn main() {
    println!("STORM-style distributed query: sockets vs DDSS transport\n");
    println!(
        "{:>8}  {:>12}  {:>12}  {:>12}",
        "records", "sockets", "DDSS", "improvement"
    );
    for records in StormQuery::FIG3B_RECORDS {
        let s = run_sockets(records);
        let d = run_ddss(records);
        println!(
            "{:>8}  {:>12}  {:>12}  {:>11.1}%",
            records,
            fmt_time(s),
            fmt_time(d),
            100.0 * (s as f64 - d as f64) / s as f64
        );
    }
}
