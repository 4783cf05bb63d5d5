//! Figure 3b — distributed STORM query execution time: traditional sockets
//! vs DDSS transport.
//!
//! A client node issues a record-selection query to a data node. The data
//! node scans (CPU), then ships the result: over a host-TCP stream in the
//! traditional build, or through DDSS segments that the client pulls with
//! one-sided reads in the STORM-DDSS build. Paper claim: ≈19% improvement
//! with DDSS.

use std::rc::Rc;

use bytes::Bytes;
use dc_ddss::{Coherence, Ddss, DdssConfig};
use dc_fabric::{Cluster, FabricModel, NodeId, Transport};
use dc_sim::time::as_ms;
use dc_sim::Sim;
use dc_sockets::{connect, SocketsConfig, StreamKind};
use dc_svc::bind_raw;
use dc_workloads::StormQuery;

/// Transfer chunk used by both transports.
pub const CHUNK: usize = 32 * 1024;

/// Which transport the STORM build uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormTransport {
    /// Traditional: results stream over host TCP.
    Sockets,
    /// STORM-DDSS: results are published as shared segments and pulled.
    Ddss,
}

/// Execute one query and return its completion time in nanoseconds.
pub fn query_time_ns(records: usize, transport: StormTransport) -> u64 {
    let q = StormQuery::with_records(records);
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    let client_node = NodeId(0);
    let data_node = NodeId(1);
    let h = sim.handle();
    match transport {
        StormTransport::Sockets => {
            let (mut client_end, mut server_end) = connect(
                &cluster,
                client_node,
                data_node,
                StreamKind::HostTcp,
                SocketsConfig,
            );
            let cl = cluster.clone();
            sim.handle().spawn_detached(async move {
                // Data node: receive the query, scan, stream the result.
                let _query = server_end.recv().await;
                cl.cpu(data_node).execute(q.scan_ns()).await;
                let result = Bytes::from(vec![0x5Au8; CHUNK]);
                for chunk in q.chunks(CHUNK) {
                    server_end.send_bytes(result.slice(..chunk)).await;
                }
            });
            sim.run_to(async move {
                client_end
                    .send_bytes(Bytes::from_static(b"SELECT * WHERE ..."))
                    .await;
                let mut got = 0;
                while got < q.result_bytes() {
                    let m = client_end.recv().await;
                    got += m.len();
                }
                h.now()
            })
        }
        StormTransport::Ddss => {
            // Heap must hold the largest result set (100K × 100B = 10MB).
            let ddss_cfg = DdssConfig {
                heap_bytes: 16 * 1024 * 1024,
                ..DdssConfig::default()
            };
            let ddss = Rc::new(Ddss::new(&cluster, ddss_cfg, &[client_node, data_node]));
            // Control channel for query + completion notification.
            let query_port = cluster.alloc_port_for(data_node, "bench.fig3b.query");
            let done_port = cluster.alloc_port_for(client_node, "bench.fig3b.done");
            let mut query_ep = bind_raw(&cluster, data_node, query_port);
            let cl = cluster.clone();
            let ddss2 = Rc::clone(&ddss);
            sim.handle().spawn_detached(async move {
                let _query = query_ep.recv().await;
                cl.cpu(data_node).execute(q.scan_ns()).await;
                // Publish result chunks as local DDSS segments (home = data
                // node: puts are node-local writes), then notify.
                let server = ddss2.client(data_node);
                let result = Bytes::from(vec![0x5Au8; CHUNK]);
                let mut keys = Vec::new();
                for chunk in q.chunks(CHUNK) {
                    let key = server
                        .allocate(data_node, chunk, Coherence::Read)
                        .await
                        .expect("ddss heap exhausted");
                    server.put(&key, &result.slice(..chunk)).await;
                    keys.push(key);
                }
                let mut notice = Vec::new();
                for k in &keys {
                    notice.extend_from_slice(&k.id.to_le_bytes());
                    notice.extend_from_slice(&(k.block_off as u64).to_le_bytes());
                    notice.extend_from_slice(&(k.len as u64).to_le_bytes());
                    notice.extend_from_slice(&k.region.0.to_le_bytes());
                }
                cl.send(
                    data_node,
                    client_node,
                    done_port,
                    Bytes::from(notice),
                    Transport::RdmaSend,
                )
                .await;
                // Keys are reconstructed client-side from the notice.
                drop(keys);
            });
            let mut done_ep = bind_raw(&cluster, client_node, done_port);
            let cl2 = cluster.clone();
            let ddss3 = Rc::clone(&ddss);
            sim.run_to(async move {
                cl2.send(
                    client_node,
                    data_node,
                    query_port,
                    Bytes::from_static(b"SELECT * WHERE ..."),
                    Transport::RdmaSend,
                )
                .await;
                let notice = done_ep.recv().await;
                let client = ddss3.client(client_node);
                // Pull every segment with one-sided reads.
                let n = notice.data.len() / 28;
                let mut got = 0usize;
                for i in 0..n {
                    let b = &notice.data[i * 28..(i + 1) * 28];
                    let key = dc_ddss::SharedKey {
                        id: u64::from_le_bytes(b[0..8].try_into().unwrap()),
                        home: data_node,
                        region: dc_fabric::RegionId(u32::from_le_bytes(
                            b[24..28].try_into().unwrap(),
                        )),
                        block_off: u64::from_le_bytes(b[8..16].try_into().unwrap()) as usize,
                        len: u64::from_le_bytes(b[16..24].try_into().unwrap()) as usize,
                        coherence: Coherence::Read,
                    };
                    let data = client.get(&key).await;
                    got += data.len();
                }
                assert_eq!(got, q.result_bytes());
                h.now()
            })
        }
    }
}

/// Result row: record count, traditional ms, DDSS ms.
#[derive(Debug, Clone, Copy)]
pub struct StormRow {
    /// Records selected.
    pub records: usize,
    /// Traditional (sockets) execution time, ms.
    pub storm_ms: f64,
    /// STORM-DDSS execution time, ms.
    pub ddss_ms: f64,
}

impl StormRow {
    /// Relative improvement of DDSS over the traditional build.
    pub fn improvement(&self) -> f64 {
        (self.storm_ms - self.ddss_ms) / self.storm_ms
    }
}

/// Run the paper's record sweep.
pub fn run() -> Vec<StormRow> {
    StormQuery::FIG3B_RECORDS
        .iter()
        .map(|&records| StormRow {
            records,
            storm_ms: as_ms(query_time_ns(records, StormTransport::Sockets)),
            ddss_ms: as_ms(query_time_ns(records, StormTransport::Ddss)),
        })
        .collect()
}

/// Render the paper-style table.
pub fn table(rows: &[StormRow]) -> dc_core::Table {
    let mut t = dc_core::Table::new(
        "Fig 3b — Distributed STORM query execution time",
        &["records", "STORM (ms)", "STORM-DDSS (ms)", "improvement"],
    );
    for r in rows {
        t.row(vec![
            r.records.to_string(),
            format!("{:.2}", r.storm_ms),
            format!("{:.2}", r.ddss_ms),
            dc_core::table::pct(r.improvement()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddss_beats_sockets_at_scale() {
        let row = StormRow {
            records: 10_000,
            storm_ms: as_ms(query_time_ns(10_000, StormTransport::Sockets)),
            ddss_ms: as_ms(query_time_ns(10_000, StormTransport::Ddss)),
        };
        assert!(
            row.ddss_ms < row.storm_ms,
            "ddss {} vs storm {}",
            row.ddss_ms,
            row.storm_ms
        );
        // Paper reports ≈19%; accept a 5%–45% band for the shape.
        let imp = row.improvement();
        assert!(imp > 0.05 && imp < 0.45, "improvement {imp}");
    }

    #[test]
    fn both_transports_scale_with_records() {
        let small = query_time_ns(1_000, StormTransport::Ddss);
        let large = query_time_ns(10_000, StormTransport::Ddss);
        assert!(large > 5 * small, "small {small} large {large}");
    }
}
