//! Backend tier model: the application-server/database origin that serves
//! cache misses.
//!
//! A miss pays the full multi-tier price: a TCP request to the backend node,
//! query CPU there (competing with other misses), storage latency, and a
//! TCP response carrying the document. This is the cost the caching schemes
//! amortize — its ratio to a remote-RDMA fetch determines how much
//! cooperation pays.

use std::rc::Rc;

use bytes::Bytes;
use dc_fabric::{Cluster, NodeId, Transport};
use dc_svc::{
    parse_request, respond_bytes, Cost, Dispatcher, Mode, Service, ServiceSpec, Subsys, SvcClient,
};
use dc_workloads::FileSet;

use crate::lru::DocId;

/// Query-processing CPU per request.
const CPU_BASE_NS: u64 = 150_000;
/// Additional CPU per KiB of result.
const CPU_PER_KB_NS: u64 = 2_000;
/// Storage access latency (overlappable across requests).
const IO_NS: u64 = 1_200_000;

/// Handle to a running backend service.
#[derive(Clone)]
pub struct Backend {
    node: NodeId,
    port: u16,
    fileset: Rc<FileSet>,
}

impl Backend {
    /// Spawn the backend daemon on `node`, serving documents of `fileset`.
    pub fn spawn(cluster: &Cluster, node: NodeId, fileset: Rc<FileSet>) -> Backend {
        let port = cluster.alloc_port_for(node, "coopcache.backend");
        // Query processing competes for the backend CPU; storage latency
        // overlaps across concurrent requests. Each request runs in its own
        // handler task (Concurrent) so the daemon keeps accepting.
        let spec = ServiceSpec {
            name: "coopcache.backend",
            subsys: Subsys::Coopcache,
            node,
            port,
            cost: Cost::None,
            mode: Mode::Concurrent,
            queue_cap: None,
        };
        let fs = Rc::clone(&fileset);
        let dispatcher = Dispatcher::new().fallback(move |ctx, msg| {
            let fs = Rc::clone(&fs);
            async move {
                let req = parse_request(&msg);
                let doc = u32::from_le_bytes(req.payload[..4].try_into().unwrap()) as usize;
                let size = fs.size(doc);
                let cpu_ns = CPU_BASE_NS + (size as u64 * CPU_PER_KB_NS).div_ceil(1024);
                ctx.cluster.cpu(node).execute(cpu_ns).await;
                ctx.cluster.sim().sleep(IO_NS).await;
                // The document's window of the shared pattern is the
                // response buffer: nothing is generated or copied here.
                let content = Bytes::from_static(fs.content(doc, size));
                respond_bytes(&ctx.cluster, node, &req, content, Transport::Tcp).await;
            }
        });
        Service::spawn(cluster, spec, dispatcher);
        Backend {
            node,
            port,
            fileset,
        }
    }

    /// The backend's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The working set served.
    pub fn fileset(&self) -> &Rc<FileSet> {
        &self.fileset
    }

    /// Fetch `doc` through `client` (the caller's control-plane client).
    pub async fn fetch(&self, client: &SvcClient, doc: DocId) -> Bytes {
        client
            .call(self.node, self.port, &doc.to_le_bytes(), Transport::Tcp)
            .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::time::ms;
    use dc_sim::Sim;

    fn setup() -> (Sim, Cluster, Backend) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 3);
        let fs = Rc::new(FileSet::uniform(16, 8192));
        let backend = Backend::spawn(&cluster, NodeId(2), fs);
        (sim, cluster, backend)
    }

    #[test]
    fn fetch_returns_document_content() {
        let (sim, cluster, backend) = setup();
        let rpc = SvcClient::new(&cluster, NodeId(0));
        let data = sim.run_to(async move { backend.fetch(&rpc, 3).await });
        assert_eq!(data.len(), 8192);
        assert_eq!(data[0], FileSet::content_byte(3, 0));
        assert_eq!(data[100], FileSet::content_byte(3, 100));
    }

    #[test]
    fn fetch_pays_cpu_io_and_transfer() {
        let (sim, cluster, backend) = setup();
        let rpc = SvcClient::new(&cluster, NodeId(0));
        let h = sim.handle();
        let t = sim.run_to(async move {
            backend.fetch(&rpc, 0).await;
            h.now()
        });
        // Must at least cover IO + query CPU; well above any cache path.
        assert!(t > ms(1), "backend fetch took only {t}ns");
        assert!(cluster.cpu(NodeId(2)).snapshot().busy_ns > 150_000);
    }

    #[test]
    fn concurrent_fetches_overlap_io() {
        let (sim, _cluster, backend) = setup();
        let h = sim.handle();
        let mut joins = Vec::new();
        for n in 0..4u32 {
            let b = backend.clone();
            let rpc = SvcClient::new(&_cluster, NodeId(0));
            let hh = h.clone();
            joins.push(sim.spawn(async move {
                b.fetch(&rpc, n).await;
                hh.now()
            }));
        }
        sim.run();
        let last = joins.iter().map(|j| j.try_take().unwrap()).max().unwrap();
        // Four serialized fetches would take > 4 × 1.35ms; overlap keeps the
        // tail well under that.
        assert!(last < ms(4), "no overlap: last finished at {last}ns");
    }
}
