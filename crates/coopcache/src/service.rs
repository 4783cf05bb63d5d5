//! The cooperative cache service: scheme dispatch over the cache nodes.
//!
//! `serve(proxy, doc)` implements the five schemes' decision trees:
//!
//! * **AC** — local cache only; misses go to the backend and populate the
//!   local cache.
//! * **BCC** — on a local miss, look the document up in the shared
//!   directory and RDMA-read it from any holder, then *also* cache it
//!   locally (duplication is allowed, trading memory for locality).
//! * **CCWR** — each document has one hash-designated owner among the
//!   proxies; non-owners RDMA-read from the owner and never keep a copy,
//!   so the aggregate cache holds no duplicates.
//! * **MTACC** — CCWR with the owner set extended by application-tier
//!   nodes whose memory joins the aggregate cache.
//! * **HYBCC** — documents at or below `HYB_DUP_THRESHOLD` take the BCC
//!   path (duplicated, zero-hop hot hits); larger documents take the MTACC
//!   path (no duplication of expensive bytes).

use std::rc::Rc;

use bytes::Bytes;
use dc_fabric::{Cluster, NodeId};
use dc_sim::fxhash::FxHashMap;
use dc_trace::{Counter, Subsys};
use dc_workloads::FileSet;

use crate::backend::Backend;
use crate::directory::Directory;
use crate::lru::DocId;
use crate::node::{CacheCfg, CacheNode};
use crate::scheme::CacheScheme;

/// HYBCC: documents at or below this size are duplicated locally
/// (BCC-style); larger ones stay single-copy (MTACC-style).
const HYB_DUP_THRESHOLD: usize = 16 * 1024;

/// How a request was satisfied (for hit-rate accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeOutcome {
    /// Served from the proxy's own cache.
    LocalHit,
    /// Served by one-sided RDMA from another node's cache.
    RemoteHit(NodeId),
    /// Required a backend fetch.
    BackendMiss,
}

/// Aggregated serve counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Local cache hits.
    pub local_hits: u64,
    /// Remote (cooperative) hits.
    pub remote_hits: u64,
    /// Backend fetches.
    pub backend_misses: u64,
    /// Stale-soft-state fallbacks that turned into backend fetches.
    pub stale_fallbacks: u64,
}

impl CacheStats {
    /// Total requests served.
    pub fn total(&self) -> u64 {
        self.local_hits + self.remote_hits + self.backend_misses
    }

    /// Fraction of requests served from some cache.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.local_hits + self.remote_hits) as f64 / self.total() as f64
    }
}

struct Inner {
    cluster: Cluster,
    scheme: CacheScheme,
    nodes: FxHashMap<NodeId, CacheNode>,
    proxies: Vec<NodeId>,
    owners: Vec<NodeId>,
    fileset: Rc<FileSet>,
    // Serve-outcome counters live in the cluster's unified metrics registry
    // so traced/bench runs enumerate them alongside fabric and DLM metrics;
    // `stats()` reads them back through the same handles.
    local_hits: Counter,
    remote_hits: Counter,
    backend_misses: Counter,
    stale_fallbacks: Counter,
}

/// The cooperative cache spanning the proxy (and optionally app) tier.
#[derive(Clone)]
pub struct CoopCache {
    inner: Rc<Inner>,
}

impl CoopCache {
    /// Build the service. `app_nodes` join the aggregate cache only under
    /// MTACC/HYBCC; they still host `CacheNode` daemons otherwise (idle).
    #[allow(clippy::too_many_arguments)] // mirrors the deployment topology
    pub fn build(
        cluster: &Cluster,
        scheme: CacheScheme,
        proxies: &[NodeId],
        app_nodes: &[NodeId],
        backend: Backend,
        fileset: Rc<FileSet>,
        cfg: CacheCfg,
        directory_home: NodeId,
    ) -> CoopCache {
        assert!(!proxies.is_empty());
        let directory = Directory::new(cluster, directory_home, fileset.len());
        let mut nodes = FxHashMap::default();
        for &n in proxies.iter().chain(app_nodes) {
            // Every cache node needs its bit in the holder bitmaps: an id
            // without one is refused here, not mid-run inside a detached
            // directory-publish task.
            let _ = Directory::bit(n);
            nodes.insert(
                n,
                CacheNode::new(
                    cluster,
                    n,
                    cfg,
                    directory.clone(),
                    backend.clone(),
                    fileset.len(),
                ),
            );
        }
        let owners: Vec<NodeId> = if scheme.uses_app_tier() {
            proxies.iter().chain(app_nodes).copied().collect()
        } else {
            proxies.to_vec()
        };
        let metrics = cluster.metrics();
        CoopCache {
            inner: Rc::new(Inner {
                cluster: cluster.clone(),
                scheme,
                nodes,
                proxies: proxies.to_vec(),
                owners,
                fileset,
                local_hits: metrics.counter("coopcache.local_hits"),
                remote_hits: metrics.counter("coopcache.remote_hits"),
                backend_misses: metrics.counter("coopcache.backend_misses"),
                stale_fallbacks: metrics.counter("coopcache.stale_fallbacks"),
            }),
        }
    }

    /// The scheme in force.
    pub fn scheme(&self) -> CacheScheme {
        self.inner.scheme
    }

    /// The proxy nodes.
    pub fn proxies(&self) -> &[NodeId] {
        &self.inner.proxies
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            local_hits: self.inner.local_hits.get(),
            remote_hits: self.inner.remote_hits.get(),
            backend_misses: self.inner.backend_misses.get(),
            stale_fallbacks: self.inner.stale_fallbacks.get(),
        }
    }

    /// The hash-designated owner of `doc` under the current owner set.
    pub fn owner_of(&self, doc: DocId) -> NodeId {
        self.inner.owners[doc as usize % self.inner.owners.len()]
    }

    /// Bytes cached per node, in node-id order.
    #[cfg(test)]
    pub fn node_bytes_used(&self) -> Vec<(NodeId, usize)> {
        let mut v: Vec<(NodeId, usize)> = self
            .inner
            .nodes
            .iter()
            .map(|(&n, cn)| (n, cn.bytes_used()))
            .collect();
        v.sort_by_key(|&(n, _)| n);
        v
    }

    /// Duplication factor: total cached bytes divided by the bytes of
    /// *distinct* cached documents. 1.0 means no redundancy (CCWR's
    /// invariant); BCC trades capacity for locality and exceeds it.
    #[cfg(test)]
    pub fn duplication_factor(&self) -> f64 {
        let total: usize = self.inner.nodes.values().map(|cn| cn.bytes_used()).sum();
        let mut distinct = 0usize;
        for doc in 0..self.inner.fileset.len() {
            if self
                .inner
                .nodes
                .values()
                .any(|cn| cn.contains(doc as DocId))
            {
                distinct += self.inner.fileset.size(doc) + crate::node::DOC_HDR;
            }
        }
        if distinct == 0 {
            1.0
        } else {
            total as f64 / distinct as f64
        }
    }

    fn node(&self, n: NodeId) -> &CacheNode {
        &self.inner.nodes[&n]
    }

    /// The origin's copy of `doc`, for serves that end up uncached: the
    /// document's window of the shared pattern, borrowed.
    fn origin_content(&self, doc: DocId, size: usize) -> Bytes {
        Bytes::from_static(self.inner.fileset.content(doc as usize, size))
    }

    /// A cooperative fast path went stale mid-serve and degraded to a
    /// backend fetch: count it and leave a marker on the proxy's track.
    fn note_degrade(&self, proxy: NodeId, doc: DocId) {
        self.inner.stale_fallbacks.inc();
        if self.inner.cluster.tracer().is_enabled() {
            self.inner.cluster.tracer().instant(
                proxy.0,
                Subsys::Coopcache,
                "cache.degrade",
                vec![("doc", u64::from(doc).into())],
            );
        }
    }

    /// Serve `doc` at `proxy`; returns the content and how it was obtained.
    pub async fn serve(&self, proxy: NodeId, doc: DocId) -> (Bytes, ServeOutcome) {
        let t0 = self.inner.cluster.tracer().begin();
        let size = self.inner.fileset.size(doc as usize);
        let (data, outcome) = match self.inner.scheme {
            CacheScheme::Ac => self.serve_local_only(proxy, doc, size).await,
            CacheScheme::Bcc => self.serve_bcc(proxy, doc, size).await,
            CacheScheme::Ccwr | CacheScheme::Mtacc => self.serve_owner(proxy, doc, size).await,
            CacheScheme::Hybcc => {
                if size <= HYB_DUP_THRESHOLD {
                    self.serve_bcc(proxy, doc, size).await
                } else {
                    self.serve_owner(proxy, doc, size).await
                }
            }
        };
        match outcome {
            ServeOutcome::LocalHit => self.inner.local_hits.inc(),
            ServeOutcome::RemoteHit(_) => self.inner.remote_hits.inc(),
            ServeOutcome::BackendMiss => self.inner.backend_misses.inc(),
        }
        if let Some(t0) = t0 {
            let (outcome_label, source) = match outcome {
                ServeOutcome::LocalHit => ("local_hit", proxy.0),
                ServeOutcome::RemoteHit(h) => ("remote_hit", h.0),
                ServeOutcome::BackendMiss => ("backend_miss", proxy.0),
            };
            self.inner.cluster.tracer().complete(
                t0,
                proxy.0,
                Subsys::Coopcache,
                "cache.serve",
                vec![
                    ("doc", u64::from(doc).into()),
                    ("bytes", (size as u64).into()),
                    ("outcome", outcome_label.into()),
                    ("source", u64::from(source).into()),
                ],
            );
        }
        (data, outcome)
    }

    async fn serve_local_only(
        &self,
        proxy: NodeId,
        doc: DocId,
        size: usize,
    ) -> (Bytes, ServeOutcome) {
        let node = self.node(proxy);
        if let Some(data) = node.local_get(doc, size).await {
            return (data, ServeOutcome::LocalHit);
        }
        node.ensure_local(doc, size).await;
        let data = node
            .local_get(doc, size)
            .await
            .unwrap_or_else(|| self.origin_content(doc, size));
        (data, ServeOutcome::BackendMiss)
    }

    async fn serve_bcc(&self, proxy: NodeId, doc: DocId, size: usize) -> (Bytes, ServeOutcome) {
        let node = self.node(proxy);
        if let Some(data) = node.local_get(doc, size).await {
            return (data, ServeOutcome::LocalHit);
        }
        // Consult the shared directory for a cooperative holder.
        let bm = node.directory().lookup(proxy, doc).await;
        let holder = Directory::pick_holder(bm & !Directory::bit(proxy), None);
        if let Some(h) = holder {
            if let Some(holder_node) = self.inner.nodes.get(&h) {
                match node.remote_get(holder_node, doc, size).await {
                    Ok(data) => {
                        // BCC duplicates: keep a local copy for next time.
                        node.install(doc, &data).await;
                        return (data, ServeOutcome::RemoteHit(h));
                    }
                    Err(()) => {
                        self.note_degrade(proxy, doc);
                    }
                }
            }
        }
        node.ensure_local(doc, size).await;
        let data = node
            .local_get(doc, size)
            .await
            .unwrap_or_else(|| self.origin_content(doc, size));
        (data, ServeOutcome::BackendMiss)
    }

    async fn serve_owner(&self, proxy: NodeId, doc: DocId, size: usize) -> (Bytes, ServeOutcome) {
        let owner = self.owner_of(doc);
        let node = self.node(proxy);
        if owner == proxy {
            return self.serve_local_only(proxy, doc, size).await;
        }
        let owner_node = self.node(owner);
        // One-sided probe of the owner's cache.
        match node.remote_get(owner_node, doc, size).await {
            Ok(data) => (data, ServeOutcome::RemoteHit(owner)),
            Err(()) => {
                // Owner does not hold it: ask the owner to fetch and cache
                // (single copy stays at the owner), then read it.
                match node.reserve_at(owner_node, doc).await {
                    Some(_) => match node.remote_get(owner_node, doc, size).await {
                        Ok(data) => (data, ServeOutcome::BackendMiss),
                        Err(()) => {
                            // Evicted between reserve and read (thrashing):
                            // fall back to a direct backend fetch without
                            // caching (no duplication).
                            self.note_degrade(proxy, doc);
                            let data = owner_node
                                .local_get(doc, size)
                                .await
                                .unwrap_or_else(|| self.origin_content(doc, size));
                            (data, ServeOutcome::BackendMiss)
                        }
                    },
                    None => {
                        // Uncacheable at the owner (too big): direct fetch.
                        let data = self.origin_content(doc, size);
                        (data, ServeOutcome::BackendMiss)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::Sim;

    fn setup(
        scheme: CacheScheme,
        per_node_bytes: usize,
        docs: usize,
        doc_size: usize,
    ) -> (Sim, Cluster, CoopCache) {
        let sim = Sim::new();
        // 0: directory home + backend host, 1-2: proxies, 3: app tier.
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
        let fs = Rc::new(FileSet::uniform(docs, doc_size));
        let backend = Backend::spawn(&cluster, NodeId(0), Rc::clone(&fs));
        let cfg = CacheCfg { per_node_bytes };
        let cache = CoopCache::build(
            &cluster,
            scheme,
            &[NodeId(1), NodeId(2)],
            &[NodeId(3)],
            backend,
            fs,
            cfg,
            NodeId(0),
        );
        (sim, cluster, cache)
    }

    fn expected(doc: DocId, size: usize) -> Vec<u8> {
        (0..size)
            .map(|off| FileSet::content_byte(doc as usize, off))
            .collect()
    }

    #[test]
    #[should_panic(expected = "no bit for NodeId(64)")]
    fn build_refuses_a_node_without_a_bitmap_bit() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 65);
        let fs = Rc::new(FileSet::uniform(4, 4096));
        let backend = Backend::spawn(&cluster, NodeId(0), Rc::clone(&fs));
        CoopCache::build(
            &cluster,
            CacheScheme::Bcc,
            &[NodeId(1), NodeId(64)],
            &[],
            backend,
            fs,
            CacheCfg::default(),
            NodeId(0),
        );
    }

    #[test]
    fn ac_never_cooperates() {
        let (sim, _c, cache) = setup(CacheScheme::Ac, 1 << 20, 8, 4096);
        let cc = cache.clone();
        sim.run_to(async move {
            // Proxy 1 warms doc 0; proxy 2 must still miss to the backend.
            let (_, o1) = cc.serve(NodeId(1), 0).await;
            assert_eq!(o1, ServeOutcome::BackendMiss);
            let (_, o2) = cc.serve(NodeId(2), 0).await;
            assert_eq!(o2, ServeOutcome::BackendMiss);
            let (_, o3) = cc.serve(NodeId(1), 0).await;
            assert_eq!(o3, ServeOutcome::LocalHit);
        });
        assert_eq!(cache.stats().remote_hits, 0);
    }

    #[test]
    fn bcc_fetches_remotely_and_duplicates() {
        let (sim, _c, cache) = setup(CacheScheme::Bcc, 1 << 20, 8, 4096);
        let cc = cache.clone();
        let h = sim.handle();
        sim.run_to(async move {
            let (_, o1) = cc.serve(NodeId(1), 0).await;
            assert_eq!(o1, ServeOutcome::BackendMiss);
            // Directory publication is asynchronous soft state; allow it to
            // propagate before the cooperative lookup.
            h.sleep(dc_sim::time::us(100)).await;
            let (d2, o2) = cc.serve(NodeId(2), 0).await;
            assert_eq!(o2, ServeOutcome::RemoteHit(NodeId(1)));
            assert_eq!(&d2[..], &expected(0, 4096)[..]);
            // Duplicated: now proxy 2 hits locally.
            let (_, o3) = cc.serve(NodeId(2), 0).await;
            assert_eq!(o3, ServeOutcome::LocalHit);
        });
    }

    /// A 16 KiB BCC remote hit — directory lookup, index read, scatter data
    /// read, local install — takes the virtual time it took when the
    /// install copied the document into the region (PR 15): holding the
    /// payload instead changes no simulated cost.
    #[test]
    fn bcc_remote_hit_then_install_cost_is_pinned() {
        let (sim, _c, cache) = setup(CacheScheme::Bcc, 1 << 20, 8, 16 * 1024);
        let cc = cache.clone();
        let h = sim.handle();
        let took = sim.run_to(async move {
            cc.serve(NodeId(1), 0).await;
            h.sleep(dc_sim::time::us(100)).await; // directory publication
            let t0 = h.now();
            let (data, o) = cc.serve(NodeId(2), 0).await;
            let took = h.now() - t0;
            assert_eq!(o, ServeOutcome::RemoteHit(NodeId(1)));
            assert_eq!(&data[..], &expected(0, 16 * 1024)[..]);
            let (again, o) = cc.serve(NodeId(2), 0).await;
            assert_eq!(o, ServeOutcome::LocalHit);
            assert_eq!(
                again.as_ptr(),
                data.as_ptr(),
                "the installed copy is a copy"
            );
            took
        });
        assert_eq!(took, 66_938);
    }

    #[test]
    fn ccwr_keeps_single_copy_at_owner() {
        let (sim, _c, cache) = setup(CacheScheme::Ccwr, 1 << 20, 8, 4096);
        let cc = cache.clone();
        sim.run_to(async move {
            let doc = 0u32;
            let owner = cc.owner_of(doc);
            let non_owner = if owner == NodeId(1) {
                NodeId(2)
            } else {
                NodeId(1)
            };
            let (d, o) = cc.serve(non_owner, doc).await;
            assert_eq!(o, ServeOutcome::BackendMiss);
            assert_eq!(&d[..], &expected(doc, 4096)[..]);
            // The copy lives at the owner, not the requester.
            let (_, o2) = cc.serve(non_owner, doc).await;
            assert_eq!(o2, ServeOutcome::RemoteHit(owner));
            let (_, o3) = cc.serve(owner, doc).await;
            assert_eq!(o3, ServeOutcome::LocalHit);
        });
    }

    #[test]
    fn mtacc_uses_app_tier_memory() {
        let (sim, _c, cache) = setup(CacheScheme::Mtacc, 1 << 20, 9, 4096);
        // Owner set = {1, 2, 3}: some document is owned by the app node 3.
        let doc = (0..9u32)
            .find(|&d| cache.owner_of(d) == NodeId(3))
            .expect("no app-owned doc");
        let cc = cache.clone();
        sim.run_to(async move {
            let (_, o) = cc.serve(NodeId(1), doc).await;
            assert_eq!(o, ServeOutcome::BackendMiss);
            let (_, o2) = cc.serve(NodeId(2), doc).await;
            assert_eq!(o2, ServeOutcome::RemoteHit(NodeId(3)));
        });
    }

    #[test]
    fn hybcc_splits_by_size() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
        // Doc 0: small (duplicable); doc 1: large (single copy).
        let fs = Rc::new(FileSet::cycled(2, &[4 * 1024, 32 * 1024]));
        let backend = Backend::spawn(&cluster, NodeId(0), Rc::clone(&fs));
        let cache = CoopCache::build(
            &cluster,
            CacheScheme::Hybcc,
            &[NodeId(1), NodeId(2)],
            &[NodeId(3)],
            backend,
            fs,
            CacheCfg::default(),
            NodeId(0),
        );
        let cc = cache.clone();
        sim.run_to(async move {
            // Small doc: BCC path → after a remote hit it is duplicated.
            cc.serve(NodeId(1), 0).await;
            cc.serve(NodeId(2), 0).await;
            let (_, o) = cc.serve(NodeId(2), 0).await;
            assert_eq!(o, ServeOutcome::LocalHit);
            // Large doc: owner path → non-owner never keeps a copy.
            let owner = cc.owner_of(1);
            let other = if owner == NodeId(1) {
                NodeId(2)
            } else {
                NodeId(1)
            };
            cc.serve(other, 1).await;
            let (_, o2) = cc.serve(other, 1).await;
            assert_eq!(o2, ServeOutcome::RemoteHit(owner));
        });
    }

    #[test]
    fn duplication_factor_separates_bcc_from_ccwr() {
        let run = |scheme: CacheScheme| {
            let (sim, _c, cache) = setup(scheme, 1 << 20, 16, 4096);
            let cc = cache.clone();
            let h = sim.handle();
            sim.run_to(async move {
                // Both proxies touch every doc twice so BCC duplicates.
                for round in 0..2 {
                    for doc in 0..16u32 {
                        cc.serve(NodeId(1), doc).await;
                        cc.serve(NodeId(2), doc).await;
                    }
                    let _ = round;
                    h.sleep(dc_sim::time::ms(1)).await;
                }
            });
            cache.duplication_factor()
        };
        let bcc = run(CacheScheme::Bcc);
        let ccwr = run(CacheScheme::Ccwr);
        assert!(
            (ccwr - 1.0).abs() < 1e-9,
            "CCWR must hold one copy per doc, factor {ccwr}"
        );
        assert!(bcc > 1.3, "BCC should duplicate hot docs, factor {bcc}");
    }

    #[test]
    fn node_bytes_accounting_sums() {
        let (sim, _c, cache) = setup(CacheScheme::Ac, 1 << 20, 8, 4096);
        let cc = cache.clone();
        sim.run_to(async move {
            cc.serve(NodeId(1), 0).await;
            cc.serve(NodeId(2), 1).await;
            cc.serve(NodeId(2), 2).await;
        });
        let per_node = cache.node_bytes_used();
        let total: usize = per_node.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 3 * (4096 + crate::node::DOC_HDR));
        assert_eq!(per_node.len(), 3); // two proxies + one app node
    }

    #[test]
    fn serve_outcomes_reach_registry_and_trace() {
        use dc_trace::TraceMode;
        let (sim, c, cache) = setup(CacheScheme::Bcc, 1 << 20, 4, 4096);
        c.tracer().enable(TraceMode::Full);
        let cc = cache.clone();
        sim.run_to(async move {
            for _ in 0..3 {
                cc.serve(NodeId(1), 2).await;
            }
        });
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("coopcache.backend_misses"), 1);
        assert_eq!(snap.counter("coopcache.local_hits"), 2);
        let s = cache.stats();
        assert_eq!(s.backend_misses, snap.counter("coopcache.backend_misses"));
        assert_eq!(s.local_hits, snap.counter("coopcache.local_hits"));
        let serves: Vec<_> = c
            .tracer()
            .events()
            .into_iter()
            .filter(|e| e.name == "cache.serve")
            .collect();
        assert_eq!(serves.len(), 3);
        let outcome = |e: &dc_trace::Event| {
            e.args
                .iter()
                .find(|(k, _)| *k == "outcome")
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(
            outcome(&serves[0]),
            dc_trace::ArgVal::S("backend_miss".into())
        );
        assert_eq!(outcome(&serves[1]), dc_trace::ArgVal::S("local_hit".into()));
    }

    #[test]
    fn stats_accumulate() {
        let (sim, _c, cache) = setup(CacheScheme::Bcc, 1 << 20, 4, 4096);
        let cc = cache.clone();
        sim.run_to(async move {
            for _ in 0..3 {
                cc.serve(NodeId(1), 2).await;
            }
        });
        let s = cache.stats();
        assert_eq!(s.total(), 3);
        assert_eq!(s.backend_misses, 1);
        assert_eq!(s.local_hits, 2);
        assert!(s.hit_rate() > 0.6);
    }
}
