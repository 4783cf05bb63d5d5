//! A cache node: registered cache memory + index, LRU management, and the
//! reserve daemon used by the no-redundancy schemes.
//!
//! Layout: each node registers a *data region* (the cache memory remote
//! proxies read with RDMA) and an *index* of one shared word per document
//! (`offset + 1`, 0 = absent). A cached document is stored as
//! `[doc u32][size u32][content…]`; remote readers validate that header —
//! the index and directory are soft state, so a stale pointer must fail
//! loudly into the backend path rather than serve wrong bytes.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::rc::Rc;

use bytes::Bytes;
use dc_fabric::{Cluster, NodeId, RegionId, RemoteAddr, Transport, WordTable};
use dc_sim::fxhash::FxHashMap;
use dc_sim::sync::Rendezvous;
use dc_svc::{
    parse_request, respond, Cost, Dispatcher, Mode, Service, ServiceSpec, Subsys, SvcClient,
};

use crate::backend::Backend;
use crate::directory::Directory;
use crate::lru::{DocId, LruStore};

/// Header bytes prepended to each cached document.
pub const DOC_HDR: usize = 8;

/// Memory-copy CPU cost per KiB (serving a document out of local cache).
const COPY_PER_KB_NS: u64 = 700;

/// Shape of the cache tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCfg {
    /// Cache memory per node, bytes.
    pub per_node_bytes: usize,
}

impl Default for CacheCfg {
    fn default() -> Self {
        CacheCfg {
            per_node_bytes: 4 * 1024 * 1024,
        }
    }
}

struct Inner {
    cluster: Cluster,
    node: NodeId,
    data_region: RegionId,
    /// Per document: its data-region offset + 1, or 0 when not cached here.
    index: WordTable,
    store: RefCell<LruStore>,
    /// Documents being fetched, each with how many requesters joined the
    /// fetch in flight.
    inflight: RefCell<FxHashMap<DocId, u32>>,
    /// Where joiners park: joiner `k` of a fetch of `doc` under `(doc, k)`.
    joined: Rendezvous<(DocId, u32), ()>,
    directory: Directory,
    backend: Backend,
    client: SvcClient,
    reserve_port: u16,
    backend_fetches: Cell<u64>,
}

/// One cache node (proxy- or app-tier). Clone shares the node.
#[derive(Clone)]
pub struct CacheNode {
    inner: Rc<Inner>,
}

impl CacheNode {
    /// Stand up a cache node with its reserve daemon.
    pub fn new(
        cluster: &Cluster,
        node: NodeId,
        cfg: CacheCfg,
        directory: Directory,
        backend: Backend,
        num_docs: usize,
    ) -> CacheNode {
        let data_region = cluster.register(node, cfg.per_node_bytes);
        let index = WordTable::new(cluster, node, num_docs);
        let reserve_port = cluster.alloc_port_for(node, "coopcache.reserve");
        let cn = CacheNode {
            inner: Rc::new(Inner {
                cluster: cluster.clone(),
                node,
                data_region,
                index,
                store: RefCell::new(LruStore::new(cfg.per_node_bytes)),
                inflight: RefCell::default(),
                joined: Rendezvous::new(),
                directory,
                backend,
                client: SvcClient::new(cluster, node),
                reserve_port,
                backend_fetches: Cell::new(0),
            }),
        };
        cn.spawn_reserve_daemon();
        cn
    }

    /// The node this cache lives on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Port of the reserve daemon (for owner-mode fetches).
    pub fn reserve_port(&self) -> u16 {
        self.inner.reserve_port
    }

    /// The shared directory this node publishes into.
    pub fn directory(&self) -> Directory {
        self.inner.directory.clone()
    }

    /// Remote address of `offset` within the data region.
    pub fn data_addr(&self, offset: usize) -> RemoteAddr {
        RemoteAddr {
            node: self.inner.node,
            region: self.inner.data_region,
            offset,
        }
    }

    /// Backend fetches triggered by this node so far.
    pub fn backend_fetches(&self) -> u64 {
        self.inner.backend_fetches.get()
    }

    /// Bytes of documents currently cached.
    pub fn bytes_used(&self) -> usize {
        self.inner.store.borrow().bytes_used()
    }

    /// Whether `doc` is currently cached (no recency effect).
    pub fn contains(&self, doc: DocId) -> bool {
        self.inner.store.borrow().contains(doc)
    }

    /// CPU cost of copying `len` bytes on this node.
    fn copy_cost(&self, len: usize) -> u64 {
        (len as u64 * COPY_PER_KB_NS).div_ceil(1024)
    }

    /// Look up `doc` locally; on a hit, touch recency, charge the copy, and
    /// return the content.
    pub async fn local_get(&self, doc: DocId, size: usize) -> Option<Bytes> {
        let placement = self.inner.store.borrow_mut().get(doc);
        let (offset, stored) = placement?;
        debug_assert_eq!(stored, size + DOC_HDR);
        let region = self
            .inner
            .cluster
            .region(self.inner.node, self.inner.data_region);
        // A window of the payload the region holds — no host copy; a later
        // install over the slot replaces the extent, not these bytes.
        let data = region.read_bytes(offset + DOC_HDR, size);
        self.inner
            .cluster
            .cpu(self.inner.node)
            .execute(self.copy_cost(size))
            .await;
        Some(data)
    }

    /// Ensure `doc` is cached locally (fetching from the backend on a miss);
    /// returns its data-region offset, or `None` if it cannot fit. Duplicate
    /// concurrent misses for one document coalesce into a single fetch.
    pub async fn ensure_local(&self, doc: DocId, size: usize) -> Option<usize> {
        let inner = &*self.inner;
        loop {
            if let Some((offset, _)) = inner.store.borrow_mut().get(doc) {
                return Some(offset);
            }
            // Join the fetch in flight, or become it.
            let joiner = match inner.inflight.borrow_mut().entry(doc) {
                Entry::Occupied(mut e) => {
                    // A served joiner of the previous fetch that has not run
                    // yet still holds its key: take the next free one.
                    let mut k = *e.get();
                    while inner.joined.contains((doc, k)) {
                        k += 1;
                    }
                    *e.get_mut() = k + 1;
                    Some(k)
                }
                Entry::Vacant(e) => {
                    e.insert(0);
                    None
                }
            };
            match joiner {
                Some(k) => {
                    inner.joined.wait((doc, k)).await;
                    continue; // re-check the store
                }
                None => {
                    let result = self.fetch_and_install(doc, size).await;
                    let joined = inner
                        .inflight
                        .borrow_mut()
                        .remove(&doc)
                        .expect("inflight entry vanished");
                    // Wake the joiners in the order they joined.
                    for k in 0..joined {
                        inner.joined.fulfil((doc, k), ());
                    }
                    return result;
                }
            }
        }
    }

    async fn fetch_and_install(&self, doc: DocId, size: usize) -> Option<usize> {
        self.inner
            .backend_fetches
            .set(self.inner.backend_fetches.get() + 1);
        let content = self.inner.backend.fetch(&self.inner.client, doc).await;
        assert_eq!(content.len(), size, "backend returned wrong size");
        self.install(doc, &content).await
    }

    /// Install already-fetched content into the local cache. Returns the
    /// offset, or `None` if the document exceeds the cache size. If the
    /// document is already cached (a concurrent fetch won), the existing
    /// placement is returned untouched.
    pub async fn install(&self, doc: DocId, content: &Bytes) -> Option<usize> {
        let size = content.len();
        let total = size + DOC_HDR;
        if let Some((offset, _)) = self.inner.store.borrow_mut().get(doc) {
            return Some(offset);
        }
        let (offset, mut evicted) = self.inner.store.borrow_mut().insert(doc, total)?;
        let region = self
            .inner
            .cluster
            .region(self.inner.node, self.inner.data_region);
        let index = &self.inner.index;
        // Invalidate victims: local index first, then the shared directory
        // (background — the directory is soft state).
        for (victim, _, _) in evicted.drain(..) {
            index.poke(victim as usize, 0);
            let dir = self.inner.directory.clone();
            let me = self.inner.node;
            self.inner.cluster.sim().spawn_detached(async move {
                dir.clear(me, victim, me).await;
            });
        }
        self.inner.store.borrow_mut().recycle(evicted);
        // The header is written; the content is held, not copied — the
        // modeled memcpy is still charged below.
        let mut hdr = [0u8; DOC_HDR];
        hdr[..4].copy_from_slice(&doc.to_le_bytes());
        hdr[4..].copy_from_slice(&(size as u32).to_le_bytes());
        region.write(offset, &hdr);
        region.write_bytes(offset + DOC_HDR, content);
        self.inner
            .cluster
            .cpu(self.inner.node)
            .execute(self.copy_cost(total))
            .await;
        index.poke(doc as usize, offset as u64 + 1);
        // Publish in the shared directory (background).
        let dir = self.inner.directory.clone();
        let me = self.inner.node;
        self.inner.cluster.sim().spawn_detached(async move {
            dir.set(me, doc, me).await;
        });
        Some(offset)
    }

    /// Fetch `doc` from `holder` with one-sided RDMA: read its index entry,
    /// then header and data with one scatter read, and validate the header;
    /// the payload piece is a window of what the holder's region holds, so
    /// nothing is copied on the host. `Err(())` means the soft
    /// state was stale **or the holder was unreachable** (caller falls back
    /// to the backend either way — a peer crash degrades to a miss, never
    /// to wrong bytes or a hang).
    pub async fn remote_get(
        &self,
        holder: &CacheNode,
        doc: DocId,
        size: usize,
    ) -> Result<Bytes, ()> {
        let me = self.inner.node;
        let cluster = &self.inner.cluster;
        let index = &holder.inner.index;
        let entry = index.try_read(me, doc as usize).await.map_err(|_| ())?;
        if entry == 0 {
            return Err(());
        }
        let offset = (entry - 1) as usize;
        let (hdr, data) = cluster
            .try_rdma_read_sg(me, holder.data_addr(offset), DOC_HDR, size + DOC_HDR)
            .await
            .map_err(|_| ())?;
        let got_doc = u32::from_le_bytes(hdr[..4].try_into().unwrap());
        let got_size = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
        if got_doc != doc || got_size as usize != size {
            return Err(()); // stale index: slot was reallocated
        }
        Ok(data)
    }

    /// Ask `owner`'s reserve daemon to cache `doc` and return its offset.
    /// `None` means the owner could not cache it — including an owner that
    /// stayed unreachable past the RPC budget (the caller serves from the
    /// backend instead).
    pub async fn reserve_at(&self, owner: &CacheNode, doc: DocId) -> Option<usize> {
        let resp = self
            .inner
            .client
            .try_call(
                owner.node(),
                owner.reserve_port(),
                &doc.to_le_bytes(),
                Transport::RdmaSend,
            )
            .await?;
        let v = u64::from_le_bytes(resp[..8].try_into().unwrap());
        if v == 0 {
            None
        } else {
            Some((v - 1) as usize)
        }
    }

    fn spawn_reserve_daemon(&self) {
        // Each reserve runs in its own handler task (Concurrent) so one
        // backend fetch does not block other requests to this daemon.
        let spec = ServiceSpec {
            name: "coopcache.reserve",
            subsys: Subsys::Coopcache,
            node: self.inner.node,
            port: self.inner.reserve_port,
            cost: Cost::None,
            mode: Mode::Concurrent,
            queue_cap: None,
        };
        let this = self.clone();
        let fileset = Rc::clone(self.inner.backend.fileset());
        let dispatcher = Dispatcher::new().fallback(move |_ctx, msg| {
            let this = this.clone();
            let fileset = Rc::clone(&fileset);
            async move {
                let req = parse_request(&msg);
                let doc = u32::from_le_bytes(req.payload[..4].try_into().unwrap());
                let size = fileset.size(doc as usize);
                let offset = this.ensure_local(doc, size).await;
                let enc = match offset {
                    Some(o) => o as u64 + 1,
                    None => 0,
                };
                respond(
                    &this.inner.cluster,
                    this.inner.node,
                    &req,
                    &enc.to_le_bytes(),
                    Transport::RdmaSend,
                )
                .await;
            }
        });
        Service::spawn(&self.inner.cluster, spec, dispatcher);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::Sim;
    use dc_workloads::FileSet;

    fn setup(cache_bytes: usize) -> (Sim, Cluster, CacheNode, CacheNode, Rc<FileSet>) {
        setup_sized(cache_bytes, 8192)
    }

    fn setup_sized(
        cache_bytes: usize,
        doc_size: usize,
    ) -> (Sim, Cluster, CacheNode, CacheNode, Rc<FileSet>) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
        let fs = Rc::new(FileSet::uniform(64, doc_size));
        let backend = Backend::spawn(&cluster, NodeId(3), Rc::clone(&fs));
        let dir = Directory::new(&cluster, NodeId(0), 64);
        let cfg = CacheCfg {
            per_node_bytes: cache_bytes,
        };
        let a = CacheNode::new(&cluster, NodeId(1), cfg, dir.clone(), backend.clone(), 64);
        let b = CacheNode::new(&cluster, NodeId(2), cfg, dir, backend, 64);
        (sim, cluster, a, b, fs)
    }

    #[test]
    fn miss_then_hit_locally() {
        let (sim, _c, a, _b, fs) = setup(1 << 20);
        let size = fs.size(0);
        let expected = fs.content(0, size);
        sim.run_to(async move {
            assert!(a.local_get(0, size).await.is_none());
            let off = a.ensure_local(0, size).await.unwrap();
            let _ = off;
            assert_eq!(a.backend_fetches(), 1);
            let data = a.local_get(0, size).await.unwrap();
            assert_eq!(&data[..], expected);
            // Second access: no new backend fetch.
            a.ensure_local(0, size).await.unwrap();
            assert_eq!(a.backend_fetches(), 1);
        });
    }

    #[test]
    fn concurrent_misses_coalesce() {
        let (sim, _c, a, _b, fs) = setup(1 << 20);
        let size = fs.size(0);
        for _ in 0..5 {
            let a2 = a.clone();
            sim.spawn(async move {
                a2.ensure_local(0, size).await.unwrap();
            });
        }
        sim.run();
        assert_eq!(a.backend_fetches(), 1, "coalescing failed");
    }

    /// Joiners a finished fetch has served hold their keys until they run,
    /// which can be after the next fetch of the same document has gathered
    /// joiners of its own. Here the document is uncacheable and the task
    /// whose fetch ends goes straight on to two more requests for it — one
    /// starts the next fetch, one joins it — before the two served joiners
    /// run. The new joiner must take a key they do not hold, and each of
    /// the five requests ends after fetching once.
    #[test]
    fn next_fetch_gathers_joiners_before_served_ones_run() {
        use std::task::Poll;
        let (sim, _c, a, _b, _fs) = setup(4 * 1024); // smaller than one doc
        let first_done: Rc<Cell<bool>> = Rc::default();
        let request = |fetcher: bool| {
            let (a, first_done) = (a.clone(), Rc::clone(&first_done));
            async move {
                if !fetcher {
                    std::future::poll_fn(|_| {
                        if first_done.get() {
                            Poll::Ready(())
                        } else {
                            Poll::Pending
                        }
                    })
                    .await;
                }
                assert!(a.ensure_local(0, 8192).await.is_none());
                first_done.set(true);
            }
        };
        // One task: the first fetch, then (same wake-up) two more requests.
        sim.spawn(
            sim.handle()
                .join_all([request(true), request(false), request(false)]),
        );
        for _ in 0..2 {
            let a = a.clone();
            sim.spawn(async move { assert!(a.ensure_local(0, 8192).await.is_none()) });
        }
        sim.run();
        assert_eq!(a.backend_fetches(), 5);
    }

    #[test]
    fn remote_get_reads_holder_bytes() {
        let (sim, _c, a, b, fs) = setup(1 << 20);
        let size = fs.size(7);
        let expected = fs.content(7, size);
        let (a2, b2) = (a.clone(), b.clone());
        let got = sim.run_to(async move {
            b2.ensure_local(7, size).await.unwrap();
            a2.remote_get(&b2, 7, size).await.unwrap()
        });
        assert_eq!(&got[..], expected);
        assert_eq!(b.backend_fetches(), 1);
    }

    #[test]
    fn remote_get_detects_absence_and_staleness() {
        let (sim, _c, a, b, fs) = setup(40 * 1024);
        let size = fs.size(1);
        sim.run_to(async move {
            // Absent: index entry is zero.
            assert!(a.remote_get(&b, 1, size).await.is_err());
            // Install 1, then evict it by filling the small cache.
            b.ensure_local(1, size).await.unwrap();
            for d in 2..8u32 {
                b.ensure_local(d, fs.size(d as usize)).await;
            }
            assert!(!b.contains(1), "doc 1 should have been evicted");
            let r = a.remote_get(&b, 1, size).await;
            assert!(r.is_err(), "stale read must fail validation");
        });
    }

    /// From the origin's pattern to the reader a document is never copied
    /// on the host: a local hit and a remote hit both return a window of
    /// `FileSet::content` itself — also for a document installed over a slot
    /// another document was evicted from, and a window handed out before
    /// the eviction still reads as the document it was taken from.
    #[test]
    fn hits_are_windows_of_the_origin_document() {
        let (sim, _c, a, b, fs) = setup(40 * 1024); // room for four documents
        let size = fs.size(1);
        sim.run_to(async move {
            let slot = b.ensure_local(1, size).await.unwrap();
            let local = b.local_get(1, size).await.unwrap();
            let remote = a.remote_get(&b, 1, size).await.unwrap();
            assert_eq!(local.as_ptr(), fs.content(1, size).as_ptr());
            assert_eq!(remote.as_ptr(), fs.content(1, size).as_ptr());
            for d in 2..8u32 {
                b.ensure_local(d, size).await.unwrap();
            }
            assert!(!b.contains(1), "doc 1 should have been evicted");
            let mut reused = false;
            for d in (2..8u32).filter(|&d| b.contains(d)) {
                reused |= b.ensure_local(d, size).await == Some(slot);
                let want = fs.content(d as usize, size).as_ptr();
                assert_eq!(b.local_get(d, size).await.unwrap().as_ptr(), want);
                assert_eq!(a.remote_get(&b, d, size).await.unwrap().as_ptr(), want);
            }
            assert!(reused, "no document took over doc 1's slot");
            assert_eq!(&local[..], fs.content(1, size));
            assert_eq!(&remote[..], fs.content(1, size));
        });
    }

    /// One 16 KiB remote hit is two one-sided reads — the 8-byte index entry,
    /// then header and document as one scatter read of `size + DOC_HDR`
    /// bytes — and takes the virtual time it took when the region was flat
    /// bytes and the read one buffer (measured at PR 15).
    #[test]
    fn remote_hit_cost_is_pinned() {
        use dc_trace::{ArgVal, TraceMode};
        let (sim, cluster, a, b, fs) = setup_sized(1 << 20, 16 * 1024);
        let size = fs.size(5);
        let (h, c) = (sim.handle(), cluster.clone());
        let (took, before) = sim.run_to(async move {
            b.ensure_local(5, size).await.unwrap();
            h.sleep(dc_sim::time::ms(1)).await; // directory publication drains
            c.tracer().enable(TraceMode::Full);
            let (t0, before) = (h.now(), c.stats());
            a.remote_get(&b, 5, size).await.unwrap();
            (h.now() - t0, before)
        });
        assert_eq!(took, 43_223);
        let read_bytes: Vec<u64> = cluster
            .tracer()
            .events()
            .iter()
            .filter(|e| e.name == "verb.read")
            .map(|e| match e.args.iter().find(|(k, _)| *k == "bytes") {
                Some((_, ArgVal::U(n))) => *n,
                other => panic!("verb.read without bytes: {other:?}"),
            })
            .collect();
        assert_eq!(read_bytes, vec![8, (size + DOC_HDR) as u64]);
        let s = cluster.stats();
        assert_eq!(s.reads - before.reads, 2);
        assert_eq!(
            s.bytes_read - before.bytes_read,
            (8 + size + DOC_HDR) as u64
        );
    }

    #[test]
    fn reserve_at_owner_caches_remotely() {
        let (sim, _c, a, b, fs) = setup(1 << 20);
        let size = fs.size(9);
        let expected = fs.content(9, size);
        let (a2, b2) = (a.clone(), b.clone());
        let got = sim.run_to(async move {
            let off = a2.reserve_at(&b2, 9).await.unwrap();
            let _ = off;
            assert!(b2.contains(9));
            a2.remote_get(&b2, 9, size).await.unwrap()
        });
        assert_eq!(&got[..], expected);
        assert_eq!(b.backend_fetches(), 1);
        assert_eq!(a.backend_fetches(), 0);
    }

    #[test]
    fn remote_get_degrades_to_backend_when_holder_crashes() {
        use dc_fabric::faults::{CrashWindow, FaultPlan};
        use dc_sim::time::{ms, secs};
        let (sim, c, a, b, fs) = setup(1 << 20);
        // Holder b (node 2) is up long enough to cache doc 3, then fail-stops
        // for the rest of the run. Requester and backend stay healthy.
        c.install_faults(FaultPlan::from_parts(
            0,
            vec![CrashWindow {
                node: NodeId(2),
                start: ms(50),
                end: secs(3600),
            }],
            vec![],
            vec![],
            0.0,
        ));
        let size = fs.size(3);
        let expected = fs.content(3, size);
        let h = sim.handle();
        let got = sim.run_to(async move {
            b.ensure_local(3, size).await.unwrap();
            h.sleep(ms(60)).await; // holder is now down
            assert!(
                a.remote_get(&b, 3, size).await.is_err(),
                "read from a crashed holder must fail, not hang"
            );
            assert!(
                a.reserve_at(&b, 3).await.is_none(),
                "reserve at a crashed owner must time out to None"
            );
            // Degraded path: fetch from the backend and serve locally.
            a.ensure_local(3, size).await.unwrap();
            a.local_get(3, size).await.unwrap()
        });
        assert_eq!(&got[..], expected);
    }

    #[test]
    fn oversized_document_is_uncacheable() {
        let (sim, _c, a, _b, _fs) = setup(4 * 1024); // smaller than one doc
        sim.run_to(async move {
            assert!(a.ensure_local(0, 8192).await.is_none());
        });
    }
}
