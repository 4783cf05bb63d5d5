//! Active caching: strong cache coherency for dynamic content with
//! multiple dependencies (the framework's §3 component, from the authors'
//! CCGrid'05 architecture).
//!
//! A dynamic response (a rendered page, a query result) depends on several
//! underlying objects (database tables, fragments). Each dependency has a
//! version in a registered table at its home (the application/database
//! server); writers bump versions with remote atomics. A proxy serving a
//! cached response validates it with **one RDMA read of the version
//! vector** — strong coherency whose cost does not involve the (possibly
//! loaded) application server's CPU, which is exactly the paper's argument
//! against the traditional ask-the-server validation.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use dc_fabric::{Cluster, NodeId, RegionId, RemoteAddr};
use dc_sim::fxhash::FxHashMap;

/// Identifier of a dependency (e.g. a table) within one [`DependencyTable`].
pub type DepId = u16;

/// The shared version table of all dependencies, registered at its home.
#[derive(Clone)]
pub struct DependencyTable {
    cluster: Cluster,
    home: NodeId,
    region: RegionId,
    n: usize,
}

impl DependencyTable {
    /// Create a table of `n` dependencies on `home`, all at version 0.
    pub fn new(cluster: &Cluster, home: NodeId, n: usize) -> DependencyTable {
        let region = cluster.register(home, n * 8);
        DependencyTable {
            cluster: cluster.clone(),
            home,
            region,
            n,
        }
    }

    /// Number of dependencies.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn addr(&self, dep: DepId) -> RemoteAddr {
        assert!((dep as usize) < self.n, "dependency out of range");
        RemoteAddr {
            node: self.home,
            region: self.region,
            offset: dep as usize * 8,
        }
    }

    /// Bump a dependency's version from anywhere (remote atomic); returns
    /// the new version. This is what an update transaction commits with.
    pub async fn bump(&self, from: NodeId, dep: DepId) -> u64 {
        self.cluster.atomic_faa(from, self.addr(dep), 1).await + 1
    }

    /// Home-local version read (free — the owning server consulting its
    /// own memory).
    pub fn peek(&self, dep: DepId) -> u64 {
        self.cluster
            .region(self.home, self.region)
            .read_u64(dep as usize * 8)
    }

    /// Read the whole version vector with one RDMA read.
    pub async fn read_all(&self, from: NodeId) -> Vec<u64> {
        let raw = self
            .cluster
            .rdma_read(
                from,
                RemoteAddr {
                    node: self.home,
                    region: self.region,
                    offset: 0,
                },
                self.n * 8,
            )
            .await;
        raw.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
}

struct Entry {
    data: Bytes,
    deps: Vec<(DepId, u64)>,
}

/// Per-proxy cache of dynamic responses with dependency validation.
pub struct ActiveCache {
    table: DependencyTable,
    node: NodeId,
    entries: RefCell<FxHashMap<u64, Entry>>,
    hits: Cell<u64>,
    stale: Cell<u64>,
    misses: Cell<u64>,
}

impl ActiveCache {
    /// An active cache on `node` validating against `table`.
    pub fn new(node: NodeId, table: DependencyTable) -> Rc<ActiveCache> {
        Rc::new(ActiveCache {
            table,
            node,
            entries: RefCell::default(),
            hits: Cell::new(0),
            stale: Cell::new(0),
            misses: Cell::new(0),
        })
    }

    /// Serve `req` if cached **and** all its dependencies are still at the
    /// versions it was generated from. One RDMA read of the version vector;
    /// stale entries are invalidated. `None` means the caller must
    /// regenerate (then [`insert`](Self::insert)).
    pub async fn get_validated(&self, req: u64) -> Option<Bytes> {
        let deps: Vec<(DepId, u64)> = match self.entries.borrow().get(&req) {
            None => {
                self.misses.set(self.misses.get() + 1);
                return None;
            }
            Some(e) => e.deps.clone(),
        };
        let current = self.table.read_all(self.node).await;
        let fresh = deps.iter().all(|&(dep, v)| current[dep as usize] == v);
        if fresh {
            self.hits.set(self.hits.get() + 1);
            // Entry may have been replaced while we validated; re-read.
            self.entries.borrow().get(&req).map(|e| e.data.clone())
        } else {
            self.stale.set(self.stale.get() + 1);
            self.entries.borrow_mut().remove(&req);
            None
        }
    }

    /// Install a freshly generated response with the dependency versions it
    /// was built against.
    pub fn insert(&self, req: u64, data: Bytes, deps: Vec<(DepId, u64)>) {
        self.entries.borrow_mut().insert(req, Entry { data, deps });
    }

    /// (hits, stale invalidations, misses).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits.get(), self.stale.get(), self.misses.get())
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::time::{ms, us};
    use dc_sim::Sim;

    fn setup() -> (Sim, Cluster, DependencyTable, Rc<ActiveCache>) {
        let sim = Sim::new();
        // 0: proxy; 1: app/db server (version-table home).
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let table = DependencyTable::new(&cluster, NodeId(1), 8);
        let cache = ActiveCache::new(NodeId(0), table.clone());
        (sim, cluster, table, cache)
    }

    #[test]
    fn fresh_entries_serve_and_stale_entries_invalidate() {
        let (sim, _c, table, cache) = setup();
        sim.run_to(async move {
            // Generate a response depending on tables 2 and 5.
            let v2 = table.peek(2);
            let v5 = table.peek(5);
            cache.insert(7, Bytes::from_static(b"<page>"), vec![(2, v2), (5, v5)]);
            // Valid while nothing changed.
            assert_eq!(&cache.get_validated(7).await.unwrap()[..], b"<page>");
            // An unrelated table changing does not invalidate.
            table.bump(NodeId(1), 3).await;
            assert!(cache.get_validated(7).await.is_some());
            // A real dependency changing invalidates exactly once.
            table.bump(NodeId(1), 5).await;
            assert!(cache.get_validated(7).await.is_none());
            assert!(cache.is_empty());
            let (hits, stale, misses) = cache.stats();
            assert_eq!((hits, stale, misses), (2, 1, 0));
        });
    }

    #[test]
    fn never_serves_a_value_older_than_a_committed_update() {
        // Strong coherency: once bump() completes anywhere, no proxy
        // validation that *starts afterwards* can admit the old entry.
        let (sim, _c, table, cache) = setup();
        sim.run_to(async move {
            cache.insert(1, Bytes::from_static(b"old"), vec![(0, table.peek(0))]);
            let new_v = table.bump(NodeId(1), 0).await;
            assert_eq!(new_v, 1);
            assert!(cache.get_validated(1).await.is_none(), "served stale data");
        });
    }

    #[test]
    fn validation_cost_is_one_read_and_no_server_cpu() {
        let (sim, c, table, cache) = setup();
        sim.run_to(async move {
            cache.insert(1, Bytes::from_static(b"x"), vec![(0, table.peek(0))]);
            cache.get_validated(1).await.unwrap();
        });
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.cpu(NodeId(1)).snapshot().busy_ns, 0);
    }

    #[test]
    fn validation_is_immune_to_server_load() {
        let validate_time = |loaded: bool| {
            let (sim, c, table, cache) = setup();
            if loaded {
                for _ in 0..6 {
                    let cpu = c.cpu(NodeId(1));
                    sim.spawn(async move { cpu.execute(ms(100)).await });
                }
            }
            let h = sim.handle();
            sim.run_to(async move {
                cache.insert(1, Bytes::from_static(b"x"), vec![(0, table.peek(0))]);
                let t0 = h.now();
                cache.get_validated(1).await.unwrap();
                h.now() - t0
            })
        };
        assert_eq!(validate_time(false), validate_time(true));
        assert!(validate_time(false) < us(20));
    }

    #[test]
    fn concurrent_writers_bump_linearizably() {
        let (sim, _c, table, _cache) = setup();
        for n in 0..2u32 {
            let t = table.clone();
            sim.spawn(async move {
                for _ in 0..10 {
                    t.bump(NodeId(n), 4).await;
                }
            });
        }
        sim.run();
        assert_eq!(table.peek(4), 20);
    }
}
