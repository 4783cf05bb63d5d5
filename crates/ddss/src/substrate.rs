//! The distributed data sharing substrate: allocation, placement, get/put
//! under the selected coherence model, locking services, and versioning.
//!
//! ## Memory layout
//!
//! Every participating node hosts a registered heap region. An allocation
//! (a *shared segment*) is a block `[lock u64][version u64][data …]` inside
//! the home node's heap; clients address it through a [`SharedKey`].
//!
//! ## Control plane vs data plane
//!
//! Allocation and free are control-plane RPCs served by a per-node DDSS
//! daemon over RDMA sends (cheap, rare). The data plane — `get`, `put`,
//! `lock`, `unlock` — is pure one-sided RDMA, which is the substrate's
//! point: sharing state without consuming the home node's CPU.
//!
//! ## Coherence protocols (verb sequences per model)
//!
//! | model    | `put`                                  | `get` |
//! |----------|----------------------------------------|-------|
//! | Null     | write data                             | read data |
//! | Read     | write data; write stamp                | read stamp+data |
//! | Write    | FAA writer-seq; write data; write stamp| read stamp+data |
//! | Strict   | lock; write data; write stamp; unlock  | lock; read; unlock |
//! | Version  | write data; FAA version                | read ver+data; re-read ver; retry if changed |
//! | Delta    | read version; write delta; FAA version | read ver+data; read ver |
//! | Temporal | write data; write stamp                | local copy if younger than TTL, else read |
//!
//! Timestamps ("stamps") are the virtual clock, which is globally monotonic
//! — the simulation's stand-in for the loosely synchronized timestamps the
//! real substrate derives from its home-node ordering.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use dc_fabric::{Cluster, NodeId, RegionId, RemoteAddr, Transport};
use dc_sim::SimTime;
use dc_svc::{
    parse_request, respond, CallPolicy, Cost, Ctx, Dispatcher, Mode, Reader, Service, ServiceSpec,
    SvcClient, Wire,
};
use dc_trace::{Counter, HistHandle, Subsys};

use crate::alloc::FreeListAllocator;
use crate::coherence::Coherence;
use crate::ctrl::{AllocReq, AllocResp, FreeReq, FreeResp, OP_ALLOC, OP_FREE};

/// Block header: lock word + version word.
pub const BLOCK_HDR: usize = 16;

/// Software overhead charged per data-plane operation (marshalling, key
/// lookup, IPC hand-off).
const OP_OVERHEAD_NS: u64 = 2_000;
/// Freshness window for `Temporal` reads.
const TEMPORAL_TTL_NS: u64 = 1_000_000;
/// Backoff between lock CAS retries (and between `Version` read retries).
const LOCK_BACKOFF_NS: u64 = 12_500;

/// Tuning knobs of the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdssConfig {
    /// Heap bytes registered per participating node.
    pub heap_bytes: usize,
    /// CPU time the DDSS daemon spends on one control-plane request.
    pub daemon_cpu_ns: u64,
    /// Budget of CAS attempts before [`DdssClient::lock`] declares the lock
    /// wedged and panics (a holder that never unlocks is a protocol bug; a
    /// bounded budget turns a silent hang into a diagnosable failure).
    pub lock_attempts: u32,
    /// Response deadline for control-plane RPCs (allocate/free). A daemon
    /// reply lost past the transport retry budget fails the operation
    /// instead of hanging the client forever.
    pub ctrl_timeout_ns: u64,
}

impl Default for DdssConfig {
    fn default() -> Self {
        DdssConfig {
            heap_bytes: 8 * 1024 * 1024,
            daemon_cpu_ns: 1_000,
            lock_attempts: 20_000,
            ctrl_timeout_ns: 500_000_000,
        }
    }
}

/// Handle to a shared segment. `Copy`-able; safe to pass between clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedKey {
    /// Globally unique segment id.
    pub id: u64,
    /// Home node hosting the data.
    pub home: NodeId,
    /// Heap region on the home node.
    pub region: RegionId,
    /// Block offset (header start) within the heap region.
    pub block_off: usize,
    /// User data length in bytes.
    pub len: usize,
    /// Coherence model chosen at allocation.
    pub coherence: Coherence,
}

impl SharedKey {
    fn lock_addr(&self) -> RemoteAddr {
        RemoteAddr {
            node: self.home,
            region: self.region,
            offset: self.block_off,
        }
    }

    fn ver_addr(&self) -> RemoteAddr {
        RemoteAddr {
            node: self.home,
            region: self.region,
            offset: self.block_off + 8,
        }
    }

    fn data_addr(&self) -> RemoteAddr {
        RemoteAddr {
            node: self.home,
            region: self.region,
            offset: self.block_off + BLOCK_HDR,
        }
    }
}

struct HomeState {
    region: RegionId,
    alloc: RefCell<FreeListAllocator>,
    /// Live segments: id → (block offset, block length).
    live: RefCell<HashMap<u64, (usize, usize)>>,
    port: u16,
}

struct Inner {
    cluster: Cluster,
    cfg: DdssConfig,
    homes: RefCell<HashMap<NodeId, Rc<HomeState>>>,
    next_key: Cell<u64>,
    next_client: Cell<u64>,
    puts: Counter,
    gets: Counter,
    put_ns: HistHandle,
    get_ns: HistHandle,
}

/// The substrate. Clone to share; create clients with [`Ddss::client`].
#[derive(Clone)]
pub struct Ddss {
    inner: Rc<Inner>,
}

impl Ddss {
    /// Stand up the substrate on `nodes`: registers each node's heap and
    /// spawns its DDSS daemon.
    pub fn new(cluster: &Cluster, cfg: DdssConfig, nodes: &[NodeId]) -> Ddss {
        let metrics = cluster.metrics();
        let ddss = Ddss {
            inner: Rc::new(Inner {
                cluster: cluster.clone(),
                cfg,
                homes: RefCell::new(HashMap::new()),
                next_key: Cell::new(1),
                next_client: Cell::new(1),
                puts: metrics.counter("ddss.puts"),
                gets: metrics.counter("ddss.gets"),
                put_ns: metrics.hist("ddss.put_ns"),
                get_ns: metrics.hist("ddss.get_ns"),
            }),
        };
        for &n in nodes {
            ddss.add_home(n);
        }
        ddss
    }

    /// Add a participating node after construction.
    pub fn add_home(&self, node: NodeId) {
        let region = self.inner.cluster.register(node, self.inner.cfg.heap_bytes);
        let port = self.inner.cluster.alloc_port_for(node, "ddss.home");
        let home = Rc::new(HomeState {
            region,
            alloc: RefCell::new(FreeListAllocator::new(self.inner.cfg.heap_bytes)),
            live: RefCell::new(HashMap::new()),
            port,
        });
        let prev = self.inner.homes.borrow_mut().insert(node, Rc::clone(&home));
        assert!(prev.is_none(), "node {node:?} already participates in DDSS");
        self.spawn_daemon(node, home);
    }

    /// The participating nodes (unordered).
    pub fn homes(&self) -> Vec<NodeId> {
        self.inner.homes.borrow().keys().copied().collect()
    }

    /// Create a client handle bound to `node` (the node the calling process
    /// runs on — placement and locality are computed relative to it).
    pub fn client(&self, node: NodeId) -> DdssClient {
        let id = self.inner.next_client.get();
        self.inner.next_client.set(id + 1);
        DdssClient {
            ddss: self.clone(),
            node,
            ctrl: SvcClient::with_policy(
                &self.inner.cluster,
                node,
                CallPolicy::one_shot(self.inner.cfg.ctrl_timeout_ns),
            ),
            // Lock token must be nonzero and unique per client.
            token: id,
            temporal: RefCell::new(HashMap::new()),
        }
    }

    fn home(&self, node: NodeId) -> Rc<HomeState> {
        Rc::clone(
            self.inner
                .homes
                .borrow()
                .get(&node)
                .unwrap_or_else(|| panic!("{node:?} does not participate in DDSS")),
        )
    }

    /// Allocate directly in the home's daemon state (shared-process
    /// shortcut used by the daemon itself and by local clients).
    fn alloc_local(&self, node: NodeId, len: usize, coherence: Coherence) -> Option<SharedKey> {
        let home = self.home(node);
        let block_len = BLOCK_HDR + len;
        let off = home.alloc.borrow_mut().allocate(block_len)?;
        let id = self.inner.next_key.get();
        self.inner.next_key.set(id + 1);
        home.live.borrow_mut().insert(id, (off, block_len));
        // Zero the header so locks/versions start clean even after reuse.
        let region = self.inner.cluster.region(node, home.region);
        region.write(off, &[0u8; BLOCK_HDR]);
        Some(SharedKey {
            id,
            home: node,
            region: home.region,
            block_off: off,
            len,
            coherence,
        })
    }

    fn free_local(&self, node: NodeId, id: u64) -> bool {
        let home = self.home(node);
        let entry = home.live.borrow_mut().remove(&id);
        match entry {
            Some((off, block_len)) => {
                home.alloc.borrow_mut().free(off, block_len);
                true
            }
            None => false,
        }
    }

    fn spawn_daemon(&self, node: NodeId, home: Rc<HomeState>) {
        // Control-plane processing costs daemon CPU (competes with node
        // load — allocation is not one-sided); replies ride the reliable
        // transport so a dropped response cannot strand a client past its
        // control timeout.
        let spec = ServiceSpec {
            name: "ddss.home",
            subsys: Subsys::Ddss,
            node,
            port: home.port,
            cost: Cost::Cpu(self.inner.cfg.daemon_cpu_ns),
            mode: Mode::Serial,
            queue_cap: None,
        };
        let alloc_d = self.clone();
        let free_d = self.clone();
        let dispatcher = Dispatcher::new()
            .on(OP_ALLOC, move |ctx: Ctx, msg| {
                let ddss = alloc_d.clone();
                async move {
                    let req = parse_request(&msg);
                    let alloc =
                        AllocReq::decode(&req.payload[1..]).expect("malformed DDSS alloc request");
                    let resp = AllocResp {
                        key: ddss
                            .alloc_local(node, alloc.len as usize, alloc.coherence)
                            .map(|key| (key.id, key.block_off as u64)),
                    };
                    let resp = resp.encode_bytes();
                    respond(&ctx.cluster, node, &req, &resp, Transport::RdmaSend).await;
                }
            })
            .on(OP_FREE, move |ctx: Ctx, msg| {
                let ddss = free_d.clone();
                async move {
                    let req = parse_request(&msg);
                    let free =
                        FreeReq::decode(&req.payload[1..]).expect("malformed DDSS free request");
                    let resp = FreeResp {
                        ok: ddss.free_local(node, free.id),
                    };
                    let resp = resp.encode_bytes();
                    respond(&ctx.cluster, node, &req, &resp, Transport::RdmaSend).await;
                }
            });
        Service::spawn(&self.inner.cluster, spec, dispatcher);
    }
}

/// A process-side handle to the substrate, bound to the node it runs on.
pub struct DdssClient {
    ddss: Ddss,
    node: NodeId,
    /// Control-plane calls (allocate/free) to remote home daemons.
    ctrl: SvcClient,
    token: u64,
    /// Temporal-coherence cache: key id → (data, fetch time).
    temporal: RefCell<HashMap<u64, (Bytes, SimTime)>>,
}

impl DdssClient {
    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn cluster(&self) -> &Cluster {
        &self.ddss.inner.cluster
    }

    fn cfg(&self) -> &DdssConfig {
        &self.ddss.inner.cfg
    }

    async fn overhead(&self) {
        self.cluster().sim().sleep(OP_OVERHEAD_NS).await;
    }

    /// One control-plane call to a home daemon: `[op][Wire body]` over the
    /// reliable transport with a bounded response wait, so a home that stays
    /// down past every retry fails the operation rather than hanging it.
    async fn ctrl_call(&self, home: NodeId, port: u16, op: u8, body: &impl Wire) -> Option<Bytes> {
        // Room for the opcode and the longest body (`AllocReq`, 9 bytes).
        let mut req = Vec::with_capacity(16);
        req.push(op);
        body.encode_into(&mut req);
        self.ctrl
            .try_call(home, port, &req, Transport::RdmaSend)
            .await
    }

    /// Allocate `len` bytes on `home` under `coherence`. Local allocations
    /// short-circuit through shared memory (the job of the paper's
    /// IPC-management module); remote ones are an RPC to the home daemon.
    pub async fn allocate(
        &self,
        home: NodeId,
        len: usize,
        coherence: Coherence,
    ) -> Option<SharedKey> {
        self.overhead().await;
        if home == self.node {
            return self.ddss.alloc_local(home, len, coherence);
        }
        let home_state = self.ddss.home(home);
        let req = AllocReq {
            len: len as u64,
            coherence,
        };
        let resp = self
            .ctrl_call(home, home_state.port, OP_ALLOC, &req)
            .await?;
        let resp = AllocResp::decode(&resp).expect("malformed DDSS alloc response");
        let (id, block_off) = resp.key?;
        Some(SharedKey {
            id,
            home,
            region: home_state.region,
            block_off: block_off as usize,
            len,
            coherence,
        })
    }

    /// Release a segment. Returns false if it was already freed.
    pub async fn free(&self, key: SharedKey) -> bool {
        self.overhead().await;
        self.temporal.borrow_mut().remove(&key.id);
        if key.home == self.node {
            return self.ddss.free_local(key.home, key.id);
        }
        let home_state = self.ddss.home(key.home);
        let req = FreeReq { id: key.id };
        match self
            .ctrl_call(key.home, home_state.port, OP_FREE, &req)
            .await
        {
            Some(resp) => {
                FreeResp::decode(&resp)
                    .expect("malformed DDSS free response")
                    .ok
            }
            None => false,
        }
    }

    /// Write `data` (≤ the segment length) under the segment's coherence
    /// model.
    pub async fn put(&self, key: &SharedKey, data: &[u8]) {
        let c = self.cluster().clone();
        let t_start = c.sim().now();
        let t0 = c.tracer().begin();
        self.put_inner(key, data).await;
        self.ddss.inner.puts.inc();
        self.ddss.inner.put_ns.record(c.sim().now() - t_start);
        if let Some(t0) = t0 {
            c.tracer().complete(
                t0,
                self.node.0,
                Subsys::Ddss,
                "ddss.put",
                vec![
                    ("key", key.id.into()),
                    ("bytes", (data.len() as u64).into()),
                    ("coherence", key.coherence.label().into()),
                ],
            );
        }
    }

    async fn put_inner(&self, key: &SharedKey, data: &[u8]) {
        assert!(
            data.len() <= key.len,
            "put of {} bytes into a {}-byte segment",
            data.len(),
            key.len
        );
        self.overhead().await;
        let c = self.cluster().clone();
        let me = self.node;
        let now_stamp = |c: &Cluster| c.sim().now().max(1);
        match key.coherence {
            Coherence::Null => {
                c.rdma_write(me, key.data_addr(), data).await;
            }
            Coherence::Read | Coherence::Temporal => {
                c.rdma_write(me, key.data_addr(), data).await;
                let stamp = now_stamp(&c);
                c.rdma_write(me, key.ver_addr(), &stamp.to_le_bytes()).await;
                if key.coherence == Coherence::Temporal {
                    self.temporal.borrow_mut().remove(&key.id);
                }
            }
            Coherence::Write => {
                // Serialize writers through the lock word used as a
                // fetch-and-add sequencer (ordering, not mutual exclusion).
                c.atomic_faa(me, key.lock_addr(), 1).await;
                c.rdma_write(me, key.data_addr(), data).await;
                let stamp = now_stamp(&c);
                c.rdma_write(me, key.ver_addr(), &stamp.to_le_bytes()).await;
            }
            Coherence::Strict => {
                self.lock(key).await;
                c.rdma_write(me, key.data_addr(), data).await;
                let stamp = now_stamp(&c);
                c.rdma_write(me, key.ver_addr(), &stamp.to_le_bytes()).await;
                self.unlock(key).await;
            }
            Coherence::Version => {
                c.rdma_write(me, key.data_addr(), data).await;
                c.atomic_faa(me, key.ver_addr(), 1).await;
            }
            Coherence::Delta => {
                // Read the version the delta applies to, append the delta
                // (modelled as the data write), publish by bumping.
                c.rdma_read(me, key.ver_addr(), 8).await;
                c.rdma_write(me, key.data_addr(), data).await;
                c.atomic_faa(me, key.ver_addr(), 1).await;
            }
        }
    }

    /// Read the full segment under its coherence model.
    pub async fn get(&self, key: &SharedKey) -> Bytes {
        let c = self.cluster().clone();
        let t_start = c.sim().now();
        let t0 = c.tracer().begin();
        let data = self.get_inner(key).await;
        self.ddss.inner.gets.inc();
        self.ddss.inner.get_ns.record(c.sim().now() - t_start);
        if let Some(t0) = t0 {
            c.tracer().complete(
                t0,
                self.node.0,
                Subsys::Ddss,
                "ddss.get",
                vec![
                    ("key", key.id.into()),
                    ("bytes", (data.len() as u64).into()),
                    ("coherence", key.coherence.label().into()),
                ],
            );
        }
        data
    }

    async fn get_inner(&self, key: &SharedKey) -> Bytes {
        self.overhead().await;
        let c = self.cluster().clone();
        let me = self.node;
        match key.coherence {
            Coherence::Null => c.rdma_read(me, key.data_addr(), key.len).await,
            Coherence::Read | Coherence::Write => {
                // One read covering stamp + data: the stamp lets the caller
                // detect staleness; in-simulator snapshots are not torn.
                let raw = c.rdma_read(me, key.ver_addr(), 8 + key.len).await;
                raw.slice(8..)
            }
            Coherence::Strict => {
                self.lock(key).await;
                let data = c.rdma_read(me, key.data_addr(), key.len).await;
                self.unlock(key).await;
                data
            }
            Coherence::Version => {
                loop {
                    let raw = c.rdma_read(me, key.ver_addr(), 8 + key.len).await;
                    let v1 = Reader::new(&raw).u64().expect("stamp in front of the data");
                    let v2 = c.read_u64(me, key.ver_addr()).await;
                    if v1 == v2 {
                        return raw.slice(8..);
                    }
                    // Concurrent update: retry after the backoff.
                    c.sim().sleep(LOCK_BACKOFF_NS).await;
                }
            }
            Coherence::Delta => {
                let raw = c.rdma_read(me, key.ver_addr(), 8 + key.len).await;
                // Confirm no delta landed mid-reconstruction.
                c.read_u64(me, key.ver_addr()).await;
                raw.slice(8..)
            }
            Coherence::Temporal => {
                let now = c.sim().now();
                if let Some((data, at)) = self.temporal.borrow().get(&key.id) {
                    if now.saturating_sub(*at) <= TEMPORAL_TTL_NS {
                        return data.clone();
                    }
                }
                let data = c.rdma_read(me, key.data_addr(), key.len).await;
                self.temporal
                    .borrow_mut()
                    .insert(key.id, (data.clone(), c.sim().now()));
                data
            }
        }
    }

    /// Acquire the segment's lock (basic locking service). Spins with
    /// backoff on contention, up to the configured attempt budget — a holder
    /// that never unlocks turns into a panic here rather than a silent hang.
    pub async fn lock(&self, key: &SharedKey) {
        let c = self.cluster().clone();
        for _ in 0..self.cfg().lock_attempts {
            let old = c
                .atomic_cas(self.node, key.lock_addr(), 0, self.token)
                .await;
            if old == 0 {
                return;
            }
            c.sim().sleep(LOCK_BACKOFF_NS).await;
        }
        panic!(
            "ddss lock budget exhausted on segment {} ({} attempts): holder never released",
            key.id,
            self.cfg().lock_attempts
        );
    }

    /// Release the segment's lock. Panics if this client does not hold it
    /// (a protocol bug).
    pub async fn unlock(&self, key: &SharedKey) {
        let c = self.cluster().clone();
        let old = c
            .atomic_cas(self.node, key.lock_addr(), self.token, 0)
            .await;
        assert_eq!(old, self.token, "unlock by non-holder of {:?}", key.id);
    }

    /// Read the segment's version/stamp word.
    pub async fn version(&self, key: &SharedKey) -> u64 {
        self.overhead().await;
        self.cluster().read_u64(self.node, key.ver_addr()).await
    }

    /// Compare-and-put: write `data` only if the current version equals
    /// `expect`; returns `Ok(new_version)` or `Err(actual_version)`. The
    /// consistency primitive the paper's versioning support exposes.
    pub async fn put_versioned(
        &self,
        key: &SharedKey,
        data: &[u8],
        expect: u64,
    ) -> Result<u64, u64> {
        assert!(data.len() <= key.len);
        self.overhead().await;
        let c = self.cluster().clone();
        self.lock(key).await;
        let actual = c.read_u64(self.node, key.ver_addr()).await;
        let result = if actual == expect {
            c.rdma_write(self.node, key.data_addr(), data).await;
            let new = expect + 1;
            c.rdma_write(self.node, key.ver_addr(), &new.to_le_bytes())
                .await;
            Ok(new)
        } else {
            Err(actual)
        };
        self.unlock(key).await;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::time::{ms, us};
    use dc_sim::Sim;

    fn setup(nodes: usize) -> (Sim, Cluster, Ddss) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
        let ids: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let ddss = Ddss::new(&cluster, DdssConfig::default(), &ids);
        (sim, cluster, ddss)
    }

    #[test]
    fn put_get_round_trip_every_model() {
        for coh in Coherence::ALL {
            let (sim, _c, ddss) = setup(3);
            let client = ddss.client(NodeId(0));
            let got = sim.run_to(async move {
                let key = client.allocate(NodeId(2), 64, coh).await.unwrap();
                client.put(&key, b"the quick brown fox!").await;
                client.get(&key).await
            });
            assert_eq!(&got[..20], b"the quick brown fox!", "model {coh}");
        }
    }

    #[test]
    fn put_get_record_spans_and_metrics() {
        use dc_trace::TraceMode;
        let (sim, c, ddss) = setup(2);
        c.tracer().enable(TraceMode::Full);
        let client = ddss.client(NodeId(0));
        sim.run_to(async move {
            let key = client
                .allocate(NodeId(1), 64, Coherence::Read)
                .await
                .unwrap();
            client.put(&key, b"abc").await;
            client.get(&key).await;
            client.get(&key).await;
        });
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("ddss.puts"), 1);
        assert_eq!(snap.counter("ddss.gets"), 2);
        let names: Vec<_> = c
            .tracer()
            .events()
            .iter()
            .filter(|e| e.subsys == dc_trace::Subsys::Ddss)
            .map(|e| e.name)
            .collect();
        // The remote allocation shows up at the home daemon as the service
        // runtime's cpu-stage cost span nested inside the uniform handler
        // span (inner completes first), then the data-plane ops record their
        // own spans.
        assert_eq!(
            names,
            vec!["svc.cost", "ddss.home", "ddss.put", "ddss.get", "ddss.get"]
        );
    }

    #[test]
    fn remote_allocation_via_daemon_rpc() {
        let (sim, _c, ddss) = setup(2);
        let client = ddss.client(NodeId(0));
        let key = sim.run_to(async move { client.allocate(NodeId(1), 128, Coherence::Null).await });
        let key = key.unwrap();
        assert_eq!(key.home, NodeId(1));
        assert_eq!(key.len, 128);
    }

    #[test]
    fn local_allocation_skips_network() {
        let (sim, c, ddss) = setup(2);
        let client = ddss.client(NodeId(0));
        sim.run_to(async move {
            client
                .allocate(NodeId(0), 128, Coherence::Null)
                .await
                .unwrap();
        });
        assert_eq!(c.stats().sends_rdma, 0, "local alloc used the network");
    }

    #[test]
    fn allocation_exhaustion_returns_none_and_free_recovers() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 1);
        let cfg = DdssConfig {
            heap_bytes: 128,
            ..DdssConfig::default()
        };
        let ddss = Ddss::new(&cluster, cfg, &[NodeId(0)]);
        let client = ddss.client(NodeId(0));
        sim.run_to(async move {
            let k1 = client
                .allocate(NodeId(0), 100, Coherence::Null)
                .await
                .unwrap();
            assert!(client
                .allocate(NodeId(0), 100, Coherence::Null)
                .await
                .is_none());
            assert!(client.free(k1).await);
            assert!(client
                .allocate(NodeId(0), 100, Coherence::Null)
                .await
                .is_some());
        });
    }

    #[test]
    fn double_free_reports_false() {
        let (sim, _c, ddss) = setup(2);
        let client = ddss.client(NodeId(0));
        sim.run_to(async move {
            let k = client
                .allocate(NodeId(1), 32, Coherence::Null)
                .await
                .unwrap();
            assert!(client.free(k).await);
            assert!(!client.free(k).await);
        });
    }

    /// The control call's virtual time is the one simulated number that
    /// depends on the request/response framing (10 + 8 header bytes on the
    /// wire); no figure observes it, so it is pinned here.
    #[test]
    fn remote_control_calls_finish_at_the_pinned_virtual_time() {
        let (sim, _c, ddss) = setup(2);
        let client = ddss.client(NodeId(0));
        let h = sim.handle();
        let (alloc_ns, free_ns) = sim.run_to(async move {
            let key = client
                .allocate(NodeId(1), 64, Coherence::Null)
                .await
                .unwrap();
            let allocated = h.now();
            assert!(client.free(key).await);
            (allocated, h.now() - allocated)
        });
        assert_eq!((alloc_ns, free_ns), (18_051, 18_032));
    }

    /// A port per control call exhausted the 64,512-port space on the
    /// 64,512th remote call; one multiplexed client consumes none.
    #[test]
    fn remote_control_calls_consume_no_ports() {
        let (sim, c, ddss) = setup(2);
        let client = ddss.client(NodeId(0));
        let before = c.alloc_port();
        sim.run_to(async move {
            for _ in 0..33_000 {
                let key = client
                    .allocate(NodeId(1), 64, Coherence::Null)
                    .await
                    .unwrap();
                assert!(client.free(key).await);
            }
        });
        assert_eq!(c.alloc_port() - before, 1);
    }

    #[test]
    fn slow_home_daemon_fails_the_allocation_and_its_late_reply_is_an_orphan() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let cfg = DdssConfig {
            daemon_cpu_ns: ms(2),
            ctrl_timeout_ns: ms(1),
            ..DdssConfig::default()
        };
        let ddss = Ddss::new(&cluster, cfg, &[NodeId(0), NodeId(1)]);
        let client = Rc::new(ddss.client(NodeId(0)));
        let c2 = Rc::clone(&client);
        let key = sim.run_to(async move { c2.allocate(NodeId(1), 64, Coherence::Null).await });
        assert_eq!(key, None);
        assert_eq!(client.ctrl.pending_calls(), 0);
        let orphans = cluster.metrics().counter("rpc.orphan_responses");
        assert_eq!(orphans.get(), 0);
        // Let the daemon finish: its reply finds no taker and is counted.
        sim.run();
        assert_eq!(orphans.get(), 1);
    }

    #[test]
    fn strict_put_serializes_concurrent_writers() {
        let (sim, _c, ddss) = setup(3);
        let c0 = ddss.client(NodeId(0));
        let key =
            sim.run_to(async move { c0.allocate(NodeId(0), 8, Coherence::Strict).await.unwrap() });
        // Two remote writers race; strict coherence must serialize them so
        // the final value is exactly one of the two payloads.
        for n in [1u32, 2u32] {
            let cl = ddss.client(NodeId(n));
            sim.spawn(async move {
                let val = [n as u8; 8];
                cl.put(&key, &val).await;
            });
        }
        sim.run();
        let reader = ddss.client(NodeId(0));
        let got = sim.run_to(async move { reader.get(&key).await });
        assert!(got[..] == [1u8; 8][..] || got[..] == [2u8; 8][..]);
        assert!(got.iter().all(|&b| b == got[0]), "torn write under strict");
    }

    #[test]
    fn lock_excludes_and_hands_over() {
        let (sim, _c, ddss) = setup(3);
        let c0 = ddss.client(NodeId(0));
        let key =
            sim.run_to(async move { c0.allocate(NodeId(0), 8, Coherence::Null).await.unwrap() });
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        for n in [1u32, 2u32] {
            let cl = ddss.client(NodeId(n));
            let ord = Rc::clone(&order);
            let sim_h = sim.handle();
            sim.spawn(async move {
                // Stagger so node 1 always wins the first CAS.
                sim_h.sleep(us(n as u64)).await;
                cl.lock(&key).await;
                ord.borrow_mut().push(n);
                sim_h.sleep(ms(1)).await;
                cl.unlock(&key).await;
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "unlock by non-holder")]
    fn unlock_without_lock_panics() {
        let (sim, _c, ddss) = setup(2);
        let c0 = ddss.client(NodeId(0));
        let c1 = ddss.client(NodeId(1));
        sim.run_to(async move {
            let key = c0.allocate(NodeId(0), 8, Coherence::Null).await.unwrap();
            c0.lock(&key).await;
            c1.unlock(&key).await; // not the holder
        });
    }

    #[test]
    fn versioned_put_detects_conflicts() {
        let (sim, _c, ddss) = setup(2);
        let c0 = ddss.client(NodeId(0));
        let c1 = ddss.client(NodeId(1));
        sim.run_to(async move {
            let key = c0.allocate(NodeId(0), 8, Coherence::Version).await.unwrap();
            let v = c0.version(&key).await;
            assert_eq!(v, 0);
            assert_eq!(c0.put_versioned(&key, b"aaaa", 0).await, Ok(1));
            // A second writer with a stale expectation fails and learns the
            // actual version.
            assert_eq!(c1.put_versioned(&key, b"bbbb", 0).await, Err(1));
            assert_eq!(c1.put_versioned(&key, b"bbbb", 1).await, Ok(2));
            let got = c1.get(&key).await;
            assert_eq!(&got[..4], b"bbbb");
        });
    }

    #[test]
    fn version_model_bumps_on_every_put() {
        let (sim, _c, ddss) = setup(2);
        let c0 = ddss.client(NodeId(0));
        sim.run_to(async move {
            let key = c0
                .allocate(NodeId(1), 16, Coherence::Version)
                .await
                .unwrap();
            for i in 0..5u64 {
                assert_eq!(c0.version(&key).await, i);
                c0.put(&key, &[i as u8; 16]).await;
            }
            assert_eq!(c0.version(&key).await, 5);
        });
    }

    #[test]
    fn temporal_get_hits_cache_within_ttl() {
        let (sim, c, ddss) = setup(2);
        let client = ddss.client(NodeId(0));
        sim.run_to(async move {
            let key = client
                .allocate(NodeId(1), 8, Coherence::Temporal)
                .await
                .unwrap();
            client.put(&key, b"11111111").await;
            let _ = client.get(&key).await; // cold: pays a read
        });
        let reads_cold = c.stats().reads;
        let client2 = ddss.client(NodeId(0));
        let cc = c.clone();
        let (reads_after_warm, hit) = sim.run_to(async move {
            let key = client2
                .allocate(NodeId(1), 8, Coherence::Temporal)
                .await
                .unwrap();
            client2.put(&key, b"22222222").await;
            let _ = client2.get(&key).await; // cold
            let before = cc.stats().reads;
            let v = client2.get(&key).await; // warm: served locally
            (cc.stats().reads - before, v)
        });
        assert!(reads_cold >= 1);
        assert_eq!(reads_after_warm, 0, "warm temporal get paid a read");
        assert_eq!(&hit[..], b"22222222");
    }

    #[test]
    fn temporal_cache_expires_after_ttl() {
        let (sim, c, ddss) = setup(2);
        let client = ddss.client(NodeId(0));
        let h = sim.handle();
        let cc = c.clone();
        sim.run_to(async move {
            let key = client
                .allocate(NodeId(1), 8, Coherence::Temporal)
                .await
                .unwrap();
            client.put(&key, b"xxxxxxxx").await;
            let _ = client.get(&key).await;
            h.sleep(ms(2)).await; // past the 1ms TTL
            let before = cc.stats().reads;
            let _ = client.get(&key).await;
            assert_eq!(cc.stats().reads - before, 1, "stale entry not refreshed");
        });
    }

    #[test]
    fn put_latency_ordering_matches_model_costs() {
        // Strict must be the most expensive 1-byte put; Null the cheapest.
        let put_latency = |coh: Coherence| -> u64 {
            let (sim, _c, ddss) = setup(2);
            let client = ddss.client(NodeId(0));
            let h = sim.handle();
            sim.run_to(async move {
                let key = client.allocate(NodeId(1), 1, coh).await.unwrap();
                let t0 = h.now();
                client.put(&key, &[7u8]).await;
                h.now() - t0
            })
        };
        let null = put_latency(Coherence::Null);
        let strict = put_latency(Coherence::Strict);
        let version = put_latency(Coherence::Version);
        assert!(null < version && version < strict);
        // Paper Fig 3a: the worst 1-byte put stays around 55us.
        assert!(strict < us(60), "strict 1-byte put took {strict}ns");
        assert!(null > us(5));
    }

    #[test]
    fn control_plane_survives_message_drops() {
        use dc_fabric::FaultPlan;
        let (sim, c, ddss) = setup(2);
        c.install_faults(FaultPlan::from_parts(5, vec![], vec![], vec![], 0.3));
        let client = ddss.client(NodeId(0));
        sim.run_to(async move {
            // Allocate, round-trip data, and free, all across a 30%-drop
            // wire: the reliable control plane must still land every step.
            let key = client
                .allocate(NodeId(1), 64, Coherence::Read)
                .await
                .unwrap();
            client.put(&key, b"chaos-proof payload!").await;
            let got = client.get(&key).await;
            assert_eq!(&got[..20], b"chaos-proof payload!");
            assert!(client.free(key).await);
        });
        assert!(c.fault_stats().dropped_msgs > 0, "no drops exercised");
    }

    #[test]
    fn data_plane_rides_out_home_crash_window() {
        use dc_fabric::faults::{CrashWindow, FaultPlan};
        let (sim, c, ddss) = setup(2);
        let client = ddss.client(NodeId(0));
        let key = sim.run_to(async move {
            client
                .allocate(NodeId(1), 8, Coherence::Null)
                .await
                .unwrap()
        });
        c.install_faults(FaultPlan::from_parts(
            0,
            vec![CrashWindow {
                node: NodeId(1),
                start: 0,
                end: ms(8),
            }],
            vec![],
            vec![],
            0.0,
        ));
        let client = ddss.client(NodeId(0));
        let h = sim.handle();
        let (got, t) = sim.run_to(async move {
            client.put(&key, b"recoverd").await;
            let got = client.get(&key).await;
            (got, h.now())
        });
        assert_eq!(&got[..], b"recoverd");
        assert!(t >= ms(8), "completed at {t} inside the crash window");
        assert!(c.fault_stats().retries > 0);
    }

    #[test]
    #[should_panic(expected = "lock budget exhausted")]
    fn wedged_lock_panics_instead_of_hanging() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let cfg = DdssConfig {
            lock_attempts: 50,
            ..DdssConfig::default()
        };
        let ddss = Ddss::new(&cluster, cfg, &[NodeId(0), NodeId(1)]);
        let c0 = ddss.client(NodeId(0));
        let c1 = ddss.client(NodeId(1));
        sim.run_to(async move {
            let key = c0.allocate(NodeId(0), 8, Coherence::Null).await.unwrap();
            c0.lock(&key).await;
            // c0 never unlocks; c1 must give up after its budget.
            c1.lock(&key).await;
        });
    }

    #[test]
    fn get_does_not_consume_home_cpu() {
        let (sim, c, ddss) = setup(2);
        let client = ddss.client(NodeId(0));
        sim.run_to(async move {
            let key = client
                .allocate(NodeId(1), 1024, Coherence::Version)
                .await
                .unwrap();
            client.put(&key, &[1u8; 1024]).await;
            for _ in 0..10 {
                client.get(&key).await;
            }
        });
        // Only the daemon's single allocation RPC consumed home CPU.
        let busy = c.cpu(NodeId(1)).snapshot().busy_ns;
        assert_eq!(busy, DdssConfig::default().daemon_cpu_ns);
    }
}
