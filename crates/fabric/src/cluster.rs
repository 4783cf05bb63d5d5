//! The cluster: nodes, registered regions, verbs, and send/recv transport.
//!
//! Timing composition (constants from [`FabricModel`], documented per verb):
//!
//! * `rdma_read(len)` — post overhead, half the base round trip for the
//!   request to reach the target NIC, queueing on the target's outbound link
//!   for `len` bytes of transmission (the data is sampled when transmission
//!   begins), then half the base back. Total ≈ `post + read_base + bytes`.
//! * `rdma_write(len)` — post overhead, queueing on the issuer's outbound
//!   link for `len` bytes, half the base for the data to land (the bytes
//!   become visible at the target then), half the base for the NIC-level
//!   ack. Total ≈ `post + bytes + write_base`.
//! * `atomic_cas` / `atomic_faa` — post overhead, half the base each way;
//!   the operation is linearized at the target NIC at the halfway instant.
//! * `send(RdmaSend)` — like a write into the target's receive queue: no
//!   target CPU participation; the message appears in the bound endpoint's
//!   mailbox.
//! * `send(Tcp)` — charges `tcp_send_cpu(len)` on the *sender's* CPU and
//!   `tcp_recv_cpu(len)` on the *target's* CPU (where it competes round-robin
//!   with application load) before the message is delivered.
//!
//! Outbound-link queueing models the single resource that matters for the
//! cooperative-caching experiments: a popular cache holder serving many
//! remote fetches serializes them on its transmit link.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use dc_sim::sync::Semaphore;
use dc_sim::{SimHandle, SimTime};
use dc_trace::{Counter, Gauge, Registry, Subsys, Tracer};

use crate::faults::{backoff_after, inflate, FabricError, FaultPlan, FaultStats, MAX_ATTEMPTS};
use crate::kstat::{KernelStats, KSTAT_REGION_LEN};
use crate::mem::{RegionData, RegionId, RemoteAddr};
use crate::model::FabricModel;
use crate::ports::PortTable;

/// Identifier of a node in the cluster (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Which transport a two-sided message uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// NIC-delivered send: no target CPU participation before delivery.
    RdmaSend,
    /// Host TCP/IP: protocol processing charged to both CPUs.
    Tcp,
}

/// A delivered two-sided message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending node.
    pub src: NodeId,
    /// Port the sender addressed (the receiver's bound port).
    pub port: u16,
    /// Payload.
    pub data: Bytes,
    /// Immediate data riding the completion (the RDMA write-with-immediate
    /// analogue): protocol headers travel here so the payload `Bytes` can
    /// pass through untouched. Plain sends carry 0.
    pub imm: u64,
    /// Congestion-experienced mark: set when the sender's outbound link
    /// queue was at or above the cluster's ECN threshold when this message
    /// started transmitting (see [`Cluster::set_ecn_threshold`]). Always
    /// `false` until a threshold is installed.
    pub ecn: bool,
    /// Virtual time the message entered the receiver's mailbox. Consumers
    /// (the dc-svc pump) subtract this from their dequeue time to measure
    /// queue wait; pure data, never consulted by the fabric itself.
    pub arrived_ns: SimTime,
}

/// Per-cluster verb counters, for ablations and sanity checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerbStats {
    /// Completed RDMA reads.
    pub reads: u64,
    /// Completed RDMA writes.
    pub writes: u64,
    /// Completed compare-and-swap atomics.
    pub cas: u64,
    /// Completed fetch-and-add atomics.
    pub faa: u64,
    /// RDMA sends delivered.
    pub sends_rdma: u64,
    /// TCP messages delivered.
    pub sends_tcp: u64,
    /// Payload bytes moved by reads.
    pub bytes_read: u64,
    /// Payload bytes moved by writes.
    pub bytes_written: u64,
    /// Messages actually placed into a bound endpoint's mailbox (recv side;
    /// excludes drops, crashes, and unbound ports).
    pub delivered: u64,
    /// Lane-level retransmissions (reliable-send retries reported by the
    /// socket layer).
    pub retransmits: u64,
    /// High-water mark of any lane's reorder (early-arrival) buffer.
    pub reorder_hwm: u64,
    /// Times a sender blocked on exhausted flow-control credits or ring
    /// space.
    pub credit_stalls: u64,
}

struct NodeInner {
    regions: RefCell<Vec<RegionData>>,
    cpu: crate::cpu::CpuModel,
    ports: RefCell<PortTable>,
    /// Outbound link: serializes payload transmission from this node.
    link: Semaphore,
}

struct ClusterInner {
    sim: SimHandle,
    model: FabricModel,
    nodes: RefCell<Vec<Rc<NodeInner>>>,
    stats: VerbCounters,
    next_port: Cell<u16>,
    /// Label + owner of the most recent port allocation, kept so a port-space
    /// exhaustion panic can name the subsystem that burned through the space.
    last_port_owner: RefCell<String>,
    /// Live bound endpoints (`fabric.ports.bound`): +1 on `bind`, −1 when the
    /// endpoint drops. A steadily climbing gauge means some service leaks
    /// per-call bindings instead of reusing a multiplexed port.
    ports_bound: Gauge,
    /// Installed fault schedule, if any. `None` means the fabric is
    /// perfectly reliable and every `try_*` verb is infallible in practice.
    faults: RefCell<Option<FaultPlan>>,
    /// ECN marking threshold: a message is marked congestion-experienced
    /// when its sender's outbound link has at least this many transmissions
    /// queued ahead of it. `None` (the default) disables marking entirely,
    /// so pre-existing workloads are byte-identical.
    ecn_threshold: Cell<Option<usize>>,
    /// Messages delivered with the ECN mark set (`fabric.ecn.marks`).
    ecn_marks: Counter,
    /// Live transport queue pairs (`fabric.qp.active`): multiplexed lanes
    /// such as dc-sockets' eRPC count their bound QP endpoints here, so a
    /// scenario can prove its connection count scales with nodes, not with
    /// logical sessions.
    qp_active: Gauge,
    tracer: Tracer,
    metrics: Rc<Registry>,
}

/// A remote atomic verb's read-modify-write on its target word.
#[derive(Clone, Copy)]
enum Atomic {
    /// Compare-and-swap: `swap` is written iff the word equals `expect`.
    Cas { expect: u64, swap: u64 },
    /// Fetch-and-add (wrapping).
    Faa { add: u64 },
}

/// Verb and fault counters, backed by the unified metrics registry:
/// `stats()` and `fault_stats()` read the same storage that
/// `metrics().snapshot()` enumerates under the `fabric.*` / `sockets.*` /
/// `fault.*` names.
struct VerbCounters {
    reads: Counter,
    writes: Counter,
    cas: Counter,
    faa: Counter,
    sends_rdma: Counter,
    sends_tcp: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    delivered: Counter,
    retransmits: Counter,
    reorder_hwm: Gauge,
    credit_stalls: Counter,
    dropped_msgs: Counter,
    unreachable_ops: Counter,
    retries: Counter,
}

impl VerbCounters {
    fn new(reg: &Registry) -> VerbCounters {
        VerbCounters {
            reads: reg.counter("fabric.verbs.read"),
            writes: reg.counter("fabric.verbs.write"),
            cas: reg.counter("fabric.verbs.cas"),
            faa: reg.counter("fabric.verbs.faa"),
            sends_rdma: reg.counter("fabric.verbs.send_rdma"),
            sends_tcp: reg.counter("fabric.verbs.send_tcp"),
            bytes_read: reg.counter("fabric.bytes.read"),
            bytes_written: reg.counter("fabric.bytes.written"),
            delivered: reg.counter("fabric.delivered"),
            retransmits: reg.counter("sockets.retransmits"),
            reorder_hwm: reg.gauge("sockets.reorder_hwm"),
            credit_stalls: reg.counter("sockets.credit_stalls"),
            // Registered even on a faultless cluster, so its snapshot shows
            // explicit zeros (absent ≠ zero in cross-run diffs).
            dropped_msgs: reg.counter("fault.dropped_msgs"),
            unreachable_ops: reg.counter("fault.unreachable_ops"),
            retries: reg.counter("fault.retries"),
        }
    }
}

/// Handle to the simulated cluster; clone freely.
#[derive(Clone)]
pub struct Cluster {
    inner: Rc<ClusterInner>,
}

impl Cluster {
    /// Build a cluster of `nodes` nodes under the given cost model. Each
    /// node's region 0 is its kernel-statistics block.
    pub fn new(sim: SimHandle, model: FabricModel, nodes: usize) -> Cluster {
        let metrics = Rc::new(Registry::new());
        let tracer = Tracer::new(sim.clone());
        let cluster = Cluster {
            inner: Rc::new(ClusterInner {
                sim,
                model,
                nodes: RefCell::new(Vec::new()),
                stats: VerbCounters::new(&metrics),
                next_port: Cell::new(1024),
                last_port_owner: RefCell::new(String::from("none")),
                ports_bound: metrics.gauge("fabric.ports.bound"),
                faults: RefCell::new(None),
                ecn_threshold: Cell::new(None),
                ecn_marks: metrics.counter("fabric.ecn.marks"),
                qp_active: metrics.gauge("fabric.qp.active"),
                tracer,
                metrics,
            }),
        };
        for _ in 0..nodes {
            cluster.add_node();
        }
        cluster
    }

    /// Add one node; returns its id.
    pub fn add_node(&self) -> NodeId {
        let kstat = RegionData::new(KSTAT_REGION_LEN);
        let cpu =
            crate::cpu::CpuModel::new(self.inner.sim.clone(), self.inner.model.cpu, kstat.clone());
        let node = Rc::new(NodeInner {
            regions: RefCell::new(vec![kstat]),
            cpu,
            ports: RefCell::new(PortTable::new()),
            link: Semaphore::new(1),
        });
        let mut nodes = self.inner.nodes.borrow_mut();
        nodes.push(node);
        NodeId((nodes.len() - 1) as u32)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.inner.nodes.borrow().len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The simulation handle driving this cluster.
    pub fn sim(&self) -> &SimHandle {
        &self.inner.sim
    }

    /// The cost model in force.
    pub fn model(&self) -> &FabricModel {
        &self.inner.model
    }

    /// Verb counters so far.
    pub fn stats(&self) -> VerbStats {
        let s = &self.inner.stats;
        VerbStats {
            reads: s.reads.get(),
            writes: s.writes.get(),
            cas: s.cas.get(),
            faa: s.faa.get(),
            sends_rdma: s.sends_rdma.get(),
            sends_tcp: s.sends_tcp.get(),
            bytes_read: s.bytes_read.get(),
            bytes_written: s.bytes_written.get(),
            delivered: s.delivered.get(),
            retransmits: s.retransmits.get(),
            reorder_hwm: s.reorder_hwm.get().max(0) as u64,
            credit_stalls: s.credit_stalls.get(),
        }
    }

    /// The cluster's trace recorder. Disabled (free) by default; enable with
    /// `cluster.tracer().enable(mode)` to capture verb/protocol/fault events
    /// for Perfetto export. Enabling never changes simulated behaviour.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The unified metrics registry every layer of this cluster registers
    /// into (`fabric.*`, `sockets.*`, `fault.*`, plus service-level names).
    pub fn metrics(&self) -> Rc<Registry> {
        Rc::clone(&self.inner.metrics)
    }

    /// Copy the executor's scheduler counters into the registry as
    /// `sim.polls`, `sim.events`, `sim.timers_fired`, and
    /// `sim.barrier_waits`, plus a `sim.shards` gauge, so metric snapshots
    /// carry the engine work (and engine shape) that produced them. A
    /// cluster runs inside one shard's executor, so `sim.shards` reads 1
    /// and `sim.barrier_waits` stays 0 unless the enclosing scenario runs
    /// on the sharded driver and folds its totals in. The counters only
    /// ever grow, so this can be called before every snapshot.
    pub fn sync_sim_metrics(&self) {
        let c = self.inner.sim.counters();
        for (name, v) in [
            ("sim.polls", c.polls),
            ("sim.events", c.events),
            ("sim.timers_fired", c.timers_fired),
            ("sim.barrier_waits", c.barrier_waits),
        ] {
            let ctr = self.inner.metrics.counter(name);
            ctr.add(v.saturating_sub(ctr.get()));
        }
        self.inner.metrics.gauge("sim.shards").set(1);
    }

    /// Record one lane-level retransmission (called by the socket layer).
    pub fn note_retransmit(&self) {
        self.inner.stats.retransmits.inc();
    }

    /// Record a sender blocking on exhausted credits/ring space on `node`.
    pub fn note_credit_stall(&self, node: NodeId) {
        self.inner.stats.credit_stalls.inc();
        self.inner
            .tracer
            .instant(node.0, Subsys::Sockets, "credit.stall", Vec::new());
    }

    /// Report a lane's reorder-buffer depth; keeps the high-water mark.
    pub fn note_reorder_depth(&self, depth: usize) {
        self.inner.stats.reorder_hwm.set_max(depth as i64);
    }

    /// Install a fault schedule. Every verb and send consults it from now
    /// on; CPU-stall windows are realized as hog jobs spawned here. May be
    /// called at most once per cluster.
    pub fn install_faults(&self, plan: FaultPlan) {
        assert!(
            self.inner.faults.borrow().is_none(),
            "fault plan already installed"
        );
        // The whole schedule is known now, so export the windows with
        // explicit timestamps instead of spawning marker tasks at runtime —
        // extra tasks would shift executor timer ordering and perturb the
        // very schedule being observed.
        let tr = &self.inner.tracer;
        for w in plan.crash_windows() {
            tr.complete_at(
                w.start,
                w.end.saturating_sub(w.start),
                w.node.0,
                Subsys::Fault,
                "fault.crash",
                Vec::new(),
            );
        }
        for w in plan.stall_windows() {
            tr.complete_at(
                w.start,
                w.dur,
                w.node.0,
                Subsys::Fault,
                "fault.stall",
                vec![("cpu_ns", w.dur.into())],
            );
        }
        // Latency windows are cluster-global; render them on node 0's track.
        for w in plan.latency_windows() {
            tr.complete_at(
                w.start,
                w.end.saturating_sub(w.start),
                0,
                Subsys::Fault,
                "fault.latency",
                vec![("factor_milli", w.factor_milli.into())],
            );
        }
        for w in plan.stall_windows() {
            let cpu = self.cpu(w.node);
            let sim = self.inner.sim.clone();
            let (start, dur) = (w.start, w.dur);
            self.inner.sim.spawn_detached(async move {
                sim.sleep_until(start).await;
                cpu.execute(dur).await;
            });
        }
        *self.inner.faults.borrow_mut() = Some(plan);
    }

    /// Fault-exercise counters (zeroes when no plan is installed).
    pub fn fault_stats(&self) -> FaultStats {
        let s = &self.inner.stats;
        FaultStats {
            dropped_msgs: s.dropped_msgs.get(),
            unreachable_ops: s.unreachable_ops.get(),
            retries: s.retries.get(),
        }
    }

    /// Latency multiplier (milli) in force right now; 1000 when faultless.
    fn fault_factor(&self) -> u64 {
        match &*self.inner.faults.borrow() {
            Some(p) => p.latency_factor_milli(self.inner.sim.now()),
            None => 1000,
        }
    }

    /// Whether `node` is currently crashed; records the hit if so.
    fn fault_down(&self, node: NodeId) -> bool {
        match &*self.inner.faults.borrow() {
            Some(p) => {
                let down = p.is_down(node, self.inner.sim.now());
                if down {
                    self.inner.stats.unreachable_ops.inc();
                    self.inner.tracer.instant(
                        node.0,
                        Subsys::Fault,
                        "fault.unreachable",
                        Vec::new(),
                    );
                }
                down
            }
            None => false,
        }
    }

    /// Whether the message under way is dropped in flight.
    fn fault_drop(&self, from: NodeId, to: NodeId) -> bool {
        match &*self.inner.faults.borrow() {
            Some(p) => {
                let dropped = p.should_drop();
                if dropped {
                    self.inner.stats.dropped_msgs.inc();
                    if self.inner.tracer.is_enabled() {
                        self.inner.tracer.instant(
                            to.0,
                            Subsys::Fault,
                            "fault.drop",
                            vec![("src", from.0.into())],
                        );
                    }
                }
                dropped
            }
            None => false,
        }
    }

    /// Record one retry by a reliable wrapper (`fault.retries`). Counted
    /// only while a fault plan is installed: a retransmit on a faultless
    /// fabric is congestion, not an exercised fault.
    pub fn note_retry(&self) {
        if self.inner.faults.borrow().is_some() {
            self.inner.stats.retries.inc();
        }
    }

    /// Sleep out a budgeted-retry backoff, stamped as a `retry`-stage span
    /// on the issuing node so the critical-path analyzer can attribute
    /// retry/backoff time. Recording is tracer-gated and span-only (no
    /// extra tasks or timers beyond the sleep the retry loop already did),
    /// so traced and untraced runs schedule identically.
    async fn backoff_traced(&self, from: NodeId, ns: u64) {
        let t0 = self.inner.tracer.begin();
        self.inner.sim.sleep(ns).await;
        if let Some(t0) = t0 {
            self.inner.tracer.complete(
                t0,
                from.0,
                Subsys::Fabric,
                "verb.backoff",
                vec![("stage", "retry".into())],
            );
        }
    }

    /// The one budgeted-retry loop under every retransmitting verb and send:
    /// run `op` until it succeeds or [`MAX_ATTEMPTS`] are spent, counting a
    /// retry and sleeping out the backoff between attempts (and nothing
    /// after the last). Every `try_` form fails before it mutates or
    /// delivers anything, so re-running it is always safe.
    async fn retrying<T, Fut>(
        &self,
        from: NodeId,
        mut op: impl FnMut() -> Fut,
    ) -> Result<T, FabricError>
    where
        Fut: Future<Output = Result<T, FabricError>>,
    {
        let mut attempt = 0;
        loop {
            match op().await {
                Ok(v) => return Ok(v),
                Err(e) if attempt + 1 >= MAX_ATTEMPTS => return Err(e),
                Err(_) => {
                    self.note_retry();
                    self.backoff_traced(from, backoff_after(attempt)).await;
                    attempt += 1;
                }
            }
        }
    }

    fn node(&self, id: NodeId) -> Rc<NodeInner> {
        Rc::clone(
            self.inner
                .nodes
                .borrow()
                .get(id.idx())
                .unwrap_or_else(|| panic!("no such node: {id:?}")),
        )
    }

    /// The CPU model of `node` (for running application work / load).
    pub fn cpu(&self, node: NodeId) -> crate::cpu::CpuModel {
        self.node(node).cpu.clone()
    }

    /// Register a zeroed memory region of `len` bytes on `node`. It costs
    /// what is written into it, not `len`: backing store comes a 4 KiB page
    /// at a time with the first flat write into each page (payloads a region
    /// holds take none; a region shorter than a page is allocated whole), so
    /// a large heap or cache region is cheap to register and to leave mostly
    /// empty.
    pub fn register(&self, node: NodeId, len: usize) -> RegionId {
        let n = self.node(node);
        let mut regions = n.regions.borrow_mut();
        regions.push(RegionData::new(len));
        RegionId((regions.len() - 1) as u32)
    }

    /// Node-local access to a registered region (no fabric cost — this is
    /// the owning application touching its own memory).
    pub fn region(&self, node: NodeId, region: RegionId) -> RegionData {
        self.node(node)
            .regions
            .borrow()
            .get(region.0 as usize)
            .unwrap_or_else(|| panic!("no such region {region:?} on {node:?}"))
            .clone()
    }

    /// Remote address of `node`'s kernel-statistics block.
    pub fn kstat_addr(&self, node: NodeId) -> RemoteAddr {
        RemoteAddr {
            node,
            region: RegionId(0),
            offset: 0,
        }
    }

    /// One-sided RDMA read of `len` bytes at `addr`, issued by `from`.
    /// The target CPU is not involved.
    ///
    /// Infallible wrapper over [`Cluster::try_rdma_read`]: retries crash-
    /// window failures on the one retry schedule ([`MAX_ATTEMPTS`]) and
    /// panics once it is exhausted (callers that can degrade use the `try_`
    /// form).
    pub async fn rdma_read(&self, from: NodeId, addr: RemoteAddr, len: usize) -> Bytes {
        self.retrying(from, || self.try_rdma_read(from, addr, len))
            .await
            .unwrap_or_else(|e| panic!("rdma_read at {addr:?}: {e} (retry budget exhausted)"))
    }

    /// Fallible RDMA read: fails with [`FabricError::Unreachable`] when the
    /// issuer or the target is inside a crash window. No bytes are returned
    /// on failure; nothing is mutated either way.
    ///
    /// The `split = 0` case of [`Cluster::try_rdma_read_sg`]: one piece.
    pub fn try_rdma_read(
        &self,
        from: NodeId,
        addr: RemoteAddr,
        len: usize,
    ) -> impl Future<Output = Result<Bytes, FabricError>> + '_ {
        self.read_verb(from, addr, len, move |region| {
            region.read_bytes(addr.offset, len)
        })
    }

    /// One-sided RDMA read of `len` bytes at `addr` into two pieces, split
    /// at `split` (see [`Cluster::try_rdma_read_sg`]).
    ///
    /// Infallible wrapper over [`Cluster::try_rdma_read_sg`]; see
    /// [`Cluster::rdma_read`] for the retry/panic contract.
    pub async fn rdma_read_sg(
        &self,
        from: NodeId,
        addr: RemoteAddr,
        split: usize,
        len: usize,
    ) -> (Bytes, Bytes) {
        self.retrying(from, || self.try_rdma_read_sg(from, addr, split, len))
            .await
            .unwrap_or_else(|e| panic!("rdma_read_sg at {addr:?}: {e} (retry budget exhausted)"))
    }

    /// RDMA read with the two-element scatter list of a READ work request:
    /// `len` bytes at `addr` arrive as the pieces `addr..addr + split` and
    /// `addr + split..addr + len`. However it is split it is one verb — one
    /// post, `len` bytes of the target's link, one `verb.read` span, one
    /// count — and each piece is what [`RegionData::read_bytes`] returns for
    /// its range, so a payload the region holds arrives as a window of it
    /// while the header in front of it is validated apart. Fails like
    /// [`Cluster::try_rdma_read`].
    pub fn try_rdma_read_sg(
        &self,
        from: NodeId,
        addr: RemoteAddr,
        split: usize,
        len: usize,
    ) -> impl Future<Output = Result<(Bytes, Bytes), FabricError>> + '_ {
        assert!(split <= len, "scatter split {split} beyond read of {len}");
        self.read_verb(from, addr, len, move |region| {
            (
                region.read_bytes(addr.offset, split),
                region.read_bytes(addr.offset + split, len - split),
            )
        })
    }

    /// One-sided read of the 8-byte-aligned little-endian word at `addr`:
    /// [`Cluster::rdma_read`] of 8 bytes, decoded. Same retry/panic contract.
    pub async fn read_u64(&self, from: NodeId, addr: RemoteAddr) -> u64 {
        self.retrying(from, || self.try_read_u64(from, addr))
            .await
            .unwrap_or_else(|e| panic!("read_u64 at {addr:?}: {e} (retry budget exhausted)"))
    }

    /// Fallible word read: [`Cluster::try_rdma_read`] of 8 bytes, decoded.
    pub fn try_read_u64(
        &self,
        from: NodeId,
        addr: RemoteAddr,
    ) -> impl Future<Output = Result<u64, FabricError>> + '_ {
        self.read_verb(from, addr, 8, move |region| region.read_u64(addr.offset))
    }

    /// One-sided read of `node`'s kernel-statistics block, decoded:
    /// [`Cluster::rdma_read`] of the [`KSTAT_REGION_LEN`] bytes at
    /// [`Cluster::kstat_addr`] without the `Bytes` in between. Same
    /// retry/panic contract.
    pub async fn read_kstat(&self, from: NodeId, node: NodeId) -> KernelStats {
        let addr = self.kstat_addr(node);
        self.retrying(from, || {
            self.read_verb(from, addr, KSTAT_REGION_LEN, move |region| {
                KernelStats::decode(&region.read_array::<KSTAT_REGION_LEN>(addr.offset))
            })
        })
        .await
        .unwrap_or_else(|e| panic!("read_kstat of {node:?}: {e} (retry budget exhausted)"))
    }

    /// The one RDMA-read body. `sample` takes the `len` bytes out of the
    /// target region when transmission begins; whether it cuts them into one
    /// piece or two, or decodes them as a word or as the kernel-statistics
    /// block, is all that differs between the plain, the scatter, the word
    /// and the kstat read, so it is a parameter (not a second body, and not a
    /// wrapper that would put a future level and an unused piece under every
    /// plain read).
    async fn read_verb<T>(
        &self,
        from: NodeId,
        addr: RemoteAddr,
        len: usize,
        sample: impl FnOnce(&RegionData) -> T,
    ) -> Result<T, FabricError> {
        let m = &self.inner.model;
        let sim = self.inner.sim.clone();
        let f = self.fault_factor();
        let t0 = self.inner.tracer.begin();
        if self.fault_down(from) {
            return Err(FabricError::Unreachable(from));
        }
        sim.sleep(inflate(m.post_overhead_ns + m.rdma_read_base_ns / 2, f))
            .await;
        // The request has reached the target NIC: the target must be up to
        // sample and transmit the data.
        if self.fault_down(addr.node) {
            return Err(FabricError::Unreachable(addr.node));
        }
        let target = self.node(addr.node);
        // Queue on the target's outbound link for the payload.
        let permit = target.link.acquire_permit().await;
        let data = sample(&target.regions.borrow()[addr.region.0 as usize]);
        sim.sleep(inflate(m.ib_bytes_time(len), f)).await;
        drop(permit);
        sim.sleep(inflate(m.rdma_read_base_ns - m.rdma_read_base_ns / 2, f))
            .await;
        self.inner.stats.reads.inc();
        self.inner.stats.bytes_read.add(len as u64);
        if let Some(t0) = t0 {
            self.inner.tracer.complete(
                t0,
                from.0,
                Subsys::Fabric,
                "verb.read",
                vec![
                    ("bytes", len.into()),
                    ("target", addr.node.0.into()),
                    ("remote_cpu_ns", 0u64.into()),
                    ("stage", "wire".into()),
                ],
            );
        }
        Ok(data)
    }

    /// One-sided RDMA write of `data` to `addr`, issued by `from`: the
    /// target region copies the bytes. Completes after the NIC-level
    /// acknowledgement.
    ///
    /// Infallible wrapper over [`Cluster::try_rdma_write`]; see
    /// [`Cluster::rdma_read`] for the retry/panic contract.
    pub async fn rdma_write(&self, from: NodeId, addr: RemoteAddr, data: &[u8]) {
        self.retrying(from, || self.try_rdma_write(from, addr, data))
            .await
            .unwrap_or_else(|e| panic!("rdma_write at {addr:?}: {e} (retry budget exhausted)"))
    }

    /// [`Cluster::rdma_write`] of a payload the target region then holds
    /// ([`RegionData::write_bytes`]): the NIC moves bytes the host never
    /// copies, so later reads inside the range return windows of `data`
    /// itself. Same timing, faults and retry/panic contract as the copying
    /// write; payloads too short to be worth holding are copied.
    pub async fn rdma_write_bytes(&self, from: NodeId, addr: RemoteAddr, data: &Bytes) {
        self.retrying(from, || {
            self.write_verb(from, addr, data.len(), move |region| {
                region.write_bytes(addr.offset, data)
            })
        })
        .await
        .unwrap_or_else(|e| panic!("rdma_write_bytes at {addr:?}: {e} (retry budget exhausted)"))
    }

    /// Fallible RDMA write. On `Err` the target memory was *not* modified,
    /// so retrying is always safe.
    pub fn try_rdma_write<'a>(
        &'a self,
        from: NodeId,
        addr: RemoteAddr,
        data: &'a [u8],
    ) -> impl Future<Output = Result<(), FabricError>> + 'a {
        self.write_verb(from, addr, data.len(), move |region| {
            region.write(addr.offset, data)
        })
    }

    /// The one RDMA-write body, shaped like [`Cluster::read_verb`]: `land`
    /// puts the `len` bytes into the target region at the instant they
    /// become visible there. Copying them or holding them is all that
    /// differs between [`Cluster::rdma_write`] and
    /// [`Cluster::rdma_write_bytes`], so it is a parameter, not a second
    /// body.
    async fn write_verb(
        &self,
        from: NodeId,
        addr: RemoteAddr,
        len: usize,
        land: impl FnOnce(&RegionData),
    ) -> Result<(), FabricError> {
        let m = &self.inner.model;
        let sim = self.inner.sim.clone();
        let f = self.fault_factor();
        let t0 = self.inner.tracer.begin();
        if self.fault_down(from) {
            return Err(FabricError::Unreachable(from));
        }
        sim.sleep(inflate(m.post_overhead_ns, f)).await;
        let src = self.node(from);
        let permit = src.link.acquire_permit().await;
        sim.sleep(inflate(m.ib_bytes_time(len), f)).await;
        drop(permit);
        sim.sleep(inflate(m.rdma_write_base_ns / 2, f)).await;
        // The payload is about to land: the target must be up.
        if self.fault_down(addr.node) {
            return Err(FabricError::Unreachable(addr.node));
        }
        let target = self.node(addr.node);
        land(&target.regions.borrow()[addr.region.0 as usize]);
        sim.sleep(inflate(m.rdma_write_base_ns - m.rdma_write_base_ns / 2, f))
            .await;
        self.inner.stats.writes.inc();
        self.inner.stats.bytes_written.add(len as u64);
        if let Some(t0) = t0 {
            self.inner.tracer.complete(
                t0,
                from.0,
                Subsys::Fabric,
                "verb.write",
                vec![
                    ("bytes", len.into()),
                    ("target", addr.node.0.into()),
                    ("remote_cpu_ns", 0u64.into()),
                    ("stage", "wire".into()),
                ],
            );
        }
        Ok(())
    }

    /// Remote compare-and-swap on the u64 at `addr`; returns the prior value
    /// (swap happened iff it equals `expect`). Linearized at the target NIC.
    ///
    /// Infallible wrapper over [`Cluster::try_atomic_cas`]; see
    /// [`Cluster::rdma_read`] for the retry/panic contract.
    pub async fn atomic_cas(&self, from: NodeId, addr: RemoteAddr, expect: u64, swap: u64) -> u64 {
        self.retrying(from, || self.try_atomic_cas(from, addr, expect, swap))
            .await
            .unwrap_or_else(|e| panic!("atomic_cas at {addr:?}: {e} (retry budget exhausted)"))
    }

    /// Fallible compare-and-swap. On `Err` the word was *not* touched (the
    /// operation fails before linearization), so retrying is safe.
    pub fn try_atomic_cas(
        &self,
        from: NodeId,
        addr: RemoteAddr,
        expect: u64,
        swap: u64,
    ) -> impl Future<Output = Result<u64, FabricError>> + '_ {
        self.atomic_verb(from, addr, Atomic::Cas { expect, swap })
    }

    /// Remote fetch-and-add (wrapping) on the u64 at `addr`; returns the
    /// prior value. Linearized at the target NIC.
    ///
    /// Infallible wrapper over [`Cluster::try_atomic_faa`]; see
    /// [`Cluster::rdma_read`] for the retry/panic contract.
    pub async fn atomic_faa(&self, from: NodeId, addr: RemoteAddr, add: u64) -> u64 {
        self.retrying(from, || self.try_atomic_faa(from, addr, add))
            .await
            .unwrap_or_else(|e| panic!("atomic_faa at {addr:?}: {e} (retry budget exhausted)"))
    }

    /// Fallible fetch-and-add. On `Err` the word was *not* touched, so
    /// retrying is safe (no double-add).
    pub fn try_atomic_faa(
        &self,
        from: NodeId,
        addr: RemoteAddr,
        add: u64,
    ) -> impl Future<Output = Result<u64, FabricError>> + '_ {
        self.atomic_verb(from, addr, Atomic::Faa { add })
    }

    /// The one remote-atomic body, shaped like [`Cluster::read_verb`]: `op`
    /// is the read-modify-write on the target word, linearized at the target
    /// NIC, and the prior value is returned. Which verb it is picks the
    /// region operation, the counter, the span name and CAS's `swapped` arg,
    /// and nothing else.
    async fn atomic_verb(
        &self,
        from: NodeId,
        addr: RemoteAddr,
        op: Atomic,
    ) -> Result<u64, FabricError> {
        let m = &self.inner.model;
        let f = self.fault_factor();
        let t0 = self.inner.tracer.begin();
        if self.fault_down(from) {
            return Err(FabricError::Unreachable(from));
        }
        let sim = &self.inner.sim;
        sim.sleep(inflate(m.post_overhead_ns + m.atomic_base_ns / 2, f))
            .await;
        if self.fault_down(addr.node) {
            return Err(FabricError::Unreachable(addr.node));
        }
        let target = self.node(addr.node);
        let old = {
            let region = &target.regions.borrow()[addr.region.0 as usize];
            match op {
                Atomic::Cas { expect, swap } => region.cas_u64(addr.offset, expect, swap),
                Atomic::Faa { add } => region.faa_u64(addr.offset, add),
            }
        };
        sim.sleep(inflate(m.atomic_base_ns - m.atomic_base_ns / 2, f))
            .await;
        let stats = &self.inner.stats;
        let (counter, name) = match op {
            Atomic::Cas { .. } => (&stats.cas, "verb.cas"),
            Atomic::Faa { .. } => (&stats.faa, "verb.faa"),
        };
        counter.inc();
        if let Some(t0) = t0 {
            let mut args = Vec::with_capacity(4);
            args.push(("target", addr.node.0.into()));
            if let Atomic::Cas { expect, .. } = op {
                args.push(("swapped", u64::from(old == expect).into()));
            }
            args.push(("remote_cpu_ns", 0u64.into()));
            args.push(("stage", "wire".into()));
            self.inner
                .tracer
                .complete(t0, from.0, Subsys::Fabric, name, args);
        }
        Ok(old)
    }

    /// [`Cluster::alloc_port_for`] with no owner to name. Only
    /// `benchmark/`'s probes still call it; everything else names its owner.
    pub fn alloc_port(&self) -> u16 {
        self.alloc_port_for(NodeId(0), "an unlabeled caller")
    }

    /// Allocate a cluster-unique port number (usable on any node; ports
    /// below 1024 are reserved for well-known services), recording the
    /// owning node and subsystem label so a port-space exhaustion panic
    /// names the culprit instead of failing with a bare assertion.
    pub fn alloc_port_for(&self, node: NodeId, label: &str) -> u16 {
        let p = self.inner.next_port.get();
        assert!(
            p < u16::MAX,
            "port space exhausted allocating '{label}' for {node:?} \
             ({} dynamic ports allocated; previous labeled owner: {}) — some \
             subsystem allocates per-call ports without reusing a multiplexed \
             client",
            p - 1024,
            self.inner.last_port_owner.borrow(),
        );
        {
            use std::fmt::Write as _;
            let mut owner = self.inner.last_port_owner.borrow_mut();
            owner.clear();
            let _ = write!(owner, "{label} for {node:?}");
        }
        self.inner.next_port.set(p + 1);
        p
    }

    /// Bind a receive endpoint on `(node, port)`. Panics if the port is
    /// already bound.
    pub fn bind(&self, node: NodeId, port: u16) -> Endpoint {
        let n = self.node(node);
        let slot = n.ports.borrow_mut().bind(port);
        let slot = slot.unwrap_or_else(|| panic!("port {port} already bound on {node:?}"));
        self.inner.ports_bound.add(1);
        Endpoint {
            node: n,
            id: node,
            port,
            slot,
            bound: self.inner.ports_bound.clone(),
        }
    }

    /// Send `data` from `from` to `(to, port)` over `transport`. Completes
    /// when the message is delivered into the endpoint's mailbox (for TCP
    /// that includes receiver-side protocol processing, which competes with
    /// application load for the target CPU). Messages to unbound ports are
    /// silently dropped, like a network — and so are messages hit by an
    /// installed fault plan (unreliable-datagram semantics; use
    /// [`Cluster::send_reliable_imm`] for the RC-QP retransmitting flavor).
    pub async fn send(
        &self,
        from: NodeId,
        to: NodeId,
        port: u16,
        data: Bytes,
        transport: Transport,
    ) {
        let _ = self
            .try_send_imm_ref(from, to, port, &data, 0, 0, transport)
            .await;
    }

    /// The one send body, carrying immediate data: `imm` rides the
    /// completion next to the payload, so protocol headers need no prepend
    /// copy and the caller's `Bytes` reaches the receiver's mailbox as the
    /// same refcounted buffer — cloned only at the delivery point, so retry
    /// loops re-post one payload across attempts. `hdr_len` is how many
    /// header bytes `imm` stands for *on the wire*: a gather send of
    /// `[header][payload]` is charged `hdr_len + data.len()` bytes of link
    /// and stack time, exactly what the prepended frame cost. The classic
    /// RPC framing passes its correlation header here; plain sends and the
    /// eRPC lane — whose 64-bit header is the verb's own immediate word,
    /// never payload — pass 0. The delivered [`Message`] also carries the
    /// ECN mark sampled from the sender's link queue (see
    /// [`Cluster::set_ecn_threshold`]). This is the zero-copy hot path of
    /// the dc-sockets eRPC lane.
    #[allow(clippy::too_many_arguments)] // the message, its framing, its route
    pub async fn try_send_imm_ref(
        &self,
        from: NodeId,
        to: NodeId,
        port: u16,
        data: &Bytes,
        imm: u64,
        hdr_len: usize,
        transport: Transport,
    ) -> Result<(), FabricError> {
        let m = &self.inner.model;
        let sim = self.inner.sim.clone();
        let len = hdr_len + data.len();
        let f = self.fault_factor();
        let t0 = self.inner.tracer.begin();
        if self.fault_down(from) {
            return Err(FabricError::Unreachable(from));
        }
        match transport {
            Transport::RdmaSend => {
                sim.sleep(inflate(m.post_overhead_ns, f)).await;
                let src = self.node(from);
                // Sample congestion before queueing for the link: the queue
                // ahead of this message is what the mark is about.
                let ecn = self.ecn_sample(&src);
                let permit = src.link.acquire_permit().await;
                sim.sleep(inflate(m.ib_bytes_time(len), f)).await;
                drop(permit);
                sim.sleep(inflate(m.rdma_send_base_ns, f)).await;
                self.inner.stats.sends_rdma.inc();
                if self.fault_down(to) {
                    return Err(FabricError::Unreachable(to));
                }
                if self.fault_drop(from, to) {
                    return Err(FabricError::Dropped);
                }
                self.deliver(from, to, port, data.clone(), imm, ecn);
                if let Some(t0) = t0 {
                    self.inner.tracer.complete(
                        t0,
                        from.0,
                        Subsys::Fabric,
                        "verb.send_rdma",
                        vec![
                            ("bytes", len.into()),
                            ("target", to.0.into()),
                            ("remote_cpu_ns", 0u64.into()),
                            ("stage", "wire".into()),
                        ],
                    );
                }
            }
            Transport::Tcp => {
                // Sender-side stack processing (copy into kernel buffers).
                let src = self.node(from);
                src.cpu.execute(m.tcp_send_cpu(len)).await;
                let ecn = self.ecn_sample(&src);
                let permit = src.link.acquire_permit().await;
                sim.sleep(inflate(m.tcp_bytes_time(len), f)).await;
                drop(permit);
                sim.sleep(inflate(m.tcp_base_ns, f)).await;
                self.inner.stats.sends_tcp.inc();
                if self.fault_down(to) {
                    return Err(FabricError::Unreachable(to));
                }
                if self.fault_drop(from, to) {
                    return Err(FabricError::Dropped);
                }
                // Receiver-side stack processing competes with load.
                let dst = self.node(to);
                dst.cpu.execute(m.tcp_recv_cpu(len)).await;
                self.deliver(from, to, port, data.clone(), imm, ecn);
                if let Some(t0) = t0 {
                    self.inner.tracer.complete(
                        t0,
                        from.0,
                        Subsys::Fabric,
                        "verb.send_tcp",
                        vec![
                            ("bytes", len.into()),
                            ("target", to.0.into()),
                            ("remote_cpu_ns", m.tcp_recv_cpu(len).into()),
                            ("stage", "wire".into()),
                        ],
                    );
                }
            }
        }
        Ok(())
    }

    /// Reliable-connection send (the simulated analogue of an InfiniBand RC
    /// QP): [`Cluster::try_send_imm_ref`] retransmitted on drop or crash
    /// under the one retry schedule ([`MAX_ATTEMPTS`], exponential backoff),
    /// so every retransmission re-posts the same header word and the same
    /// payload buffer. `Ok(())` means delivered exactly once; `Err` means
    /// never delivered — so protocol state machines built on this never see
    /// duplicates.
    #[allow(clippy::too_many_arguments)] // try_send_imm_ref's
    pub async fn send_reliable_imm(
        &self,
        from: NodeId,
        to: NodeId,
        port: u16,
        data: &Bytes,
        imm: u64,
        hdr_len: usize,
        transport: Transport,
    ) -> Result<(), FabricError> {
        self.retrying(from, || {
            self.try_send_imm_ref(from, to, port, data, imm, hdr_len, transport)
        })
        .await
    }

    fn deliver(&self, from: NodeId, to: NodeId, port: u16, data: Bytes, imm: u64, ecn: bool) {
        let n = self.node(to);
        let mut ports = n.ports.borrow_mut();
        // A dropped endpoint has unbound its port: the message is dropped.
        if let Some(slot) = ports.slot(port) {
            ports.push(
                slot,
                Message {
                    src: from,
                    port,
                    data,
                    imm,
                    ecn,
                    arrived_ns: self.inner.sim.now(),
                },
            );
            self.inner.stats.delivered.inc();
            if ecn {
                self.inner.ecn_marks.inc();
            }
        }
    }

    /// Whether a message entering `src`'s outbound link right now would be
    /// ECN-marked: at least `threshold` transmissions are already queued.
    fn ecn_sample(&self, src: &NodeInner) -> bool {
        self.inner
            .ecn_threshold
            .get()
            .is_some_and(|t| src.link.waiting() >= t)
    }

    /// Install (or clear) the ECN marking threshold, in queued-transmission
    /// units. This is a workload knob, deliberately *not* part of
    /// [`FabricModel`]: the calibration fingerprint covers the 2007 cost
    /// constants, and marking changes no timing — it only annotates
    /// delivered messages.
    pub fn set_ecn_threshold(&self, threshold: Option<usize>) {
        self.inner.ecn_threshold.set(threshold);
    }

    /// ECN-marked deliveries so far (`fabric.ecn.marks`).
    pub fn ecn_marks(&self) -> u64 {
        self.inner.ecn_marks.get()
    }

    /// Record a transport queue pair coming up (+1) or down (−1) on the
    /// `fabric.qp.active` gauge. Multiplexed lanes call this per bound QP
    /// endpoint so session-to-QP fan-in is observable.
    pub fn note_qp(&self, delta: i64) {
        self.inner.qp_active.add(delta);
    }

    /// Live transport queue pairs (`fabric.qp.active`).
    pub fn qp_active(&self) -> i64 {
        self.inner.qp_active.get()
    }
}

/// A bound receive endpoint: a mailbox slot in its node's port table (see
/// `ports.rs`). Unbinds its port on drop.
pub struct Endpoint {
    node: Rc<NodeInner>,
    id: NodeId,
    port: u16,
    slot: u32,
    bound: Gauge,
}

impl Endpoint {
    /// The node this endpoint lives on.
    pub fn node(&self) -> NodeId {
        self.id
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Await the next message.
    pub async fn recv(&mut self) -> Message {
        std::future::poll_fn(|cx| self.node.ports.borrow_mut().poll_pop(self.slot, cx)).await
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<Message> {
        self.node.ports.borrow_mut().pop(self.slot)
    }

    /// Messages currently queued.
    pub fn queued(&self) -> usize {
        self.node.ports.borrow().len(self.slot)
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        let waiting = self.node.ports.borrow_mut().unbind(self.port, self.slot);
        if let Some(w) = waiting {
            w.wake();
        }
        self.bound.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_sim::time::{ms, us};
    use dc_sim::Sim;

    fn setup(n: usize) -> (Sim, Cluster) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), n);
        (sim, cluster)
    }

    #[test]
    fn bound_ports_gauge_tracks_bind_and_drop() {
        let (_sim, c) = setup(2);
        let gauge = || c.metrics().gauge("fabric.ports.bound").get();
        assert_eq!(gauge(), 0);
        let p1 = c.alloc_port_for(NodeId(0), "test.a");
        let p2 = c.alloc_port_for(NodeId(1), "test.b");
        let e1 = c.bind(NodeId(0), p1);
        let e2 = c.bind(NodeId(1), p2);
        assert_eq!(gauge(), 2);
        drop(e1);
        assert_eq!(gauge(), 1);
        drop(e2);
        assert_eq!(gauge(), 0);
    }

    /// Counts its wakes: the task a receive would have parked.
    #[derive(Default)]
    struct WakeCount(std::sync::atomic::AtomicU32);

    impl std::task::Wake for WakeCount {
        fn wake(self: std::sync::Arc<Self>) {
            self.wake_by_ref();
        }
        fn wake_by_ref(self: &std::sync::Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// One port's state in the reference: its queue while bound, whether a
    /// receive left its waker registered, and the wakes that should have
    /// reached that waker.
    #[derive(Default)]
    struct RefPort {
        queue: Option<std::collections::VecDeque<u64>>,
        armed: bool,
        wakes: u32,
    }

    /// Random bind, deliver, receive, non-blocking receive and drop steps
    /// (`op % 5`) over three ports of one node, each step checked against a
    /// `VecDeque` per bound port: FIFO order per port, a delivery to an
    /// unbound port dropped and not counted, `queued()`, the bound-ports
    /// gauge, a rebound port starting empty whatever the previous binding
    /// left queued, and a receive's registered waker woken exactly once, by
    /// the next delivery or by the endpoint's drop.
    fn port_table_case(steps: &[(u8, usize)]) {
        use std::future::Future;
        use std::task::{Context, Poll, Waker};

        let (_sim, c) = setup(2);
        let node = NodeId(1);
        let ports: Vec<u16> = (0..3)
            .map(|_| c.alloc_port_for(node, "test.port"))
            .collect();
        let counters: Vec<std::sync::Arc<WakeCount>> = (0..3).map(|_| Default::default()).collect();
        let wakers: Vec<Waker> = counters.iter().map(|w| Waker::from(w.clone())).collect();
        let mut eps: Vec<Option<Endpoint>> = (0..3).map(|_| None).collect();
        let mut model: Vec<RefPort> = (0..3).map(|_| RefPort::default()).collect();
        for (step, &(op, p)) in steps.iter().enumerate() {
            let (ep, port) = (&mut eps[p], &mut model[p]);
            match (op % 5, ep.as_mut()) {
                (0, None) => {
                    *ep = Some(c.bind(node, ports[p]));
                    port.queue = Some(Default::default());
                }
                (1, _) => {
                    let before = c.stats().delivered;
                    c.deliver(NodeId(0), node, ports[p], Bytes::new(), step as u64, false);
                    let counted = c.stats().delivered - before;
                    match port.queue.as_mut() {
                        Some(q) => {
                            q.push_back(step as u64);
                            port.wakes += u32::from(std::mem::take(&mut port.armed));
                            assert_eq!(counted, 1, "step {step}: delivery not counted");
                        }
                        None => assert_eq!(counted, 0, "step {step}: unbound port delivered"),
                    }
                }
                (2, Some(e)) => {
                    let mut cx = Context::from_waker(&wakers[p]);
                    let mut recv = std::pin::pin!(e.recv());
                    let queue = port.queue.as_mut().expect("bound");
                    match recv.as_mut().poll(&mut cx) {
                        Poll::Ready(m) => assert_eq!(Some(m.imm), queue.pop_front(), "step {step}"),
                        Poll::Pending => {
                            assert!(
                                queue.is_empty(),
                                "step {step}: pending over a queued message"
                            );
                            port.armed = true;
                        }
                    }
                }
                (3, Some(e)) => {
                    let got = e.try_recv().map(|m| m.imm);
                    let want = port.queue.as_mut().expect("bound").pop_front();
                    assert_eq!(got, want, "step {step}");
                }
                (4, Some(_)) => {
                    *ep = None;
                    port.queue = None;
                    port.wakes += u32::from(std::mem::take(&mut port.armed));
                }
                _ => {}
            }
            let bound = eps.iter().filter(|e| e.is_some()).count();
            assert_eq!(c.metrics().gauge("fabric.ports.bound").get(), bound as i64);
            for ((e, port), count) in eps.iter().zip(&model).zip(&counters) {
                if let (Some(e), Some(q)) = (e, &port.queue) {
                    assert_eq!(e.queued(), q.len(), "step {step}: queued()");
                }
                let woken = count.0.load(std::sync::atomic::Ordering::Relaxed);
                assert_eq!(woken, port.wakes, "step {step}: wakes");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn port_table_matches_a_queue_per_port(
            steps in proptest::collection::vec((0u8..5, 0usize..3), 0..120)
        ) {
            port_table_case(&steps);
        }
    }

    /// The dynamic port space ends at `u16::MAX - 1`: the allocation after
    /// the last port panics, naming the owner of the one before it.
    #[test]
    fn port_space_exhaustion_names_the_previous_owner() {
        let (_sim, c) = setup(1);
        c.inner.next_port.set(u16::MAX - 1);
        assert_eq!(c.alloc_port_for(NodeId(0), "test.last"), u16::MAX - 1);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.alloc_port_for(NodeId(0), "test.one_too_many")
        }))
        .expect_err("a port past the end was handed out");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            msg.starts_with("port space exhausted allocating 'test.one_too_many'"),
            "{msg}"
        );
        assert!(
            msg.contains("previous labeled owner: test.last for NodeId(0)"),
            "{msg}"
        );
    }

    #[test]
    fn rdma_write_then_read_round_trips_data() {
        let (sim, c) = setup(3);
        let r = c.register(NodeId(2), 1024);
        let addr = RemoteAddr {
            node: NodeId(2),
            region: r,
            offset: 100,
        };
        let cc = c.clone();
        let out = sim.run_to(async move {
            cc.rdma_write(NodeId(0), addr, b"payload").await;
            cc.rdma_read(NodeId(1), addr, 7).await
        });
        assert_eq!(&out[..], b"payload");
        let s = c.stats();
        assert_eq!((s.reads, s.writes), (1, 1));
        assert_eq!(s.bytes_written, 7);
        assert_eq!(s.bytes_read, 7);
    }

    #[test]
    fn scatter_read_is_one_verb_in_two_pieces() {
        let (sim, c) = setup(2);
        let r = c.register(NodeId(1), 4096);
        let addr = RemoteAddr {
            node: NodeId(1),
            region: r,
            offset: 64,
        };
        let payload = Bytes::from(vec![0xABu8; 1024]);
        let region = c.region(NodeId(1), r);
        region.write(64, b"header!!");
        region.write_bytes(72, &payload);
        let (cc, h) = (c.clone(), sim.handle());
        let (split, whole, t_split, t_whole) = sim.run_to(async move {
            let t0 = h.now();
            let split = cc.try_rdma_read_sg(NodeId(0), addr, 8, 1032).await.unwrap();
            let t1 = h.now();
            let whole = cc.try_rdma_read(NodeId(0), addr, 1032).await.unwrap();
            (split, whole, t1 - t0, h.now() - t1)
        });
        assert_eq!(&split.0[..], b"header!!");
        assert_eq!(
            split.1.as_ptr(),
            payload.as_ptr(),
            "the payload piece was copied"
        );
        assert_eq!(&whole[..8], b"header!!");
        assert_eq!(&whole[8..], &payload[..]);
        assert_eq!(
            t_split, t_whole,
            "the split must not change the verb's cost"
        );
        let s = c.stats();
        assert_eq!((s.reads, s.bytes_read), (2, 2 * 1032));
    }

    #[test]
    fn word_read_is_the_eight_byte_read_verb() {
        use dc_trace::TraceMode;
        let run = |word: bool| {
            let (sim, c) = setup(2);
            let r = c.register(NodeId(1), 64);
            let addr = RemoteAddr {
                node: NodeId(1),
                region: r,
                offset: 16,
            };
            c.region(NodeId(1), r).write_u64(16, 0x0102_0304_0506_0708);
            c.tracer().enable(TraceMode::Full);
            let (cc, h) = (c.clone(), sim.handle());
            let (v, t) = sim.run_to(async move {
                let v = if word {
                    cc.read_u64(NodeId(0), addr).await
                } else {
                    let raw = cc.rdma_read(NodeId(0), addr, 8).await;
                    u64::from_le_bytes(raw[..].try_into().unwrap())
                };
                (v, h.now())
            });
            (v, t, c.stats(), c.tracer().events())
        };
        let (word, bytes) = (run(true), run(false));
        assert_eq!(word.0, 0x0102_0304_0506_0708);
        assert_eq!((word.2.reads, word.2.bytes_read), (1, 8));
        assert_eq!(word.3.len(), 1, "one verb.read span");
        assert_eq!(word, bytes);
    }

    #[test]
    fn kstat_read_is_the_sixty_four_byte_read_verb() {
        use crate::faults::{CrashWindow, FaultPlan};
        use dc_trace::TraceMode;
        // On a clean fabric, and with the target inside a crash window for
        // the first 5 ms (the infallible read retries its way out of it).
        let run = |decoding: bool, crashed: bool| {
            let (sim, c) = setup(2);
            let cpu = c.cpu(NodeId(1));
            cpu.thread_started();
            cpu.accept_enqueued();
            if crashed {
                let window = CrashWindow {
                    node: NodeId(1),
                    start: 0,
                    end: ms(5),
                };
                c.install_faults(FaultPlan::from_parts(0, vec![window], vec![], vec![], 0.0));
            }
            c.tracer().enable(TraceMode::Full);
            let (cc, h) = (c.clone(), sim.handle());
            let (v, t) = sim.run_to(async move {
                let v = if decoding {
                    cc.read_kstat(NodeId(0), NodeId(1)).await
                } else {
                    let addr = cc.kstat_addr(NodeId(1));
                    let raw = cc.rdma_read(NodeId(0), addr, KSTAT_REGION_LEN).await;
                    KernelStats::decode(&raw)
                };
                (v, h.now())
            });
            (
                v,
                t,
                c.stats(),
                c.fault_stats().retries,
                c.tracer().events(),
            )
        };
        for crashed in [false, true] {
            let (kstat, bytes) = (run(true, crashed), run(false, crashed));
            let v = kstat.0;
            assert_eq!((v.app_threads, v.accept_queue), (1, 1));
            assert_eq!((kstat.2.reads, kstat.2.bytes_read), (1, 64));
            assert_eq!(
                kstat.3 > 0,
                crashed,
                "retries iff the window was in the way"
            );
            let reads = kstat.4.iter().filter(|e| e.name == "verb.read").count();
            assert_eq!(reads, 1, "one verb.read span");
            assert_eq!(kstat, bytes);
        }
    }

    #[test]
    fn small_read_latency_matches_calibration() {
        let (sim, c) = setup(2);
        let r = c.register(NodeId(1), 64);
        let addr = RemoteAddr {
            node: NodeId(1),
            region: r,
            offset: 0,
        };
        let cc = c.clone();
        let h = sim.handle();
        let t = sim.run_to(async move {
            cc.rdma_read(NodeId(0), addr, 1).await;
            h.now()
        });
        let m = FabricModel::calibrated_2007();
        // post + base + 1-byte wire time (2ns at 900 B/us).
        assert_eq!(t, m.post_overhead_ns + m.rdma_read_base_ns + 2);
    }

    #[test]
    fn rdma_ops_do_not_touch_target_cpu() {
        let (sim, c) = setup(2);
        let r = c.register(NodeId(1), 64);
        let addr = RemoteAddr {
            node: NodeId(1),
            region: r,
            offset: 0,
        };
        let cc = c.clone();
        sim.run_to(async move {
            cc.rdma_write(NodeId(0), addr, &[1; 32]).await;
            cc.rdma_read(NodeId(0), addr, 32).await;
            cc.atomic_faa(NodeId(0), addr, 1).await;
        });
        assert_eq!(c.cpu(NodeId(1)).snapshot().busy_ns, 0);
    }

    #[test]
    fn atomics_linearize_under_concurrency() {
        let (sim, c) = setup(5);
        let r = c.register(NodeId(0), 8);
        let addr = RemoteAddr {
            node: NodeId(0),
            region: r,
            offset: 0,
        };
        // Four nodes concurrently increment 100 times each.
        for n in 1..5u32 {
            let cc = c.clone();
            sim.spawn(async move {
                for _ in 0..100 {
                    cc.atomic_faa(NodeId(n), addr, 1).await;
                }
            });
        }
        sim.run();
        assert_eq!(c.region(NodeId(0), r).read_u64(0), 400);
    }

    #[test]
    fn cas_exactly_one_winner() {
        let (sim, c) = setup(4);
        let r = c.register(NodeId(0), 8);
        let addr = RemoteAddr {
            node: NodeId(0),
            region: r,
            offset: 0,
        };
        let mut joins = Vec::new();
        for n in 1..4u32 {
            let cc = c.clone();
            joins.push(
                sim.spawn(async move { cc.atomic_cas(NodeId(n), addr, 0, n as u64).await == 0 }),
            );
        }
        sim.run();
        let winners: usize = joins.iter().filter(|j| j.try_take() == Some(true)).count();
        assert_eq!(winners, 1);
    }

    #[test]
    fn rdma_send_delivers_without_target_cpu() {
        let (sim, c) = setup(2);
        let mut ep = c.bind(NodeId(1), 7);
        let cc = c.clone();
        sim.spawn(async move {
            cc.send(
                NodeId(0),
                NodeId(1),
                7,
                Bytes::from_static(b"ping"),
                Transport::RdmaSend,
            )
            .await;
        });
        let msg = sim.run_to(async move { ep.recv().await });
        assert_eq!(&msg.data[..], b"ping");
        assert_eq!(msg.src, NodeId(0));
        assert_eq!(c.cpu(NodeId(1)).snapshot().busy_ns, 0);
        assert_eq!(c.stats().sends_rdma, 1);
    }

    #[test]
    fn tcp_send_charges_both_cpus() {
        let (sim, c) = setup(2);
        let mut ep = c.bind(NodeId(1), 7);
        let cc = c.clone();
        sim.spawn(async move {
            cc.send(
                NodeId(0),
                NodeId(1),
                7,
                Bytes::from(vec![0u8; 2048]),
                Transport::Tcp,
            )
            .await;
        });
        sim.run_to(async move { ep.recv().await });
        let m = FabricModel::calibrated_2007();
        assert_eq!(c.cpu(NodeId(0)).snapshot().busy_ns, m.tcp_send_cpu(2048));
        assert_eq!(c.cpu(NodeId(1)).snapshot().busy_ns, m.tcp_recv_cpu(2048));
    }

    #[test]
    fn tcp_delivery_is_delayed_by_target_load() {
        // Measure unloaded vs loaded delivery time of identical messages.
        let deliver_time = |loaded: bool| -> u64 {
            let (sim, c) = setup(2);
            if loaded {
                for _ in 0..4 {
                    let cpu = c.cpu(NodeId(1));
                    sim.spawn(async move { cpu.execute(ms(50)).await });
                }
            }
            let mut ep = c.bind(NodeId(1), 7);
            let cc = c.clone();
            sim.spawn(async move {
                cc.send(
                    NodeId(0),
                    NodeId(1),
                    7,
                    Bytes::from_static(b"x"),
                    Transport::Tcp,
                )
                .await;
            });
            let h = sim.handle();
            sim.run_to(async move {
                ep.recv().await;
                h.now()
            })
        };
        let unloaded = deliver_time(false);
        let loaded = deliver_time(true);
        // Four competing jobs at a 1ms quantum should delay receive-side
        // processing by several milliseconds.
        assert!(
            loaded > unloaded + ms(3),
            "loaded={loaded} unloaded={unloaded}"
        );
    }

    #[test]
    fn rdma_read_is_unaffected_by_target_load() {
        let read_time = |loaded: bool| -> u64 {
            let (sim, c) = setup(2);
            let r = c.register(NodeId(1), 64);
            if loaded {
                for _ in 0..4 {
                    let cpu = c.cpu(NodeId(1));
                    sim.spawn(async move { cpu.execute(ms(50)).await });
                }
            }
            let addr = RemoteAddr {
                node: NodeId(1),
                region: r,
                offset: 0,
            };
            let cc = c.clone();
            let h = sim.handle();
            sim.run_to(async move {
                cc.rdma_read(NodeId(0), addr, 8).await;
                h.now()
            })
        };
        assert_eq!(read_time(false), read_time(true));
    }

    #[test]
    fn outbound_link_serializes_large_reads_from_one_holder() {
        let (sim, c) = setup(3);
        let r = c.register(NodeId(0), 1 << 20);
        let addr = RemoteAddr {
            node: NodeId(0),
            region: r,
            offset: 0,
        };
        let len = 512 * 1024;
        let mut joins = Vec::new();
        for n in 1..3u32 {
            let cc = c.clone();
            let h = sim.handle();
            joins.push(sim.spawn(async move {
                cc.rdma_read(NodeId(n), addr, len).await;
                h.now()
            }));
        }
        sim.run();
        let t1 = joins[0].try_take().unwrap();
        let t2 = joins[1].try_take().unwrap();
        let wire = FabricModel::calibrated_2007().ib_bytes_time(len);
        // The second read had to wait for the first's transmission.
        assert!(t2 >= t1 + wire - us(1), "t1={t1} t2={t2} wire={wire}");
    }

    #[test]
    fn unbound_port_drops_message() {
        let (sim, c) = setup(2);
        let cc = c.clone();
        sim.run_to(async move {
            cc.send(
                NodeId(0),
                NodeId(1),
                99,
                Bytes::from_static(b"void"),
                Transport::RdmaSend,
            )
            .await;
        });
        // Nothing to assert beyond "did not panic / did not deadlock".
        assert_eq!(c.stats().sends_rdma, 1);
    }

    #[test]
    fn endpoint_drop_unbinds_port() {
        let (sim, c) = setup(2);
        {
            let _ep = c.bind(NodeId(1), 7);
        }
        // Rebinding after drop works.
        let _ep2 = c.bind(NodeId(1), 7);
        drop(sim);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let (_sim, c) = setup(2);
        let _a = c.bind(NodeId(1), 7);
        let _b = c.bind(NodeId(1), 7);
    }

    #[test]
    fn crashed_target_fails_try_verbs_then_recovers() {
        use crate::faults::{CrashWindow, FaultPlan};
        let (sim, c) = setup(2);
        let r = c.register(NodeId(1), 64);
        let addr = RemoteAddr {
            node: NodeId(1),
            region: r,
            offset: 0,
        };
        c.install_faults(FaultPlan::from_parts(
            0,
            vec![CrashWindow {
                node: NodeId(1),
                start: 0,
                end: ms(10),
            }],
            vec![],
            vec![],
            0.0,
        ));
        let cc = c.clone();
        let h = sim.handle();
        let (early_read, early_cas, late) = sim.run_to(async move {
            let early_read = cc.try_rdma_read(NodeId(0), addr, 8).await;
            let early_cas = cc.try_atomic_cas(NodeId(0), addr, 0, 7).await;
            h.sleep_until(ms(10)).await;
            let late = cc.try_rdma_read(NodeId(0), addr, 8).await;
            (early_read, early_cas, late)
        });
        assert_eq!(
            early_read,
            Err(crate::faults::FabricError::Unreachable(NodeId(1)))
        );
        assert!(early_cas.is_err());
        assert!(late.is_ok());
        // The failed CAS must not have touched memory.
        assert_eq!(c.region(NodeId(1), r).read_u64(0), 0);
        assert!(c.fault_stats().unreachable_ops >= 2);
    }

    #[test]
    fn infallible_read_rides_out_a_crash_window() {
        use crate::faults::{CrashWindow, FaultPlan};
        let (sim, c) = setup(2);
        let r = c.register(NodeId(1), 64);
        let addr = RemoteAddr {
            node: NodeId(1),
            region: r,
            offset: 0,
        };
        c.region(NodeId(1), r).write(0, b"fedcba98");
        c.install_faults(FaultPlan::from_parts(
            0,
            vec![CrashWindow {
                node: NodeId(1),
                start: 0,
                end: ms(5),
            }],
            vec![],
            vec![],
            0.0,
        ));
        let cc = c.clone();
        let h = sim.handle();
        let (data, t) = sim.run_to(async move {
            let data = cc.rdma_read(NodeId(0), addr, 8).await;
            (data, h.now())
        });
        assert_eq!(&data[..], b"fedcba98");
        // The read only completes once the node is back up.
        assert!(t >= ms(5), "completed at {t} inside the crash window");
        assert!(c.fault_stats().retries > 0);
    }

    /// The retry budget holds: on a fabric that drops every message, a
    /// reliable send gives up after [`MAX_ATTEMPTS`] attempts, with a
    /// backoff between each two and none after the last.
    #[test]
    fn reliable_send_gives_up_after_max_attempts() {
        use crate::faults::{backoff_after, FaultPlan};
        let (sim, c) = setup(2);
        c.install_faults(FaultPlan::from_parts(3, vec![], vec![], vec![], 1.0));
        let _ep = c.bind(NodeId(1), 7);
        let cc = c.clone();
        let h = sim.handle();
        let sent = sim.spawn(async move {
            let data = Bytes::from_static(b"lost");
            let sent = cc
                .send_reliable_imm(NodeId(0), NodeId(1), 7, &data, 0, 0, Transport::RdmaSend)
                .await;
            (sent, h.now())
        });
        let backoffs: u64 = (0..MAX_ATTEMPTS - 1).map(backoff_after).sum();
        // Twice the schedule: a send still retrying then would never stop.
        sim.run_until(2 * backoffs);
        let (sent, at) = sent.try_take().expect("still retrying past the budget");
        assert_eq!(sent, Err(crate::faults::FabricError::Dropped));
        assert_eq!(c.fault_stats().retries, u64::from(MAX_ATTEMPTS - 1));
        assert!(at >= backoffs && at < backoffs + ms(1), "gave up at {at}");
    }

    #[test]
    fn unreliable_send_vanishes_on_drop_but_reliable_gets_through() {
        use crate::faults::FaultPlan;
        let (sim, c) = setup(2);
        // 50% drop rate: over 20 messages some attempts are dropped, yet
        // every reliable send must still deliver exactly once.
        c.install_faults(FaultPlan::from_parts(3, vec![], vec![], vec![], 0.5));
        let mut ep = c.bind(NodeId(1), 7);
        let cc = c.clone();
        sim.spawn(async move {
            for i in 0..20u8 {
                cc.send_reliable_imm(
                    NodeId(0),
                    NodeId(1),
                    7,
                    &Bytes::from(vec![i]),
                    0,
                    0,
                    Transport::RdmaSend,
                )
                .await
                .expect("reliable send failed");
            }
        });
        let got = sim.run_to(async move {
            let mut got = Vec::new();
            for _ in 0..20 {
                got.push(ep.recv().await.data[0]);
            }
            got
        });
        assert_eq!(got, (0..20u8).collect::<Vec<_>>());
        let fs = c.fault_stats();
        assert!(fs.dropped_msgs > 0, "no drop was exercised");
        assert_eq!(fs.retries, fs.dropped_msgs);
    }

    #[test]
    fn latency_window_inflates_read_time() {
        use crate::faults::{FaultPlan, LatencyWindow};
        let (sim, c) = setup(2);
        let r = c.register(NodeId(1), 64);
        let addr = RemoteAddr {
            node: NodeId(1),
            region: r,
            offset: 0,
        };
        c.install_faults(FaultPlan::from_parts(
            0,
            vec![],
            vec![LatencyWindow {
                start: 0,
                end: ms(1),
                factor_milli: 3000,
            }],
            vec![],
            0.0,
        ));
        let cc = c.clone();
        let h = sim.handle();
        let (t_in, t_out) = sim.run_to(async move {
            let s0 = h.now();
            cc.rdma_read(NodeId(0), addr, 1).await;
            let t_in = h.now() - s0;
            h.sleep_until(ms(1)).await;
            let s1 = h.now();
            cc.rdma_read(NodeId(0), addr, 1).await;
            (t_in, h.now() - s1)
        });
        let m = FabricModel::calibrated_2007();
        let base = m.post_overhead_ns + m.rdma_read_base_ns + 2;
        assert_eq!(t_out, base);
        // 3x factor on every wire segment (integer division truncates).
        assert!(
            t_in >= base * 3 - 3 && t_in <= base * 3,
            "t_in={t_in} base={base}"
        );
    }

    #[test]
    fn stall_window_hogs_target_cpu() {
        use crate::faults::{FaultPlan, StallWindow};
        let (sim, c) = setup(2);
        c.install_faults(FaultPlan::from_parts(
            0,
            vec![],
            vec![],
            vec![StallWindow {
                node: NodeId(1),
                start: us(10),
                dur: ms(3),
            }],
            0.0,
        ));
        sim.run();
        assert_eq!(c.cpu(NodeId(1)).snapshot().busy_ns, ms(3));
        assert_eq!(c.cpu(NodeId(0)).snapshot().busy_ns, 0);
    }

    #[test]
    fn issuing_from_a_crashed_node_fails_too() {
        use crate::faults::{CrashWindow, FaultPlan};
        let (sim, c) = setup(2);
        let r = c.register(NodeId(1), 64);
        let addr = RemoteAddr {
            node: NodeId(1),
            region: r,
            offset: 0,
        };
        c.install_faults(FaultPlan::from_parts(
            0,
            vec![CrashWindow {
                node: NodeId(0),
                start: 0,
                end: ms(1),
            }],
            vec![],
            vec![],
            0.0,
        ));
        let cc = c.clone();
        let res = sim.run_to(async move { cc.try_rdma_write(NodeId(0), addr, b"x").await });
        assert_eq!(res, Err(crate::faults::FabricError::Unreachable(NodeId(0))));
    }

    #[test]
    fn tracing_records_verbs_without_changing_timing() {
        use dc_trace::TraceMode;
        let run = |traced: bool| {
            let (sim, c) = setup(2);
            if traced {
                c.tracer().enable(TraceMode::Full);
            }
            let r = c.register(NodeId(1), 64);
            let addr = RemoteAddr {
                node: NodeId(1),
                region: r,
                offset: 0,
            };
            let cc = c.clone();
            let h = sim.handle();
            let t = sim.run_to(async move {
                cc.rdma_write(NodeId(0), addr, b"abc").await;
                cc.rdma_read(NodeId(0), addr, 3).await;
                h.now()
            });
            (t, c)
        };
        let (t_off, _) = run(false);
        let (t_on, c) = run(true);
        assert_eq!(t_off, t_on, "enabling tracing must not change the schedule");
        let names: Vec<_> = c.tracer().events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["verb.write", "verb.read"]);
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("fabric.verbs.read"), 1);
        assert_eq!(snap.counter("fabric.verbs.write"), 1);
        assert_eq!(snap.counter("fabric.bytes.written"), 3);
    }

    #[test]
    fn fault_stats_read_the_registry() {
        use crate::faults::FaultPlan;
        // A retransmit on a faultless fabric is not an exercised fault.
        let (_, clean) = setup(2);
        clean.note_retransmit();
        clean.note_retry();
        assert_eq!(clean.fault_stats(), FaultStats::default());
        let snap = clean.metrics().snapshot();
        assert_eq!(
            snap.get("fault.retries"),
            Some(&dc_trace::MetricValue::Counter(0))
        );
        assert_eq!(snap.counter("sockets.retransmits"), 1);

        let (sim, c) = setup(2);
        c.install_faults(FaultPlan::from_parts(3, vec![], vec![], vec![], 0.5));
        let mut ep = c.bind(NodeId(1), 7);
        let cc = c.clone();
        sim.spawn(async move {
            for i in 0..10u8 {
                cc.send_reliable_imm(
                    NodeId(0),
                    NodeId(1),
                    7,
                    &Bytes::from(vec![i]),
                    0,
                    0,
                    Transport::RdmaSend,
                )
                .await
                .unwrap();
            }
        });
        sim.run_to(async move {
            for _ in 0..10 {
                ep.recv().await;
            }
        });
        let fs = c.fault_stats();
        let snap = c.metrics().snapshot();
        assert!(fs.dropped_msgs > 0);
        assert!(fs.retries > 0);
        assert_eq!(snap.counter("fault.dropped_msgs"), fs.dropped_msgs);
        assert_eq!(snap.counter("fault.unreachable_ops"), 0);
        assert_eq!(snap.counter("fault.retries"), fs.retries);
        assert_eq!(snap.counter("fabric.delivered"), 10);
    }

    #[test]
    fn kstat_is_remotely_readable() {
        let (sim, c) = setup(2);
        let cpu = c.cpu(NodeId(1));
        cpu.thread_started();
        cpu.thread_started();
        let addr = c.kstat_addr(NodeId(1));
        let cc = c.clone();
        let stats = sim.run_to(async move {
            let raw = cc.rdma_read(NodeId(0), addr, KSTAT_REGION_LEN).await;
            KernelStats::decode(&raw)
        });
        assert_eq!(stats.app_threads, 2);
    }
}
