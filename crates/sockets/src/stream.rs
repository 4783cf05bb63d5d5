//! Connected message streams in four protocol flavours.
//!
//! [`connect`] wires two nodes together with a full-duplex pair of
//! [`StreamEnd`]s. Each direction is an independent SPSC lane with its own
//! data port (bound at the receiver) and feedback port (bound at the sender,
//! carrying credit / ring-space returns for the flow-controlled kinds).

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use dc_fabric::{Cluster, Endpoint, NodeId, RetryPolicy, Transport};
use dc_sim::sync::{Notify, Semaphore};
use dc_svc::bind_raw;

use crate::config::SocketsConfig;
use crate::flow::{frame, Chunk, Reassembler, FEEDBACK_HDR};
use crate::lane::{LaneReceiver, LaneSender};

/// Which protocol a stream uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Traditional host TCP/IP: both CPUs process every message.
    HostTcp,
    /// Buffered-copy SDP with credit-based (per-buffer) flow control.
    Sdp,
    /// Asynchronous zero-copy SDP (memory-protected send buffers).
    AzSdp,
    /// SDP with sender-managed packetized (per-byte) flow control.
    Packetized,
}

impl StreamKind {
    /// All kinds, in the order the benches report them.
    pub const ALL: [StreamKind; 4] = [
        StreamKind::HostTcp,
        StreamKind::Sdp,
        StreamKind::AzSdp,
        StreamKind::Packetized,
    ];

    /// Display label used by benches and tables.
    pub fn label(self) -> &'static str {
        match self {
            StreamKind::HostTcp => "HostTCP",
            StreamKind::Sdp => "SDP",
            StreamKind::AzSdp => "AZ-SDP",
            StreamKind::Packetized => "Packetized",
        }
    }
}

/// Create a connected full-duplex stream pair between `a` and `b`.
///
/// Panics if `a == b` (loopback is a node-local IPC concern, handled by the
/// DDSS IPC layer, not the network stack).
pub fn connect(
    cluster: &Cluster,
    a: NodeId,
    b: NodeId,
    kind: StreamKind,
    cfg: SocketsConfig,
) -> (StreamEnd, StreamEnd) {
    assert_ne!(a, b, "sockets connect endpoints must be distinct nodes");
    // Four ports per connection: each direction has a data port (bound at
    // its receiver) and a feedback port (bound at its sender).
    let data_into_a = cluster.alloc_port_for(a, "sockets.stream.data");
    let fb_into_a = cluster.alloc_port_for(a, "sockets.stream.fb");
    let data_into_b = cluster.alloc_port_for(b, "sockets.stream.data");
    let fb_into_b = cluster.alloc_port_for(b, "sockets.stream.fb");
    // Every connection pins a QP at each end — this per-connection cost is
    // exactly what the eRPC lane's session multiplexing amortizes away
    // (compare `fabric.qp.active` across lanes in `ext_incast`).
    cluster.note_qp(2);
    let end_a = StreamEnd::new_half(
        cluster,
        a,
        b,
        kind,
        cfg,
        LanePorts {
            data_in: data_into_a,
            fb_in: fb_into_a,
            data_out: data_into_b,
            fb_out: fb_into_b,
        },
    );
    let end_b = StreamEnd::new_half(
        cluster,
        b,
        a,
        kind,
        cfg,
        LanePorts {
            data_in: data_into_b,
            fb_in: fb_into_b,
            data_out: data_into_a,
            fb_out: fb_into_a,
        },
    );
    (end_a, end_b)
}

/// The four ports of one end's lanes: `data_in`/`fb_in` are bound locally;
/// `data_out`/`fb_out` address the peer's bindings.
struct LanePorts {
    data_in: u16,
    fb_in: u16,
    data_out: u16,
    fb_out: u16,
}

/// One end of a connected stream.
pub struct StreamEnd {
    kind: StreamKind,
    local: NodeId,
    peer: NodeId,
    tx: Tx,
    rx: Rx,
}

impl StreamEnd {
    /// Build the `local` half of a connection to `peer` over the given port
    /// assignment.
    fn new_half(
        cluster: &Cluster,
        local: NodeId,
        peer: NodeId,
        kind: StreamKind,
        cfg: SocketsConfig,
        ports: LanePorts,
    ) -> StreamEnd {
        let data_ep = bind_raw(cluster, local, ports.data_in);
        let fb_ep = bind_raw(cluster, local, ports.fb_in);
        let tx = Tx::new(cluster, local, peer, ports.data_out, fb_ep, kind, cfg);
        let rx = Rx::new(cluster, local, peer, ports.fb_out, data_ep, kind, cfg);
        StreamEnd {
            kind,
            local,
            peer,
            tx,
            rx,
        }
    }

    /// The protocol flavour of this stream.
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// Node this end lives on.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// Node at the other end.
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// Send one message. Blocking behaviour depends on the kind: HostTcp
    /// completes at delivery; Sdp/Packetized complete once the payload is
    /// copied and flow control admits it; AzSdp completes after the memory
    /// protection, with the transfer in flight. The copies those stacks
    /// make are charged in virtual time only: on the host, chunks are
    /// windows of `data`, and a single-chunk message reaches the peer's
    /// [`StreamEnd::recv`] as this very buffer.
    pub async fn send_bytes(&mut self, data: Bytes) {
        self.tx.send(data).await;
    }

    /// [`StreamEnd::send_bytes`] for callers that do not own a buffer:
    /// copies `data` once.
    pub async fn send(&mut self, data: &[u8]) {
        self.send_bytes(Bytes::copy_from_slice(data)).await;
    }

    /// Receive the next message, paying receiver-side processing costs.
    pub async fn recv(&mut self) -> Bytes {
        self.rx.recv().await
    }
}

enum Tx {
    Tcp(TcpTx),
    Sdp(CreditTx),
    Az(AzTx),
    Pack(PackTx),
}

impl Tx {
    fn new(
        cluster: &Cluster,
        local: NodeId,
        peer: NodeId,
        data_port: u16,
        fb_ep: Endpoint,
        kind: StreamKind,
        cfg: SocketsConfig,
    ) -> Tx {
        match kind {
            StreamKind::HostTcp => {
                drop(fb_ep); // TCP needs no feedback lane
                Tx::Tcp(TcpTx {
                    lane: LaneSender::new(cluster, local, peer, data_port, Transport::Tcp),
                })
            }
            StreamKind::Sdp => Tx::Sdp(CreditTx::new(cluster, local, peer, data_port, fb_ep, cfg)),
            StreamKind::AzSdp => {
                drop(fb_ep); // window is locally managed
                Tx::Az(AzTx {
                    cluster: cluster.clone(),
                    local,
                    lane: LaneSender::new(cluster, local, peer, data_port, Transport::RdmaSend),
                    cfg,
                    window: Semaphore::new(cfg.az_window),
                })
            }
            StreamKind::Packetized => {
                Tx::Pack(PackTx::new(cluster, local, peer, data_port, fb_ep, cfg))
            }
        }
    }

    async fn send(&mut self, data: Bytes) {
        match self {
            Tx::Tcp(t) => t.send(data).await,
            Tx::Sdp(t) => t.send(data).await,
            Tx::Az(t) => t.send(data).await,
            Tx::Pack(t) => t.send(data).await,
        }
    }
}

enum Rx {
    Tcp(TcpRx),
    Sdp(CreditRx),
    Az(AzRx),
    Pack(PackRx),
}

impl Rx {
    fn new(
        cluster: &Cluster,
        local: NodeId,
        peer: NodeId,
        fb_port: u16,
        data_ep: Endpoint,
        kind: StreamKind,
        cfg: SocketsConfig,
    ) -> Rx {
        match kind {
            StreamKind::HostTcp => Rx::Tcp(TcpRx {
                lane: LaneReceiver::new(cluster, data_ep),
                reasm: Reassembler::new(),
            }),
            StreamKind::Sdp => Rx::Sdp(CreditRx::new(cluster, local, peer, fb_port, data_ep, cfg)),
            StreamKind::AzSdp => Rx::Az(AzRx {
                cluster: cluster.clone(),
                local,
                lane: LaneReceiver::new(cluster, data_ep),
                reasm: Reassembler::new(),
                cfg,
            }),
            StreamKind::Packetized => {
                Rx::Pack(PackRx::new(cluster, local, peer, fb_port, data_ep, cfg))
            }
        }
    }

    async fn recv(&mut self) -> Bytes {
        match self {
            Rx::Tcp(r) => r.recv().await,
            Rx::Sdp(r) => r.recv().await,
            Rx::Az(r) => r.recv().await,
            Rx::Pack(r) => r.recv().await,
        }
    }
}

// ---------------------------------------------------------------- Host TCP

struct TcpTx {
    lane: LaneSender,
}

impl TcpTx {
    async fn send(&mut self, data: Bytes) {
        // The kernel stack segments internally; at this abstraction one
        // message travels whole, with stack CPU charged by the fabric. The
        // lane retransmits on drops, as kernel TCP would.
        self.lane.send_tracked(Chunk::whole(data)).await;
    }
}

struct TcpRx {
    lane: LaneReceiver,
    reasm: Reassembler,
}

impl TcpRx {
    async fn recv(&mut self) -> Bytes {
        loop {
            let chunk = self.lane.recv().await;
            if let Some(m) = self.reasm.feed(chunk) {
                return m;
            }
        }
    }
}

// ------------------------------------------------- SDP (credit-based flow)

struct CreditTx {
    cluster: Cluster,
    local: NodeId,
    lane: LaneSender,
    cfg: SocketsConfig,
    credits: Rc<Cell<usize>>,
    notify: Notify,
}

impl CreditTx {
    fn new(
        cluster: &Cluster,
        local: NodeId,
        peer: NodeId,
        data_port: u16,
        mut fb_ep: Endpoint,
        cfg: SocketsConfig,
    ) -> CreditTx {
        let credits = Rc::new(Cell::new(cfg.sdp_credits));
        let notify = Notify::new();
        // Pump task: credits flow back from the receiver in batches.
        let c2 = Rc::clone(&credits);
        let n2 = notify.clone();
        cluster.sim().spawn_detached(async move {
            loop {
                let msg = fb_ep.recv().await;
                c2.set(c2.get() + msg.imm as usize);
                n2.notify_all();
            }
        });
        CreditTx {
            cluster: cluster.clone(),
            local,
            lane: LaneSender::new(cluster, local, peer, data_port, Transport::RdmaSend),
            cfg,
            credits,
            notify,
        }
    }

    async fn send(&mut self, data: Bytes) {
        let cpu = self.cluster.cpu(self.local);
        for chunk in frame(data, self.cfg.sdp_buf_size) {
            // One credit per chunk, *regardless of chunk size* — this is the
            // per-buffer accounting the paper's §6 criticizes.
            if self.credits.get() == 0 {
                self.cluster.note_credit_stall(self.local);
                while self.credits.get() == 0 {
                    self.notify.notified().await;
                }
            }
            self.credits.set(self.credits.get() - 1);
            // Buffered SDP copies into a send buffer before posting.
            cpu.execute(self.cfg.copy_cost(chunk.wire_len())).await;
            self.cluster.sim().sleep(self.cfg.issue_overhead_ns).await;
            self.lane.send_bg(chunk);
        }
    }
}

/// Return `n` credits / freed ring bytes to the sender's feedback port, in
/// the background. Counts are cumulative, so ordering does not matter, but
/// a *lost* return would strand the sender forever: use the reliable path.
fn return_feedback(cluster: &Cluster, local: NodeId, peer: NodeId, fb_port: u16, n: usize) {
    let cl = cluster.clone();
    cluster.sim().spawn_detached(async move {
        cl.send_reliable_imm(
            local,
            peer,
            fb_port,
            &Bytes::new(),
            n as u64,
            FEEDBACK_HDR,
            Transport::RdmaSend,
            RetryPolicy::default(),
        )
        .await
        .unwrap_or_else(|e| panic!("flow-control return undeliverable: {e}"));
    });
}

struct CreditRx {
    rx_q: dc_sim::sync::Receiver<Chunk>,
    reasm: Reassembler,
}

impl CreditRx {
    /// The stack-side pump: drains preposted buffers as chunks arrive
    /// (copying into the socket buffer and re-posting) and returns credits
    /// coalesced — *independently of the application calling recv*. That is
    /// what keeps bidirectional traffic deadlock-free in real SDP: credits
    /// are a property of the stack's buffer pool, not of application reads.
    /// The socket buffer is unbounded in the model; the flow-control costs
    /// under study are the credit round trips.
    fn new(
        cluster: &Cluster,
        local: NodeId,
        peer: NodeId,
        fb_port: u16,
        ep: Endpoint,
        cfg: SocketsConfig,
    ) -> CreditRx {
        let (tx_q, rx_q) = dc_sim::sync::channel();
        let cl = cluster.clone();
        let mut lane = LaneReceiver::new(cluster, ep);
        cluster.sim().spawn_detached(async move {
            let mut pending = 0usize;
            loop {
                let chunk = lane.recv().await;
                // Copy out of the temporary buffer into the socket buffer,
                // then re-post the buffer before its credit can return.
                cl.cpu(local)
                    .execute(cfg.copy_cost(chunk.wire_len()) + cfg.prepost_ns)
                    .await;
                pending += 1;
                // Coalesced credit return (real SDP stacks batch updates).
                let threshold = (cfg.sdp_credits / 2).max(1);
                if pending >= threshold {
                    return_feedback(&cl, local, peer, fb_port, pending);
                    pending = 0;
                }
                if tx_q.send(chunk).is_err() {
                    break; // application side dropped the stream
                }
            }
        });
        CreditRx {
            rx_q,
            reasm: Reassembler::new(),
        }
    }

    async fn recv(&mut self) -> Bytes {
        loop {
            let chunk = self
                .rx_q
                .recv()
                .await
                .expect("stream pump terminated while receiving");
            if let Some(m) = self.reasm.feed(chunk) {
                return m;
            }
        }
    }
}

// --------------------------------------------------- AZ-SDP (async 0-copy)

struct AzTx {
    cluster: Cluster,
    local: NodeId,
    lane: LaneSender,
    cfg: SocketsConfig,
    window: Semaphore,
}

impl AzTx {
    async fn send(&mut self, data: Bytes) {
        // Memory-protect the user buffer: the application believes the send
        // completed synchronously, while the data moves asynchronously.
        self.cluster.sim().sleep(self.cfg.az_protect_ns).await;
        if self.window.available() == 0 {
            // An exhausted send window is AZ-SDP's flavour of a credit stall.
            self.cluster.note_credit_stall(self.local);
        }
        self.window.acquire().await;
        self.cluster.sim().sleep(self.cfg.issue_overhead_ns).await;
        // Zero copy: no CPU copy cost; the whole buffer travels at once.
        let delivered = self.lane.send_tracked(Chunk::whole(data));
        let window = self.window.clone();
        self.cluster.sim().spawn_detached(async move {
            delivered.await;
            // Transfer complete: buffer unprotected, window slot reusable.
            window.release();
        });
    }
}

struct AzRx {
    cluster: Cluster,
    local: NodeId,
    lane: LaneReceiver,
    reasm: Reassembler,
    cfg: SocketsConfig,
}

impl AzRx {
    async fn recv(&mut self) -> Bytes {
        loop {
            let chunk = self.lane.recv().await;
            // Receive side still lands in a buffer and is copied out on
            // recv() (the AZ-SDP design removes the *sender* copy).
            self.cluster
                .cpu(self.local)
                .execute(self.cfg.copy_cost(chunk.wire_len()))
                .await;
            if let Some(m) = self.reasm.feed(chunk) {
                return m;
            }
        }
    }
}

// ---------------------------------------- Packetized (per-byte flow control)

struct PackTx {
    cluster: Cluster,
    local: NodeId,
    lane: LaneSender,
    cfg: SocketsConfig,
    space: Rc<Cell<usize>>,
    notify: Notify,
}

impl PackTx {
    fn new(
        cluster: &Cluster,
        local: NodeId,
        peer: NodeId,
        data_port: u16,
        mut fb_ep: Endpoint,
        cfg: SocketsConfig,
    ) -> PackTx {
        let space = Rc::new(Cell::new(cfg.ring_bytes));
        let notify = Notify::new();
        let s2 = Rc::clone(&space);
        let n2 = notify.clone();
        cluster.sim().spawn_detached(async move {
            loop {
                let msg = fb_ep.recv().await;
                s2.set(s2.get() + msg.imm as usize);
                n2.notify_all();
            }
        });
        PackTx {
            cluster: cluster.clone(),
            local,
            lane: LaneSender::new(cluster, local, peer, data_port, Transport::RdmaSend),
            cfg,
            space,
            notify,
        }
    }

    async fn send(&mut self, data: Bytes) {
        let cpu = self.cluster.cpu(self.local);
        // Fine-grained packing: small chunks keep the ring pipelined even
        // for messages comparable to the ring size.
        let cap = (self.cfg.ring_bytes / 8).max(64);
        for chunk in frame(data, cap) {
            // Byte-accurate flow control: a chunk consumes exactly its own
            // framed length of ring space (the sender packs data precisely
            // because it manages the remote buffer with RDMA).
            let need = chunk.wire_len();
            if self.space.get() < need {
                self.cluster.note_credit_stall(self.local);
                while self.space.get() < need {
                    self.notify.notified().await;
                }
            }
            self.space.set(self.space.get() - need);
            cpu.execute(self.cfg.copy_cost(need)).await;
            self.cluster.sim().sleep(self.cfg.issue_overhead_ns).await;
            self.lane.send_bg(chunk);
        }
    }
}

struct PackRx {
    rx_q: dc_sim::sync::Receiver<Chunk>,
    reasm: Reassembler,
}

impl PackRx {
    /// Stack-side pump, like `CreditRx::new` but with byte-granular ring
    /// space returned in quarter-ring batches.
    fn new(
        cluster: &Cluster,
        local: NodeId,
        peer: NodeId,
        fb_port: u16,
        ep: Endpoint,
        cfg: SocketsConfig,
    ) -> PackRx {
        let (tx_q, rx_q) = dc_sim::sync::channel();
        let cl = cluster.clone();
        let mut lane = LaneReceiver::new(cluster, ep);
        cluster.sim().spawn_detached(async move {
            let mut freed = 0usize;
            loop {
                let chunk = lane.recv().await;
                cl.cpu(local).execute(cfg.copy_cost(chunk.wire_len())).await;
                freed += chunk.wire_len();
                if freed >= cfg.ring_bytes / 4 {
                    return_feedback(&cl, local, peer, fb_port, freed);
                    freed = 0;
                }
                if tx_q.send(chunk).is_err() {
                    break;
                }
            }
        });
        PackRx {
            rx_q,
            reasm: Reassembler::new(),
        }
    }

    async fn recv(&mut self) -> Bytes {
        loop {
            let chunk = self
                .rx_q
                .recv()
                .await
                .expect("stream pump terminated while receiving");
            if let Some(m) = self.reasm.feed(chunk) {
                return m;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::time::{ms, us};
    use dc_sim::Sim;

    fn setup() -> (Sim, Cluster) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        (sim, cluster)
    }

    fn ping_pong(kind: StreamKind) {
        let (sim, cluster) = setup();
        let (mut a, mut b) = connect(
            &cluster,
            NodeId(0),
            NodeId(1),
            kind,
            SocketsConfig::default(),
        );
        sim.spawn(async move {
            let msg = b.recv().await;
            assert_eq!(&msg[..], b"ping");
            b.send(b"pong").await;
        });
        let got = sim.run_to(async move {
            a.send(b"ping").await;
            a.recv().await
        });
        assert_eq!(&got[..], b"pong");
    }

    #[test]
    fn ping_pong_all_kinds() {
        for kind in StreamKind::ALL {
            ping_pong(kind);
        }
    }

    fn bulk(kind: StreamKind, len: usize, count: usize) {
        let (sim, cluster) = setup();
        let (mut a, mut b) = connect(
            &cluster,
            NodeId(0),
            NodeId(1),
            kind,
            SocketsConfig::default(),
        );
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
        let expect = payload.clone();
        sim.spawn(async move {
            for _ in 0..count {
                a.send(&payload).await;
            }
        });
        sim.run_to(async move {
            for _ in 0..count {
                let m = b.recv().await;
                assert_eq!(m.len(), expect.len());
                assert_eq!(&m[..], &expect[..]);
            }
        });
    }

    #[test]
    fn bulk_transfer_preserves_data_all_kinds() {
        for kind in StreamKind::ALL {
            bulk(kind, 100_000, 3); // multi-chunk for the SDP family
            bulk(kind, 1, 20); // small-message streams
            bulk(kind, 0, 2); // empty messages frame correctly
        }
    }

    #[test]
    fn sdp_small_messages_stall_on_credits() {
        // With 4 credits and coalesced returns, a burst of small sends must
        // block on the credit round trip; packetized must not.
        let elapsed = |kind: StreamKind| {
            let (sim, cluster) = setup();
            let (mut a, mut b) = connect(
                &cluster,
                NodeId(0),
                NodeId(1),
                kind,
                SocketsConfig::default(),
            );
            sim.spawn(async move {
                loop {
                    b.recv().await;
                }
            });
            let h = sim.handle();
            let t = sim.run_to(async move {
                for _ in 0..64 {
                    a.send(&[42u8]).await;
                }
                h.now()
            });
            (t, cluster.stats().credit_stalls)
        };
        let (sdp, sdp_stalls) = elapsed(StreamKind::Sdp);
        let (pack, pack_stalls) = elapsed(StreamKind::Packetized);
        assert!(
            sdp > pack * 3,
            "expected credit stalls to dominate: sdp={sdp} pack={pack}"
        );
        // The counter explains the gap: SDP stalled on credits (60 of the
        // 64 sends outrun the 4 credits, returned 2 at a time), packetized
        // never ran out of ring space for 1-byte sends.
        assert_eq!(sdp_stalls, 30);
        assert_eq!(pack_stalls, 0);
    }

    #[test]
    fn azsdp_send_returns_before_delivery() {
        let (ts, tr) = send_and_delivery_ns(StreamKind::AzSdp, 64 * 1024);
        // The 64KB transfer takes ~73us on the wire; the protected send
        // returns in ~2us.
        assert!(ts < us(5), "send returned at {ts}");
        assert!(tr > ts + us(50), "recv at {tr}, send at {ts}");
    }

    #[test]
    fn tcp_charges_more_receiver_cpu_than_sdp_family() {
        // The application-level recv competes for the CPU under any
        // transport; what distinguishes host TCP is the kernel stack
        // processing charged on top. Compare total receiver CPU burned for
        // the same transfer.
        let receiver_busy = |kind: StreamKind| {
            let (sim, cluster) = setup();
            let (mut a, mut b) = connect(
                &cluster,
                NodeId(0),
                NodeId(1),
                kind,
                SocketsConfig::default(),
            );
            sim.spawn(async move { a.send(&vec![7u8; 32 * 1024]).await });
            let cl = cluster.clone();
            sim.run_to(async move {
                b.recv().await;
                cl.cpu(NodeId(1)).snapshot().busy_ns
            })
        };
        let tcp = receiver_busy(StreamKind::HostTcp);
        let az = receiver_busy(StreamKind::AzSdp);
        let sdp = receiver_busy(StreamKind::Sdp);
        // TCP pays kernel stack processing; AZ-SDP pays only the copy-out.
        assert!(tcp > az, "tcp={tcp} az={az}");
        // SDP chunks through small temp buffers, paying per-chunk copy
        // overhead beyond AZ-SDP's single copy.
        assert!(sdp > az, "sdp={sdp} az={az}");
        // A loaded receiver delays TCP delivery by CPU-queueing (covered in
        // dc-fabric's transport tests); here we additionally pin down that
        // the charge exists at all.
        assert!(tcp >= FabricModel::calibrated_2007().tcp_recv_cpu(32 * 1024));
        let _ = ms(1); // keep the time helpers imported for other tests
    }

    #[test]
    fn bulk_transfer_survives_lossy_fabric_all_kinds() {
        use dc_fabric::FaultPlan;
        // Chunk drops force retransmissions that arrive out of order; the
        // lane layer must still hand the reassembler an intact stream.
        for (i, kind) in StreamKind::ALL.into_iter().enumerate() {
            let (sim, cluster) = setup();
            cluster.install_faults(FaultPlan::from_parts(
                40 + i as u64,
                vec![],
                vec![],
                vec![],
                0.15,
            ));
            let (mut a, mut b) = connect(
                &cluster,
                NodeId(0),
                NodeId(1),
                kind,
                SocketsConfig::default(),
            );
            let payload: Vec<u8> = (0..6_000).map(|i| (i * 13 % 256) as u8).collect();
            let expect = payload.clone();
            sim.spawn(async move {
                for _ in 0..20 {
                    a.send(&payload).await;
                }
            });
            sim.run_to(async move {
                for _ in 0..20 {
                    let m = b.recv().await;
                    assert_eq!(&m[..], &expect[..], "corrupt bytes over {kind:?}");
                }
            });
            assert!(
                cluster.fault_stats().dropped_msgs > 0,
                "fault plan never fired for {kind:?}"
            );
        }
    }

    /// Virtual time at which one `len`-byte send returns and at which the
    /// peer's `recv` hands it back, on a fresh two-node cluster.
    fn send_and_delivery_ns(kind: StreamKind, len: usize) -> (u64, u64) {
        let (sim, cluster) = setup();
        let (mut a, mut b) = connect(
            &cluster,
            NodeId(0),
            NodeId(1),
            kind,
            SocketsConfig::default(),
        );
        let h = sim.handle();
        let sent = sim.spawn(async move {
            a.send(&vec![0x33u8; len]).await;
            h.now()
        });
        let h2 = sim.handle();
        let got = sim.spawn(async move {
            assert_eq!(b.recv().await.len(), len);
            h2.now()
        });
        sim.run();
        (sent.try_take().unwrap(), got.try_take().unwrap())
    }

    /// Measured with the byte-tag framing that prepended its headers to
    /// the payload: headers riding `Message.imm` must charge the same wire
    /// bytes, copy costs and ring space.
    #[test]
    fn virtual_timing_matches_the_prepended_framing() {
        let t = send_and_delivery_ns;
        assert_eq!(t(StreamKind::Sdp, 8 * 1024), (12_814, 42_821));
        assert_eq!(t(StreamKind::Packetized, 100_000), (156_764, 174_220));
        assert_eq!(t(StreamKind::AzSdp, 64 * 1024), (2_000, 172_246));
    }

    #[test]
    fn two_connections_coexist() {
        let (sim, cluster) = setup();
        let (mut a1, mut b1) = connect(
            &cluster,
            NodeId(0),
            NodeId(1),
            StreamKind::Sdp,
            SocketsConfig::default(),
        );
        let (mut a2, mut b2) = connect(
            &cluster,
            NodeId(0),
            NodeId(1),
            StreamKind::Packetized,
            SocketsConfig::default(),
        );
        sim.spawn(async move {
            a1.send(b"one").await;
            a2.send(b"two").await;
        });
        let (m1, m2) = sim.run_to(async move { (b1.recv().await, b2.recv().await) });
        assert_eq!(&m1[..], b"one");
        assert_eq!(&m2[..], b"two");
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn loopback_connect_panics() {
        let (_sim, cluster) = setup();
        let _ = connect(
            &cluster,
            NodeId(0),
            NodeId(0),
            StreamKind::Sdp,
            SocketsConfig::default(),
        );
    }
}
