//! Connected message streams in four protocol flavours.
//!
//! [`connect`] wires two nodes together with a full-duplex pair of
//! [`StreamEnd`]s. Each direction is an independent SPSC lane with its own
//! data port, bound at the receiver. The four kinds differ in two places
//! only: how a sender is *admitted* (host TCP waits for delivery, AZ-SDP
//! takes a local in-flight slot, SDP and packetized flow control spend a
//! receiver-granted window) and where `recv` finds its chunks (straight
//! off the lane, or behind a stack-side pump). The two windowed kinds are
//! one sender and one pump; everything that distinguishes credit-based
//! from packetized flow control — the paper's §6 comparison — is the
//! `Window` each is built with. Only they have something to return, so
//! only they bind a feedback port (at the sender) per direction. Every
//! send window is a counted `dc_sim::sync::Semaphore`: AZ-SDP's holds
//! in-flight slots, one per message; a windowed kind's holds units, which a
//! chunk takes with `acquire_many` and the feedback pump refills with
//! `release_many`. DESIGN.md §11 is the contract.

use bytes::Bytes;
use dc_fabric::{Cluster, CpuModel, Endpoint, NodeId, Transport};
use dc_sim::sync::{channel, Receiver, Semaphore};
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

/// A receiver-granted send window: the one description of what differs
/// between credit-based SDP and packetized flow control. The sender starts
/// with `size` units, spends [`Window::units`] per chunk and stalls when
/// short; the receiver's pump hands units back `return_at` at a time.
#[derive(Clone, Copy)]
struct Window {
    /// Units granted up front: preposted buffers, or ring bytes.
    size: usize,
    /// Whether a chunk costs its framed length (ring bytes) or one unit
    /// whatever its size (a whole preposted buffer).
    per_byte: bool,
    /// Largest framed chunk a message is cut into.
    chunk_cap: usize,
    /// Units the receiver accumulates before returning them in one message.
    return_at: usize,
    /// Receiver CPU per chunk for re-posting the buffer it arrived in.
    repost_ns: u64,
}

impl Window {
    /// The window `kind` runs under `cfg`; `None` for the kinds whose
    /// admission involves no return traffic from the receiver.
    fn of(kind: StreamKind, cfg: &SocketsConfig) -> Option<Window> {
        match kind {
            StreamKind::HostTcp | StreamKind::AzSdp => None,
            // One credit per chunk, *regardless of chunk size* — this is the
            // per-buffer accounting the paper's §6 criticizes. Returns are
            // coalesced (real SDP stacks batch credit updates), and every
            // consumed buffer is re-posted before its credit can return.
            StreamKind::Sdp => Some(Window {
                size: cfg.sdp_credits,
                per_byte: false,
                chunk_cap: cfg.sdp_buf_size,
                return_at: (cfg.sdp_credits / 2).max(1),
                repost_ns: cfg.prepost_ns,
            }),
            // Byte-accurate flow control: a chunk consumes exactly its own
            // framed length of ring space (the sender packs data precisely
            // because it manages the remote buffer with RDMA), freed space
            // comes back in quarter-ring batches, and there is no per-buffer
            // prepost. Fine-grained packing: small chunks keep the ring
            // pipelined even for messages comparable to the ring size.
            StreamKind::Packetized => Some(Window {
                size: cfg.ring_bytes,
                per_byte: true,
                chunk_cap: (cfg.ring_bytes / 8).max(64),
                return_at: cfg.ring_bytes / 4,
                repost_ns: 0,
            }),
        }
    }

    /// Window units `chunk` occupies from send until its return.
    fn units(&self, chunk: &Chunk) -> usize {
        if self.per_byte {
            chunk.wire_len()
        } else {
            1
        }
    }
}

/// The ports a connection binds on one node: what that node receives on.
struct NodePorts {
    node: NodeId,
    data: u16,
    /// Window returns for this node's outbound direction; only when the
    /// kind has a window to return.
    feedback: Option<u16>,
}

/// Create a connected full-duplex stream pair between `a` and `b`.
///
/// Panics if `a == b` (loopback is a node-local IPC concern, not the
/// network stack's).
pub fn connect(
    cluster: &Cluster,
    a: NodeId,
    b: NodeId,
    kind: StreamKind,
    cfg: SocketsConfig,
) -> (StreamEnd, StreamEnd) {
    assert_ne!(a, b, "sockets connect endpoints must be distinct nodes");
    let window = Window::of(kind, &cfg);
    // Each direction has a data port, bound at its receiver, and — only if
    // there is a window to return — a feedback port, bound at its sender.
    let ports_of = |node| NodePorts {
        node,
        data: cluster.alloc_port_for(node, "sockets.stream.data"),
        feedback: window.map(|_| cluster.alloc_port_for(node, "sockets.stream.fb")),
    };
    let (at_a, at_b) = (ports_of(a), ports_of(b));
    // Every connection pins a QP at each end — this per-connection cost is
    // exactly what the eRPC lane's session multiplexing amortizes away
    // (compare `fabric.qp.active` across lanes in `ext_incast`).
    cluster.note_qp(2);
    (
        StreamEnd::new_half(cluster, kind, cfg, window, &at_a, &at_b),
        StreamEnd::new_half(cluster, kind, cfg, window, &at_b, &at_a),
    )
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
    /// Build the half of a connection that lives on `mine.node`: bind what
    /// `mine` names, address what `theirs` names.
    fn new_half(
        cluster: &Cluster,
        kind: StreamKind,
        cfg: SocketsConfig,
        window: Option<Window>,
        mine: &NodePorts,
        theirs: &NodePorts,
    ) -> StreamEnd {
        let (local, peer) = (mine.node, theirs.node);
        let lane_in = LaneReceiver::new(cluster, bind_raw(cluster, local, mine.data));
        let lane_out = |transport| LaneSender::new(cluster, local, peer, theirs.data, transport);
        let (tx, source) = match kind {
            StreamKind::HostTcp => (
                Tx::Tcp(lane_out(Transport::Tcp)),
                ChunkSource::Lane {
                    lane: lane_in,
                    copy_out: None,
                },
            ),
            StreamKind::AzSdp => (
                Tx::Az(AzTx {
                    cluster: cluster.clone(),
                    local,
                    lane: lane_out(Transport::RdmaSend),
                    cfg,
                    window: Semaphore::new(cfg.az_window),
                }),
                ChunkSource::Lane {
                    lane: lane_in,
                    copy_out: Some((cluster.cpu(local), cfg)),
                },
            ),
            StreamKind::Sdp | StreamKind::Packetized => {
                let ((w, fb_in), fb_out) = window
                    .zip(mine.feedback)
                    .zip(theirs.feedback)
                    .expect("a windowed kind has feedback ports");
                let fb_ep = bind_raw(cluster, local, fb_in);
                let lane = lane_out(Transport::RdmaSend);
                (
                    Tx::Windowed(WindowTx::new(cluster, local, lane, fb_ep, cfg, w)),
                    ChunkSource::Pump(spawn_rx_pump(cluster, local, peer, fb_out, lane_in, cfg, w)),
                )
            }
        };
        StreamEnd {
            kind,
            local,
            peer,
            tx,
            rx: Rx {
                source,
                reasm: Reassembler::new(),
            },
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
    /// windows of `data` that the receiver rejoins, so a message of any
    /// chunk count reaches the peer's [`StreamEnd::recv`] as this very
    /// buffer (one of at most 30 bytes, or a static one, as an equal copy).
    pub async fn send_bytes(&mut self, data: Bytes) {
        // Each admission rule is a future of its own (the lane's,
        // `AzTx::send`, `WindowTx::send`) rather than one body with three
        // arms, so that a TCP or AZ-SDP task does not carry the windowed
        // loop's locals.
        match &mut self.tx {
            // The kernel stack segments internally; at this abstraction one
            // message travels whole, with stack CPU charged by the fabric.
            // The lane retransmits on drops, as kernel TCP would.
            Tx::Tcp(lane) => lane.send_tracked(Chunk::whole(data)).await,
            Tx::Az(t) => t.send(data).await,
            Tx::Windowed(t) => t.send(data).await,
        }
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

/// The sending half, by admission rule.
enum Tx {
    /// Host TCP: no admission above the lane; a send completes at delivery.
    Tcp(LaneSender),
    Az(AzTx),
    Windowed(WindowTx),
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
        // Transfer complete: buffer unprotected, window slot reusable. The
        // task holds `delivered` once, not captured and then awaited.
        self.cluster
            .sim()
            .spawn_then(delivered, move |()| window.release());
    }
}

// ------------------------- SDP and packetized: one windowed sender and pump

struct WindowTx {
    cluster: Cluster,
    local: NodeId,
    lane: LaneSender,
    cfg: SocketsConfig,
    w: Window,
    /// One permit per unit of the window not in flight.
    window: Semaphore,
}

impl WindowTx {
    fn new(
        cluster: &Cluster,
        local: NodeId,
        lane: LaneSender,
        mut fb_ep: Endpoint,
        cfg: SocketsConfig,
        w: Window,
    ) -> WindowTx {
        let window = Semaphore::new(w.size);
        // Feedback pump: units flow back from the receiver in batches.
        let refill = window.clone();
        cluster.sim().spawn_detached(async move {
            loop {
                let msg = fb_ep.recv().await;
                refill.release_many(msg.imm as usize);
            }
        });
        WindowTx {
            cluster: cluster.clone(),
            local,
            lane,
            cfg,
            w,
            window,
        }
    }

    async fn send(&mut self, data: Bytes) {
        let cpu = self.cluster.cpu(self.local);
        for chunk in frame(data, self.w.chunk_cap) {
            let need = self.w.units(&chunk);
            if self.window.available() < need {
                self.cluster.note_credit_stall(self.local);
            }
            // A return carries at least `return_at` units, never less than a
            // chunk's, so one refill always admits a stalled chunk.
            self.window.acquire_many(need).await;
            // Buffered copy into a send buffer (or the ring image) before
            // posting.
            cpu.execute(self.cfg.copy_cost(chunk.wire_len())).await;
            self.cluster.sim().sleep(self.cfg.issue_overhead_ns).await;
            self.lane.send_bg(chunk);
        }
    }
}

/// The stack-side receive pump of a windowed kind: drains the receive
/// buffers as chunks arrive (copying into the socket buffer, re-posting
/// where the window says so) and returns window units coalesced —
/// *independently of the application calling recv*. That is what keeps
/// bidirectional traffic deadlock-free in real SDP: the window is a property
/// of the stack's buffer pool, not of application reads. The socket buffer
/// is unbounded in the model; the flow-control costs under study are the
/// return round trips. Returns the queue `recv` reads.
fn spawn_rx_pump(
    cluster: &Cluster,
    local: NodeId,
    peer: NodeId,
    fb_port: u16,
    mut lane: LaneReceiver,
    cfg: SocketsConfig,
    w: Window,
) -> Receiver<Chunk> {
    let (tx_q, rx_q) = channel();
    let cl = cluster.clone();
    cluster.sim().spawn_detached(async move {
        let mut pending = 0usize;
        loop {
            let chunk = lane.recv().await;
            // Copy out of the receive buffer into the socket buffer, then
            // re-post it before its units can return.
            cl.cpu(local)
                .execute(cfg.copy_cost(chunk.wire_len()) + w.repost_ns)
                .await;
            pending += w.units(&chunk);
            if pending >= w.return_at {
                return_feedback(&cl, local, peer, fb_port, pending);
                pending = 0;
            }
            if tx_q.send(chunk).is_err() {
                break; // application side dropped the stream
            }
        }
    });
    rx_q
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
        )
        .await
        .unwrap_or_else(|e| panic!("flow-control return undeliverable: {e}"));
    });
}

// ------------------------------------------------------------ receive side

/// Where `recv` finds the next in-order chunk.
enum ChunkSource {
    /// Window-less kinds read their lane directly. AZ-SDP sets `copy_out`:
    /// its receive side still lands in a buffer and is copied out on recv()
    /// (the design removes the *sender* copy), charged per chunk on this CPU.
    Lane {
        lane: LaneReceiver,
        copy_out: Option<(CpuModel, SocketsConfig)>,
    },
    /// Windowed kinds read what their pump has already copied out.
    Pump(Receiver<Chunk>),
}

struct Rx {
    source: ChunkSource,
    reasm: Reassembler,
}

impl Rx {
    async fn recv(&mut self) -> Bytes {
        loop {
            let chunk = match &mut self.source {
                ChunkSource::Lane { lane, copy_out } => {
                    let chunk = lane.recv().await;
                    if let Some((cpu, cfg)) = copy_out {
                        cpu.execute(cfg.copy_cost(chunk.wire_len())).await;
                    }
                    chunk
                }
                ChunkSource::Pump(queue) => queue
                    .recv()
                    .await
                    .expect("stream pump terminated while receiving"),
            };
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

    /// A feedback port exists only where there is a window to return: the
    /// window-less kinds used to allocate, bind and at once unbind one per
    /// direction out of the 64,512-port space.
    #[test]
    fn only_windowed_kinds_take_feedback_ports() {
        let ports_taken = |kind: StreamKind| {
            let (_sim, cluster) = setup();
            let before = cluster.alloc_port();
            let _ends = connect(
                &cluster,
                NodeId(0),
                NodeId(1),
                kind,
                SocketsConfig::default(),
            );
            cluster.alloc_port() - before - 1
        };
        assert_eq!(ports_taken(StreamKind::HostTcp), 2);
        assert_eq!(ports_taken(StreamKind::AzSdp), 2);
        assert_eq!(ports_taken(StreamKind::Sdp), 4);
        assert_eq!(ports_taken(StreamKind::Packetized), 4);
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
