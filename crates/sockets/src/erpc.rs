//! eRPC-style general-purpose RPC lane: zero-copy, congestion-controlled,
//! session-multiplexed.
//!
//! "Datacenter RPCs can be General and Fast" argues one well-engineered
//! transport can serve every service; RDMAvisor adds that connection state
//! must not grow with logical session count. This module reproduces both
//! ideas on the simulated fabric:
//!
//! * **Zero-copy.** The RPC header travels as fabric immediate data
//!   ([`Message::imm`]), so the caller's payload `Bytes` reaches the
//!   server handler — and the handler's response reaches the caller — as
//!   the same refcounted buffer. No payload byte is copied anywhere on the
//!   path. ([`dc_svc::SvcClient`] frames the same way, but its header is
//!   charged as wire bytes; this lane's is the verb's own immediate word
//!   and costs none.)
//! * **Congestion control.** Each session runs a seeded, deterministic
//!   Timely/DCQCN-flavoured rate machine ([`CongestionState`]): additive
//!   increase on low-RTT acks, multiplicative decrease on ECN marks
//!   ([`Message::ecn`], echoed by the server as an ECE bit) or high RTT
//!   gradient, clamped to `[floor, link]`. Requests are paced to the
//!   session rate; a per-session window of `window` slots bounds
//!   outstanding requests.
//! * **Session multiplexing.** An [`ErpcMux`] binds a handful of local
//!   "queue pair" ports and maps any number of logical sessions onto them
//!   (`session id mod QPs`); the server side does the same. The
//!   `fabric.qp.active` gauge counts bound QP endpoints, so a thousand
//!   sessions show up as O(nodes) QPs, not O(sessions).
//!
//! Loss recovery is client-driven: a per-mux sweeper retransmits requests
//! older than the RTO (counted in `sockets.retransmits` and `erpc.retx`,
//! with a `stage=retry` span per resend), and the server dedups via a
//! per-session reply cache that re-sends the cached response for an
//! already-answered sequence number — so handlers run exactly once.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use bytes::Bytes;
use dc_fabric::{Cluster, NodeId, Transport};
use dc_sim::fxhash::FxHashMap;
use dc_sim::rng::splitmix64;
use dc_sim::sync::Semaphore;
use dc_sim::SimTime;
use dc_svc::bind_raw;
use dc_trace::{Counter, Gauge, Subsys};

// ---------------------------------------------------------------------------
// Wire format: the whole header rides the 64-bit immediate.
// ---------------------------------------------------------------------------

/// Message kind: request.
pub const KIND_REQ: u8 = 1;
/// Message kind: response.
pub const KIND_RESP: u8 = 2;

/// Sequence numbers are 21 bits on the wire and wrap: a session's
/// 2,097,153rd request is numbered 0 again. Only the last `window` of them
/// are ever live, so equality identifies a request, order is serial-number
/// arithmetic over the circle (`seq_newer`), and `window` must be a power
/// of two (`assert_window`).
pub const SEQ_MASK: u32 = (1 << 21) - 1;

/// Whether `a` was issued after `b`: ahead of it by less than half the
/// 21-bit circle (RFC 1982 serial-number arithmetic).
fn seq_newer(a: u32, b: u32) -> bool {
    let ahead = a.wrapping_sub(b) & SEQ_MASK;
    ahead != 0 && ahead <= SEQ_MASK / 2
}

/// Request `seq` lives in slot `seq % window` at both ends, and the sliding
/// window relies on consecutive requests taking consecutive slots. Across
/// the wrap from [`SEQ_MASK`] to 0 that holds only if `window` divides 2^21.
fn assert_window(window: u32) {
    assert!(
        window.is_power_of_two(),
        "erpc window must be a power of two (slots are seq % window and seq wraps at 2^21), \
         got {window}"
    );
}

/// Decoded immediate-data header. Layout (LSB-first):
/// `[port:16][seq:21][session:16][op:8][ece:1][kind:2]`.
///
/// `port` is the client's reply QP port on requests (the server learns it
/// from every request, so the protocol needs no connection handshake) and
/// zero on responses. `ece` echoes the request's ECN mark back to the
/// client on responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImmHeader {
    /// [`KIND_REQ`] or [`KIND_RESP`] (2 bits on the wire).
    pub kind: u8,
    /// ECN-echo: the request this response answers was marked.
    pub ece: bool,
    /// Application opcode.
    pub op: u8,
    /// Mux-local session id.
    pub session: u16,
    /// Per-session sequence number (21 bits).
    pub seq: u32,
    /// Reply QP port (requests only).
    pub port: u16,
}

/// Pack a header into the immediate word.
pub fn encode_imm(h: ImmHeader) -> u64 {
    debug_assert!(h.kind < 4, "kind field is 2 bits");
    debug_assert!(h.seq <= SEQ_MASK, "seq field is 21 bits");
    (h.port as u64)
        | ((h.seq as u64) << 16)
        | ((h.session as u64) << 37)
        | ((h.op as u64) << 53)
        | ((u64::from(h.ece)) << 61)
        | ((h.kind as u64) << 62)
}

/// Unpack the immediate word.
pub fn decode_imm(imm: u64) -> ImmHeader {
    ImmHeader {
        port: (imm & 0xFFFF) as u16,
        seq: ((imm >> 16) & SEQ_MASK as u64) as u32,
        session: ((imm >> 37) & 0xFFFF) as u16,
        op: ((imm >> 53) & 0xFF) as u8,
        ece: (imm >> 61) & 1 == 1,
        kind: ((imm >> 62) & 0b11) as u8,
    }
}

// ---------------------------------------------------------------------------
// Congestion control: seeded deterministic AIMD over RTT + ECN signals.
// ---------------------------------------------------------------------------

// The per-session rate machine's constants, matched to the calibrated 2007
// fabric: 900 B/µs IB link = 7.2 Gb/s. Integer arithmetic throughout so the
// trajectory is exactly reproducible.

/// Rate never decreases below this (keeps every session live).
pub const FLOOR_BPS: u64 = 50_000_000;
/// Rate never increases above this (the link's line rate).
pub const LINK_BPS: u64 = 7_200_000_000;
/// Additive increase per low-RTT ack.
const ADDITIVE_BPS: u64 = 60_000_000;
/// Multiplicative-decrease numerator: on a mark or high RTT the rate becomes
/// `rate * MD_NUM / MD_DEN`.
const MD_NUM: u64 = 4;
/// Multiplicative-decrease denominator.
const MD_DEN: u64 = 5;
/// Acks with RTT at or below this are "uncongested" and earn additive
/// increase (Timely's T_low).
pub const RTT_LOW_NS: u64 = 60_000;
/// Acks with RTT at or above this decrease the rate even without an ECN mark
/// (Timely's T_high / positive-gradient branch). Between the two thresholds
/// the rate holds.
pub const RTT_HIGH_NS: u64 = 400_000;

const _: () = {
    assert!(FLOOR_BPS >= 1, "rate floor must be positive");
    assert!(LINK_BPS >= FLOOR_BPS, "link below floor");
    assert!(MD_NUM < MD_DEN, "decrease must decrease");
    assert!(MD_DEN > 0, "md_den must be positive");
};

/// One session's congestion state. Pure (no clock, no I/O): callers feed it
/// ack RTTs and marks, it answers with the paced rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongestionState {
    rate_bps: u64,
}

impl CongestionState {
    /// Start a session at a seeded rate in the lower quarter of the range:
    /// low enough that an incast of fresh sessions does not instantly
    /// overrun the bottleneck, jittered so symmetric sessions do not move
    /// in lockstep.
    pub fn new(seed: u64) -> CongestionState {
        let span = (LINK_BPS - FLOOR_BPS) / 4;
        CongestionState {
            rate_bps: FLOOR_BPS + splitmix64(seed) % (span + 1),
        }
    }

    /// Feed one ack's RTT: additive increase below [`RTT_LOW_NS`], hold in
    /// the middle band, multiplicative decrease at or above [`RTT_HIGH_NS`].
    pub fn on_ack(&mut self, rtt_ns: u64) {
        if rtt_ns >= RTT_HIGH_NS {
            self.decrease();
        } else if rtt_ns <= RTT_LOW_NS {
            self.increase();
        }
    }

    /// Feed one congestion mark (ECN on the response, ECE echo, or an RTO):
    /// multiplicative decrease.
    pub fn on_mark(&mut self) {
        self.decrease();
    }

    fn increase(&mut self) {
        self.rate_bps = (self.rate_bps + ADDITIVE_BPS).min(LINK_BPS);
    }

    fn decrease(&mut self) {
        self.rate_bps = (self.rate_bps / MD_DEN * MD_NUM).max(FLOOR_BPS);
    }

    /// The current paced rate.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Pacing gap for a `bytes`-long request at the current rate.
    pub fn gap_ns(&self, bytes: usize) -> u64 {
        ((bytes as u64) * 8).saturating_mul(1_000_000_000) / self.rate_bps.max(1)
    }
}

// ---------------------------------------------------------------------------
// Runtime configuration.
// ---------------------------------------------------------------------------

/// Local QP ports a client mux binds; sessions map onto them round-robin.
const CLIENT_QPS: usize = 4;
/// Retransmits per request before declaring the peer unreachable.
const MAX_RETX: u32 = 12;

const _: () = assert!(CLIENT_QPS >= 1, "mux needs at least one QP");

/// Shape of one eRPC mux (client side) and its sessions.
#[derive(Debug, Clone, Copy)]
pub struct ErpcCfg {
    /// Per-session outstanding-request window (client slots and reply-cache
    /// depth share this value, so the server can always dedup anything the
    /// client can still retransmit). The window slides: request `n + window`
    /// is sent only after request `n` has completed. Must be a power of two,
    /// so that slots stay consecutive when the sequence number wraps.
    pub window: u32,
    /// Retransmit a request once it has been outstanding this long.
    pub rto_ns: SimTime,
}

impl Default for ErpcCfg {
    fn default() -> ErpcCfg {
        ErpcCfg {
            window: 2,
            rto_ns: 2_000_000,
        }
    }
}

// ---------------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------------

struct SrvSession {
    reply_port: u16,
    /// Reply cache, one slot per window position: `(seq, response)`. A
    /// request whose slot already holds its seq is a retransmit of an
    /// answered request — re-send the cached response, do not re-run the
    /// handler.
    cache: Box<[Option<(u32, Bytes)>]>,
}

/// Server half: `qps` bound QP ports, each with a pump that decodes
/// requests, dedups them against the per-session reply cache, runs the
/// handler exactly once per fresh sequence number, and answers with the
/// handler's `Bytes` untouched (ECE bit set when the request arrived
/// marked).
pub struct ErpcServer {
    ports: Vec<u16>,
}

impl ErpcServer {
    /// Spawn the server on `node`. `cpu_ns` of node CPU is charged per
    /// fresh request before the handler runs (the application's service
    /// time); the handler itself is a pure function of `(op, payload)`.
    pub fn spawn(
        cluster: &Cluster,
        node: NodeId,
        qps: usize,
        window: u32,
        cpu_ns: SimTime,
        handler: Rc<dyn Fn(u8, Bytes) -> Bytes>,
    ) -> ErpcServer {
        assert!(qps >= 1, "server needs at least one QP");
        assert_window(window);
        let mut ports = Vec::with_capacity(qps);
        for _ in 0..qps {
            let port = cluster.alloc_port_for(node, "erpc.srv.qp");
            let mut ep = bind_raw(cluster, node, port);
            cluster.note_qp(1);
            ports.push(port);
            let cluster = cluster.clone();
            let handler = handler.clone();
            let cpu = cluster.cpu(node);
            cluster.clone().sim().spawn_detached(async move {
                let mut sessions: FxHashMap<(u32, u16), SrvSession> = FxHashMap::default();
                loop {
                    let msg = ep.recv().await;
                    let h = decode_imm(msg.imm);
                    if h.kind != KIND_REQ {
                        continue;
                    }
                    let sess =
                        sessions
                            .entry((msg.src.0, h.session))
                            .or_insert_with(|| SrvSession {
                                reply_port: h.port,
                                cache: vec![None; window as usize].into_boxed_slice(),
                            });
                    sess.reply_port = h.port;
                    let slot = (h.seq % window) as usize;
                    let resp = match &sess.cache[slot] {
                        Some((seq, cached)) if *seq == h.seq => cached.clone(),
                        Some((seq, _)) if seq_newer(*seq, h.seq) => continue, // stale dup
                        _ => {
                            cpu.execute(cpu_ns).await;
                            let resp = handler(h.op, msg.data);
                            sess.cache[slot] = Some((h.seq, resp.clone()));
                            resp
                        }
                    };
                    let reply_port = sess.reply_port;
                    let imm = encode_imm(ImmHeader {
                        kind: KIND_RESP,
                        ece: msg.ecn,
                        op: h.op,
                        session: h.session,
                        seq: h.seq,
                        port: 0,
                    });
                    // Losses are the client sweeper's problem: a dropped
                    // response triggers a request retransmit, which the
                    // reply cache answers from here.
                    let _ = cluster
                        .try_send_imm_ref(
                            node,
                            msg.src,
                            reply_port,
                            &resp,
                            imm,
                            0,
                            Transport::RdmaSend,
                        )
                        .await;
                }
            });
        }
        ErpcServer { ports }
    }

    /// The server's QP ports; clients spread their sessions across these.
    pub fn ports(&self) -> &[u16] {
        &self.ports
    }
}

// ---------------------------------------------------------------------------
// Client: mux, sessions, sweeper.
// ---------------------------------------------------------------------------

/// One window position, the session's only record of a request: it is
/// outstanding while the slot holds it in `req`, and the slot stays the
/// caller's until the caller has taken `resp`.
#[derive(Default)]
struct Slot {
    /// The request's header, encoded once at admission; a retransmit
    /// re-posts it as-is.
    imm: Cell<u64>,
    sent_ns: Cell<SimTime>,
    retx: Cell<u32>,
    req: RefCell<Option<Bytes>>,
    resp: RefCell<Option<Bytes>>,
    waker: RefCell<Option<Waker>>,
}

impl Slot {
    /// Sequence number of the request this slot holds (or last held).
    fn seq(&self) -> u32 {
        decode_imm(self.imm.get()).seq
    }

    /// Neither awaiting a response nor holding an untaken one.
    fn is_idle(&self) -> bool {
        self.req.borrow().is_none() && self.resp.borrow().is_none()
    }
}

struct SessionInner {
    id: u16,
    server: NodeId,
    server_port: u16,
    reply_port: u16,
    next_seq: Cell<u32>,
    /// Where `call` parks while the next sequence number's slot is taken. A
    /// completion releases it only while a caller is parked, so it holds
    /// waiters, never banked permits.
    credit_waiters: Semaphore,
    cc: RefCell<CongestionState>,
    next_tx_ns: Cell<SimTime>,
    slots: Box<[Slot]>,
    marks: Cell<u64>,
    retx: Cell<u64>,
    acks: Cell<u64>,
}

struct MuxInner {
    cluster: Cluster,
    node: NodeId,
    cfg: ErpcCfg,
    qp_ports: Box<[u16]>,
    sessions: RefCell<Vec<Rc<SessionInner>>>,
    /// `erpc.credits`: free window slots summed over all sessions.
    m_credits: Gauge,
    /// `erpc.rate_bps`: allowed send rate summed over all sessions.
    m_rate: Gauge,
    /// `erpc.marks`: congestion signals consumed (ECN, ECE, RTO).
    m_marks: Counter,
    /// `erpc.retx`: request retransmissions.
    m_retx: Counter,
}

impl MuxInner {
    /// Apply one congestion signal or ack to a session, keeping the
    /// aggregate rate gauge in sync.
    fn feed_cc(&self, s: &SessionInner, rtt_ns: Option<SimTime>, mark: bool) {
        let mut cc = s.cc.borrow_mut();
        let old = cc.rate_bps();
        if mark {
            cc.on_mark();
            s.marks.set(s.marks.get() + 1);
            self.m_marks.inc();
        } else if let Some(rtt) = rtt_ns {
            cc.on_ack(rtt);
        }
        let new = cc.rate_bps();
        self.m_rate.add(new as i64 - old as i64);
    }
}

/// Client-side multiplexer: a few bound QP ports on one node carrying any
/// number of logical sessions. Clone freely.
#[derive(Clone)]
pub struct ErpcMux {
    inner: Rc<MuxInner>,
}

impl ErpcMux {
    /// Bind `CLIENT_QPS` (4) local QP ports on `node`, spawn their response
    /// pumps and the shared retransmit sweeper.
    pub fn new(cluster: &Cluster, node: NodeId, cfg: ErpcCfg) -> ErpcMux {
        assert_window(cfg.window);
        let reg = cluster.metrics();
        let inner = Rc::new(MuxInner {
            cluster: cluster.clone(),
            node,
            cfg,
            qp_ports: (0..CLIENT_QPS)
                .map(|_| cluster.alloc_port_for(node, "erpc.cli.qp"))
                .collect(),
            sessions: RefCell::new(Vec::new()),
            m_credits: reg.gauge("erpc.credits"),
            m_rate: reg.gauge("erpc.rate_bps"),
            m_marks: reg.counter("erpc.marks"),
            m_retx: reg.counter("erpc.retx"),
        });
        for &port in inner.qp_ports.iter() {
            let mut ep = bind_raw(cluster, node, port);
            cluster.note_qp(1);
            let inner = inner.clone();
            cluster.sim().spawn_detached(async move {
                loop {
                    let msg = ep.recv().await;
                    let h = decode_imm(msg.imm);
                    if h.kind != KIND_RESP {
                        continue;
                    }
                    let s = {
                        let sessions = inner.sessions.borrow();
                        match sessions.get(h.session as usize) {
                            Some(s) => s.clone(),
                            None => continue,
                        }
                    };
                    let slot = &s.slots[(h.seq % inner.cfg.window) as usize];
                    if slot.req.borrow().is_none() || slot.seq() != h.seq {
                        continue; // duplicate response after a retransmit
                    }
                    let rtt = inner.cluster.sim().now() - slot.sent_ns.get();
                    inner.feed_cc(&s, Some(rtt), msg.ecn || h.ece);
                    s.acks.set(s.acks.get() + 1);
                    // The slot stays the caller's until it has taken this
                    // response: `call` admits a new request only into an
                    // idle slot.
                    *slot.resp.borrow_mut() = Some(msg.data);
                    slot.req.borrow_mut().take();
                    let waker = slot.waker.borrow_mut().take();
                    if let Some(w) = waker {
                        w.wake();
                    }
                }
            });
        }
        // Retransmit sweeper: one per mux, ticking at half the RTO.
        {
            let inner = inner.clone();
            cluster.sim().spawn_detached(async move {
                let sim = inner.cluster.sim().clone();
                loop {
                    sim.sleep((inner.cfg.rto_ns / 2).max(1)).await;
                    let count = inner.sessions.borrow().len();
                    for i in 0..count {
                        let s = {
                            let sessions = inner.sessions.borrow();
                            sessions[i].clone()
                        };
                        sweep_session(&inner, &s).await;
                    }
                }
            });
        }
        ErpcMux { inner }
    }

    /// Open a logical session to `server`'s QP `server_port`. The session
    /// id picks its local QP (`id mod CLIENT_QPS`); `seed` jitters its
    /// initial congestion-control rate.
    pub fn session(&self, server: NodeId, server_port: u16, seed: u64) -> ErpcSession {
        let mut sessions = self.inner.sessions.borrow_mut();
        let id = sessions.len();
        assert!(id <= u16::MAX as usize, "session id space exhausted");
        let cfg = &self.inner.cfg;
        let s = Rc::new(SessionInner {
            id: id as u16,
            server,
            server_port,
            reply_port: self.inner.qp_ports[id % self.inner.qp_ports.len()],
            next_seq: Cell::new(0),
            credit_waiters: Semaphore::new(0),
            cc: RefCell::new(CongestionState::new(seed)),
            next_tx_ns: Cell::new(0),
            slots: (0..cfg.window).map(|_| Slot::default()).collect(),
            marks: Cell::new(0),
            retx: Cell::new(0),
            acks: Cell::new(0),
        });
        self.inner.m_credits.add(cfg.window as i64);
        self.inner.m_rate.add(s.cc.borrow().rate_bps() as i64);
        sessions.push(s.clone());
        ErpcSession {
            mux: self.inner.clone(),
            s,
        }
    }

    /// The node this mux sends from.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }
}

/// Retransmit every outstanding request of `s` that has aged past the RTO.
/// An RTO is also a congestion signal (Timely treats timeout as the
/// strongest gradient), so each resend feeds a mark.
async fn sweep_session(mux: &MuxInner, s: &SessionInner) {
    let now = mux.cluster.sim().now();
    for slot in s.slots.iter() {
        let req = match &*slot.req.borrow() {
            Some(req) if now.saturating_sub(slot.sent_ns.get()) >= mux.cfg.rto_ns => req.clone(),
            _ => continue,
        };
        assert!(
            slot.retx.get() < MAX_RETX,
            "erpc session {} to {:?}:{} undeliverable: seq {} exhausted {} retransmits",
            s.id,
            s.server,
            s.server_port,
            slot.seq(),
            MAX_RETX,
        );
        slot.retx.set(slot.retx.get() + 1);
        s.retx.set(s.retx.get() + 1);
        mux.m_retx.inc();
        mux.cluster.note_retransmit();
        mux.cluster.note_retry();
        mux.feed_cc(s, None, true);
        slot.sent_ns.set(now);
        let imm = slot.imm.get();
        // Retry-stage span around the resend so retransmissions show up in
        // latency attribution, mirroring the stream lanes.
        let tb = mux.cluster.tracer().begin();
        let _ = mux
            .cluster
            .try_send_imm_ref(
                mux.node,
                s.server,
                s.server_port,
                &req,
                imm,
                0,
                Transport::RdmaSend,
            )
            .await;
        if let Some(tb) = tb {
            mux.cluster.tracer().complete(
                tb,
                mux.node.0,
                Subsys::Sockets,
                "erpc.retx",
                vec![
                    ("stage", "retry".into()),
                    ("session", (s.id as u64).into()),
                    ("seq", (decode_imm(imm).seq as u64).into()),
                ],
            );
        }
    }
}

/// Await-able response slot: resolves when the pump deposits the response.
struct RespWait<'a> {
    slot: &'a Slot,
}

impl Future for RespWait<'_> {
    type Output = Bytes;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Bytes> {
        if let Some(b) = self.slot.resp.borrow_mut().take() {
            return Poll::Ready(b);
        }
        *self.slot.waker.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// One logical session: a paced, windowed, exactly-once request pipe to one
/// server QP. Clone freely; concurrent `call`s share the window.
#[derive(Clone)]
pub struct ErpcSession {
    mux: Rc<MuxInner>,
    s: Rc<SessionInner>,
}

impl ErpcSession {
    /// Issue one request and await its response. Zero-copy: `payload` and
    /// the returned `Bytes` cross the fabric as shared buffers. Blocks on
    /// the session window while the next sequence number's slot is taken
    /// and on the congestion-controlled pacer; panics only if a request
    /// exhausts the retransmit budget (an unreachable peer has no degraded
    /// mode here, like the stream lanes).
    pub async fn call(&self, op: u8, payload: Bytes) -> Bytes {
        let s = &*self.s;
        let mux = &*self.mux;
        // Sliding window: request `seq` enters slot `seq % window` only once
        // request `seq - window` has handed its response to its caller. Some
        // other slot being free is not enough: after an out-of-order
        // completion it is not the next sequence number's, and the server's
        // reply cache (same indexing) assumes it is.
        let (seq, slot) = loop {
            let seq = s.next_seq.get();
            let slot = &s.slots[(seq % mux.cfg.window) as usize];
            if slot.is_idle() {
                break (seq, slot);
            }
            mux.cluster.note_credit_stall(mux.node);
            s.credit_waiters.acquire().await;
        };
        mux.m_credits.add(-1);
        s.next_seq.set((seq + 1) & SEQ_MASK);
        slot.imm.set(encode_imm(ImmHeader {
            kind: KIND_REQ,
            ece: false,
            op,
            session: s.id,
            seq,
            port: s.reply_port,
        }));
        slot.retx.set(0);
        *slot.req.borrow_mut() = Some(payload.clone());
        // Pace to the session rate: reserve the next transmit instant
        // before sleeping so concurrent calls serialize their gaps.
        let sim = mux.cluster.sim().clone();
        let gap = s.cc.borrow().gap_ns(payload.len());
        let due = s.next_tx_ns.get().max(sim.now());
        s.next_tx_ns.set(due + gap);
        if due > sim.now() {
            sim.sleep_until(due).await;
        }
        slot.sent_ns.set(sim.now());
        // A failed first transmission is the sweeper's to recover.
        let _ = mux
            .cluster
            .try_send_imm_ref(
                mux.node,
                s.server,
                s.server_port,
                &payload,
                slot.imm.get(),
                0,
                Transport::RdmaSend,
            )
            .await;
        let resp = RespWait { slot }.await;
        mux.m_credits.add(1);
        // A permit banked for nobody would let the next blocked call spin
        // through it and count a stall per completion it never waited on.
        if s.credit_waiters.waiting() > 0 {
            s.credit_waiters.release();
        }
        resp
    }

    /// Current congestion-controlled rate.
    pub fn rate_bps(&self) -> u64 {
        self.s.cc.borrow().rate_bps()
    }

    /// Congestion signals this session has consumed.
    pub fn marks(&self) -> u64 {
        self.s.marks.get()
    }

    /// Retransmissions this session has issued.
    pub fn retx(&self) -> u64 {
        self.s.retx.get()
    }

    /// Responses received.
    pub fn acks(&self) -> u64 {
        self.s.acks.get()
    }

    /// Mux-local session id.
    pub fn id(&self) -> u16 {
        self.s.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::Sim;

    fn setup(nodes: usize) -> (Sim, Cluster) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
        (sim, cluster)
    }

    #[test]
    fn imm_roundtrip_spot_checks() {
        for h in [
            ImmHeader {
                kind: KIND_REQ,
                ece: false,
                op: 0,
                session: 0,
                seq: 0,
                port: 1024,
            },
            ImmHeader {
                kind: KIND_RESP,
                ece: true,
                op: 255,
                session: u16::MAX,
                seq: SEQ_MASK,
                port: u16::MAX,
            },
        ] {
            assert_eq!(decode_imm(encode_imm(h)), h);
        }
    }

    #[test]
    fn call_round_trips_payload_zero_copy() {
        let (sim, cluster) = setup(2);
        let payload = Bytes::from(vec![7u8; 512]);
        let resp_body = Bytes::from(vec![9u8; 2048]);
        let resp_clone = resp_body.clone();
        let srv = ErpcServer::spawn(
            &cluster,
            NodeId(1),
            2,
            4,
            1_000,
            Rc::new(move |op, req| {
                assert_eq!(op, 3);
                assert_eq!(req.len(), 512);
                resp_clone.clone()
            }),
        );
        let mux = ErpcMux::new(&cluster, NodeId(0), ErpcCfg::default());
        let sess = mux.session(NodeId(1), srv.ports()[0], 42);
        let got = sim.run_to(async move { sess.call(3, payload).await });
        assert_eq!(got.len(), 2048);
        // Same refcounted buffer end-to-end: the response the client holds
        // is the server's buffer, not a copy.
        assert_eq!(got.as_ptr(), resp_body.as_ptr());
        assert_eq!(cluster.qp_active(), 2 + CLIENT_QPS as i64);
    }

    #[test]
    fn sessions_multiplex_over_few_qps() {
        let (sim, cluster) = setup(2);
        let srv = ErpcServer::spawn(
            &cluster,
            NodeId(1),
            2,
            2,
            0,
            Rc::new(|_, req| req), // echo
        );
        let mux = ErpcMux::new(&cluster, NodeId(0), ErpcCfg::default());
        let mut sessions = Vec::new();
        for i in 0..64u64 {
            sessions.push(mux.session(NodeId(1), srv.ports()[i as usize % 2], i));
        }
        let qp_before = cluster.qp_active();
        let done = sim.run_to(async move {
            let mut n = 0u32;
            for s in &sessions {
                let r = s.call(0, Bytes::from_static(b"ping")).await;
                assert_eq!(&r[..], b"ping");
                n += 1;
            }
            n
        });
        assert_eq!(done, 64);
        // 64 sessions, but QP count stayed at the bound-port count.
        assert_eq!(qp_before, 2 + CLIENT_QPS as i64);
        assert_eq!(cluster.qp_active(), qp_before);
    }

    #[test]
    fn drops_are_recovered_by_retransmit_and_reply_cache() {
        let (sim, cluster) = setup(2);
        cluster.install_faults(dc_fabric::FaultPlan::from_parts(
            9,
            vec![],
            vec![],
            vec![],
            0.25,
        ));
        let srv = ErpcServer::spawn(&cluster, NodeId(1), 1, 4, 0, Rc::new(|_, req| req));
        let mux = ErpcMux::new(
            &cluster,
            NodeId(0),
            ErpcCfg {
                rto_ns: 200_000,
                ..ErpcCfg::default()
            },
        );
        let sess = mux.session(NodeId(1), srv.ports()[0], 1);
        let s2 = sess.clone();
        let n = sim.run_to(async move {
            let mut n = 0u32;
            for i in 0..40u8 {
                let r = s2.call(0, Bytes::from(vec![i; 64])).await;
                assert_eq!(r[0], i);
                n += 1;
            }
            n
        });
        assert_eq!(n, 40);
        assert!(sess.retx() > 0, "no retransmission was exercised");
        assert_eq!(cluster.stats().retransmits, sess.retx());
        assert_eq!(cluster.fault_stats().retries, sess.retx());
    }

    /// A service slower than the RTO makes the sweeper resend on a
    /// faultless fabric: that is a transport retransmit, not a fault retry.
    #[test]
    fn rto_retransmits_without_a_fault_plan_are_not_fault_retries() {
        let (sim, cluster) = setup(2);
        let srv = ErpcServer::spawn(&cluster, NodeId(1), 1, 2, 600_000, Rc::new(|_, req| req));
        let mux = ErpcMux::new(
            &cluster,
            NodeId(0),
            ErpcCfg {
                rto_ns: 200_000,
                ..ErpcCfg::default()
            },
        );
        let sess = mux.session(NodeId(1), srv.ports()[0], 1);
        let s2 = sess.clone();
        sim.run_to(async move {
            for i in 0..4u8 {
                assert_eq!(s2.call(0, Bytes::from(vec![i; 64])).await[0], i);
            }
        });
        assert!(sess.retx() > 0, "no retransmission was exercised");
        let snap = cluster.metrics().snapshot();
        assert_eq!(snap.counter("sockets.retransmits"), sess.retx());
        assert_eq!(snap.counter("fault.retries"), 0);
    }

    #[test]
    fn ecn_marks_flow_back_and_cut_the_rate() {
        let (sim, cluster) = setup(3);
        // Server's outbound link is the bottleneck: mark as soon as one
        // transmission is queued behind another.
        cluster.set_ecn_threshold(Some(1));
        let resp = Bytes::from(vec![0u8; 8192]);
        let srv = ErpcServer::spawn(&cluster, NodeId(2), 2, 8, 0, {
            let resp = resp.clone();
            Rc::new(move |_, _| resp.clone())
        });
        let mut muxes = Vec::new();
        let mut sessions = Vec::new();
        for node in 0..2u32 {
            let mux = ErpcMux::new(&cluster, NodeId(node), ErpcCfg::default());
            for i in 0..8u64 {
                sessions.push(mux.session(NodeId(2), srv.ports()[i as usize % 2], i));
            }
            muxes.push(mux);
        }
        let handles: Vec<_> = sessions
            .iter()
            .map(|s| {
                let s = s.clone();
                sim.spawn(async move {
                    for _ in 0..6 {
                        s.call(0, Bytes::from_static(b"req")).await;
                    }
                })
            })
            .collect();
        sim.run_to(async move {
            for h in handles {
                h.await;
            }
        });
        let marked: u64 = sessions.iter().map(|s| s.marks()).sum();
        assert!(marked > 0, "incast produced no ECN marks");
        assert!(cluster.ecn_marks() > 0);
    }

    /// `callers` clones of one session each make `calls` calls through a
    /// `window`-deep window, the session's first request numbered
    /// `first_seq`, 25 % of messages dropped when `lossy`; every call must
    /// get its own response back.
    fn concurrent_callers_all_complete(
        window: u32,
        callers: u8,
        calls: u8,
        lossy: bool,
        first_seq: u32,
    ) {
        let (sim, cluster) = setup(2);
        if lossy {
            cluster.install_faults(dc_fabric::FaultPlan::from_parts(
                9,
                vec![],
                vec![],
                vec![],
                0.25,
            ));
        }
        let srv = ErpcServer::spawn(&cluster, NodeId(1), 1, window, 0, Rc::new(|_, req| req));
        let mux = ErpcMux::new(
            &cluster,
            NodeId(0),
            ErpcCfg {
                window,
                rto_ns: 200_000,
            },
        );
        let sess = mux.session(NodeId(1), srv.ports()[0], 1);
        sess.s.next_seq.set(first_seq);
        let handles: Vec<_> = (0..callers)
            .map(|i| {
                let s = sess.clone();
                sim.spawn(async move {
                    for k in 0..calls {
                        let r = s.call(0, Bytes::from(vec![i, k])).await;
                        assert_eq!(&r[..], &[i, k], "caller {i} got another call's response");
                    }
                })
            })
            .collect();
        sim.run_to(async move {
            for h in handles {
                h.await;
            }
        });
        assert_eq!(sess.acks(), callers as u64 * calls as u64);
        assert!(sess.s.slots.iter().all(Slot::is_idle));
    }

    #[test]
    fn credit_waiter_does_not_steal_the_slot_of_an_untaken_response() {
        concurrent_callers_all_complete(1, 3, 1, false, 0);
    }

    #[test]
    fn eight_callers_share_a_two_deep_window() {
        concurrent_callers_all_complete(2, 8, 1, false, 0);
    }

    /// Drops complete requests out of order, so a returned credit no longer
    /// names the next sequence number's slot (`window = 2, 8`, fault seed 9:
    /// the pre-sliding-window `call` overwrote a busy slot and hung).
    #[test]
    fn shared_window_survives_out_of_order_completion_under_drops() {
        for window in [2, 8] {
            concurrent_callers_all_complete(window, 6, 20, true, 0);
        }
    }

    /// A session's 2,097,153rd request is numbered 0 again. The server's
    /// reply cache used to order sequence numbers as plain integers, so it
    /// discarded every post-wrap request as a stale duplicate of the slot's
    /// pre-wrap occupant and the sweeper gave up after `MAX_RETX` resends —
    /// on a clean fabric.
    #[test]
    fn session_survives_the_sequence_number_wrap() {
        let (sim, cluster) = setup(2);
        let srv = ErpcServer::spawn(&cluster, NodeId(1), 1, 4, 0, Rc::new(|_, req| req));
        let mux = ErpcMux::new(&cluster, NodeId(0), ErpcCfg::default());
        let sess = mux.session(NodeId(1), srv.ports()[0], 1);
        sess.s.next_seq.set(SEQ_MASK - 5);
        let s2 = sess.clone();
        sim.run_to(async move {
            for i in 0..12u8 {
                let r = s2.call(0, Bytes::from(vec![i; 8])).await;
                assert_eq!(&r[..], &[i; 8]);
            }
        });
        assert_eq!(sess.s.next_seq.get(), 6, "the run did not cross the wrap");
        assert_eq!((sess.acks(), sess.retx()), (12, 0));
    }

    #[test]
    fn sequence_order_is_serial_across_the_wrap() {
        assert!(seq_newer(1, 0) && !seq_newer(0, 1) && !seq_newer(7, 7));
        assert!(seq_newer(0, SEQ_MASK) && !seq_newer(SEQ_MASK, 0));
        assert!(seq_newer(2, SEQ_MASK - 3) && !seq_newer(SEQ_MASK - 3, 2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn window_that_does_not_divide_the_sequence_space_is_refused() {
        let (_sim, cluster) = setup(2);
        ErpcServer::spawn(&cluster, NodeId(1), 1, 3, 0, Rc::new(|_, req| req));
    }

    /// The wrap under drops: retransmits and reply-cache hits on both sides
    /// of it, with completions out of order.
    #[test]
    fn shared_window_survives_the_wrap_under_drops() {
        for window in [2, 8] {
            concurrent_callers_all_complete(window, 6, 20, true, SEQ_MASK - 50);
        }
    }
}
