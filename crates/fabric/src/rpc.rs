//! Minimal request/response plumbing over send/recv.
//!
//! Control-plane daemons (backend fetch service, cache reserve service,
//! monitoring daemons) speak RPC: a request carries the caller's reply port
//! and a correlation id, the response echoes the id. One [`RpcClient`] per
//! calling entity multiplexes any number of concurrent calls over a single
//! bound port, so long experiments never exhaust the port space.
//!
//! Framing is a gather send: the correlation header rides
//! [`Message::imm`] and the payload `Bytes` crosses the fabric as the same
//! refcounted buffer the sender handed in. The header still costs its 10
//! (request) or 8 (response) bytes on the wire, as if it were prepended
//! (see [`Cluster::try_send_imm_ref`]).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use dc_sim::fxhash::FxHashMap;

use crate::cluster::{Cluster, Message, NodeId, Transport};
use crate::faults::RetryPolicy;

/// Wire bytes of a request header: reply port + correlation id.
const REQ_HDR: usize = 2 + 8;
/// Wire bytes of a response header: correlation id.
const RESP_HDR: usize = 8;

/// Correlation ids share the request's immediate word with the reply port.
const ID_BITS: u32 = 48;

/// Pack a request header into its immediate word: `[reply_port:16|id:48]`.
/// A response's word is the bare id.
///
/// Panics if `id` needs more than 48 bits — at one call per simulated
/// nanosecond that is three days of virtual time on one client.
pub fn request_imm(reply_port: u16, id: u64) -> u64 {
    assert!(
        id < 1 << ID_BITS,
        "rpc correlation id {id} does not fit the 48-bit header field"
    );
    u64::from(reply_port) << ID_BITS | id
}

/// Inverse of [`request_imm`]: `(reply_port, id)`.
pub fn split_request_imm(imm: u64) -> (u16, u64) {
    ((imm >> ID_BITS) as u16, imm & ((1 << ID_BITS) - 1))
}

type Pending = Rc<RefCell<FxHashMap<u64, dc_sim::sync::OneSender<Bytes>>>>;

/// Client side: issues calls and routes responses by correlation id.
#[derive(Clone)]
pub struct RpcClient {
    cluster: Cluster,
    node: NodeId,
    port: u16,
    pending: Pending,
    next_id: Rc<Cell<u64>>,
}

impl RpcClient {
    /// Create a client on `node` (binds one port and spawns the response
    /// pump).
    pub fn new(cluster: &Cluster, node: NodeId) -> RpcClient {
        let port = cluster.alloc_port_for(node, "rpc.client");
        let mut ep = cluster.bind(node, port);
        let pending = Pending::default();
        let pending2 = Rc::clone(&pending);
        let orphans = cluster.metrics().counter("rpc.orphan_responses");
        cluster.sim().spawn_detached(async move {
            loop {
                let msg = ep.recv().await;
                if let Some(tx) = pending2.borrow_mut().remove(&msg.imm) {
                    tx.send(msg.data);
                } else {
                    // Response to a call that already timed out or whose
                    // future was dropped: its pending slot is gone, so the
                    // payload has no taker. Count it rather than losing the
                    // signal — a climbing orphan rate means callers' response
                    // deadlines are tighter than the servers they talk to.
                    orphans.inc();
                }
            }
        });
        RpcClient {
            cluster: cluster.clone(),
            node,
            port,
            pending,
            next_id: Rc::new(Cell::new(1)),
        }
    }

    /// The node this client calls from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The cluster this client sends through.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Call `(to, port)` with `payload`; resolves with the response payload.
    ///
    /// Infallible wrapper over [`RpcClient::try_call`]: retries the whole
    /// call a few times on timeout/unreachability and panics once the budget
    /// is exhausted. Callers that can degrade (e.g. fall back to a slower
    /// path) should use `try_call` directly.
    pub async fn call(&self, to: NodeId, port: u16, payload: &[u8], transport: Transport) -> Bytes {
        const CALL_ATTEMPTS: u32 = 4;
        let payload = Bytes::copy_from_slice(payload);
        for _ in 0..CALL_ATTEMPTS {
            if let Some(resp) = self
                .try_call_bytes(to, port, payload.clone(), transport, DEFAULT_TIMEOUT_NS)
                .await
            {
                return resp;
            }
        }
        panic!("rpc call to {to:?}:{port} failed: retry budget exhausted");
    }

    /// [`RpcClient::try_call_bytes`] from a borrowed payload (copied once;
    /// short payloads are stored inline, without an allocation).
    pub async fn try_call(
        &self,
        to: NodeId,
        port: u16,
        payload: &[u8],
        transport: Transport,
        timeout_ns: dc_sim::SimTime,
    ) -> Option<Bytes> {
        self.try_call_bytes(
            to,
            port,
            Bytes::copy_from_slice(payload),
            transport,
            timeout_ns,
        )
        .await
    }

    /// Fallible call with a response deadline. The request travels over
    /// the reliable transport, so transient drops are retransmitted;
    /// `None` means the request could not be delivered within the transport
    /// retry budget or no response arrived within `timeout_ns`. Both the
    /// request payload and the response reach their receivers as the
    /// sender's own buffer.
    pub async fn try_call_bytes(
        &self,
        to: NodeId,
        port: u16,
        payload: Bytes,
        transport: Transport,
        timeout_ns: dc_sim::SimTime,
    ) -> Option<Bytes> {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let (tx, rx) = dc_sim::sync::oneshot();
        self.pending.borrow_mut().insert(id, tx);
        // Guard, not manual removes: every exit path — send failure, response
        // timeout, *and this future being dropped mid-await* (a caller racing
        // the call against its own deadline) — evicts the pending slot, so the
        // map cannot grow without bound under sustained timeouts.
        let _guard = PendingGuard {
            pending: Rc::clone(&self.pending),
            id,
        };
        let imm = request_imm(self.port, id);
        let policy = RetryPolicy::default();
        if self
            .cluster
            .send_reliable_imm(
                self.node, to, port, &payload, imm, REQ_HDR, transport, policy,
            )
            .await
            .is_err()
        {
            return None;
        }
        match self.cluster.sim().timeout(timeout_ns, rx).await {
            Ok(resp) => Some(resp.expect("rpc response channel closed")),
            // A late response arrives with an unknown id; the pump counts it
            // under `rpc.orphan_responses`.
            Err(_) => None,
        }
    }

    /// Calls currently awaiting a response (primarily for leak assertions).
    pub fn pending_calls(&self) -> usize {
        self.pending.borrow().len()
    }
}

/// Evicts a call's pending slot when the call completes or is abandoned.
struct PendingGuard {
    pending: Pending,
    id: u64,
}

impl Drop for PendingGuard {
    fn drop(&mut self) {
        self.pending.borrow_mut().remove(&self.id);
    }
}

/// Default response deadline for [`RpcClient::call`]: generous enough for
/// heavily queued backends, but bounded so a lost response can never hang a
/// caller forever.
pub const DEFAULT_TIMEOUT_NS: dc_sim::SimTime = 500_000_000;

/// A parsed incoming request, ready to be answered with [`respond`].
#[derive(Debug, Clone)]
pub struct RpcRequest {
    /// Caller node.
    pub src: NodeId,
    /// Caller's reply port.
    pub reply_port: u16,
    /// Correlation id to echo.
    pub id: u64,
    /// Request payload.
    pub payload: Bytes,
}

/// Parse a message received on a server port into an [`RpcRequest`].
pub fn parse_request(msg: &Message) -> RpcRequest {
    let (reply_port, id) = split_request_imm(msg.imm);
    RpcRequest {
        src: msg.src,
        reply_port,
        id,
        payload: msg.data.clone(),
    }
}

/// Send `payload` back to the requester. Uses the reliable transport so a
/// transient drop cannot orphan the caller; if the requester stays down past
/// the retry budget the response is abandoned (the caller's own timeout
/// handles it).
pub async fn respond(
    cluster: &Cluster,
    server: NodeId,
    req: &RpcRequest,
    payload: &[u8],
    transport: Transport,
) {
    respond_bytes(
        cluster,
        server,
        req,
        Bytes::copy_from_slice(payload),
        transport,
    )
    .await;
}

/// [`respond`] with an owned payload: the caller receives this very buffer
/// (retransmissions included), never a copy.
pub async fn respond_bytes(
    cluster: &Cluster,
    server: NodeId,
    req: &RpcRequest,
    payload: Bytes,
    transport: Transport,
) {
    let policy = RetryPolicy::default();
    let _ = cluster
        .send_reliable_imm(
            server,
            req.src,
            req.reply_port,
            &payload,
            req.id,
            RESP_HDR,
            transport,
            policy,
        )
        .await;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FabricModel;
    use dc_sim::Sim;

    fn echo_server(cluster: &Cluster, node: NodeId) -> u16 {
        let port = cluster.alloc_port();
        let mut ep = cluster.bind(node, port);
        let cl = cluster.clone();
        cluster.sim().clone().spawn(async move {
            loop {
                let msg = ep.recv().await;
                let req = parse_request(&msg);
                let mut out = b"echo:".to_vec();
                out.extend_from_slice(&req.payload);
                respond(&cl, node, &req, &out, Transport::RdmaSend).await;
            }
        });
        port
    }

    #[test]
    fn call_round_trips() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let port = echo_server(&cluster, NodeId(1));
        let client = RpcClient::new(&cluster, NodeId(0));
        let resp = sim.run_to(async move {
            client
                .call(NodeId(1), port, b"hello", Transport::RdmaSend)
                .await
        });
        assert_eq!(&resp[..], b"echo:hello");
    }

    #[test]
    fn concurrent_calls_demultiplex_correctly() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 3);
        let p1 = echo_server(&cluster, NodeId(1));
        let p2 = echo_server(&cluster, NodeId(2));
        let client = RpcClient::new(&cluster, NodeId(0));
        let mut joins = Vec::new();
        for i in 0..10u8 {
            let c = client.clone();
            let (to, port) = if i % 2 == 0 {
                (NodeId(1), p1)
            } else {
                (NodeId(2), p2)
            };
            joins.push(sim.spawn(async move {
                let resp = c.call(to, port, &[i], Transport::RdmaSend).await;
                (i, resp)
            }));
        }
        sim.run();
        for j in joins {
            let (i, resp) = j.try_take().unwrap();
            assert_eq!(&resp[..], &[b'e', b'c', b'h', b'o', b':', i]);
        }
    }

    #[test]
    fn calls_survive_heavy_message_drop() {
        use crate::faults::FaultPlan;
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        cluster.install_faults(FaultPlan::from_parts(11, vec![], vec![], vec![], 0.4));
        let port = echo_server(&cluster, NodeId(1));
        let client = RpcClient::new(&cluster, NodeId(0));
        let resps = sim.run_to(async move {
            let mut out = Vec::new();
            for i in 0..10u8 {
                out.push(
                    client
                        .call(NodeId(1), port, &[i], Transport::RdmaSend)
                        .await,
                );
            }
            out
        });
        for (i, r) in resps.iter().enumerate() {
            assert_eq!(&r[..], &[b'e', b'c', b'h', b'o', b':', i as u8]);
        }
        assert!(cluster.fault_stats().dropped_msgs > 0);
    }

    #[test]
    fn try_call_times_out_on_unreachable_server() {
        use crate::faults::{CrashWindow, FaultPlan};
        use dc_sim::time::secs;
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        // Server down for the whole experiment: past any retry budget.
        cluster.install_faults(FaultPlan::from_parts(
            0,
            vec![CrashWindow {
                node: NodeId(1),
                start: 0,
                end: secs(3600),
            }],
            vec![],
            vec![],
            0.0,
        ));
        let port = echo_server(&cluster, NodeId(1));
        let client = RpcClient::new(&cluster, NodeId(0));
        let resp = sim.run_to(async move {
            client
                .try_call(NodeId(1), port, b"x", Transport::RdmaSend, 1_000_000)
                .await
        });
        assert_eq!(resp, None);
    }

    /// A server that answers every request after a fixed think time.
    fn slow_echo_server(cluster: &Cluster, node: NodeId, delay_ns: u64) -> u16 {
        let port = cluster.alloc_port();
        let mut ep = cluster.bind(node, port);
        let cl = cluster.clone();
        cluster.sim().clone().spawn(async move {
            loop {
                let msg = ep.recv().await;
                let req = parse_request(&msg);
                cl.sim().sleep(delay_ns).await;
                let payload = req.payload.clone();
                respond(&cl, node, &req, &payload[..], Transport::RdmaSend).await;
            }
        });
        port
    }

    #[test]
    fn late_response_counts_as_orphan_and_evicts_slot() {
        use dc_sim::time::ms;
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        // Server answers after 5 ms; caller gives up after 1 ms.
        let port = slow_echo_server(&cluster, NodeId(1), ms(5));
        let client = RpcClient::new(&cluster, NodeId(0));
        let c2 = client.clone();
        let pending_after_timeout = sim.run_to(async move {
            let resp = c2
                .try_call(NodeId(1), port, b"x", Transport::RdmaSend, ms(1))
                .await;
            assert_eq!(resp, None);
            c2.pending_calls()
        });
        assert_eq!(
            pending_after_timeout, 0,
            "timed-out call must evict its slot"
        );
        // Let the late response land: it must be counted, not silently lost.
        sim.run();
        assert_eq!(cluster.metrics().counter("rpc.orphan_responses").get(), 1);
        assert_eq!(client.pending_calls(), 0);
    }

    #[test]
    fn abandoned_call_future_evicts_pending_slot() {
        use dc_sim::time::ms;
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let port = slow_echo_server(&cluster, NodeId(1), ms(50));
        let client = RpcClient::new(&cluster, NodeId(0));
        let c2 = client.clone();
        let h = sim.handle();
        let pending = sim.run_to(async move {
            // Abandon the call long before its own generous deadline: the
            // dropped future must still clean up its pending entry.
            let call = c2.try_call(NodeId(1), port, b"x", Transport::RdmaSend, ms(500));
            let _ = h.timeout(ms(1), call).await;
            c2.pending_calls()
        });
        assert_eq!(pending, 0, "dropped call future leaked a pending slot");
        sim.run();
        assert_eq!(cluster.metrics().counter("rpc.orphan_responses").get(), 1);
    }

    /// A server that answers every request with (a clone of) one buffer.
    fn fixed_response_server(cluster: &Cluster, node: NodeId, resp: Bytes, tr: Transport) -> u16 {
        let port = cluster.alloc_port();
        let mut ep = cluster.bind(node, port);
        let cl = cluster.clone();
        cluster.sim().clone().spawn(async move {
            loop {
                let msg = ep.recv().await;
                let req = parse_request(&msg);
                respond_bytes(&cl, node, &req, resp.clone(), tr).await;
            }
        });
        port
    }

    #[test]
    fn response_buffer_reaches_the_caller_uncopied() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let resp = Bytes::from(vec![0xA5u8; 16 * 1024]);
        let port = fixed_response_server(&cluster, NodeId(1), resp.clone(), Transport::RdmaSend);
        let client = RpcClient::new(&cluster, NodeId(0));
        let got = sim.run_to(async move {
            client
                .call(NodeId(1), port, b"doc", Transport::RdmaSend)
                .await
        });
        assert_eq!(got.len(), resp.len());
        assert_eq!(got.as_ptr(), resp.as_ptr(), "response payload was copied");
    }

    #[test]
    fn request_buffer_reaches_the_handler_uncopied() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let port = cluster.alloc_port();
        let mut ep = cluster.bind(NodeId(1), port);
        let client = RpcClient::new(&cluster, NodeId(0));
        let req = Bytes::from(vec![7u8; 4096]);
        let sent = req.clone();
        sim.spawn(async move {
            client
                .try_call_bytes(NodeId(1), port, sent, Transport::RdmaSend, 1_000_000)
                .await
        });
        let seen = sim.run_to(async move { parse_request(&ep.recv().await) });
        assert_eq!(seen.payload.as_ptr(), req.as_ptr(), "request was copied");
        assert_eq!((seen.src, seen.id), (NodeId(0), 1));
    }

    #[test]
    fn retransmitted_response_shares_the_buffer() {
        use crate::faults::FaultPlan;
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        cluster.install_faults(FaultPlan::from_parts(11, vec![], vec![], vec![], 0.4));
        let resp = Bytes::from(vec![0x5Au8; 8 * 1024]);
        let port = fixed_response_server(&cluster, NodeId(1), resp.clone(), Transport::RdmaSend);
        let client = RpcClient::new(&cluster, NodeId(0));
        let got = sim.run_to(async move {
            let mut out = Vec::new();
            for _ in 0..10 {
                out.push(
                    client
                        .call(NodeId(1), port, b"doc", Transport::RdmaSend)
                        .await,
                );
            }
            out
        });
        // With 40 % loss over 20 messages some were re-posted; whichever
        // attempt got through delivered the server's own buffer.
        assert!(cluster.fault_stats().dropped_msgs > 0);
        assert!(cluster.fault_stats().retries > 0);
        for r in &got {
            assert_eq!(r.as_ptr(), resp.as_ptr(), "a retransmission copied");
        }
    }

    /// The gather send charges the header as wire bytes, so moving it from
    /// the payload to the immediate word moves no virtual time: a backend-
    /// shaped fetch (4-byte request, 16 KiB response, host TCP both ways)
    /// completes at the nanosecond it did with prepended headers.
    #[test]
    fn backend_fetch_16k_finishes_at_the_pinned_virtual_time() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let resp = Bytes::from(vec![1u8; 16 * 1024]);
        let port = fixed_response_server(&cluster, NodeId(1), resp, Transport::Tcp);
        let client = RpcClient::new(&cluster, NodeId(0));
        let h = sim.handle();
        let done = sim.run_to(async move {
            client
                .call(NodeId(1), port, &7u32.to_le_bytes(), Transport::Tcp)
                .await;
            h.now()
        });
        assert_eq!(done, 150_139);
    }
    #[test]
    fn tcp_transport_works_for_rpc() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let port = echo_server(&cluster, NodeId(1));
        let client = RpcClient::new(&cluster, NodeId(0));
        let resp =
            sim.run_to(async move { client.call(NodeId(1), port, b"x", Transport::Tcp).await });
        assert_eq!(&resp[..], b"echo:x");
    }
}
