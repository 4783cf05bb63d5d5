//! The control-plane client: one way to make a request/response call.
//!
//! One [`SvcClient`] per calling entity multiplexes any number of
//! concurrent calls over a single bound port — each request carries that
//! port and a correlation id (see [`crate::request_imm`]), one pump task routes
//! responses back by id — so long experiments never exhaust the port space.
//! A [`CallPolicy`] (response deadline + whole-call retry budget) replaces
//! per-crate timeout copies.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;

use dc_fabric::{Cluster, NodeId, Transport};
use dc_sim::sync::Rendezvous;
use dc_sim::SimTime;

use crate::frame::{request_imm, REQ_HDR};

/// Default response deadline per attempt: generous enough for heavily
/// queued backends, but bounded so a lost response can never hang a caller
/// forever.
pub const DEFAULT_TIMEOUT_NS: SimTime = 500_000_000;

/// How a control call waits and retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallPolicy {
    /// Response deadline per attempt.
    pub timeout_ns: SimTime,
    /// Whole-call attempts before giving up (min 1). Each attempt re-sends
    /// the request; transport-level retransmits happen underneath.
    pub attempts: u32,
}

impl CallPolicy {
    /// One attempt with the given deadline — for callers that degrade on
    /// `None` instead of retrying (the DDSS control plane).
    pub fn one_shot(timeout_ns: SimTime) -> CallPolicy {
        CallPolicy {
            timeout_ns,
            attempts: 1,
        }
    }
}

impl Default for CallPolicy {
    /// Four back-to-back attempts at the default deadline.
    fn default() -> CallPolicy {
        CallPolicy {
            timeout_ns: DEFAULT_TIMEOUT_NS,
            attempts: 4,
        }
    }
}

/// State shared by a client's clones, its response pump and its in-flight
/// calls.
struct Shared {
    /// Calls awaiting a response, by correlation id.
    pending: Rendezvous<u64, Bytes>,
    next_id: Cell<u64>,
}

/// Correlation-id multiplexed client: any number of concurrent calls over
/// one bound port; clone freely.
#[derive(Clone)]
pub struct SvcClient {
    cluster: Cluster,
    node: NodeId,
    port: u16,
    shared: Rc<Shared>,
    policy: CallPolicy,
}

impl SvcClient {
    /// Client on `node` with the default policy (binds one port, spawns the
    /// response pump).
    pub fn new(cluster: &Cluster, node: NodeId) -> SvcClient {
        SvcClient::with_policy(cluster, node, CallPolicy::default())
    }

    /// Client on `node` with an explicit policy.
    pub fn with_policy(cluster: &Cluster, node: NodeId, policy: CallPolicy) -> SvcClient {
        let port = cluster.alloc_port_for(node, "svc.client");
        let mut ep = cluster.bind(node, port);
        let shared = Rc::new(Shared {
            pending: Rendezvous::new(),
            next_id: Cell::new(1),
        });
        let pump = Rc::clone(&shared);
        let orphans = cluster.metrics().counter("rpc.orphan_responses");
        cluster.sim().spawn_detached(async move {
            loop {
                let msg = ep.recv().await;
                // Response to a call that already timed out or whose future
                // was dropped: its pending slot is gone, so the payload has
                // no taker. Count it rather than losing the signal — a
                // climbing orphan rate means callers' response deadlines are
                // tighter than the servers they talk to.
                if !pump.pending.fulfil(msg.imm, msg.data) {
                    orphans.inc();
                }
            }
        });
        SvcClient {
            cluster: cluster.clone(),
            node,
            port,
            shared,
            policy,
        }
    }

    /// The node this client calls from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Calls currently awaiting a response (primarily for leak assertions).
    pub fn pending_calls(&self) -> usize {
        self.shared.pending.len()
    }

    /// One attempt against the policy deadline. The request travels over
    /// the reliable transport, so transient drops are retransmitted; `None`
    /// means the request could not be delivered within the transport retry
    /// budget or no response arrived in time. Both the request payload and
    /// the response reach their receivers as the sender's own buffer.
    async fn attempt(
        &self,
        to: NodeId,
        port: u16,
        payload: Bytes,
        transport: Transport,
    ) -> Option<Bytes> {
        let id = self.shared.next_id.get();
        self.shared.next_id.set(id + 1);
        // Parked before the request leaves. The wait owns the slot: every
        // exit path — send failure, response timeout, *and this future being
        // dropped mid-await* (a caller racing the call against its own
        // deadline) — evicts it, so the table cannot grow without bound under
        // sustained timeouts.
        let response = self.shared.pending.wait(id);
        let imm = request_imm(self.port, id);
        if self
            .cluster
            .send_reliable_imm(self.node, to, port, &payload, imm, REQ_HDR, transport)
            .await
            .is_err()
        {
            return None;
        }
        // A late response arrives with an unknown id; the pump counts it
        // under `rpc.orphan_responses`.
        let deadline = self.policy.timeout_ns;
        self.cluster.sim().timeout(deadline, response).await.ok()
    }

    /// Infallible call: retries per the policy, panics once the budget is
    /// exhausted. Use [`SvcClient::try_call`] where the caller can degrade.
    /// The borrowed payload is copied once (inline, allocation-free, when
    /// short); [`SvcClient::call_bytes`] skips even that.
    pub async fn call(&self, to: NodeId, port: u16, payload: &[u8], transport: Transport) -> Bytes {
        self.call_bytes(to, port, Bytes::copy_from_slice(payload), transport)
            .await
    }

    /// [`SvcClient::call`] taking an owned `Bytes` payload: the buffer
    /// crosses the fabric without being copied at all.
    pub async fn call_bytes(
        &self,
        to: NodeId,
        port: u16,
        payload: Bytes,
        transport: Transport,
    ) -> Bytes {
        for _ in 0..self.policy.attempts.max(1) {
            if let Some(resp) = self.attempt(to, port, payload.clone(), transport).await {
                return resp;
            }
        }
        panic!(
            "svc call to {to:?}:{port} failed: retry budget exhausted ({} attempts)",
            self.policy.attempts.max(1)
        );
    }

    /// Fallible call: one attempt against the policy deadline; `None` on
    /// non-delivery or timeout.
    pub async fn try_call(
        &self,
        to: NodeId,
        port: u16,
        payload: &[u8],
        transport: Transport,
    ) -> Option<Bytes> {
        self.attempt(to, port, Bytes::copy_from_slice(payload), transport)
            .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{parse_request, respond, respond_bytes};
    use dc_fabric::faults::CrashWindow;
    use dc_fabric::{FabricModel, FaultPlan};
    use dc_sim::time::{ms, secs};
    use dc_sim::Sim;

    fn setup(nodes: usize) -> (Sim, Cluster) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
        (sim, cluster)
    }

    /// Answers `echo:<payload>` after `delay_ns` of think time.
    fn echo_server(cluster: &Cluster, node: NodeId, delay_ns: u64) -> u16 {
        let port = cluster.alloc_port_for(node, "test.server");
        let mut ep = cluster.bind(node, port);
        let cl = cluster.clone();
        cluster.sim().clone().spawn(async move {
            loop {
                let msg = ep.recv().await;
                let req = parse_request(&msg);
                if delay_ns > 0 {
                    cl.sim().sleep(delay_ns).await;
                }
                let mut out = b"echo:".to_vec();
                out.extend_from_slice(&req.payload);
                respond(&cl, node, &req, &out, Transport::RdmaSend).await;
            }
        });
        port
    }

    /// Answers every request with (a clone of) one buffer.
    fn fixed_response_server(cluster: &Cluster, node: NodeId, resp: Bytes, tr: Transport) -> u16 {
        let port = cluster.alloc_port_for(node, "test.server");
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

    fn deadline_client(cluster: &Cluster, timeout_ns: SimTime) -> SvcClient {
        SvcClient::with_policy(cluster, NodeId(0), CallPolicy::one_shot(timeout_ns))
    }

    #[test]
    fn call_round_trips_on_both_transports() {
        for transport in [Transport::RdmaSend, Transport::Tcp] {
            let (sim, cluster) = setup(2);
            let port = echo_server(&cluster, NodeId(1), 0);
            let client = SvcClient::new(&cluster, NodeId(0));
            let resp =
                sim.run_to(async move { client.call(NodeId(1), port, b"hello", transport).await });
            assert_eq!(&resp[..], b"echo:hello");
        }
    }

    #[test]
    fn concurrent_calls_demultiplex_correctly() {
        let (sim, cluster) = setup(3);
        let p1 = echo_server(&cluster, NodeId(1), 0);
        let p2 = echo_server(&cluster, NodeId(2), 0);
        let client = SvcClient::new(&cluster, NodeId(0));
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
        let (sim, cluster) = setup(2);
        cluster.install_faults(FaultPlan::from_parts(11, vec![], vec![], vec![], 0.4));
        let port = echo_server(&cluster, NodeId(1), 0);
        let client = SvcClient::new(&cluster, NodeId(0));
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
    fn try_call_is_none_on_an_unreachable_server() {
        let (sim, cluster) = setup(2);
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
        let port = echo_server(&cluster, NodeId(1), 0);
        let client = deadline_client(&cluster, ms(1));
        let resp = sim.run_to(async move {
            client
                .try_call(NodeId(1), port, b"x", Transport::RdmaSend)
                .await
        });
        assert_eq!(resp, None);
    }

    #[test]
    fn late_response_counts_as_orphan_and_evicts_slot() {
        let (sim, cluster) = setup(2);
        // Server answers after 5 ms; caller gives up after 1 ms.
        let port = echo_server(&cluster, NodeId(1), ms(5));
        let client = deadline_client(&cluster, ms(1));
        let c2 = client.clone();
        let pending_after_timeout = sim.run_to(async move {
            let resp = c2
                .try_call(NodeId(1), port, b"x", Transport::RdmaSend)
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
        let (sim, cluster) = setup(2);
        let port = echo_server(&cluster, NodeId(1), ms(50));
        let client = deadline_client(&cluster, ms(500));
        let h = sim.handle();
        let pending = sim.run_to(async move {
            // Abandon the call long before its own generous deadline: the
            // dropped future must still clean up its pending entry.
            // Boxed, so the deadline owns the call and drops it on expiry.
            let call = Box::pin(client.try_call(NodeId(1), port, b"x", Transport::RdmaSend));
            let _ = h.timeout(ms(1), call).await;
            client.pending_calls()
        });
        assert_eq!(pending, 0, "dropped call future leaked a pending slot");
        sim.run();
        assert_eq!(cluster.metrics().counter("rpc.orphan_responses").get(), 1);
    }

    #[test]
    fn response_buffer_reaches_the_caller_uncopied() {
        let (sim, cluster) = setup(2);
        let resp = Bytes::from(vec![0xA5u8; 16 * 1024]);
        let port = fixed_response_server(&cluster, NodeId(1), resp.clone(), Transport::RdmaSend);
        let client = SvcClient::new(&cluster, NodeId(0));
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
        let (sim, cluster) = setup(2);
        let port = cluster.alloc_port_for(NodeId(1), "test.server");
        let mut ep = cluster.bind(NodeId(1), port);
        let client = deadline_client(&cluster, ms(1));
        let req = Bytes::from(vec![7u8; 4096]);
        let sent = req.clone();
        sim.spawn(async move {
            client
                .attempt(NodeId(1), port, sent, Transport::RdmaSend)
                .await
        });
        let seen = sim.run_to(async move { parse_request(&ep.recv().await) });
        assert_eq!(seen.payload.as_ptr(), req.as_ptr(), "request was copied");
        assert_eq!((seen.src, seen.id), (NodeId(0), 1));
    }

    #[test]
    fn retransmitted_response_shares_the_buffer() {
        let (sim, cluster) = setup(2);
        cluster.install_faults(FaultPlan::from_parts(11, vec![], vec![], vec![], 0.4));
        let resp = Bytes::from(vec![0x5Au8; 8 * 1024]);
        let port = fixed_response_server(&cluster, NodeId(1), resp.clone(), Transport::RdmaSend);
        let client = SvcClient::new(&cluster, NodeId(0));
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

    /// The gather send charges the header as wire bytes, so carrying it in
    /// the immediate word moves no virtual time: a backend-shaped fetch
    /// (4-byte request, 16 KiB response, host TCP both ways) completes at
    /// the nanosecond it did with prepended headers.
    #[test]
    fn backend_fetch_16k_finishes_at_the_pinned_virtual_time() {
        let (sim, cluster) = setup(2);
        let resp = Bytes::from(vec![1u8; 16 * 1024]);
        let port = fixed_response_server(&cluster, NodeId(1), resp, Transport::Tcp);
        let client = SvcClient::new(&cluster, NodeId(0));
        let h = sim.handle();
        let done = sim.run_to(async move {
            client
                .call(NodeId(1), port, &7u32.to_le_bytes(), Transport::Tcp)
                .await;
            h.now()
        });
        assert_eq!(done, 150_139);
    }
}
