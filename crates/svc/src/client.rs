//! Unified control-plane clients.
//!
//! Two call shapes cover every service in the stack, and both are driven by
//! one [`CallPolicy`] (response deadline + whole-call retry budget) instead
//! of per-crate `ctrl_timeout_ns` copies:
//!
//! * [`call_legacy`] — the DDSS substrate framing: `[op u8][reply-port
//!   u16le][body…]`, raw response on a fresh ephemeral reply port. One port
//!   per call; used where wire bytes are pinned by golden baselines.
//! * [`SvcClient`] — correlation-id multiplexed calls over a single bound
//!   port (the fabric [`RpcClient`]), for services speaking the RPC framing.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use bytes::Bytes;

use dc_fabric::rpc::{RpcClient, DEFAULT_TIMEOUT_NS};
use dc_fabric::{Cluster, NodeId, Transport};
use dc_sim::SimTime;
use dc_trace::Subsys;

/// A pluggable request/response transport under [`SvcClient`].
///
/// The classic lane is the correlation-id [`RpcClient`]; dc-sockets'
/// eRPC mux implements this trait to slide its zero-copy,
/// congestion-controlled sessions underneath the same call surface.
/// One attempt per invocation: `None` means non-delivery or deadline
/// exceeded, and the [`CallPolicy`] retry loop sits above.
pub trait RpcLane {
    /// Issue one request attempt to `(to, port)`.
    fn try_call(
        &self,
        to: NodeId,
        port: u16,
        payload: Bytes,
        timeout_ns: SimTime,
    ) -> Pin<Box<dyn Future<Output = Option<Bytes>>>>;
}

/// Which transport a [`SvcClient`] rides.
#[derive(Clone)]
enum Lane {
    /// The fabric [`RpcClient`] (correlation-id framing, one bound port).
    Classic(RpcClient),
    /// A custom [`RpcLane`] (e.g. the dc-sockets eRPC mux).
    Custom(Rc<dyn RpcLane>),
}

/// Tracer-gated retry-stage span around a between-attempts backoff sleep.
/// With tracing off this is exactly `sleep(ns)` — no extra awaits.
async fn backoff_traced(cluster: &Cluster, node: NodeId, ns: SimTime, attempt: u32) {
    let t0 = cluster.tracer().begin();
    cluster.sim().sleep(ns).await;
    if let Some(t0) = t0 {
        cluster.tracer().complete(
            t0,
            node.0,
            Subsys::App,
            "call.backoff",
            vec![
                ("stage", "retry".into()),
                ("attempt", (attempt as u64).into()),
            ],
        );
    }
}

/// How a control call waits and retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallPolicy {
    /// Response deadline per attempt.
    pub timeout_ns: SimTime,
    /// Whole-call attempts before giving up (min 1). Each attempt re-sends
    /// the request; transport-level retransmits happen underneath.
    pub attempts: u32,
    /// Pause between attempts; `0` retries immediately (and schedules no
    /// timer at all, preserving legacy executor timing).
    pub backoff_ns: SimTime,
}

impl CallPolicy {
    /// One attempt with the given deadline — the legacy daemons' behavior.
    pub fn one_shot(timeout_ns: SimTime) -> CallPolicy {
        CallPolicy {
            timeout_ns,
            attempts: 1,
            backoff_ns: 0,
        }
    }
}

impl Default for CallPolicy {
    /// Matches the historical `RpcClient::call` budget: four back-to-back
    /// attempts at the default deadline.
    fn default() -> CallPolicy {
        CallPolicy {
            timeout_ns: DEFAULT_TIMEOUT_NS,
            attempts: 4,
            backoff_ns: 0,
        }
    }
}

/// One-shot legacy-framed control call: allocate an ephemeral reply port,
/// send `[op][reply-port][body]` reliably, await the raw response.
///
/// `None` means the request could not be delivered within the transport
/// retry budget or no response arrived within the deadline on any attempt.
#[allow(clippy::too_many_arguments)] // mirrors the wire layout, all scalars
pub async fn call_legacy(
    cluster: &Cluster,
    from: NodeId,
    to: NodeId,
    port: u16,
    op: u8,
    body: &[u8],
    transport: Transport,
    policy: CallPolicy,
) -> Option<Bytes> {
    for attempt in 0..policy.attempts.max(1) {
        if attempt > 0 && policy.backoff_ns > 0 {
            backoff_traced(cluster, from, policy.backoff_ns, attempt).await;
        }
        let reply_port = cluster.alloc_port_for(from, "svc.reply");
        let mut ep = cluster.bind(from, reply_port);
        let mut req = Vec::with_capacity(3 + body.len());
        req.push(op);
        req.extend_from_slice(&reply_port.to_le_bytes());
        req.extend_from_slice(body);
        if cluster
            .send_reliable(from, to, port, Bytes::from(req), transport)
            .await
            .is_err()
        {
            continue;
        }
        if let Ok(msg) = cluster.sim().timeout(policy.timeout_ns, ep.recv()).await {
            return Some(msg.data);
        }
    }
    None
}

/// Correlation-id multiplexed client: any number of concurrent calls over
/// one bound port. Thin policy-carrying wrapper over the fabric
/// [`RpcClient`]; clone freely.
#[derive(Clone)]
pub struct SvcClient {
    cluster: Cluster,
    node: NodeId,
    lane: Lane,
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
        SvcClient {
            cluster: cluster.clone(),
            node,
            lane: Lane::Classic(RpcClient::new(cluster, node)),
            policy,
        }
    }

    /// Client on `node` riding a custom [`RpcLane`] instead of the classic
    /// correlation-id RPC port. The policy's retry loop still applies on
    /// top of whatever recovery the lane does internally.
    pub fn with_lane(
        cluster: &Cluster,
        node: NodeId,
        policy: CallPolicy,
        lane: Rc<dyn RpcLane>,
    ) -> SvcClient {
        SvcClient {
            cluster: cluster.clone(),
            node,
            lane: Lane::Custom(lane),
            policy,
        }
    }

    /// The node this client calls from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// One attempt on whichever lane is installed; the payload buffer is
    /// handed to the lane as is.
    async fn attempt(
        &self,
        to: NodeId,
        port: u16,
        payload: Bytes,
        transport: Transport,
    ) -> Option<Bytes> {
        match &self.lane {
            Lane::Classic(rpc) => {
                rpc.try_call_bytes(to, port, payload, transport, self.policy.timeout_ns)
                    .await
            }
            Lane::Custom(lane) => {
                lane.try_call(to, port, payload, self.policy.timeout_ns)
                    .await
            }
        }
    }

    /// Infallible call: retries per the policy, panics once the budget is
    /// exhausted. Use [`SvcClient::try_call`] where the caller can degrade.
    /// The borrowed payload is copied once (inline, allocation-free, when
    /// short); [`SvcClient::call_bytes`] skips even that.
    pub async fn call(&self, to: NodeId, port: u16, payload: &[u8], transport: Transport) -> Bytes {
        self.call_bytes(to, port, Bytes::copy_from_slice(payload), transport)
            .await
    }

    /// [`SvcClient::call`] taking an owned `Bytes` payload: on either lane
    /// the buffer crosses the fabric without being copied at all.
    pub async fn call_bytes(
        &self,
        to: NodeId,
        port: u16,
        payload: Bytes,
        transport: Transport,
    ) -> Bytes {
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 && self.policy.backoff_ns > 0 {
                backoff_traced(&self.cluster, self.node, self.policy.backoff_ns, attempt).await;
            }
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

    /// [`SvcClient::try_call`] taking an owned `Bytes` payload.
    pub async fn try_call_bytes(
        &self,
        to: NodeId,
        port: u16,
        payload: Bytes,
        transport: Transport,
    ) -> Option<Bytes> {
        self.attempt(to, port, payload, transport).await
    }
}
