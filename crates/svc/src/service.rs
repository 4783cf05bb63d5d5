//! Declarative service pump: bind, receive, charge, dispatch, reply.
//!
//! Every control-plane daemon in the stack is the same five-step loop; the
//! differences are data, not structure. [`ServiceSpec`] captures the knobs
//! (where to bind, what each request costs, whether requests serialize or
//! overlap), [`Dispatcher`] maps the leading opcode byte to an async
//! handler, and [`Service::spawn`] runs the one pump task that used to be
//! copy-pasted into ddss/dlm/coopcache/resmon.
//!
//! Determinism contract: with `queue_cap: None` and tracing disabled the
//! pump performs *exactly* the awaits of the legacy loops — `recv`, the
//! per-request cost, then the handler (inline or spawned) — in the same
//! order, so porting a daemon onto it is behavior-preserving down to the
//! executor's timer ordering. Metrics updates are synchronous and free.

use std::collections::VecDeque;

use dc_sim::fxhash::FxHashMap;
use std::future::Future;
use std::pin::Pin;

use dc_fabric::{Cluster, Message, NodeId};
use dc_trace::Subsys;

/// Simulated cost charged per request before its handler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// Dispatch immediately (e.g. a pure demultiplexer).
    None,
    /// Occupy the service node's CPU — competes round-robin with any other
    /// load on that node, like a daemon doing real work.
    Cpu(u64),
    /// Fixed processing delay off-CPU (e.g. NIC-level agent handling).
    Sleep(u64),
}

/// Whether requests serialize through the pump or overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The pump awaits each handler before receiving the next request; the
    /// service is a single-threaded server and queueing delay is real.
    Serial,
    /// Handler futures are spawned; requests overlap (e.g. a fetch service
    /// whose latency is dominated by per-request I/O, not the daemon).
    Concurrent,
}

/// Static description of one service endpoint.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Metric/span prefix: counters register as `svc.<name>.*`.
    pub name: &'static str,
    /// Trace subsystem lane for the request spans.
    pub subsys: Subsys,
    /// Node the service runs on.
    pub node: NodeId,
    /// Port to bind (allocate with [`Cluster::alloc_port_for`]).
    pub port: u16,
    /// Per-request cost charged before dispatch.
    pub cost: Cost,
    /// Serial or overlapping request processing.
    pub mode: Mode,
    /// Bounded request FIFO: arrivals beyond this backlog are shed (counted
    /// under `svc.<name>.shed`). `None` preserves the legacy unbounded
    /// mailbox — required wherever golden baselines pin behavior.
    pub queue_cap: Option<usize>,
}

/// Handler context: the cluster handle plus the service's own node.
#[derive(Clone)]
pub struct Ctx {
    /// The cluster the service runs in.
    pub cluster: Cluster,
    /// Node the service is bound on.
    pub node: NodeId,
}

type Handler = Box<dyn Fn(Ctx, Message) -> Pin<Box<dyn Future<Output = ()>>>>;

/// Routes each request to a per-opcode async handler.
///
/// The opcode is the request's first byte — the convention every
/// control-plane framing in this workspace already follows (DDSS ops, DLM
/// message tags). Services whose framing has no opcode byte (RPC-framed
/// single-method services) register only a [`Dispatcher::fallback`] handler,
/// which also serves as the explicit catch-all when opcodes are present.
#[derive(Default)]
pub struct Dispatcher {
    by_op: FxHashMap<u8, Handler>,
    fallback: Option<Handler>,
}

impl Dispatcher {
    /// An empty dispatcher; register handlers with [`Dispatcher::on`] /
    /// [`Dispatcher::fallback`].
    pub fn new() -> Dispatcher {
        Dispatcher::default()
    }

    /// Route requests whose first byte is `op` to `f`.
    pub fn on<F, Fut>(mut self, op: u8, f: F) -> Dispatcher
    where
        F: Fn(Ctx, Message) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let prev = self
            .by_op
            .insert(op, Box::new(move |ctx, msg| Box::pin(f(ctx, msg))));
        assert!(prev.is_none(), "duplicate handler for opcode {op}");
        self
    }

    /// Handle every request not matched by an [`Dispatcher::on`] opcode —
    /// the sole handler for services without an opcode byte.
    pub fn fallback<F, Fut>(mut self, f: F) -> Dispatcher
    where
        F: Fn(Ctx, Message) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        assert!(self.fallback.is_none(), "fallback handler already set");
        self.fallback = Some(Box::new(move |ctx, msg| Box::pin(f(ctx, msg))));
        self
    }

    fn route(&self, service: &str, msg: &Message) -> &Handler {
        if self.by_op.is_empty() {
            return self
                .fallback
                .as_ref()
                .unwrap_or_else(|| panic!("svc {service}: dispatcher has no handlers"));
        }
        let op = *msg
            .data
            .first()
            .unwrap_or_else(|| panic!("svc {service}: empty request has no opcode"));
        match self.by_op.get(&op) {
            Some(h) => h,
            None => self
                .fallback
                .as_ref()
                .unwrap_or_else(|| panic!("svc {service}: no handler for opcode {op}")),
        }
    }
}

/// A running service; construct with [`Service::spawn`].
pub struct Service;

impl Service {
    /// Bind `spec.port` on `spec.node` and spawn the pump task.
    ///
    /// Call this exactly where the legacy daemon called `cluster.bind` +
    /// `spawn`: the executor's determinism is sensitive to bind/spawn order
    /// during setup.
    pub fn spawn(cluster: &Cluster, spec: ServiceSpec, dispatcher: Dispatcher) {
        let mut ep = cluster.bind(spec.node, spec.port);
        let ctx = Ctx {
            cluster: cluster.clone(),
            node: spec.node,
        };
        let metrics = cluster.metrics();
        // One name buffer for all four registrations; swapping the suffix in
        // place keeps per-service spawn (hot in reconfiguration scenarios,
        // which respawn services on every migration) down to one allocation.
        let mut key = String::with_capacity("svc.".len() + spec.name.len() + 16);
        key.push_str("svc.");
        key.push_str(spec.name);
        let base = key.len();
        key.push_str(".requests");
        let requests = metrics.counter(&key);
        key.truncate(base);
        key.push_str(".shed");
        let shed = metrics.counter(&key);
        key.truncate(base);
        key.push_str(".queue_depth_hwm");
        let depth_hwm = metrics.gauge(&key);
        key.truncate(base);
        key.push_str(".busy_ns");
        let busy = metrics.counter(&key);
        key.truncate(base);
        key.push_str(".queue_wait_ns");
        // Streaming (constant-memory) backing: queue waits are recorded per
        // request on the hot path and no golden table pins their quantiles.
        let queue_wait = metrics.hist_streaming(&key);
        let cluster = cluster.clone();
        let sim = cluster.sim().clone();
        let sim2 = sim.clone();
        sim2.spawn(async move {
            let mut fifo: VecDeque<Message> = VecDeque::new();
            loop {
                let msg = match fifo.pop_front() {
                    Some(m) => m,
                    None => ep.recv().await,
                };
                if let Some(cap) = spec.queue_cap {
                    // Drain arrivals into the bounded FIFO; overflow is shed
                    // (newest dropped), mirroring an admission queue.
                    while let Some(m) = ep.try_recv() {
                        if fifo.len() < cap {
                            fifo.push_back(m);
                        } else {
                            shed.inc();
                        }
                    }
                }
                depth_hwm.set_max((fifo.len() + ep.queued()) as i64);
                // Queue wait: mailbox/FIFO residency from fabric delivery to
                // this dequeue. Recorded unconditionally (metrics are always
                // on); the span uses the explicit-bounds form, so tracing
                // stays schedule-neutral, and is gated here, before its
                // arguments are built, so the disabled path allocates nothing.
                let wait = sim.now().saturating_sub(msg.arrived_ns);
                queue_wait.record(wait);
                if wait > 0 && cluster.tracer().is_enabled() {
                    cluster.tracer().complete_at(
                        msg.arrived_ns,
                        wait,
                        spec.node.0,
                        spec.subsys,
                        "svc.queue",
                        vec![("stage", "queue".into()), ("svc", spec.name.into())],
                    );
                }
                let tc = match spec.cost {
                    Cost::None => None,
                    _ => cluster.tracer().begin(),
                };
                match spec.cost {
                    Cost::None => {}
                    Cost::Cpu(ns) => cluster.cpu(spec.node).execute(ns).await,
                    Cost::Sleep(ns) => sim.sleep(ns).await,
                }
                if let Some(tc) = tc {
                    cluster.tracer().complete(
                        tc,
                        spec.node.0,
                        spec.subsys,
                        "svc.cost",
                        vec![("stage", "cpu".into()), ("svc", spec.name.into())],
                    );
                }
                requests.inc();
                let t0 = cluster.tracer().begin();
                let start = sim.now();
                let fut = dispatcher.route(spec.name, &msg)(ctx.clone(), msg);
                match spec.mode {
                    Mode::Serial => {
                        fut.await;
                        busy.add(sim.now() - start);
                    }
                    Mode::Concurrent => {
                        // The handler future is already boxed; hand it to
                        // the executor as-is (no join state, no re-boxing).
                        sim.spawn_boxed(fut);
                    }
                }
                if let Some(t0) = t0 {
                    cluster.tracer().complete(
                        t0,
                        spec.node.0,
                        spec.subsys,
                        spec.name,
                        vec![("stage", "handler".into()), ("queue_ns", wait.into())],
                    );
                }
            }
        });
    }
}
