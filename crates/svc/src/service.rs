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
use std::future::Future;
use std::rc::Rc;

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

/// A [`Dispatcher`]'s routing chain. Each registration wraps the chain so
/// far in a [`Layer`] generic over its handler, so a routed request — key
/// compare by key compare, down to the handler's own future — is one concrete
/// `async` state machine: nothing is boxed per request.
pub trait Route: 'static {
    /// Whether a handler is registered under `key`: `Some(op)` by
    /// [`Dispatcher::on`], `None` by [`Dispatcher::fallback`].
    fn claims(&self, key: Option<u8>) -> bool;

    /// Run the handler for a request whose first byte is `op` (`None`: it is
    /// empty) to completion. The pump has checked that one takes it.
    fn handle(&self, op: Option<u8>, ctx: Ctx, msg: Message) -> impl Future<Output = ()>;
}

/// The empty chain.
#[derive(Default)]
pub struct NoRoute;

impl Route for NoRoute {
    fn claims(&self, _key: Option<u8>) -> bool {
        false
    }

    async fn handle(&self, op: Option<u8>, _ctx: Ctx, _msg: Message) {
        unreachable!("request with opcode {op:?} routed past every handler");
    }
}

/// One registration on top of the chain `prev`.
pub struct Layer<F, P> {
    key: Option<u8>,
    f: F,
    prev: P,
}

impl<F, Fut, P> Route for Layer<F, P>
where
    F: Fn(Ctx, Message) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
    P: Route,
{
    fn claims(&self, key: Option<u8>) -> bool {
        key == self.key || self.prev.claims(key)
    }

    async fn handle(&self, op: Option<u8>, ctx: Ctx, msg: Message) {
        // An opcode layer takes its own opcode; the fallback takes what no
        // opcode layer below it claims, whatever the registration order.
        let mine = match self.key {
            Some(_) => op == self.key,
            None => op.is_none() || !self.prev.claims(op),
        };
        if mine {
            (self.f)(ctx, msg).await
        } else {
            self.prev.handle(op, ctx, msg).await
        }
    }
}

/// Routes each request to a per-opcode async handler.
///
/// The opcode is the request's first byte — the convention every
/// control-plane framing in this workspace already follows (DDSS ops, DLM
/// message tags). Services whose framing has no opcode byte (RPC-framed
/// single-method services) register only a [`Dispatcher::fallback`] handler,
/// which also serves as the explicit catch-all when opcodes are present.
#[derive(Default)]
pub struct Dispatcher<R = NoRoute> {
    route: R,
}

impl Dispatcher {
    /// An empty dispatcher; register handlers with [`Dispatcher::on`] /
    /// [`Dispatcher::fallback`].
    pub fn new() -> Dispatcher {
        Dispatcher::default()
    }
}

impl<R: Route> Dispatcher<R> {
    /// Route requests whose first byte is `op` to `f`.
    pub fn on<F, Fut>(self, op: u8, f: F) -> Dispatcher<Layer<F, R>>
    where
        F: Fn(Ctx, Message) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let (key, prev) = (Some(op), self.route);
        assert!(!prev.claims(key), "duplicate handler for opcode {op}");
        let route = Layer { key, f, prev };
        Dispatcher { route }
    }

    /// Handle every request not matched by an [`Dispatcher::on`] opcode —
    /// the sole handler for services without an opcode byte.
    pub fn fallback<F, Fut>(self, f: F) -> Dispatcher<Layer<F, R>>
    where
        F: Fn(Ctx, Message) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let (key, prev) = (None, self.route);
        assert!(!prev.claims(key), "fallback handler already set");
        let route = Layer { key, f, prev };
        Dispatcher { route }
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
    pub fn spawn<R: Route>(cluster: &Cluster, spec: ServiceSpec, dispatcher: Dispatcher<R>) {
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
        let queue_wait = metrics.hist(&key);
        // Shared, not owned by the pump, so a Concurrent handler task can
        // keep the route it runs on alive.
        let route = Rc::new(dispatcher.route);
        let cluster = cluster.clone();
        let sim = cluster.sim().clone();
        let sim2 = sim.clone();
        sim2.spawn_detached(async move {
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
                let (op, ctx) = (msg.data.first().copied(), ctx.clone());
                assert!(
                    route.claims(op) || route.claims(None),
                    "svc {}: no handler for opcode {op:?}",
                    spec.name
                );
                match spec.mode {
                    // Awaited in place: the handler's state lives inside
                    // this pump's own future.
                    Mode::Serial => {
                        route.handle(op, ctx, msg).await;
                        busy.add(sim.now() - start);
                    }
                    // The one allocation of a request: its handler task (no
                    // join state).
                    Mode::Concurrent => {
                        let route = Rc::clone(&route);
                        sim.spawn_detached(async move { route.handle(op, ctx, msg).await });
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
