//! The manager skeleton all six lock designs stand on.
//!
//! The designs are one family — one-sided CAS/FAA verbs (or, for SRSL,
//! messages) over a 64-bit word homed on one node — and differ only in word
//! encoding and hand-off protocol. Everything else lives here, once:
//!
//! 1. Where lock words live: a [`dc_fabric::WordTable`] on the home node,
//!    word `lock` (the encodings are the designs', in `word.rs`).
//! 2. [`Members`] — how a node's agent is addressed: node → ([`Member`]
//!    state, port), and the one `T_GRANT` listener that closes the
//!    `lock.grant` flow arrow and wakes the parked requester.
//! 3. [`Manager::post`] and its siblings — how a one-way protocol message
//!    leaves a node: after the issue delay, on the reliable transport, fatal
//!    on budget exhaustion (a lost grant orphans its waiter forever). The
//!    forms differ in who pays the issue delay, because the designs do.
//! 4. [`Manager::begin_acquire`] / [`Manager::acquired`] /
//!    [`Manager::released`] — what an acquire and a release record:
//!    `dlm.lock_acquires`, `dlm.lock_wait_ns`, the `lock.acquire` span and
//!    the `lock.release` instant. A design passes only its extra span
//!    arguments, as a closure, so nothing is built with the tracer off.
//! 5. [`Manager::spawn_home`] / [`Members::add`] — the one `ServiceSpec`
//!    every agent, home and server service uses.
//! 6. [`Manager::batch`] / [`Manager::recycle`] — where a design gets the
//!    vector its outgoing messages travel in: a pool of emptied [`Batch`]es,
//!    as large as the most batches ever alive at once, so a hand-off in
//!    steady state allocates nothing.
//!
//! A design file holds only its protocol: word decode, message handlers,
//! state machine and its own counters.

use std::cell::RefCell;
use std::collections::HashMap;
use std::future::Future;
use std::rc::Rc;

use dc_fabric::{Cluster, FabricError, NodeId, Transport};
use dc_sim::sync::Rendezvous;
use dc_sim::SimTime;
use dc_svc::{Cost, Ctx, Dispatcher, Mode, Route, Service, ServiceSpec, Wire};
use dc_trace::{ArgVal, Counter, HistHandle, Subsys};

use crate::config::DlmConfig;
use crate::msg::{grant_flow_id, DlmMsg, LockId, T_GRANT};

/// Spawn a DLM agent, home or server service: serial, unbounded mailbox.
fn spawn_service(
    cluster: &Cluster,
    name: &'static str,
    node: NodeId,
    port: u16,
    cost: Cost,
    dispatcher: Dispatcher<impl Route>,
) {
    let spec = ServiceSpec {
        name,
        subsys: Subsys::Dlm,
        node,
        port,
        cost,
        mode: Mode::Serial,
        queue_cap: None,
    };
    Service::spawn(cluster, spec, dispatcher);
}

/// One member node: its agent's address, the requests parked on it, and the
/// design's per-node protocol state `S`.
pub(crate) struct Member<S> {
    pub(crate) node: NodeId,
    pub(crate) port: u16,
    /// Outstanding requests of processes on this node, by lock; the grant
    /// listener serves them.
    parked: Rendezvous<LockId, ()>,
    /// This node's next request for a lock whose hand-off its agent still
    /// owes (a queue design's release that found its successor's request
    /// in flight), by lock; the agent wakes it once the lock is passed on.
    owed: Rendezvous<LockId, ()>,
    pub(crate) state: S,
}

impl<S> Member<S> {
    /// Park this node's request for `lock`; the returned future resolves
    /// when the grant arrives. One outstanding request per `(node, lock)`:
    /// a concurrent second one panics on the occupied key.
    pub(crate) fn park(&self, lock: LockId) -> impl Future<Output = ()> + '_ {
        self.parked.wait(lock)
    }

    /// Whether a request for `lock` is parked on this node.
    pub(crate) fn is_parked(&self, lock: LockId) -> bool {
        self.parked.contains(lock)
    }

    /// Wait until this node's agent has handed `lock` on. A queue design's
    /// request waits here before it enqueues again, so no tail word names
    /// the node twice.
    pub(crate) fn await_handoff(&self, lock: LockId) -> impl Future<Output = ()> + '_ {
        self.owed.wait(lock)
    }

    /// The agent has handed `lock` on: wake the request waiting for that.
    pub(crate) fn handed_off(&self, lock: LockId) {
        self.owed.fulfil(lock, ());
    }
}

/// Membership of the agent-based designs, plus what every grant records.
pub(crate) struct Members<S> {
    cluster: Cluster,
    map: RefCell<HashMap<NodeId, Rc<Member<S>>>>,
    grants: Counter,
}

impl<S: 'static> Members<S> {
    pub(crate) fn new(cluster: &Cluster) -> Members<S> {
        Members {
            cluster: cluster.clone(),
            map: RefCell::new(HashMap::new()),
            grants: cluster.metrics().counter("dlm.grants"),
        }
    }

    /// Register `node` and spawn its agent service `name`: the design's
    /// `handlers` plus the grant listener.
    pub(crate) fn add<R: Route>(
        &self,
        node: NodeId,
        name: &'static str,
        cost: Cost,
        state: S,
        handlers: impl FnOnce(&Rc<Member<S>>) -> Dispatcher<R>,
    ) {
        let port = self.cluster.alloc_port_for(node, name);
        let member = Rc::new(Member {
            node,
            port,
            parked: Rendezvous::new(),
            owed: Rendezvous::new(),
            state,
        });
        let prev = self.map.borrow_mut().insert(node, Rc::clone(&member));
        assert!(prev.is_none(), "{node:?} is already a DLM member");
        let dispatcher = handlers(&member).on(T_GRANT, move |ctx: Ctx, msg| {
            let member = Rc::clone(&member);
            async move {
                let DlmMsg::Grant { lock, .. } = DlmMsg::parse(&msg.data) else {
                    unreachable!("tag-routed");
                };
                ctx.cluster.tracer().flow_end(
                    grant_flow_id(lock, member.node),
                    member.node.0,
                    Subsys::Dlm,
                    "lock.grant",
                );
                let served = member.parked.fulfil(lock, ());
                assert!(served, "grant without a waiting requester");
            }
        });
        spawn_service(&self.cluster, name, node, port, cost, dispatcher);
    }

    /// The member record of `node`; panics for a non-member.
    pub(crate) fn get(&self, node: NodeId) -> Rc<Member<S>> {
        match self.map.borrow().get(&node) {
            Some(m) => Rc::clone(m),
            None => panic!("{node:?} is not a DLM member"),
        }
    }

    /// Count a grant of `lock` leaving `from` for `to` and open its flow
    /// arrow (the listener on `to` closes it).
    pub(crate) fn open_grant(&self, from: NodeId, to: NodeId, lock: LockId) {
        self.grants.inc();
        self.cluster.tracer().flow_start(
            grant_flow_id(lock, to),
            from.0,
            Subsys::Dlm,
            "lock.grant",
        );
    }
}

/// Start-of-acquire marks, handed back to [`Manager::acquired`].
pub(crate) struct Acquire {
    t_start: SimTime,
    t0: Option<SimTime>,
}

/// A design's extra span arguments, after the shared `("lock", id)`.
pub(crate) type Args<const N: usize> = [(&'static str, ArgVal); N];

fn span_args<const N: usize>(lock: LockId, extra: Args<N>) -> Vec<(&'static str, ArgVal)> {
    let mut args = Vec::with_capacity(N + 1);
    args.push(("lock", lock.into()));
    args.extend(extra);
    args
}

/// Protocol messages posted together from one node: `(to, port, msg)`.
pub(crate) type Batch = Vec<(NodeId, u16, DlmMsg)>;

/// What every design shares besides lock words and membership: the
/// cluster, the tunables, the home node, message posting and accounting.
/// Held in an `Rc` so a posted message's task can carry it.
pub(crate) struct Manager {
    pub(crate) cluster: Cluster,
    pub(crate) cfg: DlmConfig,
    pub(crate) home: NodeId,
    acquires: Counter,
    lock_wait: HistHandle,
    /// Emptied batches, handed out again by [`Manager::batch`].
    spare: RefCell<Vec<Batch>>,
}

impl Manager {
    pub(crate) fn new(cluster: &Cluster, cfg: DlmConfig, home: NodeId) -> Rc<Manager> {
        let metrics = cluster.metrics();
        Rc::new(Manager {
            cluster: cluster.clone(),
            cfg,
            home,
            acquires: metrics.counter("dlm.lock_acquires"),
            lock_wait: metrics.hist("dlm.lock_wait_ns"),
            spare: RefCell::default(),
        })
    }

    /// An empty batch to fill: a recycled one when there is one.
    pub(crate) fn batch(&self) -> Batch {
        self.spare.borrow_mut().pop().unwrap_or_default()
    }

    /// Take a batch back once its messages are read: the next
    /// [`Manager::batch`] hands out its buffer.
    pub(crate) fn recycle(&self, mut batch: Batch) {
        batch.clear();
        self.spare.borrow_mut().push(batch);
    }

    /// Spawn the design's service on the home node (home agent or server).
    pub(crate) fn spawn_home(
        &self,
        name: &'static str,
        port: u16,
        cost: Cost,
        d: Dispatcher<impl Route>,
    ) {
        spawn_service(&self.cluster, name, self.home, port, cost, d);
    }

    async fn send(
        &self,
        from: NodeId,
        to: NodeId,
        port: u16,
        msg: DlmMsg,
    ) -> Result<(), FabricError> {
        let data = msg.encode_bytes();
        self.cluster
            .send_reliable_imm(from, to, port, &data, 0, 0, Transport::RdmaSend)
            .await
    }

    /// Send `msg` now, in the caller's own task, and wait for delivery
    /// (SRSL's client: the request *is* the operation). Grant authority is
    /// handed over exactly once and a lost protocol message would orphan a
    /// waiter forever, so exhausting the retry budget is fatal.
    pub(crate) async fn deliver(&self, from: NodeId, to: NodeId, port: u16, msg: DlmMsg) {
        self.send(from, to, port, msg)
            .await
            .unwrap_or_else(|e| panic!("dlm message {from:?}->{to:?} undeliverable: {e}"));
    }

    /// Put `msg` in flight now from a task of its own; the caller has
    /// already paid the issue cost (SRSL's server charges it as CPU).
    pub(crate) fn flight(self: &Rc<Self>, from: NodeId, to: NodeId, port: u16, msg: DlmMsg) {
        let mgr = Rc::clone(self);
        self.cluster
            .sim()
            .spawn_detached(async move { mgr.deliver(from, to, port, msg).await });
    }

    /// Post one message: a task of its own sleeps the issue delay
    /// (descriptor prep + doorbell), then sends.
    pub(crate) fn post(self: &Rc<Self>, from: NodeId, to: NodeId, port: u16, msg: DlmMsg) {
        let mgr = Rc::clone(self);
        self.cluster.sim().spawn_detached(async move {
            mgr.cluster.sim().sleep(mgr.cfg.grant_issue_ns).await;
            mgr.deliver(from, to, port, msg).await;
        });
    }

    /// [`Manager::post`] for a notice that carries no grant authority: a
    /// retry-budget failure loses a counter tick, never a lock, and is
    /// swallowed.
    pub(crate) fn post_lossy(self: &Rc<Self>, from: NodeId, to: NodeId, port: u16, msg: DlmMsg) {
        let mgr = Rc::clone(self);
        self.cluster.sim().spawn_detached(async move {
            mgr.cluster.sim().sleep(mgr.cfg.grant_issue_ns).await;
            let _ = mgr.send(from, to, port, msg).await;
        });
    }

    /// Post a batch from one node: the per-message issue delay serializes
    /// (grants leave one by one) while the flights overlap. The batch goes
    /// back to the pool once the last message is in flight.
    pub(crate) fn post_batch(self: &Rc<Self>, from: NodeId, msgs: Batch) {
        let mgr = Rc::clone(self);
        self.cluster.sim().spawn_detached(async move {
            for &(to, port, msg) in &msgs {
                mgr.cluster.sim().sleep(mgr.cfg.grant_issue_ns).await;
                mgr.flight(from, to, port, msg);
            }
            mgr.recycle(msgs);
        });
    }

    /// Sleep `ns` before retry number `attempt` of an acquire by `node`,
    /// under a `lock.backoff` span.
    pub(crate) async fn backoff(&self, node: NodeId, ns: u64, attempt: u64) {
        let tb = self.cluster.tracer().begin();
        self.cluster.sim().sleep(ns).await;
        if let Some(tb) = tb {
            self.cluster.tracer().complete(
                tb,
                node.0,
                Subsys::Dlm,
                "lock.backoff",
                vec![("stage", "retry".into()), ("attempt", attempt.into())],
            );
        }
    }

    /// Mark the start of an acquire.
    pub(crate) fn begin_acquire(&self) -> Acquire {
        Acquire {
            t_start: self.cluster.sim().now(),
            t0: self.cluster.tracer().begin(),
        }
    }

    /// Record a completed acquire of `lock` by `node`.
    pub(crate) fn acquired<const N: usize>(
        &self,
        a: Acquire,
        node: NodeId,
        lock: LockId,
        extra: impl FnOnce() -> Args<N>,
    ) {
        self.acquires.inc();
        self.lock_wait.record(self.cluster.sim().now() - a.t_start);
        if let Some(t0) = a.t0 {
            let args = span_args(lock, extra());
            self.cluster
                .tracer()
                .complete(t0, node.0, Subsys::Dlm, "lock.acquire", args);
        }
    }

    /// Record the start of a release of `lock` by `node`.
    pub(crate) fn released<const N: usize>(
        &self,
        node: NodeId,
        lock: LockId,
        extra: impl FnOnce() -> Args<N>,
    ) {
        let tracer = self.cluster.tracer();
        if tracer.is_enabled() {
            let args = span_args(lock, extra());
            tracer.instant(node.0, Subsys::Dlm, "lock.release", args);
        }
    }
}
