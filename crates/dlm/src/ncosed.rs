//! N-CoSED: network-based cooperative shared-exclusive distributed locking.
//!
//! The paper's §4.2 design (detailed in the authors' CCGrid'07 paper):
//! one-sided locking for **both** modes using remote atomics on the 64-bit
//! lock word ([`crate::word::LockWord`]):
//!
//! * **Exclusive** requesters compare-and-swap themselves in as the queue
//!   tail. A failed optimistic CAS returns the current word, which seeds the
//!   next attempt; the winner learns exactly who precedes it: either an
//!   earlier exclusive tail (→ send a request to that node, receive a
//!   peer-to-peer grant on its release) or `s` shared holders (→ ask the
//!   home agent to grant once `s` shared releases arrive).
//! * **Shared** requesters fetch-and-add the low half. If the returned word
//!   has no exclusive tail the lock is held immediately — a single one-sided
//!   atomic, no server, no remote process. Otherwise the requester queues
//!   behind the tail with a message and is granted, en masse with its peers,
//!   when that exclusive holder releases.
//!
//! Grant authority travels down the exclusive queue: each releasing holder
//! grants the shared requesters that queued on it (becoming the group's
//! *anchor*) and/or hands over to its exclusive successor, waiting until all
//! `shared_seen` requesters counted by the successor's swap have been
//! granted, so no request is ever orphaned by message/atomic races.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dc_fabric::{Cluster, NodeId, WordTable};
use dc_svc::{Cost, Dispatcher};
use dc_trace::Subsys;

use crate::config::LockMode;
use crate::manager::{Batch, Manager, Member, Members, AGENT_PROC_NS};
use crate::msg::{req_flow_id, DlmMsg, LockId, T_EXCL_REQ, T_SH_RELEASE, T_SH_REQ, T_WAIT_SHARED};
use crate::word::{LockWord, SHARED_FAA_DELTA};

/// Per-lock, per-node protocol state. (The resolver of this node's own
/// outstanding request is parked on the skeleton's [`Member`].)
#[derive(Default)]
struct LockLocal {
    /// Mode currently held by this node (at most one holder per node per
    /// lock — the manager supports no re-entrancy or upgrades).
    held: Option<LockMode>,
    /// True once this node's exclusive hold ended and it is draining its
    /// grant authority.
    released: bool,
    /// Shared grants issued since this node's exclusive enqueue.
    grants_given: u32,
    /// Shared requesters queued on this node.
    pending_shared: Vec<NodeId>,
    /// Exclusive successor (node, shared_seen) queued on this node.
    pending_excl: Option<(NodeId, u32)>,
}

/// Per-node protocol state: one [`LockLocal`] per lock touched.
type Locks = RefCell<HashMap<LockId, LockLocal>>;

#[derive(Default)]
struct HomeLock {
    /// Cumulative shared releases not yet consumed by an epoch grant.
    have: u32,
    /// Waiting exclusive requester and the releases it needs.
    pending: Option<(NodeId, u32)>,
}

type HomeLocks = RefCell<HashMap<LockId, HomeLock>>;

struct Inner {
    mgr: Rc<Manager>,
    table: WordTable,
    members: Members<Locks>,
    home_port: u16,
}

/// The N-CoSED lock manager. One instance manages `num_locks` locks homed
/// on one node; clone to share.
#[derive(Clone)]
pub struct NcosedDlm {
    inner: Rc<Inner>,
}

impl NcosedDlm {
    /// Create the manager: lock words live on `home`; every node in
    /// `members` runs an agent and may request locks.
    pub fn new(cluster: &Cluster, home: NodeId, num_locks: u32, members: &[NodeId]) -> NcosedDlm {
        let dlm = NcosedDlm {
            inner: Rc::new(Inner {
                mgr: Manager::new(cluster, home),
                table: WordTable::new(cluster, home, num_locks as usize),
                members: Members::new(cluster),
                home_port: cluster.alloc_port_for(home, "dlm.ncosed.home"),
            }),
        };
        for &m in members {
            dlm.add_member(m);
        }
        dlm.spawn_home_agent();
        dlm
    }

    /// Register another member node (spawns its agent).
    pub fn add_member(&self, node: NodeId) {
        let cost = Cost::Sleep(AGENT_PROC_NS);
        let (excl_dlm, sh_dlm) = (self.clone(), self.clone());
        self.inner
            .members
            .add(node, "dlm.ncosed.agent", cost, Locks::default(), |agent| {
                let (excl_agent, sh_agent) = (Rc::clone(agent), Rc::clone(agent));
                Dispatcher::new()
                    .on(T_EXCL_REQ, move |ctx, msg| {
                        let dlm = excl_dlm.clone();
                        let agent = Rc::clone(&excl_agent);
                        async move {
                            let DlmMsg::ExclReq {
                                lock,
                                from,
                                shared_seen,
                            } = DlmMsg::parse(&msg.data)
                            else {
                                unreachable!("tag-routed");
                            };
                            ctx.cluster.tracer().flow_end(
                                req_flow_id(lock, from),
                                agent.node.0,
                                Subsys::Dlm,
                                "lock.request",
                            );
                            {
                                let mut locks = agent.state.borrow_mut();
                                let ll = locks.entry(lock).or_default();
                                assert!(
                                    ll.pending_excl.is_none(),
                                    "two exclusive successors queued on one node"
                                );
                                ll.pending_excl = Some((from, shared_seen));
                            }
                            dlm.try_progress(&agent, lock);
                        }
                    })
                    .on(T_SH_REQ, move |ctx, msg| {
                        let dlm = sh_dlm.clone();
                        let agent = Rc::clone(&sh_agent);
                        async move {
                            let DlmMsg::ShReq { lock, from } = DlmMsg::parse(&msg.data) else {
                                unreachable!("tag-routed");
                            };
                            ctx.cluster.tracer().flow_end(
                                req_flow_id(lock, from),
                                agent.node.0,
                                Subsys::Dlm,
                                "lock.request",
                            );
                            {
                                let mut locks = agent.state.borrow_mut();
                                locks.entry(lock).or_default().pending_shared.push(from);
                            }
                            dlm.try_progress(&agent, lock);
                        }
                    })
            });
    }

    /// Handle for issuing lock operations from `node`.
    pub fn client(&self, node: NodeId) -> NcosedClient {
        NcosedClient {
            dlm: self.clone(),
            agent: self.inner.members.get(node),
        }
    }

    /// Issue `msgs` from `from` to per-message destinations, serializing the
    /// per-message issue overhead (grants from one node leave one by one)
    /// while their flights overlap. An empty batch goes straight back to
    /// the pool.
    fn issue(&self, from: NodeId, msgs: Batch) {
        let Inner { mgr, members, .. } = &*self.inner;
        if msgs.is_empty() {
            mgr.recycle(msgs);
            return;
        }
        // Open a flow arrow per protocol message so a grant in the trace
        // links back to the CAS/FAA that queued its requester. Ids derive
        // from protocol state, so the receiving agent closes the same arrow.
        let tracer = mgr.cluster.tracer();
        for (to, _port, msg) in &msgs {
            match *msg {
                DlmMsg::Grant { lock, .. } => members.open_grant(from, *to, lock),
                DlmMsg::ExclReq {
                    lock, from: req, ..
                }
                | DlmMsg::ShReq { lock, from: req } => {
                    tracer.flow_start(req_flow_id(lock, req), from.0, Subsys::Dlm, "lock.request");
                }
                DlmMsg::WaitShared { lock, waiter, .. } => {
                    tracer.flow_start(
                        req_flow_id(lock, waiter),
                        from.0,
                        Subsys::Dlm,
                        "lock.wait_shared",
                    );
                }
                _ => {}
            }
        }
        mgr.post_batch(from, msgs);
    }

    /// [`NcosedDlm::issue`] of a single message.
    fn issue_one(&self, from: NodeId, msg: (NodeId, u16, DlmMsg)) {
        let mut batch = self.inner.mgr.batch();
        batch.push(msg);
        self.issue(from, batch);
    }

    /// Drive a lock's granter-side state machine after any event.
    fn try_progress(&self, agent: &Member<Locks>, lock: LockId) {
        let Inner {
            mgr,
            members,
            home_port,
            ..
        } = &*self.inner;
        let outgoing = {
            let mut locks = agent.state.borrow_mut();
            let ll = locks.entry(lock).or_default();
            if !ll.released {
                return;
            }
            let mut outgoing = mgr.batch();
            // Grant every queued shared requester (the cascade of Fig 5a).
            for y in ll.pending_shared.drain(..) {
                let grant = DlmMsg::Grant {
                    lock,
                    exclusive: false,
                };
                outgoing.push((y, members.get(y).port, grant));
                ll.grants_given += 1;
            }
            // Hand over to the exclusive successor once every shared
            // requester it counted has been granted.
            if let Some((z, shared_seen)) = ll.pending_excl {
                if ll.grants_given == shared_seen {
                    if shared_seen == 0 {
                        // Direct peer-to-peer handoff (Fig 5b chain).
                        let grant = DlmMsg::Grant {
                            lock,
                            exclusive: true,
                        };
                        outgoing.push((z, members.get(z).port, grant));
                    } else {
                        // The epoch's shared holders must release first; the
                        // home agent counts their releases and grants.
                        let wait = DlmMsg::WaitShared {
                            lock,
                            waiter: z,
                            need: shared_seen,
                        };
                        outgoing.push((mgr.home, *home_port, wait));
                    }
                    // Authority has moved on; reset the granter-side state
                    // for the next cycle. `held` must survive: this same
                    // node may already be re-requesting the lock — including
                    // waiting on the very handoff we just issued (anchor
                    // self-request).
                    ll.released = false;
                    ll.grants_given = 0;
                    ll.pending_excl = None;
                    debug_assert!(ll.pending_shared.is_empty());
                    agent.handed_off(lock);
                }
            }
            outgoing
        };
        self.issue(agent.node, outgoing);
    }

    fn spawn_home_agent(&self) {
        let Inner { mgr, home_port, .. } = &*self.inner;
        let locks: Rc<HomeLocks> = Rc::default();
        let rel_dlm = self.clone();
        let rel_locks = Rc::clone(&locks);
        let wait_dlm = self.clone();
        let dispatcher = Dispatcher::new()
            .on(T_SH_RELEASE, move |_ctx, msg| {
                let dlm = rel_dlm.clone();
                let locks = Rc::clone(&rel_locks);
                async move {
                    let DlmMsg::ShRelease { lock } = DlmMsg::parse(&msg.data) else {
                        unreachable!("tag-routed");
                    };
                    locks.borrow_mut().entry(lock).or_default().have += 1;
                    dlm.home_epoch_check(&locks, lock);
                }
            })
            .on(T_WAIT_SHARED, move |ctx, msg| {
                let dlm = wait_dlm.clone();
                let locks = Rc::clone(&locks);
                async move {
                    let DlmMsg::WaitShared { lock, waiter, need } = DlmMsg::parse(&msg.data) else {
                        unreachable!("tag-routed");
                    };
                    ctx.cluster.tracer().flow_end(
                        req_flow_id(lock, waiter),
                        dlm.inner.mgr.home.0,
                        Subsys::Dlm,
                        "lock.wait_shared",
                    );
                    {
                        let mut locks = locks.borrow_mut();
                        let e = locks.entry(lock).or_default();
                        assert!(
                            e.pending.is_none(),
                            "two exclusive requesters waiting on one epoch"
                        );
                        e.pending = Some((waiter, need));
                    }
                    dlm.home_epoch_check(&locks, lock);
                }
            });
        let cost = Cost::Sleep(AGENT_PROC_NS);
        mgr.spawn_home("dlm.ncosed.home", *home_port, cost, dispatcher);
    }

    /// Grant the waiting exclusive requester once every shared release of its
    /// epoch has been counted.
    fn home_epoch_check(&self, locks: &HomeLocks, lock: LockId) {
        let granted = {
            let mut locks = locks.borrow_mut();
            let e = locks
                .get_mut(&lock)
                .expect("epoch check without home entry");
            match e.pending {
                Some((waiter, need)) if e.have >= need => {
                    e.have -= need;
                    e.pending = None;
                    Some(waiter)
                }
                _ => None,
            }
        };
        if let Some(waiter) = granted {
            let Inner { mgr, members, .. } = &*self.inner;
            let grant = DlmMsg::Grant {
                lock,
                exclusive: true,
            };
            self.issue_one(mgr.home, (waiter, members.get(waiter).port, grant));
        }
    }
}

/// Per-node handle for lock operations.
pub struct NcosedClient {
    dlm: NcosedDlm,
    agent: Rc<Member<Locks>>,
}

impl NcosedClient {
    /// The node this client operates from.
    pub fn node(&self) -> NodeId {
        self.agent.node
    }

    /// Acquire `lock` in `mode`.
    ///
    /// Contract: operations on one `(node, lock)` pair must be serialized —
    /// a new `lock` may only be issued after the previous `unlock` *call
    /// has returned* on that node (multiple processes on one node share the
    /// node's agent and must coordinate locally). Re-requesting after unlock
    /// returns is fully supported, including while the node still anchors a
    /// shared group.
    pub async fn lock(&self, lock: LockId, mode: LockMode) {
        let Inner {
            mgr,
            table,
            members,
            home_port,
            ..
        } = &*self.dlm.inner;
        let (agent, node) = (&*self.agent, self.agent.node);
        let acq = mgr.begin_acquire();
        let word = lock as usize;
        let held = agent.state.borrow().get(&lock).and_then(|ll| ll.held);
        assert!(
            held.is_none() && !agent.is_parked(lock),
            "concurrent lock ops on {lock} from {node:?}"
        );
        // `Some(msg)`: queued behind a holder — tell it (or the home agent).
        let request = match mode {
            LockMode::Exclusive => {
                // Optimistic CAS loop: each failure returns the live word.
                let swap = LockWord::with_excl_tail(node);
                let mut expect = LockWord::FREE;
                let prior = loop {
                    let old = table.cas(node, word, expect, swap).await;
                    if old == expect {
                        break LockWord::decode(old);
                    }
                    // As in DQNL: a release whose exclusive successor's
                    // request is still in flight hands the lock on before
                    // this node queues again. (Still the tail, it is the
                    // anchor of its own shared group and queues on itself.)
                    let owes = || {
                        agent
                            .state
                            .borrow()
                            .get(&lock)
                            .is_some_and(|ll| ll.released)
                    };
                    if LockWord::decode(old).tail != Some(node) && owes() {
                        agent.await_handoff(lock).await;
                    }
                    expect = old;
                };
                match (prior.tail, prior.shared) {
                    (None, 0) => None, // free: held immediately
                    (Some(t), shared_seen) => {
                        let req = DlmMsg::ExclReq {
                            lock,
                            from: node,
                            shared_seen,
                        };
                        Some((t, members.get(t).port, req))
                    }
                    (None, need) => {
                        let wait = DlmMsg::WaitShared {
                            lock,
                            waiter: node,
                            need,
                        };
                        Some((mgr.home, *home_port, wait))
                    }
                }
            }
            LockMode::Shared => {
                let old = table.faa(node, word, SHARED_FAA_DELTA).await;
                LockWord::decode(old).tail.map(|t| {
                    let req = DlmMsg::ShReq { lock, from: node };
                    (t, members.get(t).port, req)
                })
            }
        };
        let queued = request.is_some();
        if let Some(msg) = request {
            let granted = agent.park(lock);
            self.dlm.issue_one(node, msg);
            granted.await;
        }
        agent.state.borrow_mut().entry(lock).or_default().held = Some(mode);
        mgr.acquired(acq, node, lock, || {
            [
                ("exclusive", u64::from(mode == LockMode::Exclusive).into()),
                ("queued", u64::from(queued).into()),
            ]
        });
    }

    /// Release `lock`.
    pub async fn unlock(&self, lock: LockId) {
        let Inner {
            mgr,
            table,
            home_port,
            ..
        } = &*self.dlm.inner;
        let (agent, node) = (&*self.agent, self.agent.node);
        let mode = {
            let mut locks = agent.state.borrow_mut();
            locks
                .entry(lock)
                .or_default()
                .held
                .take()
                .expect("unlock of a lock this node does not hold")
        };
        mgr.released(node, lock, || {
            [("exclusive", u64::from(mode == LockMode::Exclusive).into())]
        });
        match mode {
            LockMode::Shared => {
                // Off-critical-path bookkeeping to the home agent.
                let release = DlmMsg::ShRelease { lock };
                self.dlm.issue_one(node, (mgr.home, *home_port, release));
            }
            LockMode::Exclusive => {
                // Fast path: if nobody has queued on us, free the word.
                let no_known_waiters = {
                    let mut locks = agent.state.borrow_mut();
                    let ll = locks.entry(lock).or_default();
                    ll.released = true;
                    ll.pending_excl.is_none() && ll.pending_shared.is_empty()
                };
                if no_known_waiters {
                    let word = lock as usize;
                    loop {
                        let raw = table.read(node, word).await;
                        let w = LockWord::decode(raw);
                        // Only free if no shared requester queued on us: once
                        // we've granted shared holders we are the epoch's
                        // anchor and must keep the word non-free so a new
                        // exclusive routes through us / the home agent. The
                        // word says so by itself: every requester we granted
                        // since our last hand-off counted itself into the
                        // word after our swap made us its tail (one counted
                        // before it was part of the epoch that hand-off
                        // settled), and only our own swap zeroes that count.
                        if w.tail == Some(node) && w.shared == 0 {
                            debug_assert_eq!(
                                agent.state.borrow()[&lock].grants_given,
                                0,
                                "a tail word with no shared count, yet grants outstanding"
                            );
                            // Nothing new since our grants: try to free.
                            let old = table.cas(node, word, raw, LockWord::FREE).await;
                            if old == raw {
                                let mut locks = agent.state.borrow_mut();
                                *locks.entry(lock).or_default() = LockLocal::default();
                                return;
                            }
                            // The word moved under us: re-examine.
                            continue;
                        }
                        // Waiters exist (their messages may still be in
                        // flight); the agent loop will serve them.
                        break;
                    }
                }
                self.dlm.try_progress(agent, lock);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::time::{ms, us};
    use dc_sim::{Sim, SimTime};
    use std::cell::Cell;

    fn setup(nodes: usize, num_locks: u32) -> (Sim, Cluster, NcosedDlm) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
        let members: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let dlm = NcosedDlm::new(&cluster, NodeId(0), num_locks, &members);
        (sim, cluster, dlm)
    }

    #[test]
    fn uncontended_exclusive_is_one_atomic() {
        let (sim, c, dlm) = setup(2, 1);
        let client = dlm.client(NodeId(1));
        sim.run_to(async move {
            client.lock(0, LockMode::Exclusive).await;
            client.unlock(0).await;
        });
        sim.run();
        // Acquire: 1 CAS. Release: read + CAS-to-free. No protocol message
        // leaves any node: no grant, and nothing sent at all.
        let s = c.stats();
        assert_eq!(s.cas, 2);
        assert_eq!(s.faa, 0);
        assert_eq!(c.metrics().snapshot().counter("dlm.grants"), 0);
        assert_eq!((s.sends_rdma, s.sends_tcp), (0, 0));
    }

    #[test]
    fn uncontended_shared_is_one_faa() {
        let (sim, c, dlm) = setup(2, 1);
        let client = dlm.client(NodeId(1));
        sim.run_to(async move {
            client.lock(0, LockMode::Shared).await;
            client.unlock(0).await;
        });
        sim.run();
        assert_eq!(c.stats().faa, 1);
        assert_eq!(c.stats().cas, 0);
    }

    #[test]
    fn exclusive_mutual_exclusion_holds() {
        let (sim, _c, dlm) = setup(5, 1);
        let in_cs: Rc<Cell<u32>> = Rc::default();
        let max_seen: Rc<Cell<u32>> = Rc::default();
        let h = sim.handle();
        for n in 1..5u32 {
            let client = dlm.client(NodeId(n));
            let in_cs = Rc::clone(&in_cs);
            let max_seen = Rc::clone(&max_seen);
            let hh = h.clone();
            sim.spawn(async move {
                for _ in 0..5 {
                    client.lock(0, LockMode::Exclusive).await;
                    in_cs.set(in_cs.get() + 1);
                    max_seen.set(max_seen.get().max(in_cs.get()));
                    hh.sleep(us(50)).await;
                    in_cs.set(in_cs.get() - 1);
                    client.unlock(0).await;
                }
            });
        }
        sim.run();
        assert_eq!(max_seen.get(), 1, "two exclusive holders overlapped");
        assert_eq!(in_cs.get(), 0);
    }

    #[test]
    fn shared_holders_overlap_but_exclude_writers() {
        let (sim, _c, dlm) = setup(6, 1);
        let readers: Rc<Cell<u32>> = Rc::default();
        let writer_in: Rc<Cell<bool>> = Rc::default();
        let max_readers: Rc<Cell<u32>> = Rc::default();
        let violation: Rc<Cell<bool>> = Rc::default();
        let h = sim.handle();
        // Four readers take shared locks around the same instant.
        for n in 1..5u32 {
            let client = dlm.client(NodeId(n));
            let readers = Rc::clone(&readers);
            let max_readers = Rc::clone(&max_readers);
            let violation = Rc::clone(&violation);
            let writer_in = Rc::clone(&writer_in);
            let hh = h.clone();
            sim.spawn(async move {
                client.lock(0, LockMode::Shared).await;
                readers.set(readers.get() + 1);
                max_readers.set(max_readers.get().max(readers.get()));
                if writer_in.get() {
                    violation.set(true);
                }
                hh.sleep(us(200)).await;
                readers.set(readers.get() - 1);
                client.unlock(0).await;
            });
        }
        // A writer arrives while readers hold.
        let wclient = dlm.client(NodeId(5));
        let readers2 = Rc::clone(&readers);
        let writer_in2 = Rc::clone(&writer_in);
        let violation2 = Rc::clone(&violation);
        let hh = h.clone();
        sim.spawn(async move {
            hh.sleep(us(30)).await;
            wclient.lock(0, LockMode::Exclusive).await;
            writer_in2.set(true);
            if readers2.get() > 0 {
                violation2.set(true);
            }
            hh.sleep(us(100)).await;
            writer_in2.set(false);
            wclient.unlock(0).await;
        });
        sim.run();
        assert!(max_readers.get() >= 2, "shared locks never overlapped");
        assert!(!violation.get(), "reader/writer overlap detected");
    }

    #[test]
    fn exclusive_chain_grants_in_fifo_order() {
        let (sim, _c, dlm) = setup(6, 1);
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        let h = sim.handle();
        for n in 1..6u32 {
            let client = dlm.client(NodeId(n));
            let order = Rc::clone(&order);
            let hh = h.clone();
            sim.spawn(async move {
                // Stagger arrivals well beyond an atomic RTT so the CAS
                // enqueue order matches node order.
                hh.sleep(us(100 * n as u64)).await;
                client.lock(0, LockMode::Exclusive).await;
                order.borrow_mut().push(n);
                hh.sleep(ms(2)).await;
                client.unlock(0).await;
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn shared_after_exclusive_granted_together() {
        let (sim, _c, dlm) = setup(7, 1);
        let h = sim.handle();
        let holder = dlm.client(NodeId(1));
        let hh = h.clone();
        sim.spawn(async move {
            holder.lock(0, LockMode::Exclusive).await;
            hh.sleep(ms(5)).await;
            holder.unlock(0).await;
        });
        let grant_times: Rc<RefCell<Vec<SimTime>>> = Rc::default();
        for n in 2..7u32 {
            let client = dlm.client(NodeId(n));
            let times = Rc::clone(&grant_times);
            let hh = h.clone();
            sim.spawn(async move {
                hh.sleep(ms(1)).await; // request while held
                client.lock(0, LockMode::Shared).await;
                times.borrow_mut().push(hh.now());
                client.unlock(0).await;
            });
        }
        sim.run();
        let times = grant_times.borrow();
        assert_eq!(times.len(), 5);
        // All shared grants land shortly after the 5ms release, within the
        // serialized issue window (5 × 2us) plus one flight.
        let spread = times.iter().max().unwrap() - times.iter().min().unwrap();
        assert!(spread <= us(15), "shared cascade spread {spread}ns");
        assert!(*times.iter().min().unwrap() >= ms(5));
    }

    #[test]
    fn exclusive_after_shared_waits_for_all_releases() {
        let (sim, _c, dlm) = setup(5, 1);
        let h = sim.handle();
        let active_readers: Rc<Cell<u32>> = Rc::default();
        // Three shared holders with different hold times.
        for n in 1..4u32 {
            let client = dlm.client(NodeId(n));
            let ar = Rc::clone(&active_readers);
            let hh = h.clone();
            sim.spawn(async move {
                client.lock(0, LockMode::Shared).await;
                ar.set(ar.get() + 1);
                hh.sleep(ms(n as u64)).await;
                ar.set(ar.get() - 1);
                client.unlock(0).await;
            });
        }
        let wclient = dlm.client(NodeId(4));
        let ar = Rc::clone(&active_readers);
        let hh = h.clone();
        let when = sim.spawn(async move {
            hh.sleep(us(500)).await;
            wclient.lock(0, LockMode::Exclusive).await;
            assert_eq!(ar.get(), 0, "writer admitted while readers active");
            let t = hh.now();
            wclient.unlock(0).await;
            t
        });
        sim.run();
        // Longest reader holds until ~3ms; the writer can only enter after.
        assert!(when.try_take().unwrap() >= ms(3));
    }

    #[test]
    fn lock_word_returns_to_free_after_quiescence() {
        let (sim, _c, dlm) = setup(3, 1);
        let client = dlm.client(NodeId(2));
        sim.run_to(async move {
            client.lock(0, LockMode::Exclusive).await;
            client.unlock(0).await;
        });
        sim.run();
        let raw = dlm.inner.table.peek(0);
        assert_eq!(raw, LockWord::FREE);
    }

    #[test]
    fn many_locks_are_independent() {
        let (sim, _c, dlm) = setup(3, 8);
        let h = sim.handle();
        let done: Rc<Cell<u32>> = Rc::default();
        for lockid in 0..8u32 {
            let client = dlm.client(NodeId(1 + lockid % 2));
            let done = Rc::clone(&done);
            let hh = h.clone();
            sim.spawn(async move {
                client.lock(lockid, LockMode::Exclusive).await;
                hh.sleep(ms(1)).await;
                client.unlock(lockid).await;
                done.set(done.get() + 1);
            });
        }
        // Independent locks proceed in parallel: all 8 finish in ~one hold
        // time plus protocol overhead, not 8 serialized holds.
        let reached = sim.run_until(ms(3));
        assert_eq!(reached, ms(3));
        assert_eq!(done.get(), 8);
    }

    #[test]
    fn mutual_exclusion_survives_message_drops() {
        use dc_fabric::FaultPlan;
        let (sim, c, dlm) = setup(5, 1);
        // Protocol messages (requests/grants) ride the reliable transport,
        // so a lossy fabric slows the chain but never orphans a waiter.
        c.install_faults(FaultPlan::from_parts(77, vec![], vec![], vec![], 0.25));
        let in_cs: Rc<Cell<u32>> = Rc::default();
        let max_seen: Rc<Cell<u32>> = Rc::default();
        let done: Rc<Cell<u32>> = Rc::default();
        let h = sim.handle();
        for n in 1..5u32 {
            let client = dlm.client(NodeId(n));
            let in_cs = Rc::clone(&in_cs);
            let max_seen = Rc::clone(&max_seen);
            let done = Rc::clone(&done);
            let hh = h.clone();
            sim.spawn(async move {
                for _ in 0..3 {
                    client.lock(0, LockMode::Exclusive).await;
                    in_cs.set(in_cs.get() + 1);
                    max_seen.set(max_seen.get().max(in_cs.get()));
                    hh.sleep(us(20)).await;
                    in_cs.set(in_cs.get() - 1);
                    client.unlock(0).await;
                }
                done.set(done.get() + 1);
            });
        }
        sim.run();
        assert_eq!(max_seen.get(), 1, "two exclusive holders overlapped");
        assert_eq!(done.get(), 4, "a waiter was orphaned by a dropped message");
        assert!(c.fault_stats().dropped_msgs > 0, "fault plan never fired");
    }

    #[test]
    fn trace_links_grant_back_to_request() {
        use dc_trace::{Ph, TraceMode};
        let (sim, c, dlm) = setup(3, 1);
        c.tracer().enable(TraceMode::Full);
        let h = sim.handle();
        let holder = dlm.client(NodeId(1));
        let hh = h.clone();
        sim.spawn(async move {
            holder.lock(0, LockMode::Exclusive).await;
            hh.sleep(ms(1)).await;
            holder.unlock(0).await;
        });
        let waiter = dlm.client(NodeId(2));
        let hh = h.clone();
        sim.spawn(async move {
            hh.sleep(us(100)).await;
            waiter.lock(0, LockMode::Exclusive).await;
            waiter.unlock(0).await;
        });
        sim.run();
        let evs = c.tracer().events();
        // Node 2 queued behind node 1: its request flow must start on node 2
        // and end on node 1; the grant flow the reverse.
        let req = crate::msg::req_flow_id(0, NodeId(2));
        let grant = crate::msg::grant_flow_id(0, NodeId(2));
        let find = |id, start: bool| {
            evs.iter()
                .find(|e| match e.ph {
                    Ph::FlowStart { id: i } => start && i == id,
                    Ph::FlowEnd { id: i } => !start && i == id,
                    _ => false,
                })
                .unwrap_or_else(|| panic!("missing flow half id={id} start={start}"))
        };
        assert_eq!(find(req, true).node, 2);
        assert_eq!(find(req, false).node, 1);
        assert_eq!(find(grant, true).node, 1);
        assert_eq!(find(grant, false).node, 2);
        // Both acquires left complete spans, and the registry counted them.
        let acquires = evs.iter().filter(|e| e.name == "lock.acquire").count();
        assert_eq!(acquires, 2);
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("dlm.lock_acquires"), 2);
        assert_eq!(snap.counter("dlm.grants"), 1);
    }

    #[test]
    fn lock_wait_histogram_sees_contention() {
        let (sim, c, dlm) = setup(3, 1);
        let h = sim.handle();
        let holder = dlm.client(NodeId(1));
        let hh = h.clone();
        sim.spawn(async move {
            holder.lock(0, LockMode::Exclusive).await;
            hh.sleep(ms(2)).await;
            holder.unlock(0).await;
        });
        let waiter = dlm.client(NodeId(2));
        let hh = h.clone();
        sim.spawn(async move {
            hh.sleep(us(100)).await;
            waiter.lock(0, LockMode::Exclusive).await;
            waiter.unlock(0).await;
        });
        sim.run();
        let snap = c.metrics().snapshot();
        let s = match snap.get("dlm.lock_wait_ns").unwrap() {
            dc_trace::MetricValue::Hist(s) => *s,
            other => panic!("wrong metric kind: {other:?}"),
        };
        assert_eq!(s.count, 2);
        // The waiter blocked for roughly the residual 1.9ms hold.
        assert!(s.max_ns > ms(1), "max wait {} too small", s.max_ns);
    }

    /// An exclusive release frees the word when it finds itself the tail
    /// with no shared count, which alone implies it has granted no one.
    /// Here node 1 anchors a shared group, re-requests through itself, and
    /// releases again with nobody queued, while the sharers' requests land
    /// before, between and after its steps and, on odd seeds, a quarter of
    /// the messages are dropped.
    /// Each fast path asserts (debug builds) that no grant is outstanding;
    /// the run ends with the word freed, or anchored by node 1 for a sharer
    /// that came after its last swap.
    #[test]
    fn a_tail_word_with_no_shared_count_has_no_grant_outstanding() {
        use dc_fabric::FaultPlan;
        let mut freed = 0;
        for (seed, lag) in (0..24u64).map(|i| (i, us(3 * i))) {
            let (sim, c, dlm) = setup(4, 1);
            if seed % 2 == 1 {
                c.install_faults(FaultPlan::from_parts(seed, vec![], vec![], vec![], 0.25));
            }
            let h = sim.handle();
            let anchor = dlm.client(NodeId(1));
            let hh = h.clone();
            sim.spawn(async move {
                anchor.lock(0, LockMode::Exclusive).await;
                hh.sleep(us(40)).await;
                anchor.unlock(0).await;
                anchor.lock(0, LockMode::Exclusive).await;
                anchor.unlock(0).await;
            });
            for n in 2..4u32 {
                let client = dlm.client(NodeId(n));
                let hh = h.clone();
                sim.spawn(async move {
                    hh.sleep(us(10) + lag * u64::from(n - 1)).await;
                    client.lock(0, LockMode::Shared).await;
                    hh.sleep(us(20)).await;
                    client.unlock(0).await;
                });
            }
            sim.run();
            let w = LockWord::decode(dlm.inner.table.peek(0));
            match (w.tail, w.shared) {
                // Freed; a sharer that came later took the word as free.
                (None, _) => freed += 1,
                (Some(NodeId(1)), 1..) => {}
                other => panic!("seed {seed}: word left at {other:?}"),
            }
        }
        assert!(
            freed >= 12,
            "the anchor's last release freed the word {freed} times"
        );
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn unlock_without_hold_panics() {
        let (sim, _c, dlm) = setup(2, 1);
        let client = dlm.client(NodeId(1));
        sim.run_to(async move {
            client.unlock(0).await;
        });
    }
}
