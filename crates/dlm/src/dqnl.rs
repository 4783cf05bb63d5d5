//! DQNL — distributed queue based non-shared locking (Devulapalli &
//! Wyckoff, ICPP'05), the one-sided baseline of the paper's Figure 5.
//!
//! An MCS-style distributed queue maintained with compare-and-swap on a
//! tail word, with peer-to-peer grants — structurally the exclusive half of
//! N-CoSED. Its defining limitation: **no shared mode**. Shared requests are
//! treated as exclusive, so N concurrent readers serialize into a chain of
//! N grant hops instead of being admitted together (the 317% gap of
//! Fig 5a).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dc_fabric::{Cluster, NodeId, WordTable};
use dc_svc::{Cost, Ctx, Dispatcher};
use dc_trace::Subsys;

use crate::config::{DlmConfig, LockMode};
use crate::manager::{Manager, Member, Members};
use crate::msg::{req_flow_id, DlmMsg, LockId, T_EXCL_REQ};

#[derive(Default)]
struct LockLocal {
    held: bool,
    pending: Vec<NodeId>,
    released: bool,
}

/// Per-node protocol state: one [`LockLocal`] per lock touched.
type Locks = RefCell<HashMap<LockId, LockLocal>>;

struct Inner {
    mgr: Rc<Manager>,
    table: WordTable,
    members: Members<Locks>,
}

/// The DQNL lock manager.
#[derive(Clone)]
pub struct DqnlDlm {
    inner: Rc<Inner>,
}

impl DqnlDlm {
    /// Create the manager with lock tail-words homed on `home`.
    pub fn new(
        cluster: &Cluster,
        cfg: DlmConfig,
        home: NodeId,
        num_locks: u32,
        members: &[NodeId],
    ) -> DqnlDlm {
        let dlm = DqnlDlm {
            inner: Rc::new(Inner {
                mgr: Manager::new(cluster, cfg, home),
                table: WordTable::new(cluster, home, num_locks as usize),
                members: Members::new(cluster),
            }),
        };
        for &m in members {
            dlm.add_member(m);
        }
        dlm
    }

    /// Register a member node. Agent processing is a fixed per-message
    /// delay (NIC-level agent, not host CPU), serialized per agent.
    pub fn add_member(&self, node: NodeId) {
        let cost = Cost::Sleep(self.inner.mgr.cfg.agent_proc_ns);
        let dlm = self.clone();
        self.inner
            .members
            .add(node, "dlm.dqnl.agent", cost, Locks::default(), |agent| {
                let agent = Rc::clone(agent);
                Dispatcher::new().on(T_EXCL_REQ, move |ctx: Ctx, msg| {
                    let dlm = dlm.clone();
                    let agent = Rc::clone(&agent);
                    async move {
                        let DlmMsg::ExclReq { lock, from, .. } = DlmMsg::parse(&msg.data) else {
                            unreachable!("tag-routed");
                        };
                        ctx.cluster.tracer().flow_end(
                            req_flow_id(lock, from),
                            agent.node.0,
                            Subsys::Dlm,
                            "lock.request",
                        );
                        let mut locks = agent.state.borrow_mut();
                        locks.entry(lock).or_default().pending.push(from);
                        drop(locks); // try_progress borrows again
                        dlm.try_progress(&agent, lock);
                    }
                })
            });
    }

    /// Client handle for `node`.
    pub fn client(&self, node: NodeId) -> DqnlClient {
        DqnlClient {
            dlm: self.clone(),
            agent: self.inner.members.get(node),
        }
    }

    /// Hand the lock to the next queued requester once released.
    fn try_progress(&self, agent: &Member<Locks>, lock: LockId) {
        let next = {
            let mut locks = agent.state.borrow_mut();
            let ll = locks.entry(lock).or_default();
            if !ll.released || ll.pending.is_empty() {
                None
            } else {
                ll.released = false;
                Some(ll.pending.remove(0))
            }
        };
        if let Some(z) = next {
            let Inner { mgr, members, .. } = &*self.inner;
            members.open_grant(agent.node, z, lock);
            let grant = DlmMsg::Grant {
                lock,
                exclusive: true,
            };
            mgr.post(agent.node, z, members.get(z).port, grant);
        }
    }
}

/// Per-node DQNL handle.
pub struct DqnlClient {
    dlm: DqnlDlm,
    agent: Rc<Member<Locks>>,
}

impl DqnlClient {
    /// The node this client operates from.
    pub fn node(&self) -> NodeId {
        self.agent.node
    }

    /// Acquire `lock`. The `mode` is accepted for interface parity but DQNL
    /// treats every request as exclusive.
    pub async fn lock(&self, lock: LockId, mode: LockMode) {
        let _ = mode; // no shared support — the scheme's defining gap
        let Inner {
            mgr,
            table,
            members,
        } = &*self.dlm.inner;
        let (agent, from) = (&*self.agent, self.agent.node);
        let acq = mgr.begin_acquire();
        let word = lock as usize;
        let me = (from.0 + 1) as u64;
        let mut expect = 0u64;
        let prior = loop {
            let old = table.cas(from, word, expect, me).await;
            if old == expect {
                break old;
            }
            expect = old;
        };
        if prior != 0 {
            let pred = NodeId(prior as u32 - 1);
            let held = agent.state.borrow().get(&lock).is_some_and(|ll| ll.held);
            assert!(!held, "concurrent DQNL ops");
            let granted = agent.park(lock);
            mgr.cluster.tracer().flow_start(
                req_flow_id(lock, from),
                from.0,
                Subsys::Dlm,
                "lock.request",
            );
            let req = DlmMsg::ExclReq {
                lock,
                from,
                shared_seen: 0,
            };
            mgr.post(from, pred, members.get(pred).port, req);
            granted.await;
        }
        agent.state.borrow_mut().entry(lock).or_default().held = true;
        mgr.acquired(acq, from, lock, || {
            [
                ("exclusive", 1u64.into()),
                ("queued", u64::from(prior != 0).into()),
            ]
        });
    }

    /// Release `lock`.
    pub async fn unlock(&self, lock: LockId) {
        let Inner { mgr, table, .. } = &*self.dlm.inner;
        let (agent, node) = (&*self.agent, self.agent.node);
        mgr.released(node, lock, || [("exclusive", 1u64.into())]);
        let has_pending = {
            let mut locks = agent.state.borrow_mut();
            let ll = locks.entry(lock).or_default();
            assert!(ll.held, "DQNL unlock of unheld lock");
            ll.held = false;
            ll.released = true;
            !ll.pending.is_empty()
        };
        if !has_pending {
            // Try to free the tail word if we are still the tail.
            let me = (node.0 + 1) as u64;
            let old = table.cas(node, lock as usize, me, 0).await;
            if old == me {
                agent.state.borrow_mut().entry(lock).or_default().released = false;
                return;
            }
            // A successor exists; its request message will arrive.
        }
        self.dlm.try_progress(agent, lock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::time::{ms, us};
    use dc_sim::Sim;
    use std::cell::Cell;

    fn setup(nodes: usize) -> (Sim, Cluster, DqnlDlm) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
        let members: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let dlm = DqnlDlm::new(&cluster, DlmConfig::default(), NodeId(0), 4, &members);
        (sim, cluster, dlm)
    }

    #[test]
    fn mutual_exclusion_with_queue_handoff() {
        let (sim, _c, dlm) = setup(5);
        let in_cs: Rc<Cell<u32>> = Rc::default();
        let violations: Rc<Cell<u32>> = Rc::default();
        let h = sim.handle();
        for n in 1..5u32 {
            let client = dlm.client(NodeId(n));
            let in_cs = Rc::clone(&in_cs);
            let violations = Rc::clone(&violations);
            let hh = h.clone();
            sim.spawn(async move {
                for _ in 0..3 {
                    client.lock(0, LockMode::Exclusive).await;
                    if in_cs.get() > 0 {
                        violations.set(violations.get() + 1);
                    }
                    in_cs.set(in_cs.get() + 1);
                    hh.sleep(us(40)).await;
                    in_cs.set(in_cs.get() - 1);
                    client.unlock(0).await;
                }
            });
        }
        sim.run();
        assert_eq!(violations.get(), 0);
    }

    #[test]
    fn shared_requests_serialize() {
        // DQNL's gap: N shared requesters form a chain, so total cascade
        // time grows linearly even though the mode is compatible.
        let (sim, _c, dlm) = setup(6);
        let h = sim.handle();
        let holder = dlm.client(NodeId(1));
        let hh = h.clone();
        sim.spawn(async move {
            holder.lock(0, LockMode::Exclusive).await;
            hh.sleep(ms(2)).await;
            holder.unlock(0).await;
        });
        let grant_times: Rc<RefCell<Vec<u64>>> = Rc::default();
        for n in 2..6u32 {
            let client = dlm.client(NodeId(n));
            let times = Rc::clone(&grant_times);
            let hh = h.clone();
            sim.spawn(async move {
                hh.sleep(us(100 * n as u64)).await;
                client.lock(0, LockMode::Shared).await;
                times.borrow_mut().push(hh.now());
                client.unlock(0).await;
            });
        }
        sim.run();
        let times = grant_times.borrow();
        assert_eq!(times.len(), 4);
        let spread = times.iter().max().unwrap() - times.iter().min().unwrap();
        // Each hop costs at least a grant flight: the "shared" cascade is
        // serialized, unlike N-CoSED's one-shot group grant.
        assert!(spread > us(25), "DQNL spread unexpectedly small: {spread}");
    }

    #[test]
    fn word_freed_when_queue_empties() {
        let (sim, _c, dlm) = setup(2);
        let client = dlm.client(NodeId(1));
        sim.run_to(async move {
            client.lock(1, LockMode::Exclusive).await;
            client.unlock(1).await;
        });
        sim.run();
        assert_eq!(dlm.inner.table.peek(1), 0);
    }
}
