//! MCS-style queue lock built from remote fetch-and-add over a shared
//! ticket word.
//!
//! One 64-bit [`TicketWord`] per lock at the home node: a FAA-dispensed
//! `next` ticket in the low half and a `serving` counter in the high half.
//! Acquire is a single FAA of [`TICKET_TAKE_DELTA`]; if the returned word
//! already serves the drawn ticket the lock was free and the acquisition
//! cost exactly one atomic — the same uncontended price as the CAS spin
//! lock. Otherwise the requester registers its ticket with the home agent
//! ([`DlmMsg::TicketWait`]) and parks.
//!
//! Release is a single FAA of [`TICKET_SERVE_DELTA`]; if the advanced
//! serving number was already dispensed to someone the releaser tells the
//! home agent ([`DlmMsg::TicketServe`]), which forwards a [`DlmMsg::Grant`]
//! to whichever node registered that ticket. Wait and serve notifications
//! can arrive at the agent in either order — it holds unmatched halves
//! until the pair meets.
//!
//! The FAA dispenser makes the queue strictly FIFO: fairness is perfect by
//! construction and starvation is bounded by the queue length, at the price
//! of one agent message per contended handoff. `ext_lock_shootout` measures
//! exactly that trade against the spin and lease designs.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dc_fabric::{Cluster, NodeId, WordTable};
use dc_svc::{Cost, Ctx, Dispatcher};
use dc_trace::{Counter, Subsys};

use crate::config::LockMode;
use crate::manager::{Manager, Member, Members, AGENT_PROC_NS};
use crate::msg::{req_flow_id, DlmMsg, LockId, T_TICKET_SERVE, T_TICKET_WAIT};
use crate::word::{TicketWord, TICKET_SERVE_DELTA, TICKET_TAKE_DELTA};

/// Per-lock matching state at the home agent.
#[derive(Default)]
struct HomeLock {
    /// Tickets registered by waiters, not yet served.
    waiting: HashMap<u32, NodeId>,
    /// Serving numbers announced by releasers, not yet claimed.
    ready: Vec<u32>,
}

type HomeLocks = RefCell<HashMap<LockId, HomeLock>>;

struct Inner {
    mgr: Rc<Manager>,
    table: WordTable,
    /// Members' agents only listen for grants: no per-node protocol state.
    members: Members<()>,
    home_port: u16,
    handoffs: Counter,
}

/// The MCS/ticket lock manager.
#[derive(Clone)]
pub struct McsDlm {
    inner: Rc<Inner>,
}

impl McsDlm {
    /// Create the manager with ticket words homed on `home`.
    pub fn new(cluster: &Cluster, home: NodeId, num_locks: u32, members: &[NodeId]) -> McsDlm {
        let dlm = McsDlm {
            inner: Rc::new(Inner {
                mgr: Manager::new(cluster, home),
                table: WordTable::new(cluster, home, num_locks as usize),
                members: Members::new(cluster),
                home_port: cluster.alloc_port_for(home, "dlm.mcs.home"),
                handoffs: cluster.metrics().counter("dlm.mcs.handoffs"),
            }),
        };
        dlm.spawn_home();
        for &m in members {
            dlm.add_member(m);
        }
        dlm
    }

    /// Register a member node (spawns its grant-listener agent).
    pub fn add_member(&self, node: NodeId) {
        let cost = Cost::Sleep(AGENT_PROC_NS);
        self.inner
            .members
            .add(node, "dlm.mcs.agent", cost, (), |_| Dispatcher::new());
    }

    /// Client handle for `node`.
    pub fn client(&self, node: NodeId) -> McsClient {
        McsClient {
            dlm: self.clone(),
            agent: self.inner.members.get(node),
            tickets: RefCell::new(HashMap::new()),
        }
    }

    /// Home-agent: grant `ticket` of `lock` to the node that registered it,
    /// or park whichever half arrived first.
    fn match_and_grant(
        &self,
        home: &HomeLocks,
        lock: LockId,
        wait: Option<(u32, NodeId)>,
        serve: Option<u32>,
    ) {
        let granted = {
            let mut locks = home.borrow_mut();
            let hl = locks.entry(lock).or_default();
            if let Some((ticket, node)) = wait {
                if let Some(i) = hl.ready.iter().position(|&s| s == ticket) {
                    hl.ready.swap_remove(i);
                    Some(node)
                } else {
                    assert!(
                        hl.waiting.insert(ticket, node).is_none(),
                        "duplicate MCS ticket {ticket} on lock {lock}"
                    );
                    None
                }
            } else {
                let serving = serve.expect("either wait or serve half");
                if let Some(node) = hl.waiting.remove(&serving) {
                    Some(node)
                } else {
                    hl.ready.push(serving);
                    None
                }
            }
        };
        if let Some(node) = granted {
            let Inner {
                mgr,
                members,
                handoffs,
                ..
            } = &*self.inner;
            handoffs.inc();
            members.open_grant(mgr.home, node, lock);
            let grant = DlmMsg::Grant {
                lock,
                exclusive: true,
            };
            mgr.post(mgr.home, node, members.get(node).port, grant);
        }
    }

    fn spawn_home(&self) {
        let Inner { mgr, home_port, .. } = &*self.inner;
        let home: Rc<HomeLocks> = Rc::default();
        let wait_dlm = self.clone();
        let wait_home = Rc::clone(&home);
        let serve_dlm = self.clone();
        let dispatcher = Dispatcher::new()
            .on(T_TICKET_WAIT, move |ctx: Ctx, msg| {
                let dlm = wait_dlm.clone();
                let home = Rc::clone(&wait_home);
                async move {
                    let DlmMsg::TicketWait { lock, ticket, from } = DlmMsg::parse(&msg.data) else {
                        unreachable!("tag-routed");
                    };
                    ctx.cluster.tracer().flow_end(
                        req_flow_id(lock, from),
                        dlm.inner.mgr.home.0,
                        Subsys::Dlm,
                        "lock.request",
                    );
                    dlm.match_and_grant(&home, lock, Some((ticket, from)), None);
                }
            })
            .on(T_TICKET_SERVE, move |_ctx: Ctx, msg| {
                let dlm = serve_dlm.clone();
                let home = Rc::clone(&home);
                async move {
                    let DlmMsg::TicketServe { lock, serving } = DlmMsg::parse(&msg.data) else {
                        unreachable!("tag-routed");
                    };
                    dlm.match_and_grant(&home, lock, None, Some(serving));
                }
            });
        let cost = Cost::Sleep(AGENT_PROC_NS);
        mgr.spawn_home("dlm.mcs.home", *home_port, cost, dispatcher);
    }
}

/// Per-node MCS/ticket handle.
pub struct McsClient {
    dlm: McsDlm,
    agent: Rc<Member<()>>,
    /// Lock -> the ticket this client currently holds.
    tickets: RefCell<HashMap<LockId, u32>>,
}

impl McsClient {
    /// The node this client operates from.
    pub fn node(&self) -> NodeId {
        self.agent.node
    }

    /// Acquire `lock`. No shared mode; `mode` is accepted for parity.
    pub async fn lock(&self, lock: LockId, mode: LockMode) {
        let _ = mode;
        let Inner {
            mgr,
            table,
            home_port,
            ..
        } = &*self.dlm.inner;
        let from = self.agent.node;
        let acq = mgr.begin_acquire();
        let old = TicketWord::decode(table.faa(from, lock as usize, TICKET_TAKE_DELTA).await);
        let ticket = old.next;
        let queued = old.serving != ticket;
        if queued {
            let granted = self.agent.park(lock);
            mgr.cluster.tracer().flow_start(
                req_flow_id(lock, from),
                from.0,
                Subsys::Dlm,
                "lock.request",
            );
            let wait = DlmMsg::TicketWait { lock, ticket, from };
            mgr.post(from, mgr.home, *home_port, wait);
            granted.await;
        }
        assert!(
            self.tickets.borrow_mut().insert(lock, ticket).is_none(),
            "MCS re-lock of a held lock"
        );
        mgr.acquired(acq, from, lock, || {
            [
                ("ticket", u64::from(ticket).into()),
                ("queued", u64::from(queued).into()),
            ]
        });
    }

    /// Release `lock`.
    pub async fn unlock(&self, lock: LockId) {
        let ticket = self
            .tickets
            .borrow_mut()
            .remove(&lock)
            .expect("MCS unlock of unheld lock");
        let Inner {
            mgr,
            table,
            home_port,
            ..
        } = &*self.dlm.inner;
        let node = self.agent.node;
        mgr.released(node, lock, || [("ticket", u64::from(ticket).into())]);
        let old = TicketWord::decode(table.faa(node, lock as usize, TICKET_SERVE_DELTA).await);
        assert_eq!(old.serving, ticket, "MCS serving counter out of step");
        let serving = old.serving.wrapping_add(1);
        // A successor ticket is already dispensed iff the dispenser moved
        // past the new serving number; only then is a handoff message owed.
        if old.next != serving && old.next.wrapping_sub(serving) < u32::MAX / 2 {
            let serve = DlmMsg::TicketServe { lock, serving };
            mgr.post(node, mgr.home, *home_port, serve);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::time::us;
    use dc_sim::Sim;
    use std::cell::Cell;

    fn setup(nodes: usize) -> (Sim, Cluster, McsDlm) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
        let members: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let dlm = McsDlm::new(&cluster, NodeId(0), 2, &members);
        (sim, cluster, dlm)
    }

    #[test]
    fn mutual_exclusion_and_fifo_order() {
        let (sim, _c, dlm) = setup(6);
        let in_cs: Rc<Cell<u32>> = Rc::default();
        let violations: Rc<Cell<u32>> = Rc::default();
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        let h = sim.handle();
        for n in 1..6u32 {
            let client = dlm.client(NodeId(n));
            let in_cs = Rc::clone(&in_cs);
            let violations = Rc::clone(&violations);
            let order = Rc::clone(&order);
            let hh = h.clone();
            sim.spawn(async move {
                // Stagger arrivals so the FIFO expectation is well-defined.
                hh.sleep(us(100 * n as u64)).await;
                client.lock(0, LockMode::Exclusive).await;
                if in_cs.get() > 0 {
                    violations.set(violations.get() + 1);
                }
                in_cs.set(in_cs.get() + 1);
                order.borrow_mut().push(n);
                hh.sleep(us(200)).await;
                in_cs.set(in_cs.get() - 1);
                client.unlock(0).await;
            });
        }
        sim.run();
        assert_eq!(violations.get(), 0);
        let order = order.borrow();
        assert_eq!(&*order, &[1, 2, 3, 4, 5], "ticket queue must be FIFO");
    }

    #[test]
    fn uncontended_acquire_is_one_faa() {
        let (sim, _c, dlm) = setup(2);
        let client = dlm.client(NodeId(1));
        let h = sim.handle();
        let elapsed = sim.run_to(async move {
            let t0 = h.now();
            client.lock(0, LockMode::Exclusive).await;
            h.now() - t0
        });
        assert!(elapsed < 20_000, "uncontended ticket lock took {elapsed}ns");
    }

    #[test]
    fn serve_and_wait_match_in_either_arrival_order() {
        // Heavily contended single lock: every handoff exercises the home
        // agent's out-of-order matching, and everyone must drain. Without
        // drops a wait always beats its serve to the home agent; a dropped
        // and retransmitted wait arrives after it.
        let (sim, c, dlm) = setup(5);
        c.install_faults(dc_fabric::FaultPlan::from_parts(
            7,
            vec![],
            vec![],
            vec![],
            0.25,
        ));
        let done: Rc<Cell<u32>> = Rc::default();
        for n in 1..5u32 {
            let client = dlm.client(NodeId(n));
            let done = Rc::clone(&done);
            let h = sim.handle();
            sim.spawn(async move {
                for _ in 0..4 {
                    client.lock(0, LockMode::Exclusive).await;
                    h.sleep(us(10)).await;
                    client.unlock(0).await;
                }
                done.set(done.get() + 1);
            });
        }
        sim.run();
        assert_eq!(done.get(), 4, "a ticket holder was orphaned");
    }

    #[test]
    fn word_reflects_dispensed_and_served_tickets() {
        let (sim, _c, dlm) = setup(3);
        let a = dlm.client(NodeId(1));
        let b = dlm.client(NodeId(2));
        sim.run_to(async move {
            a.lock(1, LockMode::Exclusive).await;
            a.unlock(1).await;
            b.lock(1, LockMode::Exclusive).await;
            b.unlock(1).await;
        });
        sim.run();
        let w = TicketWord::decode(dlm.inner.table.peek(1));
        assert_eq!(
            w,
            TicketWord {
                serving: 2,
                next: 2
            }
        );
    }
}
