//! SRSL — traditional send/receive-based server locking.
//!
//! The two-sided baseline of Figure 5: a lock server process on the home
//! node maintains every queue and issues every grant. Each request and each
//! release costs the server a message receive plus CPU processing — which
//! both serializes cascades through one process and exposes lock latency to
//! any other load on the server node.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use dc_fabric::{Cluster, NodeId};
use dc_svc::{Cost, Dispatcher};
use dc_trace::Subsys;

use crate::config::{DlmConfig, LockMode};
use crate::manager::{Batch, Manager, Member, Members};
use crate::msg::{req_flow_id, DlmMsg, LockId, T_SRV_LOCK, T_SRV_UNLOCK};

#[derive(Default)]
struct ServerLock {
    /// Current holders and their mode.
    holders: u32,
    exclusive: bool,
    /// FIFO wait queue.
    queue: VecDeque<(NodeId, bool)>,
}

struct Inner {
    /// `mgr.home` is the server node.
    mgr: Rc<Manager>,
    /// Clients' agents only listen for grants: no per-node protocol state.
    members: Members<()>,
    server_port: u16,
}

/// The SRSL lock manager.
#[derive(Clone)]
pub struct SrslDlm {
    inner: Rc<Inner>,
}

impl SrslDlm {
    /// Create the manager with its server process on `server`.
    pub fn new(cluster: &Cluster, cfg: DlmConfig, server: NodeId, members: &[NodeId]) -> SrslDlm {
        let dlm = SrslDlm {
            inner: Rc::new(Inner {
                mgr: Manager::new(cluster, cfg, server),
                members: Members::new(cluster),
                server_port: cluster.alloc_port_for(server, "dlm.srsl.server"),
            }),
        };
        for &m in members {
            dlm.add_member(m);
        }
        dlm.spawn_server();
        dlm
    }

    /// Register a member node (spawns its grant-listener service).
    pub fn add_member(&self, node: NodeId) {
        self.inner
            .members
            .add(node, "dlm.srsl.client", Cost::None, (), |_| {
                Dispatcher::new()
            });
    }

    /// Client handle for `node`.
    pub fn client(&self, node: NodeId) -> SrslClient {
        SrslClient {
            dlm: self.clone(),
            agent: self.inner.members.get(node),
        }
    }

    fn spawn_server(&self) {
        let Inner {
            mgr, server_port, ..
        } = &*self.inner;
        let locks: Rc<RefCell<HashMap<LockId, ServerLock>>> = Rc::default();
        let lock_inner = Rc::clone(&self.inner);
        let lock_locks = Rc::clone(&locks);
        let unlock_inner = Rc::clone(&self.inner);
        let dispatcher = Dispatcher::new()
            .on(T_SRV_LOCK, move |ctx, msg| {
                let inner = Rc::clone(&lock_inner);
                let locks = Rc::clone(&lock_locks);
                async move {
                    let DlmMsg::SrvLock {
                        lock,
                        from,
                        exclusive,
                    } = DlmMsg::parse(&msg.data)
                    else {
                        unreachable!("tag-routed");
                    };
                    ctx.cluster.tracer().flow_end(
                        req_flow_id(lock, from),
                        inner.mgr.home.0,
                        Subsys::Dlm,
                        "lock.request",
                    );
                    let mut grants = inner.mgr.batch();
                    {
                        let mut locks = locks.borrow_mut();
                        let st = locks.entry(lock).or_default();
                        let admissible = if exclusive {
                            st.holders == 0
                        } else {
                            st.holders == 0 || (!st.exclusive && st.queue.is_empty())
                        };
                        if admissible {
                            st.holders += 1;
                            st.exclusive = exclusive;
                            grants.push(inner.grant(from, lock, exclusive));
                        } else {
                            st.queue.push_back((from, exclusive));
                        }
                    }
                    issue_grants(&inner, lock, grants).await;
                }
            })
            .on(T_SRV_UNLOCK, move |_ctx, msg| {
                let inner = Rc::clone(&unlock_inner);
                let locks = Rc::clone(&locks);
                async move {
                    let DlmMsg::SrvUnlock { lock, .. } = DlmMsg::parse(&msg.data) else {
                        unreachable!("tag-routed");
                    };
                    let mut grants = inner.mgr.batch();
                    {
                        let mut locks = locks.borrow_mut();
                        let st = locks.entry(lock).or_default();
                        assert!(st.holders > 0, "SRSL release without holders");
                        st.holders -= 1;
                        if st.holders == 0 {
                            // Admit the next exclusive, or the whole leading
                            // run of shared requesters.
                            if let Some(&(_, first_excl)) = st.queue.front() {
                                if first_excl {
                                    let (n, _) = st.queue.pop_front().unwrap();
                                    st.holders = 1;
                                    st.exclusive = true;
                                    grants.push(inner.grant(n, lock, true));
                                } else {
                                    st.exclusive = false;
                                    while let Some(&(n, excl)) = st.queue.front() {
                                        if excl {
                                            break;
                                        }
                                        st.queue.pop_front();
                                        st.holders += 1;
                                        grants.push(inner.grant(n, lock, false));
                                    }
                                }
                            }
                        }
                    }
                    issue_grants(&inner, lock, grants).await;
                }
            });
        // Server processing competes with any load on its node: the pump
        // charges `server_cpu_ns` on the server CPU before each dispatch.
        let cost = Cost::Cpu(mgr.cfg.server_cpu_ns);
        mgr.spawn_home("dlm.srsl.server", *server_port, cost, dispatcher);
    }
}

impl Inner {
    /// A batch entry granting `lock` to `to`'s agent.
    fn grant(&self, to: NodeId, lock: LockId, exclusive: bool) -> (NodeId, u16, DlmMsg) {
        let port = self.members.get(to).port;
        (to, port, DlmMsg::Grant { lock, exclusive })
    }
}

/// Issue the grants of `lock` serially (one server process, one NIC
/// doorbell at a time), flights overlapping, then recycle the batch. Runs
/// inside the serial service handler, so grant issue occupies the server
/// exactly as the hand-rolled loop did.
async fn issue_grants(inner: &Inner, lock: LockId, grants: Batch) {
    let Inner { mgr, members, .. } = inner;
    for &(to, port, grant) in &grants {
        let issue = mgr.cfg.grant_issue_ns;
        mgr.cluster.cpu(mgr.home).execute(issue).await;
        members.open_grant(mgr.home, to, lock);
        mgr.flight(mgr.home, to, port, grant);
    }
    mgr.recycle(grants);
}

/// Per-node SRSL handle.
pub struct SrslClient {
    dlm: SrslDlm,
    agent: Rc<Member<()>>,
}

impl SrslClient {
    /// The node this client operates from.
    pub fn node(&self) -> NodeId {
        self.agent.node
    }

    /// Acquire `lock` in `mode` through the server.
    pub async fn lock(&self, lock: LockId, mode: LockMode) {
        let Inner {
            mgr, server_port, ..
        } = &*self.dlm.inner;
        let from = self.agent.node;
        let exclusive = mode == LockMode::Exclusive;
        let acq = mgr.begin_acquire();
        let granted = self.agent.park(lock);
        mgr.cluster.tracer().flow_start(
            req_flow_id(lock, from),
            from.0,
            Subsys::Dlm,
            "lock.request",
        );
        let req = DlmMsg::SrvLock {
            lock,
            from,
            exclusive,
        };
        mgr.deliver(from, mgr.home, *server_port, req).await;
        granted.await;
        mgr.acquired(acq, from, lock, || {
            [("exclusive", u64::from(exclusive).into())]
        });
    }

    /// Release `lock`.
    pub async fn unlock(&self, lock: LockId) {
        let Inner {
            mgr, server_port, ..
        } = &*self.dlm.inner;
        let from = self.agent.node;
        mgr.released(from, lock, || []);
        let release = DlmMsg::SrvUnlock { lock, from };
        mgr.deliver(from, mgr.home, *server_port, release).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::time::{ms, us};
    use dc_sim::Sim;
    use std::cell::Cell;

    fn setup(nodes: usize) -> (Sim, Cluster, SrslDlm) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
        let members: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let dlm = SrslDlm::new(&cluster, DlmConfig::default(), NodeId(0), &members);
        (sim, cluster, dlm)
    }

    #[test]
    fn mutual_exclusion_through_server() {
        let (sim, _c, dlm) = setup(4);
        let in_cs: Rc<Cell<u32>> = Rc::default();
        let violations: Rc<Cell<u32>> = Rc::default();
        let h = sim.handle();
        for n in 1..4u32 {
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
                    hh.sleep(us(30)).await;
                    in_cs.set(in_cs.get() - 1);
                    client.unlock(0).await;
                }
            });
        }
        sim.run();
        assert_eq!(violations.get(), 0);
    }

    #[test]
    fn shared_holders_admitted_together() {
        let (sim, _c, dlm) = setup(5);
        let h = sim.handle();
        let concurrent: Rc<Cell<u32>> = Rc::default();
        let max_concurrent: Rc<Cell<u32>> = Rc::default();
        for n in 1..5u32 {
            let client = dlm.client(NodeId(n));
            let c = Rc::clone(&concurrent);
            let m = Rc::clone(&max_concurrent);
            let hh = h.clone();
            sim.spawn(async move {
                client.lock(0, LockMode::Shared).await;
                c.set(c.get() + 1);
                m.set(m.get().max(c.get()));
                hh.sleep(us(500)).await;
                c.set(c.get() - 1);
                client.unlock(0).await;
            });
        }
        sim.run();
        assert!(max_concurrent.get() >= 3);
    }

    #[test]
    fn server_load_delays_grants() {
        let grant_time = |loaded: bool| {
            let (sim, cluster, dlm) = setup(3);
            if loaded {
                for _ in 0..4 {
                    let cpu = cluster.cpu(NodeId(0));
                    sim.spawn(async move { cpu.execute(ms(100)).await });
                }
            }
            let client = dlm.client(NodeId(1));
            let h = sim.handle();
            sim.run_to(async move {
                client.lock(0, LockMode::Exclusive).await;
                h.now()
            })
        };
        let unloaded = grant_time(false);
        let loaded = grant_time(true);
        // Server CPU queueing under load is exactly what one-sided N-CoSED
        // avoids (see the cross-scheme integration tests).
        assert!(
            loaded > unloaded + ms(2),
            "loaded={loaded} unloaded={unloaded}"
        );
    }

    #[test]
    fn writer_waits_for_readers_then_enters() {
        let (sim, _c, dlm) = setup(4);
        let h = sim.handle();
        let readers: Rc<Cell<u32>> = Rc::default();
        for n in 1..3u32 {
            let client = dlm.client(NodeId(n));
            let r = Rc::clone(&readers);
            let hh = h.clone();
            sim.spawn(async move {
                client.lock(0, LockMode::Shared).await;
                r.set(r.get() + 1);
                hh.sleep(ms(1)).await;
                r.set(r.get() - 1);
                client.unlock(0).await;
            });
        }
        let w = dlm.client(NodeId(3));
        let r = Rc::clone(&readers);
        let hh = h.clone();
        let t = sim.spawn(async move {
            hh.sleep(us(100)).await;
            w.lock(0, LockMode::Exclusive).await;
            assert_eq!(r.get(), 0);
            let t = hh.now();
            w.unlock(0).await;
            t
        });
        sim.run();
        assert!(t.try_take().unwrap() >= ms(1));
    }
}
