//! Lease/backoff lock — time-bounded ownership with seeded exponential
//! backoff.
//!
//! One 64-bit [`LeaseWord`] per lock at the home node: the owner in the high
//! half, the lease expiry (µs of sim time) in the low half. Acquire is a CAS
//! of `FREE -> (me, now + lease)`; on conflict the waiter decodes the word
//! it lost to, and either *steals* an expired lease with a second CAS or
//! backs off exponentially (seeded, per-node-jittered, capped) and retries.
//! Release is a CAS of the exact word the owner installed back to `FREE` —
//! if that CAS misses, the lease was stolen mid-hold and the release becomes
//! a no-op (counted in `dlm.lease.lost`).
//!
//! **Contract caveat**: mutual exclusion holds only for critical sections
//! shorter than [`DlmConfig::lease_ns`]. A holder that sleeps past its
//! expiry can coexist with the thief — that is the design's documented
//! trade, not a bug (see DESIGN.md §10, "The `LockClient` contract").
//!
//! Steals are reported to a home-agent service with a fire-and-forget
//! [`DlmMsg::LeaseSteal`] notice so operators can see contention-driven
//! ownership churn (`dlm.lease.steals`); the notice carries no grant
//! authority and its loss is harmless.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dc_fabric::{Cluster, NodeId, WordTable};
use dc_sim::rng::splitmix64;
use dc_svc::{Cost, Ctx, Dispatcher};
use dc_trace::Counter;

use crate::config::{DlmConfig, LockMode};
use crate::manager::Manager;
use crate::msg::{DlmMsg, LockId, T_LEASE_STEAL};
use crate::word::LeaseWord;

struct Inner {
    mgr: Rc<Manager>,
    table: WordTable,
    home_port: u16,
    lost: Counter,
}

/// The lease/backoff lock manager.
#[derive(Clone)]
pub struct LeaseDlm {
    inner: Rc<Inner>,
}

impl LeaseDlm {
    /// Create the manager with lease words homed on `home`. `members` is
    /// accepted for interface parity; only the home runs a service (the
    /// steal-notice sink).
    pub fn new(
        cluster: &Cluster,
        cfg: DlmConfig,
        home: NodeId,
        num_locks: u32,
        members: &[NodeId],
    ) -> LeaseDlm {
        let _ = members;
        let home_port = cluster.alloc_port_for(home, "dlm.lease.home");
        let metrics = cluster.metrics();
        let steals = metrics.counter("dlm.lease.steals");
        let dlm = LeaseDlm {
            inner: Rc::new(Inner {
                mgr: Manager::new(cluster, cfg, home),
                table: WordTable::new(cluster, home, num_locks as usize),
                home_port,
                lost: metrics.counter("dlm.lease.lost"),
            }),
        };
        let dispatcher = Dispatcher::new().on(T_LEASE_STEAL, move |_ctx: Ctx, msg| {
            let steals = steals.clone();
            async move {
                let DlmMsg::LeaseSteal { .. } = DlmMsg::parse(&msg.data) else {
                    unreachable!("tag-routed");
                };
                steals.inc();
            }
        });
        let cost = Cost::Sleep(cfg.agent_proc_ns);
        dlm.inner
            .mgr
            .spawn_home("dlm.lease.home", home_port, cost, dispatcher);
        dlm
    }

    /// Client handle for `node`.
    pub fn client(&self, node: NodeId) -> LeaseClient {
        LeaseClient {
            dlm: self.clone(),
            node,
            held: RefCell::new(HashMap::new()),
        }
    }
}

/// Per-node lease-lock handle.
pub struct LeaseClient {
    dlm: LeaseDlm,
    node: NodeId,
    /// Lock -> the exact raw word this client installed at acquisition
    /// (needed to release precisely, and to detect a steal).
    held: RefCell<HashMap<LockId, u64>>,
}

impl LeaseClient {
    /// The node this client operates from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn my_word(&self, now_ns: u64) -> u64 {
        let expiry_us = now_ns / 1_000 + self.dlm.inner.mgr.cfg.lease_ns / 1_000;
        assert!(expiry_us <= u32::MAX as u64, "sim ran past the lease epoch");
        LeaseWord {
            owner: Some(self.node),
            expiry_us: expiry_us as u32,
        }
        .encode()
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
        let cluster = &mgr.cluster;
        let acq = mgr.begin_acquire();
        let word = lock as usize;
        let mut attempts = 0u64;
        let mut stole = false;
        loop {
            let mine = self.my_word(cluster.sim().now());
            let old = table.cas(self.node, word, LeaseWord::FREE, mine).await;
            if old == LeaseWord::FREE {
                self.held.borrow_mut().insert(lock, mine);
                break;
            }
            let seen = LeaseWord::decode(old);
            if seen.expired(cluster.sim().now() / 1_000) {
                // The owner lapsed: steal with a targeted CAS on the exact
                // stale word, so two thieves can never both succeed.
                let mine = self.my_word(cluster.sim().now());
                let prior = table.cas(self.node, word, old, mine).await;
                if prior == old {
                    self.held.borrow_mut().insert(lock, mine);
                    stole = true;
                    // Fire-and-forget notice to the home's steal counter.
                    let notice = DlmMsg::LeaseSteal {
                        lock,
                        from: self.node,
                        stolen_from: seen.owner.expect("expired implies owned"),
                    };
                    mgr.post_lossy(self.node, mgr.home, *home_port, notice);
                    break;
                }
                // Lost the steal race; treat as a normal failed attempt.
            }
            attempts += 1;
            let cfg = &mgr.cfg;
            let exp = attempts.min(6) as u32;
            let ceiling = (cfg.backoff_base_ns << exp).min(cfg.backoff_max_ns);
            let jitter =
                splitmix64(((self.node.0 as u64) << 40) ^ (u64::from(lock) << 20) ^ attempts)
                    % cfg.backoff_base_ns.max(1);
            mgr.backoff(self.node, ceiling + jitter, attempts).await;
        }
        mgr.acquired(acq, self.node, lock, || {
            [
                ("backoffs", attempts.into()),
                ("stolen", u64::from(stole).into()),
            ]
        });
    }

    /// Release `lock`. If the lease was stolen mid-hold the release is a
    /// counted no-op — the word now belongs to the thief.
    pub async fn unlock(&self, lock: LockId) {
        let mine = self
            .held
            .borrow_mut()
            .remove(&lock)
            .expect("lease unlock of unheld lock");
        let Inner {
            mgr, table, lost, ..
        } = &*self.dlm.inner;
        mgr.released(self.node, lock, || []);
        let old = table
            .cas(self.node, lock as usize, mine, LeaseWord::FREE)
            .await;
        if old != mine {
            // Stolen while we held past expiry (or the thief's own word is
            // already installed). Ownership already moved; nothing to free.
            lost.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::time::{ms, us};
    use dc_sim::Sim;
    use std::cell::Cell;

    fn setup(nodes: usize) -> (Sim, Cluster, LeaseDlm) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
        let members: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let dlm = LeaseDlm::new(&cluster, DlmConfig::default(), NodeId(0), 2, &members);
        (sim, cluster, dlm)
    }

    #[test]
    fn mutual_exclusion_for_short_holds() {
        let (sim, _c, dlm) = setup(6);
        let in_cs: Rc<Cell<u32>> = Rc::default();
        let violations: Rc<Cell<u32>> = Rc::default();
        let done: Rc<Cell<u32>> = Rc::default();
        for n in 1..6u32 {
            let client = dlm.client(NodeId(n));
            let in_cs = Rc::clone(&in_cs);
            let violations = Rc::clone(&violations);
            let done = Rc::clone(&done);
            let h = sim.handle();
            sim.spawn(async move {
                for _ in 0..3 {
                    client.lock(0, LockMode::Exclusive).await;
                    if in_cs.get() > 0 {
                        violations.set(violations.get() + 1);
                    }
                    in_cs.set(in_cs.get() + 1);
                    h.sleep(us(50)).await;
                    in_cs.set(in_cs.get() - 1);
                    client.unlock(0).await;
                }
                done.set(done.get() + 1);
            });
        }
        sim.run();
        assert_eq!(violations.get(), 0);
        assert_eq!(done.get(), 5, "a lease waiter starved out");
    }

    #[test]
    fn expired_lease_is_stolen_and_counted() {
        let (sim, cluster, dlm) = setup(3);
        let hog = dlm.client(NodeId(1));
        let thief = dlm.client(NodeId(2));
        let h = sim.handle();
        let hh = h.clone();
        sim.spawn(async move {
            hog.lock(0, LockMode::Exclusive).await;
            // Sleep far past the 2ms lease: the hold is broken by contract.
            hh.sleep(ms(10)).await;
            hog.unlock(0).await; // counted as lost, not an error
        });
        let stolen_at: Rc<Cell<u64>> = Rc::default();
        let sa = Rc::clone(&stolen_at);
        let hh = h.clone();
        sim.spawn(async move {
            hh.sleep(ms(1)).await;
            thief.lock(0, LockMode::Exclusive).await;
            sa.set(hh.now());
            thief.unlock(0).await;
        });
        sim.run();
        let snapshot = cluster.metrics().snapshot();
        assert!(
            stolen_at.get() > ms(2) && stolen_at.get() < ms(10),
            "thief acquired at {} — expected between lease expiry and hog release",
            stolen_at.get()
        );
        assert_eq!(snapshot.counter("dlm.lease.steals"), 1, "steal not counted");
        assert_eq!(
            snapshot.counter("dlm.lease.lost"),
            1,
            "lost lease not counted"
        );
    }

    #[test]
    fn uncontended_acquire_is_one_atomic() {
        let (sim, _c, dlm) = setup(2);
        let client = dlm.client(NodeId(1));
        let h = sim.handle();
        let elapsed = sim.run_to(async move {
            let t0 = h.now();
            client.lock(0, LockMode::Exclusive).await;
            h.now() - t0
        });
        assert!(elapsed < 20_000, "uncontended lease lock took {elapsed}ns");
    }
}
