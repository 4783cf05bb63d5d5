//! Pure CAS spin lock — the simplest one-sided design in the shootout.
//!
//! One 64-bit word per lock at the home node: 0 = free, otherwise owner's
//! node-id + 1. Acquire is a remote compare-and-swap of `0 -> me`, retried
//! after a fixed pause (plus a small deterministic per-node jitter) until it
//! lands; release is a single CAS of `me -> 0`. No agents, no messages, no
//! queue — which is exactly the point: under low contention an acquisition
//! is one ~12.5µs atomic with nothing else on the path, while under high
//! contention every waiter hammers the same word and whoever's retry timer
//! happens to fire first after a release wins. The design has no fairness
//! or starvation bound at all; the `ext_lock_shootout` scenario measures
//! how badly that hurts as contention grows.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dc_fabric::{Cluster, NodeId, WordTable};
use dc_sim::rng::splitmix64;
use dc_trace::Counter;

use crate::config::LockMode;
use crate::manager::Manager;
use crate::msg::LockId;

/// Pause between failed CAS attempts, plus a deterministic per-node jitter
/// of up to half of it so spinners do not phase-lock. One remote atomic is
/// ~12.5µs round trip; spinning much faster than that only burns fabric,
/// much slower starves the spinner.
const SPIN_RETRY_NS: u64 = 20_000;
// Half of it is the jitter's modulus.
const _: () = assert!(SPIN_RETRY_NS >= 2);

struct Inner {
    mgr: Rc<Manager>,
    table: WordTable,
    retries: Counter,
}

/// The CAS spin-lock manager.
#[derive(Clone)]
pub struct CasSpinDlm {
    inner: Rc<Inner>,
}

impl CasSpinDlm {
    /// Create the manager with lock words homed on `home`. `members` is
    /// accepted for interface parity with the agent-based designs; the
    /// spin lock needs no per-node services.
    pub fn new(cluster: &Cluster, home: NodeId, num_locks: u32, members: &[NodeId]) -> CasSpinDlm {
        let _ = members;
        CasSpinDlm {
            inner: Rc::new(Inner {
                mgr: Manager::new(cluster, home),
                table: WordTable::new(cluster, home, num_locks as usize),
                retries: cluster.metrics().counter("dlm.cas_spin.retries"),
            }),
        }
    }

    /// Client handle for `node`.
    pub fn client(&self, node: NodeId) -> CasSpinClient {
        CasSpinClient {
            dlm: self.clone(),
            node,
            held: RefCell::new(HashMap::new()),
        }
    }
}

/// Per-node CAS spin-lock handle.
pub struct CasSpinClient {
    dlm: CasSpinDlm,
    node: NodeId,
    held: RefCell<HashMap<LockId, bool>>,
}

impl CasSpinClient {
    /// The node this client operates from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Acquire `lock`. The spin lock has no shared mode; `mode` is accepted
    /// for interface parity and every request excludes.
    pub async fn lock(&self, lock: LockId, mode: LockMode) {
        let _ = mode;
        let Inner {
            mgr,
            table,
            retries,
        } = &*self.dlm.inner;
        let acq = mgr.begin_acquire();
        let word = lock as usize;
        let me = (self.node.0 + 1) as u64;
        let mut attempts = 0u64;
        loop {
            let old = table.cas(self.node, word, 0, me).await;
            if old == 0 {
                break;
            }
            retries.inc();
            attempts += 1;
            // Deterministic per-(node, attempt) jitter keeps concurrent
            // spinners from phase-locking into a fixed retry order.
            let jitter = splitmix64(((self.node.0 as u64) << 32) ^ attempts) % (SPIN_RETRY_NS / 2);
            mgr.backoff(self.node, SPIN_RETRY_NS + jitter, attempts)
                .await;
        }
        assert!(
            self.held.borrow_mut().insert(lock, true).is_none(),
            "CAS-spin re-lock of a held lock"
        );
        mgr.acquired(acq, self.node, lock, || [("spins", attempts.into())]);
    }

    /// Release `lock`.
    pub async fn unlock(&self, lock: LockId) {
        assert!(
            self.held.borrow_mut().remove(&lock).is_some(),
            "CAS-spin unlock of unheld lock"
        );
        let Inner { mgr, table, .. } = &*self.dlm.inner;
        mgr.released(self.node, lock, || []);
        let me = (self.node.0 + 1) as u64;
        let old = table.cas(self.node, lock as usize, me, 0).await;
        assert_eq!(old, me, "CAS-spin word corrupted: owner {old:#x}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::time::us;
    use dc_sim::Sim;
    use std::cell::Cell;

    #[test]
    fn mutual_exclusion_under_spinning() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 6);
        let members: Vec<NodeId> = (0..6).map(NodeId).collect();
        let dlm = CasSpinDlm::new(&cluster, NodeId(0), 2, &members);
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
                    h.sleep(us(30)).await;
                    in_cs.set(in_cs.get() - 1);
                    client.unlock(0).await;
                }
                done.set(done.get() + 1);
            });
        }
        sim.run();
        assert_eq!(violations.get(), 0);
        assert_eq!(done.get(), 5, "a spinner never acquired");
    }

    #[test]
    fn word_freed_after_release() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let dlm = CasSpinDlm::new(&cluster, NodeId(0), 2, &[]);
        let client = dlm.client(NodeId(1));
        sim.run_to(async move {
            client.lock(1, LockMode::Exclusive).await;
            client.unlock(1).await;
        });
        assert_eq!(dlm.inner.table.peek(1), 0, "release must free the word");
    }

    #[test]
    fn uncontended_acquire_is_one_atomic() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let dlm = CasSpinDlm::new(&cluster, NodeId(0), 1, &[]);
        let client = dlm.client(NodeId(1));
        let h = sim.handle();
        let elapsed = sim.run_to(async move {
            let t0 = h.now();
            client.lock(0, LockMode::Exclusive).await;
            h.now() - t0
        });
        // One CAS round trip (~13us), nothing else.
        assert!(elapsed < 20_000, "uncontended spin lock took {elapsed}ns");
    }
}
