//! The unified surface over all six lock managers.
//!
//! Every design in the crate — the paper's Figure-5 trio (SRSL, DQNL,
//! N-CoSED) and the shootout additions (CAS spin, lease/backoff,
//! MCS/ticket) — exposes the same client shape: `lock(lock, mode).await`
//! then `unlock(lock).await`. The set of designs is closed, so both halves
//! of the surface are enums: [`DesignKind`] is the config value scenarios
//! sweep, which knows how to construct a manager and hand out one client
//! per member node, and [`LockClient`] is that client — one variant per
//! concrete client, dispatched by `match`, so a call through it is the
//! concrete client's own future with nothing boxed around it.
//!
//! ## Client contract
//!
//! * `lock` resolves only once the caller owns the lock; `unlock` must be
//!   called by the same client before it locks the same id again. One
//!   outstanding operation per `(client, lock)` at a time.
//! * All designs guarantee mutual exclusion for exclusive holders, with one
//!   bounded exception: the lease design's guarantee is conditional on
//!   critical sections finishing within [`LEASE_NS`](crate::lease::LEASE_NS)
//!   — a lapsed holder can be displaced. Scenarios comparing designs must
//!   keep hold times under that bound (see DESIGN.md §13).
//! * `mode` is honored by N-CoSED and SRSL; the other four designs have no
//!   shared mode and treat every request as exclusive.

use dc_fabric::{Cluster, NodeId};

use crate::cas_spin::{CasSpinClient, CasSpinDlm};
use crate::config::{DlmConfig, LockMode};
use crate::dqnl::{DqnlClient, DqnlDlm};
use crate::lease::{LeaseClient, LeaseDlm};
use crate::mcs::{McsClient, McsDlm};
use crate::msg::LockId;
use crate::ncosed::{NcosedClient, NcosedDlm};
use crate::srsl::{SrslClient, SrslDlm};

/// A per-node lock client of any design (variants in [`DesignKind`] order).
pub enum LockClient {
    /// [`DesignKind::Srsl`].
    Srsl(SrslClient),
    /// [`DesignKind::Dqnl`].
    Dqnl(DqnlClient),
    /// [`DesignKind::Ncosed`].
    Ncosed(NcosedClient),
    /// [`DesignKind::CasSpin`].
    CasSpin(CasSpinClient),
    /// [`DesignKind::Lease`].
    Lease(LeaseClient),
    /// [`DesignKind::McsTicket`].
    McsTicket(McsClient),
}

impl LockClient {
    /// The node this client issues requests from.
    pub fn node(&self) -> NodeId {
        match self {
            LockClient::Srsl(c) => c.node(),
            LockClient::Dqnl(c) => c.node(),
            LockClient::Ncosed(c) => c.node(),
            LockClient::CasSpin(c) => c.node(),
            LockClient::Lease(c) => c.node(),
            LockClient::McsTicket(c) => c.node(),
        }
    }

    /// Acquire `lock` in `mode`; resolves once granted.
    pub async fn lock(&self, lock: LockId, mode: LockMode) {
        match self {
            LockClient::Srsl(c) => c.lock(lock, mode).await,
            LockClient::Dqnl(c) => c.lock(lock, mode).await,
            LockClient::Ncosed(c) => c.lock(lock, mode).await,
            LockClient::CasSpin(c) => c.lock(lock, mode).await,
            LockClient::Lease(c) => c.lock(lock, mode).await,
            LockClient::McsTicket(c) => c.lock(lock, mode).await,
        }
    }

    /// Release `lock`.
    pub async fn unlock(&self, lock: LockId) {
        match self {
            LockClient::Srsl(c) => c.unlock(lock).await,
            LockClient::Dqnl(c) => c.unlock(lock).await,
            LockClient::Ncosed(c) => c.unlock(lock).await,
            LockClient::CasSpin(c) => c.unlock(lock).await,
            LockClient::Lease(c) => c.unlock(lock).await,
            LockClient::McsTicket(c) => c.unlock(lock).await,
        }
    }
}

/// The closed set of lock designs, shootout legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Send/receive server locking (two-sided baseline).
    Srsl,
    /// Distributed-queue non-shared locking (one-sided CAS queue).
    Dqnl,
    /// N-CoSED, the paper's shared+exclusive one-sided design.
    Ncosed,
    /// Pure remote-CAS spin lock with bounded retry pause.
    CasSpin,
    /// Time-bounded lease ownership with seeded exponential backoff.
    Lease,
    /// MCS-style FIFO ticket queue from remote fetch-and-add.
    McsTicket,
}

impl DesignKind {
    /// Every design, shootout legend order.
    pub const ALL: [DesignKind; 6] = [
        DesignKind::Srsl,
        DesignKind::Dqnl,
        DesignKind::Ncosed,
        DesignKind::CasSpin,
        DesignKind::Lease,
        DesignKind::McsTicket,
    ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            DesignKind::Srsl => "SRSL",
            DesignKind::Dqnl => "DQNL",
            DesignKind::Ncosed => "N-CoSED",
            DesignKind::CasSpin => "CAS-Spin",
            DesignKind::Lease => "Lease",
            DesignKind::McsTicket => "MCS-FAA",
        }
    }

    /// Look a design up by its [`DesignKind::label`].
    pub fn by_label(label: &str) -> Option<DesignKind> {
        DesignKind::ALL.into_iter().find(|d| d.label() == label)
    }

    /// Construct the manager on `home` and return one client per entry of
    /// `members`, in `members` order. SRSL manages its lock table
    /// server-side and ignores `num_locks`.
    pub fn build(
        self,
        cluster: &Cluster,
        _: DlmConfig,
        home: NodeId,
        num_locks: u32,
        members: &[NodeId],
    ) -> Vec<LockClient> {
        let nodes = members.iter().copied();
        match self {
            DesignKind::Srsl => {
                let dlm = SrslDlm::new(cluster, home, members);
                nodes.map(|n| LockClient::Srsl(dlm.client(n))).collect()
            }
            DesignKind::Dqnl => {
                let dlm = DqnlDlm::new(cluster, home, num_locks, members);
                nodes.map(|n| LockClient::Dqnl(dlm.client(n))).collect()
            }
            DesignKind::Ncosed => {
                let dlm = NcosedDlm::new(cluster, home, num_locks, members);
                nodes.map(|n| LockClient::Ncosed(dlm.client(n))).collect()
            }
            DesignKind::CasSpin => {
                let dlm = CasSpinDlm::new(cluster, home, num_locks, members);
                nodes.map(|n| LockClient::CasSpin(dlm.client(n))).collect()
            }
            DesignKind::Lease => {
                let dlm = LeaseDlm::new(cluster, home, num_locks, members);
                nodes.map(|n| LockClient::Lease(dlm.client(n))).collect()
            }
            DesignKind::McsTicket => {
                let dlm = McsDlm::new(cluster, home, num_locks, members);
                nodes
                    .map(|n| LockClient::McsTicket(dlm.client(n)))
                    .collect()
            }
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
    use std::rc::Rc;

    #[test]
    fn labels_are_unique_and_resolvable() {
        for d in DesignKind::ALL {
            assert_eq!(DesignKind::by_label(d.label()), Some(d));
        }
        assert_eq!(DesignKind::by_label("nope"), None);
    }

    #[test]
    fn every_design_locks_and_unlocks_through_the_enum() {
        for design in DesignKind::ALL {
            let sim = Sim::new();
            let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
            let members: Vec<NodeId> = (0..4).map(NodeId).collect();
            let clients = design.build(&cluster, DlmConfig, NodeId(0), 4, &members);
            assert_eq!(clients.len(), 4, "{design:?}");
            for (i, c) in clients.iter().enumerate() {
                assert_eq!(c.node(), NodeId(i as u32), "{design:?}");
            }
            let done: Rc<Cell<u32>> = Rc::default();
            let h = sim.handle();
            for c in clients.into_iter().skip(1) {
                let done = Rc::clone(&done);
                let hh = h.clone();
                sim.spawn(async move {
                    c.lock(1, LockMode::Exclusive).await;
                    hh.sleep(us(20)).await;
                    c.unlock(1).await;
                    done.set(done.get() + 1);
                });
            }
            sim.run();
            assert_eq!(done.get(), 3, "{design:?} client stuck");
        }
    }
}
