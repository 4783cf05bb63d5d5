//! # dc-dlm — distributed lock management services
//!
//! The paper's second service primitive (§4.2, detailed in the authors'
//! CCGrid'07 paper): high-performance distributed locking using
//! network-based remote atomic operations.
//!
//! Six designs, one family: the same one-sided CAS/FAA verbs (or, for
//! SRSL, messages) over a 64-bit word homed on one node, differing only in
//! word encoding and hand-off protocol. Pick one with the [`DesignKind`]
//! enum; [`DesignKind::build`] hands out [`LockClient`]s, an enum over the
//! six concrete clients. Inside the crate every design stands on one
//! private skeleton (`manager.rs`: word table, membership and grant
//! listener, message post, acquire/release accounting) and its own file
//! holds only its protocol. The Figure-5 trio:
//!
//! * [`NcosedDlm`] — **N-CoSED**, the paper's contribution: one-sided
//!   CAS/FAA locking for both shared and exclusive modes over the 64-bit
//!   lock word (exclusive-queue tail ‖ shared-request count), with
//!   peer-to-peer grant forwarding.
//! * [`DqnlDlm`] — **DQNL**, distributed queue based non-shared locking
//!   (prior one-sided work): same CAS queue, but no shared mode, so
//!   reader cascades serialize.
//! * [`SrslDlm`] — **SRSL**, traditional send/receive server locking: every
//!   operation is a message to a server process whose CPU is on the
//!   critical path.
//!
//! And the `ext_lock_shootout` contenders, built over the same one-sided
//! verbs:
//!
//! * [`CasSpinDlm`] — pure remote-CAS spin lock with bounded retry pause:
//!   cheapest possible uncontended path, no fairness bound at all.
//! * [`LeaseDlm`] — time-bounded lease ownership with seeded exponential
//!   backoff and expired-lease stealing (mutual exclusion conditional on
//!   hold time < lease; see DESIGN.md).
//! * [`McsDlm`] — MCS-style FIFO ticket queue from remote fetch-and-add
//!   over a shared [`word::TicketWord`].
//!
//! ```
//! use dc_sim::Sim;
//! use dc_fabric::{Cluster, FabricModel, NodeId};
//! use dc_dlm::{DlmConfig, LockMode, NcosedDlm};
//!
//! let sim = Sim::new();
//! let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 3);
//! let members = [NodeId(0), NodeId(1), NodeId(2)];
//! let dlm = NcosedDlm::new(&cluster, DlmConfig::default(), NodeId(0), 16, &members);
//! let client = dlm.client(NodeId(1));
//! sim.run_to(async move {
//!     client.lock(3, LockMode::Exclusive).await;
//!     // … critical section …
//!     client.unlock(3).await;
//! });
//! ```

pub mod cas_spin;
pub mod config;
pub mod design;
pub mod dqnl;
pub mod lease;
mod manager;
pub mod mcs;
pub mod msg;
pub mod ncosed;
pub mod srsl;
pub mod word;

pub use cas_spin::{CasSpinClient, CasSpinDlm};
pub use config::{DlmConfig, LockMode};
pub use design::{DesignKind, LockClient};
pub use dqnl::{DqnlClient, DqnlDlm};
pub use lease::{LeaseClient, LeaseDlm};
pub use mcs::{McsClient, McsDlm};
pub use msg::LockId;
pub use ncosed::{NcosedClient, NcosedDlm};
pub use srsl::{SrslClient, SrslDlm};
pub use word::{LeaseWord, LockWord, TicketWord};
