//! # dc-ddss — Distributed Data Sharing Substrate
//!
//! The paper's first service primitive (its §4.1, detailed in the authors'
//! HiPC'06 DDSS paper): a low-overhead soft shared state for cluster
//! services, built on one-sided RDMA and remote atomics. Services allocate
//! named shared segments with the coherence model they need — a load map
//! can tolerate delta/temporal staleness, a cache directory wants versioned
//! reads, reconfiguration state wants strict coherence — and then `get`/
//! `put` them without involving the home node's CPU.
//!
//! Components, after the paper's Figure 2 (its IPC-management module and
//! the global memory aggregator are not carried: no evaluated figure
//! exercises them — EXPERIMENTS.md "Known deviations"):
//!
//! * **Memory management** — [`alloc::FreeListAllocator`] carving each
//!   node's registered heap.
//! * **Data placement** — the `home` argument of
//!   [`substrate::DdssClient::allocate`]: local or any remote node.
//! * **Locking services** — [`substrate::DdssClient::lock`]/`unlock`,
//!   CAS-based per-segment locks.
//! * **Coherency & consistency maintenance** — [`coherence::Coherence`]
//!   models (null, read, write, strict, version, delta, temporal) and
//!   versioned compare-and-put.
//!
//! ```
//! use dc_sim::Sim;
//! use dc_fabric::{Cluster, FabricModel, NodeId};
//! use dc_ddss::{Coherence, Ddss, DdssConfig};
//!
//! let sim = Sim::new();
//! let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
//! let ddss = Ddss::new(&cluster, DdssConfig::default(), &[NodeId(0), NodeId(1)]);
//! let client = ddss.client(NodeId(0));
//! let value = sim.run_to(async move {
//!     let key = client.allocate(NodeId(1), 64, Coherence::Version).await.unwrap();
//!     client.put(&key, b"shared state").await;
//!     client.get(&key).await
//! });
//! assert_eq!(&value[..12], b"shared state");
//! ```

pub mod alloc;
pub mod coherence;
pub mod ctrl;
pub mod substrate;

pub use coherence::Coherence;
pub use substrate::{Ddss, DdssClient, DdssConfig, SharedKey, BLOCK_HDR};
