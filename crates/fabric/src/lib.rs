//! # dc-fabric — simulated RDMA-capable system-area network
//!
//! This crate stands in for the InfiniBand cluster the paper evaluated on.
//! It models a cluster of nodes connected by a SAN whose NICs support the
//! hardware features the paper's designs rely on:
//!
//! * **One-sided verbs** — [`Cluster::rdma_read`] / [`Cluster::rdma_write`]
//!   against registered memory regions, completing *without any involvement
//!   of the target node's CPU*.
//! * **Remote atomic operations** — [`Cluster::atomic_cas`]
//!   (compare-and-swap) and [`Cluster::atomic_faa`] (fetch-and-add) on
//!   64-bit words of registered memory, linearized at the target NIC.
//! * **Shared words** — [`WordTable`], one `u64` per entity in a registered
//!   region on a home node: the layout the lock words, the cache directory,
//!   the cache index and the site map all stand on.
//! * **Two-sided send/recv** — [`Cluster::send`] to a bound [`Endpoint`],
//!   either as an RDMA send (NIC-delivered) or as host TCP, which charges
//!   protocol-processing time on *both* CPUs and is therefore delayed when
//!   the target node is loaded.
//!
//! Each node carries a [`cpu::CpuModel`] — a round-robin scheduler over a
//! configurable number of cores with a preemption quantum — and a kernel
//! statistics block ([`kstat::KernelStats`]) that the scheduler keeps
//! up to date inside a registered memory region, exactly like the paper's
//! registered kernel data structures: a front-end node can `rdma_read` the
//! current run-queue length without scheduling anything on the target.
//!
//! Latency and bandwidth constants live in [`model::FabricModel`] and are
//! calibrated to the paper's 2007-era testbed (see
//! [`model::FabricModel::calibrated_2007`]).
//!
//! ```
//! use dc_sim::Sim;
//! use dc_fabric::{Cluster, FabricModel, NodeId, RemoteAddr};
//!
//! let sim = Sim::new();
//! let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
//! let region = cluster.register(NodeId(1), 4096);
//! let addr = RemoteAddr { node: NodeId(1), region, offset: 0 };
//!
//! let c = cluster.clone();
//! let data = sim.run_to(async move {
//!     c.rdma_write(NodeId(0), addr, b"hello").await;
//!     c.rdma_read(NodeId(0), addr, 5).await
//! });
//! assert_eq!(&data[..], b"hello");
//! ```

pub mod cluster;
pub mod cpu;
pub mod faults;
pub mod kstat;
pub mod mem;
pub mod model;
mod ports;
pub mod words;

pub use cluster::{Cluster, Endpoint, Message, NodeId, Transport, VerbStats};
pub use cpu::{CpuConfig, CpuModel};
pub use faults::{FabricError, FaultConfig, FaultPlan, FaultStats};
pub use kstat::KernelStats;
pub use mem::{RegionId, RemoteAddr};
pub use model::FabricModel;
pub use words::WordTable;
