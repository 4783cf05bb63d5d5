//! # dc-resmon — active fine-grained resource monitoring
//!
//! The paper's §5.2 service (detailed in the authors' RAIT'06 paper): get an
//! accurate, millisecond-granularity picture of back-end resource usage
//! (i) without an extra process being scheduled on the monitored node and
//! (ii) resiliently under load. The kernel data structures holding resource
//! usage are registered with the NIC (see [`dc_fabric::kstat`]); the
//! front-end reads them with one-sided RDMA.
//!
//! * [`MonitorScheme`] — the five read paths (Socket-Sync/Async,
//!   RDMA-Sync/Async, e-RDMA-Sync).
//! * [`Monitor`] — the front-end service ([`Monitor::observe`] /
//!   [`Monitor::load`]).
//! * [`BurstLoad`] — materializes bursty thread schedules on a node so both
//!   the monitored quantity and the interference are real.

//! ```
//! use dc_sim::Sim;
//! use dc_fabric::{Cluster, FabricModel, NodeId};
//! use dc_resmon::{Monitor, MonitorCfg, MonitorScheme};
//!
//! let sim = Sim::new();
//! let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
//! let monitor = Monitor::spawn(&cluster, MonitorScheme::RdmaSync,
//!                              MonitorCfg::default(), NodeId(0), &[NodeId(1)]);
//! cluster.cpu(NodeId(1)).thread_started();
//! let view = sim.run_to(async move { monitor.observe(NodeId(1)).await });
//! assert_eq!(view.app_threads, 1); // read one-sided, no remote CPU
//! ```

pub mod loadgen;
pub mod monitor;
pub mod scheme;

pub use loadgen::BurstLoad;
pub use monitor::{Monitor, MonitorCfg};
pub use scheme::MonitorScheme;
