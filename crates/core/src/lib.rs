//! # dc-core — the experiment engines
//!
//! The three multi-tier experiment engines the evaluation figures are built
//! on. They import `dc-sim`, `dc-fabric`, `dc-coopcache`, `dc-resmon`,
//! `dc-workloads` and `dc-trace`; the manifest's `dc-sockets`, `dc-ddss`,
//! `dc-dlm` and `dc-reconfig` edges are unused (no service scenario runs on
//! a primitive yet) and stay only because dropping them would rewrite
//! `benchmark/Cargo.lock`.
//!
//! * [`webfarm::run_webfarm`] — Figure 6: Zipf clients → proxy tier with a
//!   cooperative caching scheme → backend.
//! * [`hosting::run_hosting`] — Figure 8b: a load balancer routing two
//!   hosted services across back-ends using a monitoring scheme.
//! * [`webfarm_scale::run_webfarm_scale`] — the at-scale extension: up to
//!   10^6 open-loop clients (slab state, not tasks) driving hundreds of
//!   proxy/app nodes across the saturation knee.
//!
//! Plus [`LatencyHist`] / [`tps`] (from `dc-trace`) for latency/TPS
//! accounting, and [`table`] for the paper-style text tables the benches
//! print.

//! ```no_run
//! use dc_core::{run_webfarm, WebFarmCfg};
//! use dc_coopcache::CacheScheme;
//!
//! let result = run_webfarm(&WebFarmCfg {
//!     scheme: CacheScheme::Mtacc,
//!     proxies: 8,
//!     ..WebFarmCfg::default()
//! });
//! println!("TPS {:.0}, hit rate {:.1}%", result.tps, 100.0 * result.cache.hit_rate());
//! ```

pub mod hosting;
pub mod table;
pub mod webfarm;
pub mod webfarm_scale;

pub use hosting::{run_hosting, run_hosting_traced, HostingCfg, HostingResult};
pub use table::Table;
pub use webfarm::{
    run_webfarm, run_webfarm_observed, run_webfarm_traced, TraceArtifacts, WebFarmCfg,
    WebFarmResult,
};
pub use webfarm_scale::{
    resolved_shards, run_webfarm_scale, run_webfarm_scale_stats, ScaleFarmCfg, ScalePoint,
};
