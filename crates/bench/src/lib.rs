//! # dc-bench — the evaluation harness
//!
//! One module per table/figure of the paper's evaluation (plus the §6
//! work-in-progress experiments and our ablations), each exposing a `run()`
//! that produces structured results and a `table()` that renders the
//! paper-style rows. [`scenario`] registers them by name, and `dc-bench`
//! ([`cli`]) is the one front door: it regenerates any of them as text
//! tables or `dc-bench-report/v2` JSON, blesses and checks the committed
//! baselines ([`diff`]) and evaluates the paper's shape claims
//! ([`claims`]). Host time is measured by the standalone `benchmark/`
//! crate, not here.
//!
//! | module | artifact |
//! |--------|----------|
//! | [`fig3a`] | DDSS put() latency by coherence model |
//! | [`fig3b`] | distributed STORM, sockets vs DDSS |
//! | [`fig5`]  | lock cascading latency (shared / exclusive panels) |
//! | [`fig6`]  | cooperative-cache TPS, 2 and 8 proxies |
//! | [`fig8a`] | monitoring accuracy under bursty load |
//! | [`fig8b`] | hosted throughput by monitoring scheme |
//! | [`ext_flowcontrol`] | §6 packetized vs credit flow control |
//! | [`ext_reconfig`] | §6 fine- vs coarse-grained adaptation |
//! | [`ext_ablations`] | coherence verbs, cache capacity, cadence |
//! | [`ext_shootout`] | lock-design shootout under Zipf contention |
//! | [`ext_webfarm`] | at-scale open-loop webfarm across the saturation knee |
//! | [`ext_incast`] | incast fan-in sweep, eRPC vs SDP vs AZ-SDP lanes |

pub mod claims;
pub mod cli;
pub mod diff;
pub mod ext_ablations;
pub mod ext_flowcontrol;
pub mod ext_incast;
pub mod ext_reconfig;
pub mod ext_shootout;
pub mod ext_webfarm;
pub mod fig3a;
pub mod fig3b;
pub mod fig5;
pub mod fig6;
pub mod fig8a;
pub mod fig8b;
pub mod flame;
pub mod scenario;
pub mod sweep;
pub mod top;
