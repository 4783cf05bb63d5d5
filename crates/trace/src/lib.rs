//! # dc-trace — deterministic observability for the simulated data center
//!
//! The paper's resource-monitoring argument is that visibility must be
//! cheap and always-on; this crate is the reproduction's version of that
//! for its own internals. It provides:
//!
//! - [`Tracer`] — a sim-time-stamped structured event/span recorder. No
//!   wall clock is ever consulted and recording never touches the executor
//!   (no spawns, no timers), so a traced run schedules identically to an
//!   untraced one and two traced runs of the same seed export byte-identical
//!   documents. Memory is bounded via [`TraceMode`] (full / ring / sample).
//! - [`Registry`] — a unified metrics registry of named [`Counter`]s,
//!   [`Gauge`]s, and [`LatencyHist`] handles, enumerable in deterministic
//!   (lexicographic) order, replacing the per-layer ad-hoc stat cells.
//! - Exporters — Chrome trace-event JSON (loads in Perfetto /
//!   `chrome://tracing`; one process track per node, one thread track per
//!   subsystem), a flat [`MetricsSnapshot`] JSON, and the
//!   [`BenchReport`] schema the `fig*`/sweep binaries emit under `--json`.
//!
//! JSON is hand-rolled ([`json::JsonWriter`]) because the workspace's
//! vendored `serde` is an offline marker stub; [`json::validate`] is the
//! strict parser the tests and CI artifact job use to check every export.

pub mod critical;
pub mod event;
pub mod flame;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod report;
pub mod tracer;

pub use critical::{
    LatencyBreakdown, RequestBreakdown, StageAgg, STAGES, STAGE_KEY, STAGE_REQUEST,
};
pub use event::{ArgVal, Event, Ph, Subsys, TraceMode};
pub use flame::{fold_into, render_collapsed};
pub use hist::{tps, HistSummary, LatencyHist, StreamHist};
pub use json::JsonValue;
pub use metrics::{Counter, Gauge, HistHandle, MetricValue, MetricsSnapshot, Registry};
pub use report::{BenchReport, ReportTable, BENCH_REPORT_SCHEMA};
pub use tracer::{export_chrome_json, Tracer};
