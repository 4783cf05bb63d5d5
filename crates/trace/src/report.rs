//! The `BenchReport` machine-readable result schema.
//!
//! Every scenario run produces one of these; `dc-bench run --json` emits
//! it instead of the human-formatted tables rendered from it. The document
//! shape, version `dc-bench-report/v2`:
//!
//! ```json
//! {
//!   "schema": "dc-bench-report/v2",
//!   "bench": "fig3a_ddss_put",
//!   "fingerprint": "fm1-8e9c6d2a41b7f05c",
//!   "params": {"nodes": 8, "seed": 42},
//!   "tables": [
//!     {"title": "...", "headers": ["col", ...], "rows": [["cell", ...], ...]}
//!   ],
//!   "latency_breakdown": {"requests": 9, "total_ns": 123, "stages": [...]}
//! }
//! ```
//!
//! `fingerprint` is an optional digest of the calibration constants the run
//! was produced under (`dc_fabric::FabricModel::fingerprint`); regression
//! tooling refuses to diff reports with different fingerprints, so a stale
//! baseline is *detected* rather than silently compared. `params` records
//! the experiment configuration, `tables` carries the same data the binary
//! prints (cells pre-rendered as strings so formatting is identical between
//! modes), `latency_breakdown` is an optional per-stage critical-path
//! attribution ([`LatencyBreakdown`], produced by `dc-bench flame`). Fields
//! appear in the order above; params and tables keep insertion order, so a report built the same way is byte-identical.
//! Readers must ignore keys they don't know — the regression loader does,
//! which is how v2 grew `latency_breakdown` without a version bump — and
//! must reject any other `schema` string (unknown contract) rather than
//! guess.

use crate::critical::LatencyBreakdown;
use crate::event::ArgVal;
use crate::json::JsonWriter;

/// Schema identifier emitted in every report, and the only one readers
/// accept.
pub const BENCH_REPORT_SCHEMA: &str = "dc-bench-report/v2";

/// One table of results: a pre-rendered grid plus its title.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportTable {
    /// Table title (same string the human-format print shows).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells, pre-rendered.
    pub rows: Vec<Vec<String>>,
}

/// Builder for a schema-versioned bench result document.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    bench: String,
    fingerprint: Option<String>,
    params: Vec<(String, ArgVal)>,
    tables: Vec<ReportTable>,
    latency_breakdown: Option<LatencyBreakdown>,
}

impl BenchReport {
    /// A new empty report for the bench named `bench` (use the binary
    /// name, e.g. `"fig3a_ddss_put"`).
    pub fn new(bench: &str) -> Self {
        BenchReport {
            bench: bench.to_string(),
            ..Default::default()
        }
    }

    /// Record the calibration fingerprint the run was produced under.
    pub fn set_fingerprint(&mut self, fingerprint: &str) -> &mut Self {
        self.fingerprint = Some(fingerprint.to_string());
        self
    }

    /// Record one configuration parameter (kept in insertion order).
    pub fn add_param(&mut self, key: &str, value: impl Into<ArgVal>) -> &mut Self {
        self.params.push((key.to_string(), value.into()));
        self
    }

    /// Append a result table.
    pub fn add_table(&mut self, table: ReportTable) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Attach a critical-path latency breakdown (at most one; later calls
    /// replace it).
    pub fn set_latency_breakdown(&mut self, breakdown: LatencyBreakdown) -> &mut Self {
        self.latency_breakdown = Some(breakdown);
        self
    }

    /// The bench name.
    pub fn bench(&self) -> &str {
        &self.bench
    }

    /// The calibration fingerprint, if one was recorded.
    pub fn fingerprint(&self) -> Option<&str> {
        self.fingerprint.as_deref()
    }

    /// The recorded parameters, in insertion order.
    pub fn params(&self) -> &[(String, ArgVal)] {
        &self.params
    }

    /// The result tables, in insertion order.
    pub fn tables(&self) -> &[ReportTable] {
        &self.tables
    }

    /// The attached latency breakdown, if any.
    pub fn latency_breakdown(&self) -> Option<&LatencyBreakdown> {
        self.latency_breakdown.as_ref()
    }

    /// Render the report as a `dc-bench-report/v2` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string(BENCH_REPORT_SCHEMA);
        w.key("bench").string(&self.bench);
        if let Some(fp) = &self.fingerprint {
            w.key("fingerprint").string(fp);
        }
        w.key("params").begin_object();
        for (k, v) in &self.params {
            w.key(k);
            match v {
                ArgVal::U(x) => w.u64(*x),
                ArgVal::I(x) => w.i64(*x),
                ArgVal::F(x) => w.f64(*x),
                ArgVal::S(x) => w.string(x),
            };
        }
        w.end_object();
        w.key("tables").begin_array();
        for t in &self.tables {
            w.begin_object();
            w.key("title").string(&t.title);
            w.key("headers").begin_array();
            for h in &t.headers {
                w.string(h);
            }
            w.end_array();
            w.key("rows").begin_array();
            for row in &t.rows {
                w.begin_array();
                for cell in row {
                    w.string(cell);
                }
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        if let Some(b) = &self.latency_breakdown {
            w.key("latency_breakdown").raw(&b.to_json());
        }
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn report_shape_and_determinism() {
        let mut rep = BenchReport::new("fig3a_ddss_put");
        rep.add_param("nodes", 8u64)
            .add_param("seed", 42u64)
            .add_param("scheme", "bcc");
        rep.add_table(ReportTable {
            title: "DDSS put latency".into(),
            headers: vec!["size".into(), "us".into()],
            rows: vec![
                vec!["64".into(), "5.20".into()],
                vec!["4096".into(), "9.75".into()],
            ],
        });
        let a = rep.to_json();
        let b = rep.to_json();
        assert_eq!(a, b);
        assert!(validate(&a).is_ok(), "report must parse: {a}");
        assert!(a.starts_with(r#"{"schema":"dc-bench-report/v2","bench":"fig3a_ddss_put""#));
        assert!(a.contains(r#""params":{"nodes":8,"seed":42,"scheme":"bcc"}"#));
        assert!(a.ends_with(r#""rows":[["64","5.20"],["4096","9.75"]]}]}"#));
    }

    #[test]
    fn empty_report_is_still_valid() {
        let rep = BenchReport::new("sweep");
        let s = rep.to_json();
        assert!(validate(&s).is_ok());
        assert_eq!(
            s,
            r#"{"schema":"dc-bench-report/v2","bench":"sweep","params":{},"tables":[]}"#
        );
    }

    #[test]
    fn fingerprint_is_emitted_between_bench_and_params() {
        let mut rep = BenchReport::new("fig5a_lock_shared");
        rep.set_fingerprint("fm1-0011223344556677");
        rep.add_param("mode", "shared");
        let s = rep.to_json();
        assert!(validate(&s).is_ok());
        assert!(s.starts_with(
            r#"{"schema":"dc-bench-report/v2","bench":"fig5a_lock_shared","fingerprint":"fm1-0011223344556677","params""#
        ));
        assert_eq!(rep.fingerprint(), Some("fm1-0011223344556677"));
    }

    #[test]
    fn latency_breakdown_is_emitted_after_the_tables() {
        use crate::critical::analyze;
        use crate::event::{ArgVal, Event, Ph, Subsys};
        let evs = vec![Event {
            ts: 0,
            node: 0,
            subsys: Subsys::App,
            name: "request",
            ph: Ph::Complete { dur_ns: 10 },
            args: vec![("stage", ArgVal::S("request".into()))],
        }];
        let mut rep = BenchReport::new("demo");
        rep.set_latency_breakdown(analyze(&evs));
        let s = rep.to_json();
        assert!(validate(&s).is_ok(), "{s}");
        assert!(s.contains(r#""tables":[],"latency_breakdown":{"requests":1,"total_ns":10"#));
        assert!(s.ends_with("]}}"), "breakdown must come last: {s}");
        assert_eq!(rep.latency_breakdown().unwrap().requests, 1);
    }

    #[test]
    fn accessors_expose_the_built_document() {
        let mut rep = BenchReport::new("demo");
        rep.add_param("n", 4u64);
        rep.add_table(ReportTable {
            title: "t".into(),
            headers: vec!["a".into()],
            rows: vec![vec!["1".into()]],
        });
        assert_eq!(rep.bench(), "demo");
        assert_eq!(rep.params().len(), 1);
        assert_eq!(rep.tables().len(), 1);
        assert!(rep.latency_breakdown().is_none());
        assert!(rep.fingerprint().is_none());
    }
}
