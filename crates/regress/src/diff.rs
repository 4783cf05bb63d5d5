//! Baseline loading and report diffing for the regression gate.
//!
//! [`LoadedReport`] is the read side of the `dc-bench-report` contract:
//! it parses a JSON document through the strict parser in
//! `dc_trace::json`, accepts schema `dc-bench-report/v2` and rejects
//! anything else. [`diff`] compares two loaded reports cell by
//! cell; numeric cells get a relative tolerance (with per-column
//! overrides), text cells must match exactly, and missing
//! tables/rows/columns are structural regressions. Reports carrying
//! *different* calibration fingerprints refuse to diff at all — a model
//! recalibration means the baselines must be re-blessed, not that every
//! number regressed.

use dc_trace::json::{parse, JsonValue};
use dc_trace::{ReportTable, BENCH_REPORT_SCHEMA};

use crate::claims::parse_cell;

/// A bench report read back from JSON (a baseline file or `--json` run).
#[derive(Debug, Clone)]
pub struct LoadedReport {
    /// Schema version: always 2, the only one the loader accepts.
    pub version: u32,
    /// Bench name.
    pub bench: String,
    /// Calibration fingerprint, when the report carries one.
    pub fingerprint: Option<String>,
    /// The report tables.
    pub tables: Vec<ReportTable>,
}

impl std::str::FromStr for LoadedReport {
    type Err = String;

    /// Parse a report document, validating the schema envelope.
    fn from_str(text: &str) -> Result<LoadedReport, String> {
        let doc = parse(text).map_err(|(off, msg)| format!("invalid JSON at byte {off}: {msg}"))?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"schema\" field")?;
        if schema != BENCH_REPORT_SCHEMA {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let bench = doc
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"bench\" field")?
            .to_string();
        let fingerprint = doc
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        let mut tables = Vec::new();
        if let Some(raw) = doc.get("tables").and_then(JsonValue::as_arr) {
            for (i, t) in raw.iter().enumerate() {
                tables.push(load_table(t).map_err(|e| format!("table #{i}: {e}"))?);
            }
        }
        Ok(LoadedReport {
            version: 2,
            bench,
            fingerprint,
            tables,
        })
    }
}

impl LoadedReport {
    /// Load a report from a file.
    pub fn from_path(path: &std::path::Path) -> Result<LoadedReport, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        text.parse().map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Round-trip a live in-process report through its own JSON.
    pub fn from_bench(rep: &dc_trace::BenchReport) -> LoadedReport {
        rep.to_json()
            .parse()
            .expect("BenchReport emitted an unloadable document")
    }
}

fn load_table(v: &JsonValue) -> Result<ReportTable, String> {
    let title = v
        .get("title")
        .and_then(JsonValue::as_str)
        .ok_or("missing title")?
        .to_string();
    let strings = |key: &str, v: &JsonValue| -> Result<Vec<String>, String> {
        v.as_arr()
            .ok_or_else(|| format!("{key} is not an array"))?
            .iter()
            .map(|c| {
                c.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("non-string cell in {key}"))
            })
            .collect()
    };
    let headers = strings("headers", v.get("headers").ok_or("missing headers")?)?;
    let rows = v
        .get("rows")
        .and_then(JsonValue::as_arr)
        .ok_or("missing rows")?
        .iter()
        .enumerate()
        .map(|(i, r)| strings(&format!("row {i}"), r))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ReportTable {
        title,
        headers,
        rows,
    })
}

/// Relative tolerance policy for numeric cells.
#[derive(Debug, Clone)]
pub struct Tolerance {
    /// Default allowed |delta| in percent.
    pub default_pct: f64,
    /// Per-column overrides, matched by exact header name.
    pub per_column: Vec<(String, f64)>,
}

impl Tolerance {
    /// Uniform tolerance of `pct` percent.
    pub fn pct(pct: f64) -> Tolerance {
        Tolerance {
            default_pct: pct,
            per_column: Vec::new(),
        }
    }

    /// Tolerance for a given column header.
    pub fn for_column(&self, header: &str) -> f64 {
        self.per_column
            .iter()
            .find(|(h, _)| h == header)
            .map(|(_, t)| *t)
            .unwrap_or(self.default_pct)
    }
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance::pct(0.0)
    }
}

/// One compared numeric cell.
#[derive(Debug, Clone)]
pub struct CellDelta {
    /// Table title.
    pub table: String,
    /// Row label (first cell).
    pub row: String,
    /// Column header.
    pub column: String,
    /// Baseline value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Relative delta in percent (0 when both sides are 0).
    pub delta_pct: f64,
    /// Tolerance applied to this cell.
    pub tol_pct: f64,
    /// Whether |delta_pct| exceeded the tolerance.
    pub regressed: bool,
}

/// The outcome of diffing two reports.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Bench name.
    pub bench: String,
    /// Every compared numeric cell.
    pub cells: Vec<CellDelta>,
    /// Structural problems and text-cell mismatches; each is a regression.
    pub structural: Vec<String>,
}

impl DiffReport {
    /// Number of regressions (out-of-tolerance cells plus structural).
    pub fn regressions(&self) -> usize {
        self.cells.iter().filter(|c| c.regressed).count() + self.structural.len()
    }

    /// Human-readable summary; `verbose` lists every compared cell.
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{}: {} cells compared, {} regression(s)\n",
            self.bench,
            self.cells.len(),
            self.regressions()
        ));
        for s in &self.structural {
            out.push_str(&format!("  STRUCT {s}\n"));
        }
        for c in &self.cells {
            if c.regressed || verbose {
                out.push_str(&format!(
                    "  {} {} [{} / {}] {} -> {} ({:+.2}%, tol {:.2}%)\n",
                    if c.regressed { "FAIL" } else { "  ok" },
                    c.table,
                    c.row,
                    c.column,
                    c.old,
                    c.new,
                    c.delta_pct,
                    c.tol_pct
                ));
            }
        }
        out
    }
}

/// Why two reports cannot be compared at all.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffError {
    /// The reports describe different benches.
    BenchMismatch(String, String),
    /// The reports were produced under different calibration constants.
    FingerprintMismatch(String, String),
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::BenchMismatch(a, b) => {
                write!(f, "bench mismatch: baseline is {a:?}, new run is {b:?}")
            }
            DiffError::FingerprintMismatch(a, b) => write!(
                f,
                "calibration fingerprint mismatch: baseline {a}, new run {b} — \
                 the model changed; re-bless the baselines instead of comparing"
            ),
        }
    }
}

/// Diff `new` against the `old` baseline under a tolerance policy.
pub fn diff(
    old: &LoadedReport,
    new: &LoadedReport,
    tol: &Tolerance,
) -> Result<DiffReport, DiffError> {
    if old.bench != new.bench {
        return Err(DiffError::BenchMismatch(
            old.bench.clone(),
            new.bench.clone(),
        ));
    }
    if let (Some(a), Some(b)) = (&old.fingerprint, &new.fingerprint) {
        if a != b {
            return Err(DiffError::FingerprintMismatch(a.clone(), b.clone()));
        }
    }
    let mut out = DiffReport {
        bench: new.bench.clone(),
        ..Default::default()
    };
    if old.tables.len() != new.tables.len() {
        out.structural.push(format!(
            "table count changed: {} -> {}",
            old.tables.len(),
            new.tables.len()
        ));
    }
    for (ti, ot) in old.tables.iter().enumerate() {
        let Some(nt) = new.tables.get(ti) else {
            out.structural
                .push(format!("table {:?} missing from new report", ot.title));
            continue;
        };
        if ot.headers != nt.headers {
            out.structural.push(format!(
                "table {:?}: headers changed {:?} -> {:?}",
                ot.title, ot.headers, nt.headers
            ));
            continue;
        }
        if ot.rows.len() != nt.rows.len() {
            out.structural.push(format!(
                "table {:?}: row count changed {} -> {}",
                ot.title,
                ot.rows.len(),
                nt.rows.len()
            ));
            continue;
        }
        for (or, nr) in ot.rows.iter().zip(&nt.rows) {
            let label = or.first().cloned().unwrap_or_default();
            for (ci, (oc, nc)) in or.iter().zip(nr).enumerate() {
                let column = ot
                    .headers
                    .get(ci)
                    .cloned()
                    .unwrap_or_else(|| format!("#{ci}"));
                match (parse_cell(oc), parse_cell(nc)) {
                    (Some(ov), Some(nv)) => {
                        let delta_pct = if ov == nv {
                            0.0
                        } else if ov == 0.0 {
                            100.0
                        } else {
                            (nv - ov) / ov.abs() * 100.0
                        };
                        let tol_pct = tol.for_column(&column);
                        out.cells.push(CellDelta {
                            table: ot.title.clone(),
                            row: label.clone(),
                            column,
                            old: ov,
                            new: nv,
                            delta_pct,
                            tol_pct,
                            regressed: delta_pct.abs() > tol_pct,
                        });
                    }
                    _ => {
                        if oc != nc {
                            out.structural.push(format!(
                                "table {:?} [{} / {}]: text cell changed {:?} -> {:?}",
                                ot.title, label, column, oc, nc
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_trace::BenchReport;

    fn sample(fp: Option<&str>, cell: &str) -> LoadedReport {
        let mut rep = BenchReport::new("demo");
        if let Some(fp) = fp {
            rep.set_fingerprint(fp);
        }
        rep.add_table(ReportTable {
            title: "t".into(),
            headers: vec!["scheme".into(), "x".into()],
            rows: vec![vec!["A".into(), cell.into()]],
        });
        LoadedReport::from_bench(&rep)
    }

    #[test]
    fn loads_v2_and_rejects_every_other_schema() {
        let r = sample(Some("fm1-1234"), "10.0");
        assert_eq!(r.version, 2);
        assert_eq!(r.bench, "demo");
        assert_eq!(r.fingerprint.as_deref(), Some("fm1-1234"));
        assert_eq!(r.tables.len(), 1);

        // A v2 document without a fingerprint loads; the retired v1 does not.
        let bare = r#"{"schema":"dc-bench-report/v2","bench":"bare","params":{},"tables":[]}"#;
        assert_eq!(bare.parse::<LoadedReport>().unwrap().fingerprint, None);
        let v1 = r#"{"schema":"dc-bench-report/v1","bench":"old","params":{},"tables":[]}"#;
        let err = v1.parse::<LoadedReport>().unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");

        assert!("{\"schema\":\"nope\"}".parse::<LoadedReport>().is_err());
        assert!("not json".parse::<LoadedReport>().is_err());
        assert!("{}".parse::<LoadedReport>().is_err());
    }

    #[test]
    fn v2_reports_with_latency_breakdown_load_and_diff_clean() {
        // The loader reads schema/bench/fingerprint/tables and ignores keys
        // it doesn't know — so reports that grew the v2 `latency_breakdown`
        // section diff cleanly against pre-profiler baselines.
        use dc_trace::critical::analyze;
        use dc_trace::{ArgVal, Event, Ph, Subsys};
        let evs = vec![Event {
            ts: 0,
            node: 0,
            subsys: Subsys::App,
            name: "request",
            ph: Ph::Complete { dur_ns: 10 },
            args: vec![("stage", ArgVal::S("request".into()))],
        }];
        let mut rep = BenchReport::new("demo");
        rep.set_fingerprint("fm1-1234");
        rep.add_table(ReportTable {
            title: "t".into(),
            headers: vec!["scheme".into(), "x".into()],
            rows: vec![vec!["A".into(), "10.0".into()]],
        });
        rep.set_latency_breakdown(analyze(&evs));
        let json = rep.to_json();
        assert!(json.contains("latency_breakdown"));
        let with: LoadedReport = json.parse().unwrap();
        assert_eq!(with.version, 2);
        assert_eq!(with.tables.len(), 1);
        let without = sample(Some("fm1-1234"), "10.0");
        let d = diff(&without, &with, &Tolerance::pct(0.0)).unwrap();
        assert_eq!(d.regressions(), 0, "breakdown section must be inert");
    }

    #[test]
    fn self_comparison_is_clean_at_zero_tolerance() {
        let r = sample(Some("fm1-1"), "10.0");
        let d = diff(&r, &r, &Tolerance::pct(0.0)).unwrap();
        assert_eq!(d.regressions(), 0);
        assert_eq!(d.cells.len(), 1, "numeric cell compared");
        assert!(d.render(true).contains("ok"));
    }

    #[test]
    fn out_of_tolerance_delta_is_a_regression() {
        let old = sample(Some("fm1-1"), "10.0");
        let new = sample(Some("fm1-1"), "11.5"); // +15%
        let d = diff(&old, &new, &Tolerance::pct(10.0)).unwrap();
        assert_eq!(d.regressions(), 1);
        assert!(d.render(false).contains("FAIL"));
        // Within tolerance: fine.
        let d = diff(&old, &new, &Tolerance::pct(20.0)).unwrap();
        assert_eq!(d.regressions(), 0);
    }

    #[test]
    fn per_column_tolerance_overrides_default() {
        let old = sample(Some("fm1-1"), "10.0");
        let new = sample(Some("fm1-1"), "11.5");
        let tol = Tolerance {
            default_pct: 0.0,
            per_column: vec![("x".into(), 20.0)],
        };
        assert_eq!(diff(&old, &new, &tol).unwrap().regressions(), 0);
    }

    #[test]
    fn fingerprint_mismatch_refuses_to_compare() {
        let old = sample(Some("fm1-aaaa"), "10.0");
        let new = sample(Some("fm1-bbbb"), "10.0");
        let err = diff(&old, &new, &Tolerance::pct(50.0)).unwrap_err();
        assert!(matches!(err, DiffError::FingerprintMismatch(_, _)));
        assert!(err.to_string().contains("re-bless"));
        // A baseline without a fingerprint still compares.
        let bare = sample(None, "10.0");
        assert!(diff(&bare, &new, &Tolerance::pct(0.0)).is_ok());
    }

    #[test]
    fn bench_mismatch_and_structural_changes_are_caught() {
        let a = sample(Some("fm1-1"), "10.0");
        let mut b = a.clone();
        b.bench = "other".into();
        assert!(matches!(
            diff(&a, &b, &Tolerance::default()),
            Err(DiffError::BenchMismatch(_, _))
        ));

        let mut c = a.clone();
        c.tables[0].rows.push(vec!["B".into(), "1.0".into()]);
        let d = diff(&a, &c, &Tolerance::default()).unwrap();
        assert_eq!(d.regressions(), 1);
        assert!(d.render(false).contains("row count changed"));

        let mut e = a.clone();
        e.tables[0].headers[1] = "y".into();
        assert_eq!(
            diff(&a, &e, &Tolerance::default()).unwrap().regressions(),
            1
        );

        let mut f = a.clone();
        f.tables[0].rows[0][0] = "renamed".into();
        let d = diff(&a, &f, &Tolerance::default()).unwrap();
        assert_eq!(d.regressions(), 1, "label is a text cell; rename must flag");
    }

    #[test]
    fn zero_baseline_cells_compare_exactly() {
        let old = sample(Some("fm1-1"), "0.0");
        let same = diff(&old, &old, &Tolerance::pct(5.0)).unwrap();
        assert_eq!(same.regressions(), 0);
        let new = sample(Some("fm1-1"), "0.1");
        let d = diff(&old, &new, &Tolerance::pct(5.0)).unwrap();
        assert_eq!(d.regressions(), 1, "0 -> nonzero counts as a 100% delta");
    }
}
