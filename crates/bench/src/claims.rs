//! The paper-claims DSL: declarative shape assertions over
//! [`ReportTable`]s.
//!
//! Each figure of the paper makes *qualitative* claims — scheme A beats
//! scheme B, latency grows monotonically with size, one design is "80×"
//! faster than another. Those shapes, not the exact microsecond values,
//! are what the reproduction must preserve, so the conformance suite
//! expresses them as [`Claim`]s evaluated against the same
//! `dc-bench-report` tables the `--json` bins emit. The claim tables in
//! [`claims_for`] are transcribed from `EXPERIMENTS.md`'s
//! paper-vs-measured figures; `tests/paper_claims.rs` (workspace root)
//! runs every scenario in-process and asserts every claim, and the
//! `dc-bench claims` subcommand does the same from the command line.

use dc_trace::ReportTable;

/// A numeric series extracted from one table of a report.
#[derive(Debug, Clone)]
pub struct Series {
    /// Index of the table within the report.
    pub table: usize,
    /// How the series is read out of the table.
    pub sel: Sel,
    /// Optional `[from, to)` slice applied to the extracted values.
    pub slice: Option<(usize, usize)>,
}

/// Series selector: a labelled row (values across the data columns) or a
/// named column (values down the rows).
#[derive(Debug, Clone)]
pub enum Sel {
    /// The row whose first cell equals this label; the series is every
    /// cell after the label, parsed numerically.
    Row(String),
    /// The column with this header; the series is that cell from every
    /// row.
    Col(String),
}

impl Series {
    /// Series from a labelled row of table `table`.
    pub fn row(table: usize, label: &str) -> Series {
        Series {
            table,
            sel: Sel::Row(label.to_string()),
            slice: None,
        }
    }

    /// Series from a named column of table `table`.
    pub fn col(table: usize, header: &str) -> Series {
        Series {
            table,
            sel: Sel::Col(header.to_string()),
            slice: None,
        }
    }

    /// Restrict the extracted series to rows/columns `[from, to)`.
    pub fn rows(mut self, from: usize, to: usize) -> Series {
        self.slice = Some((from, to));
        self
    }

    /// Extract and parse the series, or explain what was missing.
    pub fn extract(&self, tables: &[ReportTable]) -> Result<Vec<f64>, String> {
        let t = tables
            .get(self.table)
            .ok_or_else(|| format!("table #{} absent (report has {})", self.table, tables.len()))?;
        let raw: Vec<&str> = match &self.sel {
            Sel::Row(label) => {
                let row = t
                    .rows
                    .iter()
                    .find(|r| r.first().map(|c| c == label).unwrap_or(false))
                    .ok_or_else(|| format!("row {label:?} absent from {:?}", t.title))?;
                row[1..].iter().map(String::as_str).collect()
            }
            Sel::Col(header) => {
                let ci = t
                    .headers
                    .iter()
                    .position(|h| h == header)
                    .ok_or_else(|| format!("column {header:?} absent from {:?}", t.title))?;
                t.rows
                    .iter()
                    .map(|r| r.get(ci).map(String::as_str).unwrap_or(""))
                    .collect()
            }
        };
        let raw = match self.slice {
            Some((from, to)) => {
                if to > raw.len() || from > to {
                    return Err(format!(
                        "slice {from}..{to} out of range ({} points) in {:?}",
                        raw.len(),
                        t.title
                    ));
                }
                &raw[from..to]
            }
            None => &raw[..],
        };
        raw.iter()
            .map(|c| {
                parse_cell(c).ok_or_else(|| format!("non-numeric cell {c:?} in {:?}", t.title))
            })
            .collect()
    }
}

/// Parse a table cell leniently: plain numbers, `+`/`%` decorations, time
/// suffixes (normalised to microseconds), and `k` size suffixes.
pub fn parse_cell(cell: &str) -> Option<f64> {
    let s = cell.trim().trim_start_matches('+');
    if let Ok(v) = s.parse::<f64>() {
        return Some(v);
    }
    for (suffix, scale) in [
        ("%", 1.0),
        ("ns", 1e-3),
        ("us", 1.0),
        ("µs", 1.0),
        ("ms", 1e3),
        ("s", 1e6),
        ("k", 1024.0),
    ] {
        if let Some(body) = s.strip_suffix(suffix) {
            if let Ok(v) = body.trim().parse::<f64>() {
                return Some(v * scale);
            }
        }
    }
    None
}

/// Which points of a series a ratio/band claim applies to.
#[derive(Debug, Clone, Copy)]
pub enum At {
    /// Every point.
    All,
    /// The first point only.
    First,
    /// The last point only.
    Last,
    /// One specific index.
    Index(usize),
}

impl At {
    fn pick(self, len: usize) -> Result<Vec<usize>, String> {
        match self {
            At::All => Ok((0..len).collect()),
            At::First if len > 0 => Ok(vec![0]),
            At::Last if len > 0 => Ok(vec![len - 1]),
            At::Index(i) if i < len => Ok(vec![i]),
            _ => Err(format!("{self:?} out of range for a {len}-point series")),
        }
    }
}

/// One shape claim from the paper, checkable against report tables.
#[derive(Debug, Clone)]
pub enum Claim {
    /// `lo[i] < hi[i]` at every common point.
    PointwiseLess {
        lo: Series,
        hi: Series,
        note: &'static str,
    },
    /// `lo[i] <= hi[i]` at every common point.
    PointwiseLeq {
        lo: Series,
        hi: Series,
        note: &'static str,
    },
    /// The series never moves the wrong way by more than `tol`.
    Monotone {
        s: Series,
        non_decreasing: bool,
        tol: f64,
        note: &'static str,
    },
    /// `num/den >= min` at the selected points.
    RatioAtLeast {
        num: Series,
        den: Series,
        at: At,
        min: f64,
        note: &'static str,
    },
    /// `num/den <= max` at the selected points.
    RatioAtMost {
        num: Series,
        den: Series,
        at: At,
        max: f64,
        note: &'static str,
    },
    /// `min <= s <= max` at the selected points.
    ValueBand {
        s: Series,
        at: At,
        min: f64,
        max: f64,
        note: &'static str,
    },
    /// `a` starts strictly above `b` and ends strictly below it.
    Crossover {
        a: Series,
        b: Series,
        note: &'static str,
    },
}

impl Claim {
    /// The transcribed paper statement this claim encodes.
    pub fn note(&self) -> &'static str {
        match self {
            Claim::PointwiseLess { note, .. }
            | Claim::PointwiseLeq { note, .. }
            | Claim::Monotone { note, .. }
            | Claim::RatioAtLeast { note, .. }
            | Claim::RatioAtMost { note, .. }
            | Claim::ValueBand { note, .. }
            | Claim::Crossover { note, .. } => note,
        }
    }

    /// Check the claim; `Ok(())` or a human-readable violation detail.
    pub fn check(&self, tables: &[ReportTable]) -> Result<(), String> {
        match self {
            Claim::PointwiseLess { lo, hi, .. } => {
                let (a, b) = (lo.extract(tables)?, hi.extract(tables)?);
                pointwise(&a, &b, |x, y| x < y, "<")
            }
            Claim::PointwiseLeq { lo, hi, .. } => {
                let (a, b) = (lo.extract(tables)?, hi.extract(tables)?);
                pointwise(&a, &b, |x, y| x <= y, "<=")
            }
            Claim::Monotone {
                s,
                non_decreasing,
                tol,
                ..
            } => {
                let v = s.extract(tables)?;
                for (i, w) in v.windows(2).enumerate() {
                    let ok = if *non_decreasing {
                        w[1] >= w[0] - tol
                    } else {
                        w[1] <= w[0] + tol
                    };
                    if !ok {
                        return Err(format!(
                            "point {}→{}: {} then {} (tol {tol})",
                            i,
                            i + 1,
                            w[0],
                            w[1]
                        ));
                    }
                }
                Ok(())
            }
            Claim::RatioAtLeast {
                num, den, at, min, ..
            } => ratio(tables, num, den, *at, |r| r >= *min, &format!(">= {min}")),
            Claim::RatioAtMost {
                num, den, at, max, ..
            } => ratio(tables, num, den, *at, |r| r <= *max, &format!("<= {max}")),
            Claim::ValueBand {
                s, at, min, max, ..
            } => {
                let v = s.extract(tables)?;
                for i in at.pick(v.len())? {
                    if v[i] < *min || v[i] > *max {
                        return Err(format!("point {i}: {} outside [{min}, {max}]", v[i]));
                    }
                }
                Ok(())
            }
            Claim::Crossover { a, b, .. } => {
                let (x, y) = (a.extract(tables)?, b.extract(tables)?);
                let (xf, yf) = (
                    *x.first().ok_or("empty series")?,
                    *y.first().ok_or("empty series")?,
                );
                let (xl, yl) = (*x.last().unwrap(), *y.last().unwrap());
                if xf <= yf {
                    return Err(format!("no lead at start: {xf} <= {yf}"));
                }
                if xl >= yl {
                    return Err(format!("no crossover by end: {xl} >= {yl}"));
                }
                Ok(())
            }
        }
    }
}

fn pointwise(a: &[f64], b: &[f64], ok: impl Fn(f64, f64) -> bool, op: &str) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("length mismatch: {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if !ok(*x, *y) {
            return Err(format!("point {i}: !({x} {op} {y})"));
        }
    }
    Ok(())
}

fn ratio(
    tables: &[ReportTable],
    num: &Series,
    den: &Series,
    at: At,
    ok: impl Fn(f64) -> bool,
    bound: &str,
) -> Result<(), String> {
    let (n, d) = (num.extract(tables)?, den.extract(tables)?);
    if n.len() != d.len() {
        return Err(format!("length mismatch: {} vs {}", n.len(), d.len()));
    }
    for i in at.pick(n.len())? {
        if d[i] == 0.0 {
            return Err(format!("point {i}: denominator is zero"));
        }
        let r = n[i] / d[i];
        if !ok(r) {
            return Err(format!(
                "point {i}: ratio {}/{} = {r:.3}, want {bound}",
                n[i], d[i]
            ));
        }
    }
    Ok(())
}

/// One failed claim.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The paper statement that failed.
    pub note: &'static str,
    /// What the data actually showed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.note, self.detail)
    }
}

/// Evaluate a claim table against a report's tables.
pub fn evaluate(tables: &[ReportTable], claims: &[Claim]) -> Vec<Violation> {
    claims
        .iter()
        .filter_map(|c| {
            c.check(tables).err().map(|detail| Violation {
                note: c.note(),
                detail,
            })
        })
        .collect()
}

/// The claim table for a bench, transcribed from the paper figures and
/// the measured reproductions in `EXPERIMENTS.md`. Every scenario in
/// `crate::scenario::ALL` has at least one claim.
pub fn claims_for(bench: &str) -> Vec<Claim> {
    let row = Series::row;
    let col = Series::col;
    match bench {
        "fig3a_ddss_put" => vec![
            Claim::PointwiseLess {
                lo: row(0, "Null"),
                hi: row(0, "Read"),
                note: "Fig 3a: Null coherence (one RDMA write) is strictly cheaper than Read",
            },
            Claim::PointwiseLess {
                lo: row(0, "Read"),
                hi: row(0, "Version"),
                note: "Fig 3a: Read coherence is cheaper than Version (extra version read)",
            },
            Claim::PointwiseLess {
                lo: row(0, "Version"),
                hi: row(0, "Write"),
                note: "Fig 3a: Version coherence is cheaper than Write (atomic serialisation)",
            },
            Claim::PointwiseLess {
                lo: row(0, "Write"),
                hi: row(0, "Delta"),
                note: "Fig 3a: Write coherence is cheaper than Delta",
            },
            Claim::PointwiseLess {
                lo: row(0, "Delta"),
                hi: row(0, "Strict"),
                note: "Fig 3a: Strict (lock+write+stamp+unlock) is the most expensive model",
            },
            Claim::Monotone {
                s: row(0, "Null"),
                non_decreasing: true,
                tol: 0.01,
                note: "Fig 3a: put() latency grows with message size (Null)",
            },
            Claim::Monotone {
                s: row(0, "Strict"),
                non_decreasing: true,
                tol: 0.01,
                note: "Fig 3a: put() latency grows with message size (Strict)",
            },
            Claim::ValueBand {
                s: row(0, "Strict"),
                at: At::First,
                min: 30.0,
                max: 60.0,
                note: "Fig 3a: worst-case 1-byte put stays around 55us even under Strict",
            },
            Claim::ValueBand {
                s: row(0, "Null"),
                at: At::First,
                min: 5.0,
                max: 12.0,
                note: "Fig 3a: 1-byte Null put rides a single ~6us RDMA write plus overheads",
            },
        ],
        "fig3b_storm" => vec![
            Claim::PointwiseLess {
                lo: col(0, "STORM-DDSS (ms)"),
                hi: col(0, "STORM (ms)"),
                note: "Fig 3b: DDSS-based STORM beats the socket implementation at every size",
            },
            Claim::ValueBand {
                s: col(0, "improvement"),
                at: At::All,
                min: 20.0,
                max: 35.0,
                note: "Fig 3b: DDSS improves STORM query time by about 27% at every record count",
            },
            Claim::Monotone {
                s: col(0, "STORM (ms)"),
                non_decreasing: true,
                tol: 0.001,
                note: "Fig 3b: query time grows with record count (sockets)",
            },
            Claim::Monotone {
                s: col(0, "STORM-DDSS (ms)"),
                non_decreasing: true,
                tol: 0.001,
                note: "Fig 3b: query time grows with record count (DDSS)",
            },
        ],
        "fig5a_lock_shared" => vec![
            Claim::PointwiseLeq {
                lo: row(0, "N-CoSED"),
                hi: row(0, "DQNL"),
                note: "Fig 5a: N-CoSED shared locking never loses to DQNL",
            },
            Claim::PointwiseLeq {
                lo: row(0, "N-CoSED"),
                hi: row(0, "SRSL"),
                note: "Fig 5a: N-CoSED shared locking never loses to SRSL",
            },
            Claim::RatioAtLeast {
                num: row(0, "DQNL"),
                den: row(0, "N-CoSED"),
                at: At::Last,
                min: 3.0,
                note: "Fig 5a: DQNL cascades ~300% worse than N-CoSED at 16 shared waiters",
            },
            Claim::Monotone {
                s: row(0, "DQNL"),
                non_decreasing: true,
                tol: 0.01,
                note: "Fig 5a: DQNL shared-lock latency cascades linearly with waiters",
            },
        ],
        "fig5b_lock_exclusive" => vec![
            Claim::RatioAtLeast {
                num: row(0, "SRSL"),
                den: row(0, "DQNL"),
                at: At::Last,
                min: 1.5,
                note: "Fig 5b: send/receive SRSL pays ~2x over one-sided queues at 16 waiters",
            },
            Claim::RatioAtLeast {
                num: row(0, "N-CoSED"),
                den: row(0, "DQNL"),
                at: At::All,
                min: 0.95,
                note: "Fig 5b: exclusive N-CoSED matches DQNL (both serialise the queue)",
            },
            Claim::RatioAtMost {
                num: row(0, "N-CoSED"),
                den: row(0, "DQNL"),
                at: At::All,
                max: 1.05,
                note: "Fig 5b: exclusive N-CoSED matches DQNL (no added overhead)",
            },
            Claim::Monotone {
                s: row(0, "SRSL"),
                non_decreasing: true,
                tol: 0.01,
                note: "Fig 5b: exclusive-lock latency cascades with waiter count",
            },
        ],
        "fig6_coopcache" => vec![
            Claim::PointwiseLess {
                lo: row(0, "AC"),
                hi: row(0, "BCC"),
                note: "Fig 6 (2 proxies): any cooperation beats no cooperation (AC)",
            },
            Claim::PointwiseLeq {
                lo: row(0, "BCC"),
                hi: row(0, "CCWR"),
                note: "Fig 6 (2 proxies): cooperative cache w/ redundancy control beats basic",
            },
            Claim::RatioAtLeast {
                num: row(0, "MTACC"),
                den: row(0, "CCWR"),
                at: At::Last,
                min: 1.0,
                note: "Fig 6 (2 proxies): multi-tier aggregate cache wins at large file sizes",
            },
            Claim::RatioAtLeast {
                num: row(0, "HYBCC"),
                den: row(0, "MTACC"),
                at: At::Last,
                min: 0.99,
                note: "Fig 6 (2 proxies): hybrid tracks the best scheme at 64k",
            },
            Claim::PointwiseLess {
                lo: row(1, "AC"),
                hi: row(1, "BCC"),
                note: "Fig 6 (8 proxies): any cooperation beats no cooperation (AC)",
            },
            Claim::PointwiseLeq {
                lo: row(1, "BCC"),
                hi: row(1, "CCWR"),
                note: "Fig 6 (8 proxies): redundancy control beats basic cooperation",
            },
            Claim::RatioAtLeast {
                num: row(1, "MTACC"),
                den: row(1, "CCWR"),
                at: At::Last,
                min: 1.0,
                note: "Fig 6 (8 proxies): multi-tier aggregate cache wins at large file sizes",
            },
            Claim::RatioAtLeast {
                num: row(1, "MTACC"),
                den: row(0, "MTACC"),
                at: At::Last,
                min: 1.5,
                note: "Fig 6: MTACC at 64k scales with proxy count (8 nodes >> 2 nodes)",
            },
        ],
        "fig8a_monitor_accuracy" => vec![
            Claim::RatioAtMost {
                num: row(0, "RDMA-Sync").rows(1, 2),
                den: row(0, "Socket-Async").rows(1, 2),
                at: At::All,
                max: 0.25,
                note: "Fig 8a: RDMA-Sync mean deviation is a small fraction of Socket-Async's",
            },
            Claim::RatioAtMost {
                num: row(0, "RDMA-Sync").rows(1, 2),
                den: row(0, "RDMA-Async").rows(1, 2),
                at: At::All,
                max: 0.25,
                note: "Fig 8a: synchronous RDMA sampling beats asynchronous RDMA on accuracy",
            },
            Claim::ValueBand {
                s: row(0, "RDMA-Sync").rows(3, 4),
                at: At::All,
                min: 90.0,
                max: 100.0,
                note: "Fig 8a: RDMA-Sync reads the exact thread count >=90% of the time",
            },
            Claim::ValueBand {
                s: row(0, "Socket-Async").rows(1, 2),
                at: At::All,
                min: 1.0,
                max: 2.5,
                note: "Fig 8a: Socket-Async drifts by more than a whole thread on average",
            },
        ],
        "fig8b_monitor_throughput" => vec![
            Claim::ValueBand {
                s: row(0, "RDMA-Sync"),
                at: At::All,
                min: 30.0,
                max: 100.0,
                note:
                    "Fig 8b: accurate RDMA monitoring lifts hosted throughput >=30% at every alpha",
            },
            Claim::PointwiseLeq {
                lo: row(0, "RDMA-Sync"),
                hi: row(0, "e-RDMA-Sync"),
                note: "Fig 8b: the extended scheme only improves on RDMA-Sync",
            },
            Claim::ValueBand {
                s: row(0, "Socket-Sync"),
                at: At::All,
                min: -100.0,
                max: -20.0,
                note: "Fig 8b: synchronous socket monitoring costs >=20% throughput",
            },
            Claim::ValueBand {
                s: row(0, "RDMA-Async"),
                at: At::All,
                min: -5.0,
                max: 5.0,
                note: "Fig 8b: async RDMA monitoring is within noise of the Socket-Async baseline",
            },
        ],
        "ext_flowcontrol_bw" => vec![
            Claim::RatioAtLeast {
                num: row(0, "Packetized"),
                den: row(0, "SDP"),
                at: At::First,
                min: 4.0,
                note: "Ext: packetized flow control beats credit-based SDP >=4x at 16B messages",
            },
            Claim::RatioAtLeast {
                num: row(0, "Packetized"),
                den: row(0, "SDP"),
                at: At::Index(1),
                min: 4.0,
                note: "Ext: packetized flow control beats credit-based SDP >=4x at 64B messages",
            },
            Claim::PointwiseLeq {
                lo: row(0, "SDP"),
                hi: row(0, "AZ-SDP"),
                note: "Ext: zero-copy AZ-SDP never loses to buffered SDP",
            },
            Claim::PointwiseLess {
                lo: row(0, "HostTCP"),
                hi: row(0, "SDP"),
                note: "Ext: host TCP trails every SAN transport",
            },
            Claim::Crossover {
                a: row(0, "Packetized"),
                b: row(0, "AZ-SDP"),
                note: "Ext: packetized wins at small messages, zero-copy wins at large ones",
            },
            Claim::Monotone {
                s: row(0, "HostTCP"),
                non_decreasing: true,
                tol: 0.01,
                note: "Ext: TCP stream bandwidth grows with message size",
            },
        ],
        "ext_fine_reconfig" => vec![
            Claim::RatioAtLeast {
                num: col(0, "reaction (ms)").rows(1, 2),
                den: col(0, "reaction (ms)").rows(0, 1),
                at: At::All,
                min: 50.0,
                note: "Ext: coarse socket reconfiguration reacts >=50x slower than fine RDMA",
            },
            Claim::ValueBand {
                s: col(0, "reaction (ms)").rows(0, 1),
                at: At::All,
                min: 1.0,
                max: 20.0,
                note: "Ext: fine-grained reconfiguration reacts within a few milliseconds",
            },
            Claim::RatioAtLeast {
                num: col(0, "load checks").rows(0, 1),
                den: col(0, "load checks").rows(1, 2),
                at: At::All,
                min: 50.0,
                note: "Ext: cheap RDMA load reads allow orders of magnitude more checks",
            },
        ],
        "ext_ablations" => vec![
            Claim::ValueBand {
                s: Series::col(0, "atomics").rows(0, 1),
                at: At::All,
                min: 0.0,
                max: 0.0,
                note: "Ablation: Null coherence needs no atomics",
            },
            Claim::RatioAtLeast {
                num: Series::col(0, "atomics").rows(3, 4),
                den: Series::col(0, "atomics").rows(2, 3),
                at: At::All,
                min: 2.0,
                note: "Ablation: Strict coherence multiplies atomic traffic over Write",
            },
            Claim::Monotone {
                s: Series::col(1, "TPS").rows(0, 4),
                non_decreasing: true,
                tol: 0.0,
                note: "Ablation: BCC throughput grows with per-node cache size",
            },
            Claim::Monotone {
                s: Series::col(1, "TPS").rows(4, 8),
                non_decreasing: true,
                tol: 0.0,
                note: "Ablation: CCWR throughput grows with per-node cache size",
            },
            Claim::RatioAtLeast {
                num: Series::col(1, "TPS").rows(7, 8),
                den: Series::col(1, "TPS").rows(3, 4),
                at: At::All,
                min: 1.0,
                note: "Ablation: at full capacity CCWR matches or beats BCC",
            },
            Claim::Monotone {
                s: Series::col(2, "mean |dev|").rows(0, 4),
                non_decreasing: true,
                tol: 0.001,
                note: "Ablation: RDMA-Async staleness grows with refresh period",
            },
            Claim::ValueBand {
                s: Series::col(2, "idle CPU (us/s)").rows(0, 4),
                at: At::All,
                min: 0.0,
                max: 0.0,
                note: "Ablation: one-sided RDMA monitoring steals zero target CPU",
            },
            Claim::RatioAtLeast {
                num: Series::col(2, "idle CPU (us/s)").rows(4, 5),
                den: Series::col(2, "idle CPU (us/s)").rows(7, 8),
                at: At::All,
                min: 500.0,
                note: "Ablation: socket monitoring CPU cost scales with cadence",
            },
        ],
        // Shootout tables: one per contention cell (0 = cold 4-client
        // uniform, 1 = 8 clients zipf 0.9, 2 = hot 16 clients zipf 1.2);
        // rows in DesignKind::ALL legend order — 0 SRSL, 1 DQNL,
        // 2 N-CoSED, 3 CAS-Spin, 4 Lease, 5 MCS-FAA.
        "ext_lock_shootout" => vec![
            Claim::RatioAtMost {
                num: col(2, "fairness CV").rows(5, 6),
                den: col(2, "fairness CV").rows(3, 4),
                at: At::All,
                max: 0.5,
                note: "Shootout: FIFO ticket queue dominates CAS spin on fairness when hot",
            },
            Claim::RatioAtMost {
                num: col(1, "fairness CV").rows(5, 6),
                den: col(1, "fairness CV").rows(3, 4),
                at: At::All,
                max: 0.6,
                note: "Shootout: ticket-queue fairness dominance already shows at mid skew",
            },
            Claim::RatioAtMost {
                num: col(2, "max wait (us)").rows(5, 6),
                den: col(2, "max wait (us)").rows(3, 4),
                at: At::All,
                max: 0.6,
                note: "Shootout: FIFO bounds starvation — worst wait well under the spinner's",
            },
            Claim::RatioAtMost {
                num: col(2, "p99 wait (us)").rows(5, 6),
                den: col(2, "p99 wait (us)").rows(3, 4),
                at: At::All,
                max: 0.9,
                note: "Shootout: ticket queue beats the spinner's p99 under hot keys",
            },
            Claim::RatioAtMost {
                num: col(2, "max wait (us)").rows(5, 6),
                den: col(2, "p99 wait (us)").rows(5, 6),
                at: At::All,
                max: 1.5,
                note: "Shootout: the ticket queue's tail is tight (max ~ p99)",
            },
            Claim::RatioAtLeast {
                num: col(2, "max wait (us)").rows(3, 4),
                den: col(2, "p99 wait (us)").rows(3, 4),
                at: At::All,
                min: 1.6,
                note: "Shootout: the spinner's tail keeps growing past p99 (no bound)",
            },
            Claim::RatioAtLeast {
                num: col(0, "locks/s").rows(3, 4),
                den: col(0, "locks/s").rows(2, 3),
                at: At::All,
                min: 1.15,
                note: "Shootout: uncontended CAS spin out-runs the full N-CoSED machinery",
            },
            Claim::RatioAtLeast {
                num: col(0, "locks/s").rows(3, 4),
                den: col(0, "locks/s").rows(0, 1),
                at: At::All,
                min: 0.95,
                note: "Shootout: cold-cell spin throughput is within noise of the best design",
            },
            Claim::RatioAtMost {
                num: col(0, "p99 wait (us)").rows(3, 4),
                den: col(0, "p99 wait (us)").rows(4, 5),
                at: At::All,
                max: 0.85,
                note: "Shootout: cold spin p99 beats the lease's backoff-laden path",
            },
            Claim::RatioAtLeast {
                num: col(2, "p99 wait (us)").rows(3, 4),
                den: col(0, "p99 wait (us)").rows(3, 4),
                at: At::All,
                min: 8.0,
                note: "Shootout: spin p99 degrades super-linearly from cold to hot",
            },
            Claim::RatioAtLeast {
                num: col(2, "locks/s").rows(1, 2),
                den: col(2, "locks/s").rows(0, 1),
                at: At::All,
                min: 1.3,
                note: "Shootout: one-sided queues keep a throughput lead over the SRSL server",
            },
            Claim::RatioAtLeast {
                num: col(2, "max wait (us)").rows(4, 5),
                den: col(2, "max wait (us)").rows(3, 4),
                at: At::All,
                min: 1.5,
                note: "Shootout: lease backoff has the worst starvation tail of all designs",
            },
            Claim::PointwiseLess {
                lo: col(2, "p99 wait (us)").rows(2, 3),
                hi: col(2, "p99 wait (us)").rows(3, 4),
                note: "Shootout: N-CoSED's queued grants beat spinning even against hot keys",
            },
        ],
        // At-scale open-loop webfarm. Table 0 is the load sweep (rows 0-4
        // Poisson at 0.3/0.6/0.9/1.2/1.5x saturation, rows 5-7 bursty at
        // 0.3/0.9/1.2x), table 1 the request accounting over the same rows.
        "ext_webfarm_scale" => vec![
            Claim::Monotone {
                s: col(0, "goodput rps").rows(0, 3),
                non_decreasing: true,
                tol: 0.0,
                note: "At scale: goodput tracks offered load up to the saturation knee",
            },
            Claim::RatioAtLeast {
                num: col(0, "goodput rps").rows(4, 5),
                den: col(0, "goodput rps").rows(2, 3),
                at: At::All,
                min: 0.95,
                note: "At scale: goodput loss past the knee is bounded — 1.5x offered keeps >=95% of knee goodput",
            },
            Claim::Monotone {
                s: col(0, "shed %").rows(0, 5),
                non_decreasing: true,
                tol: 0.0,
                note: "At scale: shed rate rises monotonically along the Poisson sweep",
            },
            Claim::ValueBand {
                s: col(0, "shed %").rows(0, 2),
                at: At::All,
                min: 0.0,
                max: 0.0,
                note: "At scale: below the knee the open-loop farm sheds nothing",
            },
            Claim::ValueBand {
                s: col(0, "shed %").rows(4, 5),
                at: At::All,
                min: 30.0,
                max: 60.0,
                note: "At scale: at 1.5x saturation roughly the excess offered load is shed",
            },
            Claim::RatioAtLeast {
                num: col(0, "p999 us").rows(3, 4),
                den: col(0, "p999 us").rows(0, 1),
                at: At::All,
                min: 50.0,
                note: "At scale: p999 explodes across the knee (>=50x light-load p999 at 1.2x)",
            },
            Claim::RatioAtLeast {
                num: col(0, "p99 us").rows(1, 2),
                den: col(0, "p50 us").rows(1, 2),
                at: At::All,
                min: 5.0,
                note: "At scale: approaching the knee the tail spreads long before the median moves",
            },
            Claim::RatioAtMost {
                num: col(0, "p999 us").rows(0, 1),
                den: col(0, "p50 us").rows(0, 1),
                at: At::All,
                max: 4.0,
                note: "At scale: at light load the latency distribution is tight (p999 ~ p50)",
            },
            Claim::ValueBand {
                s: col(0, "backend %").rows(2, 5),
                at: At::All,
                min: 99.0,
                max: 100.5,
                note: "At scale: from the knee on, the backend station is the saturated resource",
            },
            Claim::RatioAtLeast {
                num: col(0, "p99 us").rows(5, 6),
                den: col(0, "p99 us").rows(0, 1),
                at: At::All,
                min: 0.8,
                note: "At scale: hundreds of independent bursty sources superpose to Poisson (Palm-Khintchine) — same p99 at 0.3x",
            },
            Claim::RatioAtMost {
                num: col(0, "p99 us").rows(5, 6),
                den: col(0, "p99 us").rows(0, 1),
                at: At::All,
                max: 1.25,
                note: "At scale: burstiness does not fatten the aggregate light-load tail beyond 25%",
            },
            Claim::ValueBand {
                s: col(1, "gap").rows(0, 8),
                at: At::All,
                min: 0.0,
                max: 0.0,
                note: "At scale: conservation — issued == completed + shed + in-flight in every cell",
            },
            Claim::PointwiseLeq {
                lo: col(1, "completed").rows(0, 8),
                hi: col(1, "issued").rows(0, 8),
                note: "At scale: completions never exceed issues inside the measured window",
            },
            Claim::PointwiseLeq {
                lo: col(0, "p99 us").rows(0, 8),
                hi: col(0, "p999 us").rows(0, 8),
                note: "At scale: quantiles are ordered in every cell (p99 <= p999)",
            },
        ],
        // Incast fan-in sweep. One lane-major table: rows 0-3 eRPC, 4-7
        // SDP, 8-11 AZ-SDP, each block over fan-ins 64/256/1024/2048.
        "ext_incast" => vec![
            Claim::RatioAtLeast {
                num: col(0, "goodput rps").rows(0, 4),
                den: col(0, "goodput rps").rows(4, 8),
                at: At::All,
                min: 1.3,
                note: "Incast: the zero-copy eRPC lane beats buffered SDP at every fan-in",
            },
            Claim::RatioAtLeast {
                num: col(0, "goodput rps").rows(0, 4),
                den: col(0, "goodput rps").rows(4, 8),
                at: At::Last,
                min: 1.5,
                note: "Incast: past the knee SDP is server-copy CPU-bound — eRPC keeps >=1.5x goodput",
            },
            Claim::RatioAtLeast {
                num: col(0, "goodput rps").rows(0, 4),
                den: col(0, "goodput rps").rows(8, 12),
                at: At::All,
                min: 0.97,
                note: "Incast: eRPC matches zero-copy AZ-SDP goodput (both egress-link-bound)",
            },
            Claim::ValueBand {
                s: col(0, "goodput rps").rows(0, 4),
                at: At::All,
                min: 95_000.0,
                max: 115_000.0,
                note: "Incast: eRPC goodput pins to the server egress link (~9.1us per 8KB response)",
            },
            Claim::ValueBand {
                s: col(0, "qps").rows(0, 4),
                at: At::All,
                min: 30.0,
                max: 40.0,
                note: "Incast: eRPC QP count is fixed by mux configuration, independent of fan-in",
            },
            Claim::RatioAtMost {
                num: col(0, "qps").rows(0, 4),
                den: col(0, "fanin").rows(0, 4),
                at: At::Last,
                max: 0.02,
                note: "Incast: at 2048 sessions the eRPC lane pins <2% of a QP per session",
            },
            Claim::RatioAtLeast {
                num: col(0, "qps").rows(4, 8),
                den: col(0, "qps").rows(0, 4),
                at: At::Last,
                min: 50.0,
                note: "Incast: per-session streams pin >=50x the QPs of the multiplexed lane",
            },
            Claim::Monotone {
                s: col(0, "cc marks").rows(0, 4),
                non_decreasing: true,
                tol: 0.0,
                note: "Incast: ECN mark volume grows with fan-in pressure on the egress queue",
            },
            Claim::ValueBand {
                s: col(0, "cc marks").rows(3, 4),
                at: At::All,
                min: 1.0,
                max: 1e12,
                note: "Incast: at maximum fan-in the congestion controller is demonstrably engaged",
            },
            Claim::ValueBand {
                s: col(0, "retx").rows(0, 12),
                at: At::All,
                min: 0.0,
                max: 0.0,
                note: "Incast: the clean run completes with zero retransmissions on every lane",
            },
            Claim::PointwiseLeq {
                lo: col(0, "p99 us").rows(0, 12),
                hi: col(0, "p999 us").rows(0, 12),
                note: "Incast: quantiles are ordered in every cell (p99 <= p999)",
            },
            Claim::Monotone {
                s: col(0, "p999 us").rows(0, 4),
                non_decreasing: true,
                tol: 0.0,
                note: "Incast: eRPC tail latency grows with fan-in (closed-loop queueing)",
            },
            Claim::PointwiseLess {
                lo: col(0, "p50 us").rows(0, 4),
                hi: col(0, "p50 us").rows(4, 8),
                note: "Incast: SDP's server-side response copy inflates the median at every fan-in",
            },
        ],
        _ => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<ReportTable> {
        vec![ReportTable {
            title: "t0".into(),
            headers: vec!["scheme".into(), "1".into(), "2".into(), "3".into()],
            rows: vec![
                vec!["A".into(), "1.0".into(), "2.0".into(), "4.0".into()],
                vec!["B".into(), "2.0".into(), "3.0".into(), "3.0".into()],
                vec!["C".into(), "10%".into(), "4.0ms".into(), "2k".into()],
            ],
        }]
    }

    #[test]
    fn cell_parsing_handles_decorations() {
        assert_eq!(parse_cell("42"), Some(42.0));
        assert_eq!(parse_cell("+3.5"), Some(3.5));
        assert_eq!(parse_cell("-26.3%"), Some(-26.3));
        assert_eq!(parse_cell("2.79ms"), Some(2790.0));
        assert_eq!(parse_cell("1.000s"), Some(1_000_000.0));
        assert_eq!(parse_cell("250ns"), Some(0.25));
        assert_eq!(parse_cell("512k"), Some(512.0 * 1024.0));
        assert_eq!(parse_cell("n/a"), None);
        assert_eq!(parse_cell(""), None);
    }

    #[test]
    fn row_and_col_extraction() {
        let t = table();
        assert_eq!(
            Series::row(0, "A").extract(&t).unwrap(),
            vec![1.0, 2.0, 4.0]
        );
        assert_eq!(
            Series::col(0, "2").extract(&t).unwrap(),
            vec![2.0, 3.0, 4000.0]
        );
        assert_eq!(
            Series::row(0, "B").rows(1, 3).extract(&t).unwrap(),
            vec![3.0, 3.0]
        );
        assert!(Series::row(0, "Z").extract(&t).is_err());
        assert!(Series::col(0, "missing").extract(&t).is_err());
        assert!(Series::row(1, "A").extract(&t).is_err());
        assert!(Series::row(0, "A").rows(2, 9).extract(&t).is_err());
    }

    #[test]
    fn claim_primitives_pass_and_fail() {
        let t = table();
        let lt = Claim::PointwiseLess {
            lo: Series::row(0, "A"),
            hi: Series::row(0, "B"),
            note: "A<B",
        };
        // 4.0 vs 3.0 at the last point: violated.
        assert!(lt.check(&t).is_err());
        let leq_fail = Claim::PointwiseLeq {
            lo: Series::row(0, "B"),
            hi: Series::row(0, "A"),
            note: "B<=A",
        };
        assert!(leq_fail.check(&t).is_err());
        let mono = Claim::Monotone {
            s: Series::row(0, "A"),
            non_decreasing: true,
            tol: 0.0,
            note: "A up",
        };
        assert!(mono.check(&t).is_ok());
        let mono_dn = Claim::Monotone {
            s: Series::row(0, "A"),
            non_decreasing: false,
            tol: 0.0,
            note: "A down",
        };
        assert!(mono_dn.check(&t).is_err());
        let ratio = Claim::RatioAtLeast {
            num: Series::row(0, "B"),
            den: Series::row(0, "A"),
            at: At::First,
            min: 2.0,
            note: "B/A >= 2 at first",
        };
        assert!(ratio.check(&t).is_ok());
        let ratio_l = Claim::RatioAtMost {
            num: Series::row(0, "B"),
            den: Series::row(0, "A"),
            at: At::Last,
            max: 0.5,
            note: "B/A <= .5 at last",
        };
        assert!(ratio_l.check(&t).is_err());
        let band = Claim::ValueBand {
            s: Series::row(0, "A"),
            at: At::Index(1),
            min: 1.5,
            max: 2.5,
            note: "A[1] in band",
        };
        assert!(band.check(&t).is_ok());
        let cross = Claim::Crossover {
            a: Series::row(0, "B"),
            b: Series::row(0, "A"),
            note: "B starts above, ends below",
        };
        assert!(cross.check(&t).is_ok());
        let no_cross = Claim::Crossover {
            a: Series::row(0, "A"),
            b: Series::row(0, "B"),
            note: "A never starts above",
        };
        assert!(no_cross.check(&t).is_err());
    }

    #[test]
    fn evaluate_collects_only_failures() {
        let t = table();
        let claims = vec![
            Claim::Monotone {
                s: Series::row(0, "A"),
                non_decreasing: true,
                tol: 0.0,
                note: "ok",
            },
            Claim::PointwiseLess {
                lo: Series::row(0, "B"),
                hi: Series::row(0, "A"),
                note: "bad",
            },
        ];
        let v = evaluate(&t, &claims);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].note, "bad");
        assert!(v[0].to_string().contains("bad"));
    }

    #[test]
    fn every_scenario_has_a_claim_table() {
        for s in &crate::scenario::ALL {
            assert!(
                !claims_for(s.name).is_empty(),
                "no claims transcribed for {}",
                s.name
            );
        }
        assert!(claims_for("not_a_bench").is_empty());
    }
}
