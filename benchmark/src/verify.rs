//! Verification: are the outputs the timed passes produced correct?
//!
//! Two checks, both outside `clean_s`:
//!
//! * **Baselines** — wherever a scenario's tables do not depend on `--seed`
//!   (every table at seed 0, and the seed-independent scenarios at any
//!   seed) they are rebuilt from the cells and compared with
//!   `../baselines/<name>.json` through `dc_regress::diff` at 0 %
//!   tolerance. The baselines live outside `benchmark/`, so a later change
//!   that legitimately moves a simulated number re-blesses them there.
//! * **Invariants** — at any seed: every cell drove the engine (non-zero
//!   polls, events and timers), every issued request is accounted for
//!   (`issued = completed + shed + inflight`, conservation gap 0), and the
//!   result is well-formed. A cell that reports zero events is exactly the
//!   `dc-bench wallclock` failure this benchmark replaces.
//!
//! Every op of a cell that fails either check counts as failed.

use std::path::PathBuf;

use dc_bench::ext_incast::{self, IncastPoint};
use dc_bench::ext_shootout::{self, CellStats};
use dc_bench::ext_webfarm::{self, SweepCell};
use dc_bench::fig6;
use dc_core::ScalePoint;
use dc_dlm::DesignKind;
use dc_fabric::FabricModel;
use dc_regress::{diff, LoadedReport, Tolerance};
use dc_sim::SimCounters;
use dc_trace::ReportTable;

use crate::workloads::{Cell, Output};

/// Where the committed golden reports live.
pub fn baselines_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../baselines")
}

/// Load one committed baseline.
pub fn load_baseline(bench: &str) -> Result<LoadedReport, String> {
    LoadedReport::from_path(&baselines_dir().join(format!("{bench}.json")))
}

/// Compare freshly built `tables` of scenario `bench` with its baseline.
pub fn matches_baseline(bench: &str, tables: Vec<ReportTable>) -> Result<(), String> {
    let old = load_baseline(bench)?;
    let new = LoadedReport {
        version: 2,
        bench: bench.to_string(),
        fingerprint: Some(FabricModel::calibrated_2007().fingerprint()),
        tables,
    };
    let d = diff(&old, &new, &Tolerance::pct(0.0)).map_err(|e| e.to_string())?;
    match d.regressions() {
        0 => Ok(()),
        n => Err(format!(
            "{bench}: {n} cell(s) differ from the baseline\n{}",
            d.render(false)
        )),
    }
}

/// Structural checks on one cell's result; `Err` names what is wrong.
pub fn invariants(out: &Output, counters: SimCounters) -> Result<(), String> {
    if counters.polls == 0 || counters.events == 0 || counters.timers_fired == 0 {
        return Err(format!("cell drove no engine work: {counters:?}"));
    }
    if counters.barrier_waits != 0 {
        return Err(format!(
            "single-shard cell crossed {} barriers",
            counters.barrier_waits
        ));
    }
    let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
    match out {
        Output::Farm { cfg, result } => {
            ensure(
                result.tps.is_finite() && result.tps > 0.0,
                "tps not positive",
            )?;
            ensure(
                result.cache.total() == cfg.requests as u64,
                "served requests != issued requests",
            )?;
            ensure(
                result.mean_latency_ns > 0 && result.mean_latency_ns <= result.p99_latency_ns,
                "latency summary out of order",
            )
        }
        Output::Lock { stats, .. } => {
            ensure(stats.acquires > 0, "no lock was granted")?;
            ensure(
                stats.p99_wait_us <= stats.max_wait_us,
                "p99 wait > max wait",
            )?;
            ensure(stats.fairness_cv.is_finite(), "fairness CV not finite")
        }
        Output::Incast(p) => {
            ensure(
                p.goodput_rps.is_finite() && p.goodput_rps > 0.0,
                "no goodput",
            )?;
            ensure(
                p.p50_us <= p.p99_us && p.p99_us <= p.p999_us,
                "latency quantiles out of order",
            )?;
            ensure(p.retransmits == 0, "clean incast run retransmitted")
        }
        Output::Scale { point: p, .. } => {
            ensure(p.conservation_gap == 0, "conservation gap != 0")?;
            ensure(
                p.issued == p.completed + p.shed + p.inflight,
                "issued != completed + shed + inflight",
            )?;
            ensure(p.completed > 0, "no request completed")
        }
        Output::Figure { report, json } => {
            ensure(!report.tables().is_empty(), "scenario produced no table")?;
            ensure(
                crate::workloads::numeric_cells(report) > 0,
                "scenario produced no numeric cell",
            )?;
            dc_trace::json::validate(json)
                .map_err(|(at, why)| format!("report JSON invalid at byte {at}: {why}"))
        }
    }
}

/// Scenario tables rebuilt from a pass's outputs: `(scenario, cells that
/// feed it, its tables)`.
fn rebuilt_tables(outs: &[&Output]) -> Vec<(String, Vec<usize>, Vec<ReportTable>)> {
    let mut farm: Vec<(usize, usize, fig6::TpsCell)> = Vec::new();
    let mut locks: Vec<(usize, usize, CellStats)> = Vec::new();
    let mut incast: Vec<(usize, IncastPoint)> = Vec::new();
    let mut scale: Vec<(usize, (SweepCell, ScalePoint))> = Vec::new();
    let mut built = Vec::new();
    for (i, out) in outs.iter().enumerate() {
        match out {
            Output::Farm { cfg, result } => farm.push((
                i,
                cfg.proxies,
                fig6::TpsCell {
                    scheme: cfg.scheme,
                    size: cfg.doc_size,
                    tps: result.tps,
                    hit_rate: result.cache.hit_rate(),
                },
            )),
            Output::Lock { cell, stats } => locks.push((i, *cell, *stats)),
            Output::Incast(p) => incast.push((i, p.clone())),
            Output::Scale { cell, point } => scale.push((i, (*cell, point.clone()))),
            Output::Figure { report, .. } => built.push((
                report.bench().to_string(),
                vec![i],
                report.tables().to_vec(),
            )),
        }
    }
    if !farm.is_empty() {
        let tables = [2usize, 8]
            .iter()
            .map(|&p| {
                let panel: Vec<fig6::TpsCell> = farm
                    .iter()
                    .filter(|(_, proxies, _)| *proxies == p)
                    .map(|(_, _, c)| c.clone())
                    .collect();
                fig6::table(p, &panel).to_report()
            })
            .collect();
        let idx = farm.iter().map(|(i, ..)| *i).collect();
        built.push(("fig6_coopcache".to_string(), idx, tables));
    }
    if !locks.is_empty() {
        let tables = ext_shootout::CELLS
            .into_iter()
            .enumerate()
            .map(|(ci, cell)| {
                // Rows in legend order, whatever order the cells ran in.
                let stats: Vec<CellStats> = DesignKind::ALL
                    .into_iter()
                    .filter_map(|d| {
                        locks
                            .iter()
                            .find(|(_, c, s)| *c == ci && s.design == d)
                            .map(|(_, _, s)| *s)
                    })
                    .collect();
                ext_shootout::table(cell, &stats).to_report()
            })
            .collect();
        let idx = locks.iter().map(|(i, ..)| *i).collect();
        built.push(("ext_lock_shootout".to_string(), idx, tables));
    }
    if !incast.is_empty() {
        let points: Vec<IncastPoint> = incast.iter().map(|(_, p)| p.clone()).collect();
        let idx = incast.iter().map(|(i, _)| *i).collect();
        built.push((
            "ext_incast".to_string(),
            idx,
            vec![ext_incast::table(&points).to_report()],
        ));
    }
    if !scale.is_empty() {
        let points: Vec<(SweepCell, ScalePoint)> = scale.iter().map(|(_, p)| p.clone()).collect();
        let idx = scale.iter().map(|(i, _)| *i).collect();
        built.push((
            "ext_webfarm_scale".to_string(),
            idx,
            vec![
                ext_webfarm::sweep_table(&points).to_report(),
                ext_webfarm::accounting_table(&points).to_report(),
            ],
        ));
    }
    built
}

/// The verdict on one pass of one workload.
pub struct Verdict {
    /// Ops attempted (sum over cells).
    pub attempted: u64,
    /// Ops of cells that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Scenarios compared with their baseline byte for byte.
    pub baselines_checked: Vec<String>,
}

/// Verify one pass: `outs[i]` is `cells[i]`'s output (`None` if it
/// panicked), `counters[i]` its scheduler-counter delta.
pub fn verify_pass(
    seed: u64,
    cells: &[Cell],
    outs: &[Option<Output>],
    counters: &[SimCounters],
) -> Verdict {
    let mut bad = vec![false; cells.len()];
    let mut problems = Vec::new();
    for (i, out) in outs.iter().enumerate() {
        let check = match out {
            Some(out) => invariants(out, counters[i]),
            None => Err("panicked".to_string()),
        };
        if let Err(why) = check {
            bad[i] = true;
            problems.push(format!("{}: {why}", cells[i].name));
        }
    }
    let mut baselines_checked = Vec::new();
    // A panicked cell leaves a hole no table can be rebuilt around; it has
    // already failed above.
    if outs.iter().all(Option::is_some) {
        let outs: Vec<&Output> = outs.iter().flatten().collect();
        for (bench, idx, tables) in rebuilt_tables(&outs) {
            if seed != 0 && idx.iter().any(|&i| cells[i].seeded) {
                continue;
            }
            if let Err(why) = matches_baseline(&bench, tables) {
                idx.iter().for_each(|&i| bad[i] = true);
                problems.push(why);
            }
            baselines_checked.push(bench);
        }
    }
    let ops = |i: usize| outs[i].as_ref().map_or(1, Output::ops);
    Verdict {
        attempted: (0..cells.len()).map(ops).sum(),
        failed: (0..cells.len()).filter(|&i| bad[i]).map(ops).sum(),
        problems,
        baselines_checked,
    }
}
