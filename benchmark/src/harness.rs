//! Running one workload: set-up, timed passes, the counted pass, the traced
//! passes, and the metrics that come out.
//!
//! Everything runs on the calling thread. One *pass* runs every cell once
//! with the thread-CPU clock of `cputime.rs` (and `Instant`, for the wall
//! share) around the call. A run is
//!
//! 1. [`setups_for`] set-ups, each: build the cells from the seed, run one
//!    (untimed, warm-up) pass, verify its outputs. `setup_s` is their
//!    median; the first one, cold, starts at process start.
//! 2. untraced: `R` timed passes and one counted pass (allocation counting
//!    on). End-to-end metrics come from here and only from here.
//! 3. traced (`--trace 1`): a few untraced passes alternating with as many
//!    that have the span recorder and allocation counting on, then the layer
//!    probes.
//!
//! `R` is a fixed multiple of `--seconds`, never derived from a clock, so
//! parent and change do identical work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dc_bench::ext_webfarm;
use dc_core::run_webfarm_scale_stats;
use dc_sim::SimCounters;
use dc_trace::json::{parse, JsonValue};

use crate::alloc::{AllocCounts, Counting};
use crate::cputime::thread_cpu;
use crate::estimator::{cell_minima, clean_s, median, pass_totals, quartiles};
use crate::spans::{self, Counters};
use crate::verify::{self, Verdict};
use crate::workloads::{self, Cell, Output, Workload};
use crate::{metrics, probes};

/// Set-ups per run: a third as many as timed passes per 10 s, at least 5.
/// A cheap workload's set-up is one short pass, whose time the host moves
/// by half from one to the next (0.08-0.14 s on `lock_contention`), so its
/// median needs more of them; an expensive one cannot afford more than 5.
pub fn setups_for(w: &Workload) -> usize {
    (w.passes_per_10s / 3).max(5)
}

/// What one run reports.
pub struct RunReport {
    /// No op failed.
    pub correct: bool,
    /// Ops attempted in the verified pass.
    pub attempted: u64,
    /// Ops of cells that failed verification.
    pub failed: u64,
    /// `(name, value)`; exactly the end-to-end or the per-layer catalogue.
    pub metrics: Vec<(String, f64)>,
    /// The recorded spans as JSON (traced run only).
    pub spans_json: Option<String>,
}

/// Timed passes for `--seconds`.
pub fn passes_for(w: &Workload, seconds: u64) -> usize {
    (w.passes_per_10s * seconds as usize).div_ceil(10).max(10)
}

/// One pass's record.
struct Pass {
    /// Thread-CPU seconds per cell (0 for a skipped cell): the samples
    /// `clean_s` is built from.
    cpu: Vec<f64>,
    /// Wall seconds per cell, kept to show how much of the wall clock the
    /// host gave the thread.
    wall: Vec<f64>,
    /// Counter deltas per cell.
    counters: Vec<Counters>,
    /// Outputs, `None` where the cell was skipped or panicked.
    outs: Vec<Option<Output>>,
}

/// First-seen counters per cell. Any later pass must repeat the scheduler
/// counters exactly. Allocations must repeat to within 0.1 %: the coopcache
/// LRU, node and service tables are `std` `HashMap`s whose per-instance
/// random hash seed decides when churn forces a resize, which moves the
/// count of a Figure 6 cell by about one allocation in 28,000 between
/// otherwise identical passes.
#[derive(Default)]
struct DeterminismGuard {
    sim: Vec<Option<SimCounters>>,
    alloc: Vec<Option<AllocCounts>>,
}

impl DeterminismGuard {
    fn check(&mut self, i: usize, cell: &str, c: Counters, counted: bool) -> Result<(), String> {
        if self.sim.len() <= i {
            self.sim.resize(i + 1, None);
            self.alloc.resize(i + 1, None);
        }
        let first = *self.sim[i].get_or_insert(c.sim);
        if first != c.sim {
            return Err(format!(
                "cell {cell}: scheduler counters diverged between passes ({first:?} then {:?}); \
                 the cell is not deterministic, refusing to report numbers",
                c.sim
            ));
        }
        if counted {
            let first = *self.alloc[i].get_or_insert(c.alloc);
            let (a, b) = (first.allocs, c.alloc.allocs);
            if a.abs_diff(b) * 1000 > a.max(b) {
                return Err(format!(
                    "cell {cell}: allocations diverged between counted passes ({first:?} then \
                     {:?}); refusing to report numbers",
                    c.alloc
                ));
            }
        }
        Ok(())
    }
}

struct PassOpts<'a> {
    label: &'a str,
    /// Cells to leave out (they panicked during set-up).
    skip: &'a [bool],
    /// Counted and traced passes: allocation counting is on, so the guard
    /// compares allocations too, and each cell's invariants are checked
    /// under a `verify` span.
    instrumented: bool,
}

fn run_pass(cells: &[Cell], guard: &mut DeterminismGuard, o: PassOpts) -> Result<Pass, String> {
    let mut pass = Pass {
        cpu: Vec::with_capacity(cells.len()),
        wall: Vec::with_capacity(cells.len()),
        counters: Vec::with_capacity(cells.len()),
        outs: Vec::with_capacity(cells.len()),
    };
    spans::scope(o.label, || {
        for (i, cell) in cells.iter().enumerate() {
            if o.skip.get(i).copied().unwrap_or(false) {
                pass.cpu.push(0.0);
                pass.wall.push(0.0);
                pass.counters.push(Counters::default());
                pass.outs.push(None);
                continue;
            }
            spans::scope(&cell.name, || {
                let before = Counters::now();
                let (t0, c0) = (Instant::now(), thread_cpu());
                let out = catch_unwind(AssertUnwindSafe(|| (cell.run)())).ok();
                let (cpu, wall) = (thread_cpu() - c0, t0.elapsed());
                let counters = Counters::now().since(before);
                if let Some(out) = &out {
                    guard.check(i, &cell.name, counters, o.instrumented)?;
                    if o.instrumented {
                        spans::scope("verify", || verify::invariants(out, counters.sim))
                            .map_err(|why| format!("cell {}: {why}", cell.name))?;
                    }
                }
                pass.cpu.push(cpu.as_secs_f64());
                pass.wall.push(wall.as_secs_f64());
                pass.counters.push(counters);
                pass.outs.push(out);
                Ok::<(), String>(())
            })?;
        }
        Ok::<(), String>(())
    })?;
    Ok(pass)
}

/// `VmHWM`, kB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The set-up phase: what it cost and what it established.
struct Setup {
    cells: Vec<Cell>,
    /// Seconds per set-up, in order (the first is cold).
    seconds: Vec<f64>,
    verdict: Verdict,
    /// Cells that panicked and are left out of every later pass.
    skip: Vec<bool>,
    /// Ops per pass over the cells that run.
    ops: u64,
    /// Outputs of the last set-up pass.
    outs: Vec<Option<Output>>,
}

fn set_up(w: &Workload, seed: u64, guard: &mut DeterminismGuard) -> Result<Setup, String> {
    let mut seconds = Vec::new();
    let mut last = None;
    for i in 0..setups_for(w) {
        // The main thread's CPU clock starts with the process, so the first
        // set-up also covers loading, start-up and flag parsing.
        let t0 = if i == 0 { Duration::ZERO } else { thread_cpu() };
        let cells = (w.cells)(seed);
        let pass = run_pass(
            &cells,
            guard,
            PassOpts {
                label: "setup",
                skip: &[],
                instrumented: false,
            },
        )?;
        let sim: Vec<SimCounters> = pass.counters.iter().map(|c| c.sim).collect();
        let verdict = verify::verify_pass(seed, &cells, &pass.outs, &sim);
        seconds.push((thread_cpu() - t0).as_secs_f64());
        last = Some((cells, pass, verdict));
    }
    let (cells, pass, verdict) = last.expect("at least 5 set-ups");
    let skip: Vec<bool> = pass.outs.iter().map(Option::is_none).collect();
    let ops = pass.outs.iter().flatten().map(Output::ops).sum();
    if ops == 0 {
        return Err(format!("{}: no cell completed", w.name));
    }
    Ok(Setup {
        cells,
        seconds,
        verdict,
        skip,
        ops,
        outs: pass.outs,
    })
}

/// `samples[pass][cell]`, thread-CPU seconds: what `clean_s` is built from.
fn cpu_samples(passes: &[Pass]) -> Vec<Vec<f64>> {
    passes.iter().map(|p| p.cpu.clone()).collect()
}

/// Whole-pass wall seconds, one per pass.
fn wall_per_pass(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.wall.iter().sum()).collect()
}

/// Run `w` once and report.
pub fn run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Result<RunReport, String> {
    let mut guard = DeterminismGuard::default();
    let setup = set_up(w, seed, &mut guard)?;
    for problem in &setup.verdict.problems {
        eprintln!("FAILED {problem}");
    }
    eprintln!(
        "{}: seed {seed}, {} cells, {} ops/pass, {} attempted, {} failed; baselines checked: {}",
        w.name,
        setup.cells.len(),
        setup.ops,
        setup.verdict.attempted,
        setup.verdict.failed,
        if setup.verdict.baselines_checked.is_empty() {
            "none (seeded tables, invariants only)".to_string()
        } else {
            setup.verdict.baselines_checked.join(", ")
        }
    );
    let r = passes_for(w, seconds);
    let (metrics, spans_json) = if trace {
        let (m, s) = traced(w, seed, &setup, &mut guard, r)?;
        (m, Some(s))
    } else {
        (untraced(w, &setup, &mut guard, r)?, None)
    };
    Ok(RunReport {
        correct: setup.verdict.failed == 0,
        attempted: setup.verdict.attempted,
        failed: setup.verdict.failed,
        metrics,
        spans_json,
    })
}

fn timed_passes(
    setup: &Setup,
    guard: &mut DeterminismGuard,
    n: usize,
    label: &str,
    instrumented: bool,
) -> Result<Vec<Pass>, String> {
    (0..n)
        .map(|_| {
            run_pass(
                &setup.cells,
                guard,
                PassOpts {
                    label,
                    skip: &setup.skip,
                    instrumented,
                },
            )
        })
        .collect()
}

/// Share of the wall clock the host gave this thread over `passes`.
fn cpu_share(passes: &[Pass]) -> f64 {
    let cpu: f64 = pass_totals(&cpu_samples(passes)).iter().sum();
    cpu / wall_per_pass(passes).iter().sum::<f64>()
}

fn print_spread(w: &Workload, passes: &[Pass]) {
    let cpu = pass_totals(&cpu_samples(passes));
    let (q1, q3) = quartiles(&cpu);
    eprintln!(
        "{}: clean_s {:.6} over {} passes; whole pass median {:.6} s, IQR {:.6} s (thread CPU); \
         whole pass median {:.6} s on the wall clock, the thread held {:.0} % of it",
        w.name,
        clean_s(&cpu_samples(passes)),
        passes.len(),
        median(&cpu),
        q3 - q1,
        median(&wall_per_pass(passes)),
        cpu_share(passes) * 100.0
    );
}

fn untraced(
    w: &Workload,
    setup: &Setup,
    guard: &mut DeterminismGuard,
    r: usize,
) -> Result<Vec<(String, f64)>, String> {
    let timed = timed_passes(setup, guard, r, "pass", false)?;
    print_spread(w, &timed);
    let counted = {
        let _on = Counting::start();
        timed_passes(setup, guard, 1, "counted", true)?
    };
    let allocs: u64 = counted[0].counters.iter().map(|c| c.alloc.allocs).sum();
    let ops = setup.ops as f64;
    let peak_kb = peak_rss_kb().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(vec![
        ("sim_ops_per_s".into(), ops / clean_s(&cpu_samples(&timed))),
        ("allocs_per_op".into(), allocs as f64 / ops),
        ("peak_rss_mb".into(), peak_kb as f64 / 1024.0),
        ("setup_s".into(), median(&setup.seconds)),
    ])
}

/// The registry counts a cell's public traced entry reports.
#[derive(Default)]
struct FabricCounts {
    verbs: u64,
    bytes: u64,
    qp_active: i64,
}

fn fabric_counts(setup: &Setup) -> Result<FabricCounts, String> {
    let mut total = FabricCounts::default();
    spans::scope("fabric_counts", || {
        for (cell, _) in setup.cells.iter().zip(&setup.skip).filter(|(_, &s)| !s) {
            let Some(traced) = &cell.registry else {
                continue;
            };
            let doc = parse(&traced()).map_err(|(at, why)| {
                format!(
                    "cell {}: registry JSON invalid at byte {at}: {why}",
                    cell.name
                )
            })?;
            for (key, v) in doc.as_obj().unwrap_or_default() {
                let n = v.as_f64().unwrap_or(0.0);
                if key.starts_with("fabric.verbs.") {
                    total.verbs += n as u64;
                } else if key.starts_with("fabric.bytes.") {
                    total.bytes += n as u64;
                } else if key == "fabric.qp.active" {
                    total.qp_active = total.qp_active.max(n as i64);
                }
            }
        }
        Ok(total)
    })
}

/// Barrier crossings, cross-shard sends and speed-up of the sharded driver
/// at 2 shards on the knee cell. Never an end-to-end number: on a small
/// host a 2-thread run measures the scheduler (best-of-5 moved 39 %).
fn shard_probe(seed: u64, out: &mut Vec<(String, f64)>) {
    let knee = ext_webfarm::cells()
        .into_iter()
        .find(|c| c.arrival == "poisson" && c.load_x == 0.9)
        .expect("the sweep has a knee cell");
    let mut best = [Duration::MAX; 2];
    let mut stats = None;
    spans::scope("sim.shard", || {
        for _ in 0..3 {
            for shards in [1usize, 2] {
                let cfg = workloads::scale_cfg(seed, 0, &knee, shards);
                let t0 = Instant::now();
                let (_, s) = run_webfarm_scale_stats(&cfg);
                best[shards - 1] = best[shards - 1].min(t0.elapsed());
                if shards == 2 {
                    stats = Some(s);
                }
            }
        }
    });
    let s = stats.expect("ran at 2 shards");
    let events = (s.counters.events + s.counters.timers_fired) as f64;
    out.extend([
        (
            "sim.shard.barrier_waits_per_event".to_string(),
            s.barrier_waits as f64 / events,
        ),
        (
            "sim.shard.cross_sends_per_event".to_string(),
            s.cross_sends as f64 / events,
        ),
        (
            "sim.shard.speedup_2".to_string(),
            best[0].as_secs_f64() / best[1].as_secs_f64(),
        ),
    ]);
}

fn traced(
    w: &Workload,
    seed: u64,
    setup: &Setup,
    guard: &mut DeterminismGuard,
    r: usize,
) -> Result<(Vec<(String, f64)>, String), String> {
    let n = (r / 5).max(3);
    spans::start();
    let mut m: Vec<(String, f64)> = Vec::new();
    let (mut plain, mut instrumented) = (Vec::new(), Vec::new());
    let fabric = spans::scope(w.name, || {
        // Untraced and traced passes alternate, so that a slow spell of the
        // host lands on both sides of the overhead ratio.
        for _ in 0..n {
            plain.extend(spans::paused(|| {
                timed_passes(setup, guard, 1, "pass", false)
            })?);
            let _on = Counting::start();
            instrumented.extend(timed_passes(setup, guard, 1, "traced pass", true)?);
        }
        m.extend(probes::run_all());
        shard_probe(seed, &mut m);
        fabric_counts(setup)
    })?;
    let spans = spans::finish();
    print_spread(w, &plain);

    let samples = cpu_samples(&plain);
    let clean = clean_s(&samples);
    let ops = setup.ops as f64;
    let whole = wall_per_pass(&plain);
    let (q1, q3) = quartiles(&whole);
    let sim = plain[0]
        .counters
        .iter()
        .fold(SimCounters::default(), |mut acc, c| {
            acc.polls += c.sim.polls;
            acc.events += c.sim.events;
            acc.timers_fired += c.sim.timers_fired;
            acc
        });
    let sim_events = (sim.events + sim.timers_fired) as f64;
    let probe = |name: &str| {
        m.iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or(format!("probe {name} did not run"))
    };
    let engine_floor_ns = sim.timers_fired as f64 * probe("sim.probe.timer_ns")?
        + sim.polls.saturating_sub(sim.timers_fired) as f64 * probe("sim.probe.mpsc_ns")?;
    m.extend([
        ("harness.pass_wall_p50_s".to_string(), median(&whole)),
        ("harness.pass_wall_iqr_s".to_string(), q3 - q1),
        ("harness.passes".to_string(), n as f64),
        (
            "harness.host_cores".to_string(),
            std::thread::available_parallelism().map_or(1, |c| c.get()) as f64,
        ),
        (
            "harness.trace_overhead_pct".to_string(),
            (clean_s(&cpu_samples(&instrumented)) / clean - 1.0) * 100.0,
        ),
        ("harness.cpu_share".to_string(), cpu_share(&plain)),
        ("harness.setup_cold_s".to_string(), setup.seconds[0]),
        ("sim.events_per_pass".to_string(), sim_events),
        ("sim.events_per_op".to_string(), sim.events as f64 / ops),
        ("sim.polls_per_op".to_string(), sim.polls as f64 / ops),
        (
            "sim.timers_per_op".to_string(),
            sim.timers_fired as f64 / ops,
        ),
        (
            "sim.host_ns_per_event".to_string(),
            clean * 1e9 / sim_events,
        ),
        ("sim.est_share".to_string(), engine_floor_ns / (clean * 1e9)),
        ("fabric.verbs_per_op".to_string(), fabric.verbs as f64 / ops),
        ("fabric.bytes_per_op".to_string(), fabric.bytes as f64 / ops),
    ]);

    // Exact per-layer counts the cells' own results carry.
    let (mut hits, mut remote, mut served) = (0u64, 0u64, 0u64);
    let (mut retransmits, mut marks, mut qp_active) = (0u64, 0u64, fabric.qp_active);
    for out in setup.outs.iter().flatten() {
        match out {
            Output::Farm { result, .. } => {
                hits += result.cache.local_hits + result.cache.remote_hits;
                remote += result.cache.remote_hits;
                served += result.cache.total();
            }
            Output::Incast(p) => {
                retransmits += p.retransmits;
                marks += p.marks;
                qp_active = qp_active.max(p.qp_active);
            }
            Output::Lock { .. } | Output::Scale { .. } | Output::Figure { .. } => {}
        }
    }
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    m.extend([
        ("fabric.qp_active".to_string(), qp_active as f64),
        ("sockets.retransmits".to_string(), retransmits as f64),
        ("sockets.ecn_marks".to_string(), marks as f64),
        ("coopcache.hit_ratio".to_string(), share(hits, served)),
        (
            "coopcache.remote_hit_share".to_string(),
            share(remote, hits),
        ),
    ]);
    let minima = cell_minima(&samples);
    for figure in workloads::FIGURES {
        let ms = setup
            .cells
            .iter()
            .position(|c| c.name == figure)
            .map_or(0.0, |i| minima[i] * 1e3);
        m.push((format!("figures.{figure}.clean_ms"), ms));
    }

    eprintln!("{}: per-cell clean time and exact engine work", w.name);
    for (i, cell) in setup.cells.iter().enumerate() {
        let c = plain[0].counters[i].sim;
        eprintln!(
            "  {:<28} {:>10.3} ms  {:>9} events+timers  {:>9} polls",
            cell.name,
            minima[i] * 1e3,
            c.events + c.timers_fired,
            c.polls
        );
    }
    Ok((m, spans::to_json(w.name, seed, &spans)))
}

/// Order `values` as the catalogue lists them; a missing or extra name is a
/// bug in this crate.
pub fn in_catalogue_order(
    values: &[(String, f64)],
    trace: bool,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let defs = if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    if values.len() != defs.len() {
        return Err(format!(
            "measured {} metrics, the catalogue lists {}",
            values.len(),
            defs.len()
        ));
    }
    defs.into_iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .ok_or(format!("metric {} was not measured", d.name))?
                .1;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite", d.name));
            }
            Ok((d.name, v, d.unit))
        })
        .collect()
}

/// The result line, also used by `all` to re-read a child's output.
pub fn result_line(report: &RunReport, trace: bool) -> Result<String, String> {
    let mut j = dc_trace::json::JsonWriter::new();
    j.begin_object();
    j.key("correct").bool(report.correct);
    j.key("attempted").u64(report.attempted);
    j.key("failed").u64(report.failed);
    j.key("metrics").begin_object();
    for (name, value, unit) in in_catalogue_order(&report.metrics, trace)? {
        j.key(&name).begin_object();
        j.key("value").f64(value);
        j.key("unit").string(unit);
        j.end_object();
    }
    j.end_object();
    j.end_object();
    Ok(j.finish())
}

/// A result line read back.
pub struct ParsedResult {
    /// No op failed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parse a line [`result_line`] wrote.
pub fn parse_result_line(line: &str) -> Result<ParsedResult, String> {
    let doc =
        parse(line).map_err(|(at, why)| format!("result line invalid at byte {at}: {why}"))?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("result line lacks {key}"))
    };
    let correct = matches!(doc.get("correct"), Some(JsonValue::Bool(true)));
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .ok_or("result line lacks metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64);
            let unit = m.get("unit").and_then(JsonValue::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("metric {name} lacks value or unit")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ParsedResult {
        correct,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_scales_with_seconds_and_never_drops_below_ten() {
        let w = workloads::by_name("lock_contention").unwrap();
        assert_eq!(passes_for(w, 10), w.passes_per_10s);
        assert_eq!(passes_for(w, 20), 2 * w.passes_per_10s);
        assert_eq!(passes_for(w, 1), 10);
    }

    #[test]
    fn the_guard_names_the_cell_whose_counters_moved() {
        let mut g = DeterminismGuard::default();
        let c = |polls, allocs| Counters {
            sim: SimCounters {
                polls,
                events: 1,
                timers_fired: 1,
                barrier_waits: 0,
            },
            alloc: AllocCounts { allocs, bytes: 0 },
        };
        assert!(g.check(2, "cell-c", c(5, 0), false).is_ok());
        assert!(
            g.check(2, "cell-c", c(5, 9), false).is_ok(),
            "allocs ignored unless counted"
        );
        assert!(g.check(2, "cell-c", c(5, 28_434), true).is_ok());
        assert!(
            g.check(2, "cell-c", c(5, 28_435), true).is_ok(),
            "hash-seed jitter"
        );
        let err = g.check(2, "cell-c", c(5, 28_500), true).unwrap_err();
        assert!(
            err.contains("cell-c") && err.contains("allocations"),
            "{err}"
        );
        let err = g.check(2, "cell-c", c(6, 28_434), true).unwrap_err();
        assert!(err.contains("cell-c") && err.contains("scheduler"), "{err}");
    }

    /// A whole run of the cheapest workload, both modes: the result line is
    /// valid JSON with exactly the catalogue's names, every op verifies, and
    /// the spans carry parent links and counter deltas.
    #[test]
    fn a_run_prints_exactly_the_catalogue_and_verifies() {
        let w = workloads::by_name("lock_contention").unwrap();
        for trace in [false, true] {
            let report = run(w, 0, 1, trace).expect("run succeeds");
            assert!(report.correct && report.failed == 0 && report.attempted > 0);
            let line = result_line(&report, trace).unwrap();
            dc_trace::json::validate(&line).expect("result line is valid JSON");
            let parsed = parse_result_line(&line).unwrap();
            assert!(parsed.correct && parsed.failed == 0 && parsed.attempted == report.attempted);
            let got = parsed.metrics;
            let want = if trace {
                metrics::per_layer()
            } else {
                metrics::end_to_end()
            };
            let names: Vec<&str> = got.iter().map(|(n, ..)| n.as_str()).collect();
            let listed: Vec<&str> = want.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(names, listed);
            if !trace {
                assert!(got.iter().all(|(n, v, _)| *v > 0.0 || panic!("{n} is 0")));
                continue;
            }
            let spans = parse(report.spans_json.as_deref().expect("traced run has spans")).unwrap();
            let spans = spans.get("spans").and_then(JsonValue::as_arr).unwrap();
            let named = |n: &str| -> Vec<&JsonValue> {
                let is_n = |s: &&JsonValue| s.get("name").and_then(JsonValue::as_str) == Some(n);
                spans.iter().filter(is_n).collect()
            };
            assert_eq!(named("lock_contention").len(), 1, "one root span");
            assert_eq!(named("verify").len(), named("run").len());
            let run_span = named("run")[0];
            assert!(run_span.get("parent").and_then(JsonValue::as_f64).is_some());
            assert!(run_span.get("polls").and_then(JsonValue::as_f64).unwrap() > 0.0);
            assert!(run_span.get("allocs").and_then(JsonValue::as_f64).unwrap() > 0.0);
        }
    }
}
