//! `ext_webfarm_scale` — the at-scale open-loop web farm sweep.
//!
//! Drives [`dc_core::webfarm_scale::run_webfarm_scale`] across an offered
//! load sweep of 0.3×–1.5× the analytic saturation estimate, with Poisson
//! arrivals along the whole sweep plus bursty (MMPP-2) cells at the knee
//! (0.9×) and past it (1.2×). Two tables come out:
//!
//! * **load sweep** — goodput, shed rate, and p50/p99/p999 per cell: the
//!   open-loop overload story. Goodput tracks offered load up to the knee,
//!   flattens past it (bounded loss), and the p999/p50 ratio explodes
//!   across it while the median stays near the service floor.
//! * **request accounting** — issued / completed / shed / in-flight and the
//!   conservation gap per cell, which the structural claim pins to zero.
//!
//! The registered scenario runs [`gate_cfg`] (60k clients, 180 nodes) so
//! the regression gate and tier-1 tests stay fast; [`full_cfg`] scales the
//! same shape to 10^6 clients / 450 nodes and runs, ungated, as
//! `dc-bench run ext_webfarm_scale_full`.

use dc_core::webfarm_scale::{run_webfarm_scale, ScaleFarmCfg, ScalePoint};
use dc_core::{table::f, Table};
use dc_workloads::ArrivalKind;

/// Offered-load multiples of the saturation estimate along the sweep.
pub const LOADS: [f64; 5] = [0.3, 0.6, 0.9, 1.2, 1.5];

/// One cell of the sweep: a load multiple under an arrival process.
#[derive(Debug, Clone, Copy)]
pub struct SweepCell {
    /// Offered load as a multiple of [`ScaleFarmCfg::saturation_rps`].
    pub load_x: f64,
    /// Arrival-process label for the table rows.
    pub arrival: &'static str,
    /// The interarrival process each client runs.
    pub kind: ArrivalKind,
    /// Edge-aggregation streams per proxy (0 = one stream per client).
    /// Bursty cells aggregate so phase flips swing whole gateways; see
    /// [`ScaleFarmCfg::gateways_per_proxy`].
    pub gateways_per_proxy: usize,
}

/// The full sweep: Poisson across all five loads, plus bursty (MMPP-2)
/// cells at light load (0.3×, where bursts have headroom to queue and the
/// fattened tail is visible), at the knee (0.9×), and past it (1.2×).
pub fn cells() -> Vec<SweepCell> {
    let mut v: Vec<SweepCell> = LOADS
        .iter()
        .map(|&load_x| SweepCell {
            load_x,
            arrival: "poisson",
            kind: ArrivalKind::Poisson,
            gateways_per_proxy: 0,
        })
        .collect();
    for load_x in [0.3, 0.9, 1.2] {
        v.push(SweepCell {
            load_x,
            arrival: "bursty",
            kind: ArrivalKind::Bursty,
            gateways_per_proxy: 3,
        });
    }
    v
}

/// The gated configuration: big enough to show the knee (60k clients over
/// 180 proxy/app nodes, ~10^5 requests per sweep), small enough that the
/// claims suite and `cargo test -q` run it in seconds.
pub fn gate_cfg() -> ScaleFarmCfg {
    ScaleFarmCfg {
        proxies: 120,
        app_nodes: 60,
        clients: 60_000,
        num_docs: 65_536,
        arrival: ArrivalKind::Poisson,
        gateways_per_proxy: 0,
        offered_rps: 0.0, // set per sweep cell
        backend_workers: 2,
        horizon_ns: 1_500_000_000,
        warmup_ns: 500_000_000,
        seed: 42,
        faults: None,
        shards: None,
    }
}

/// The flagship configuration: 10^6 open-loop clients over 450 nodes. Same
/// shape as [`gate_cfg`], scaled ~17× in population and ~25× in capacity;
/// the three knee-straddling points `ext_webfarm_scale_full` runs on it
/// drive 5.8 × 10^6 engine events.
pub fn full_cfg() -> ScaleFarmCfg {
    ScaleFarmCfg {
        proxies: 300,
        app_nodes: 150,
        clients: 1_000_000,
        num_docs: 262_144,
        backend_workers: 50,
        ..gate_cfg()
    }
}

/// Run one sweep over `base`, returning each cell's result.
pub fn run_sweep(base: &ScaleFarmCfg, sweep: &[SweepCell]) -> Vec<(SweepCell, ScalePoint)> {
    let sat = base.saturation_rps();
    sweep
        .iter()
        .map(|&cell| {
            let cfg = ScaleFarmCfg {
                offered_rps: cell.load_x * sat,
                arrival: cell.kind,
                gateways_per_proxy: cell.gateways_per_proxy,
                ..base.clone()
            };
            (cell, run_webfarm_scale(&cfg))
        })
        .collect()
}

fn row_label(cell: &SweepCell) -> String {
    format!("{:.1}x", cell.load_x)
}

/// The overload-story table: goodput, shed, latency quantiles per cell.
pub fn sweep_table(points: &[(SweepCell, ScalePoint)]) -> Table {
    let mut t = Table::new(
        "ext — webfarm at scale: open-loop load sweep",
        &[
            "load",
            "arrival",
            "offered rps",
            "goodput rps",
            "shed %",
            "p50 us",
            "p99 us",
            "p999 us",
            "hit %",
            "backend %",
        ],
    );
    for (cell, p) in points {
        t.row(vec![
            row_label(cell),
            cell.arrival.to_string(),
            f(p.offered_rps),
            f(p.goodput_rps),
            format!("{:.2}%", p.shed_pct),
            f(p.p50_us),
            f(p.p99_us),
            f(p.p999_us),
            format!("{:.1}%", p.hit_pct()),
            format!("{:.1}%", p.backend_busy_pct),
        ]);
    }
    t
}

/// The conservation table: every issued request accounted for per cell.
pub fn accounting_table(points: &[(SweepCell, ScalePoint)]) -> Table {
    let mut t = Table::new(
        "ext — webfarm at scale: request accounting",
        &[
            "load",
            "arrival",
            "issued",
            "completed",
            "shed",
            "inflight",
            "gap",
            "retries",
            "qdepth hwm",
        ],
    );
    for (cell, p) in points {
        t.row(vec![
            row_label(cell),
            cell.arrival.to_string(),
            p.issued.to_string(),
            p.completed.to_string(),
            p.shed.to_string(),
            p.inflight.to_string(),
            p.conservation_gap.to_string(),
            p.retries.to_string(),
            p.qdepth_hwm.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_cells_cover_both_arrival_processes_across_the_knee() {
        let cs = cells();
        assert_eq!(cs.len(), LOADS.len() + 3);
        assert!(cs.iter().any(|c| c.arrival == "bursty" && c.load_x > 1.0));
        assert!(cs.iter().any(|c| c.arrival == "bursty" && c.load_x < 1.0));
        // Bursty cells aggregate at the edge; per-client cells do not.
        assert!(cs
            .iter()
            .all(|c| (c.arrival == "bursty") == (c.gateways_per_proxy > 0)));
    }

    #[test]
    fn gate_cfg_saturation_is_backend_bound_and_sane() {
        let sat = gate_cfg().saturation_rps();
        assert!(
            (5_000.0..60_000.0).contains(&sat),
            "gate saturation estimate out of range: {sat}"
        );
        let full = full_cfg().saturation_rps();
        assert!(full > 5.0 * sat, "full config must scale capacity: {full}");
    }
}
