//! `ext_lock_shootout` — six lock designs under Zipf-skewed contention.
//!
//! Every design from `dc_dlm::DesignKind` drives the same closed-loop
//! workload: each client node loops think → pick a lock from a Zipf-skewed
//! key stream → acquire → hold → release, for a fixed virtual-time horizon.
//! The sweep walks contention up from a near-uncontended cell to a hot-key
//! regime and reports, per design and cell:
//!
//! * **throughput** — grants per simulated second;
//! * **p99 wait** — 99th-percentile grant latency (µs);
//! * **fairness CV** — coefficient of variation, across clients, of each
//!   client's *mean wait on the hottest lock* (0 = every contender is
//!   served equally fast). Conditioning on one lock isolates grant
//!   fairness from key-mix luck: raw per-client grant counts would mostly
//!   measure how often each client happened to draw the hot key;
//! * **max wait** — the single worst grant latency (µs), the
//!   starvation-bound proxy.
//!
//! The dominance claims transcribed in `crate::claims` ride on these tables:
//! the FIFO ticket queue must beat the CAS spinner on fairness and tail
//! wait once the key stream gets hot, while the spinner's bare-metal
//! uncontended path must stay competitive with every queueing design in
//! the cold cell.

use std::cell::RefCell;
use std::rc::Rc;

use dc_dlm::{DesignKind, DlmConfig, LockMode};
use dc_fabric::{Cluster, FabricModel, FaultPlan, NodeId};
use dc_sim::rng::component_rng;
use dc_sim::time::{as_us, ms};
use dc_sim::Sim;
use dc_workloads::Zipf;
use rand::Rng;

use crate::scenario::RunCtx;

/// One contention cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct CellCfg {
    /// Client nodes driving the workload (node 0 is home/server only).
    pub clients: usize,
    /// Zipf skew of the key stream (0 = uniform).
    pub alpha: f64,
    /// Workload seed (per-client streams derive from it).
    pub seed: u64,
}

/// The contention sweep, cold to hot.
pub const CELLS: [CellCfg; 3] = [
    CellCfg {
        clients: 4,
        alpha: 0.0,
        seed: 0x51007,
    },
    CellCfg {
        clients: 8,
        alpha: 0.9,
        seed: 0x51007,
    },
    CellCfg {
        clients: 16,
        alpha: 1.2,
        seed: 0x51007,
    },
];

/// Locks in the table, in every cell.
pub const LOCKS: u32 = 16;
/// Critical-section hold time. Far below the lease bound, so the lease
/// design's conditional mutual exclusion holds throughout (DESIGN.md).
pub const HOLD_NS: u64 = 5_000;
/// Upper bound of the uniform per-iteration think time.
pub const THINK_MAX_NS: u64 = 40_000;
/// Virtual-time horizon of one cell run.
pub const HORIZON_NS: u64 = ms(30);

/// Measured outcome of one (design, cell) run.
#[derive(Debug, Clone, Copy)]
pub struct CellStats {
    /// The design measured.
    pub design: DesignKind,
    /// Total grants within the horizon.
    pub acquires: u64,
    /// Grants per simulated second.
    pub throughput_per_s: f64,
    /// 99th-percentile grant wait, µs.
    pub p99_wait_us: f64,
    /// CV across clients of the mean wait on the hottest lock.
    pub fairness_cv: f64,
    /// Worst single grant wait, µs.
    pub max_wait_us: f64,
}

/// Run one design through one cell, optionally under a fault plan.
///
/// Fault plans for this scenario must stick to drops and latency windows
/// (no crash or stall windows on the home): one-sided atomics cannot ride
/// out a crashed home, and a design whose home dies holds no defined
/// outcome to measure.
pub fn run_cell(design: DesignKind, cell: CellCfg, faults: Option<FaultPlan>) -> CellStats {
    run_cell_inner(design, cell, faults, None).0
}

/// [`run_cell`] with the fabric tracer enabled: also returns the exported
/// observability artifacts. Tracing is observationally free — the stats
/// equal an untraced run's — and two traced runs of the same inputs export
/// byte-identical artifacts (asserted in `tests/trace_determinism.rs`).
pub fn run_cell_traced(
    design: DesignKind,
    cell: CellCfg,
    faults: Option<FaultPlan>,
    mode: dc_trace::TraceMode,
) -> (CellStats, dc_core::TraceArtifacts) {
    let (stats, artifacts) = run_cell_inner(design, cell, faults, Some(mode));
    (stats, artifacts.expect("traced run returns artifacts"))
}

fn run_cell_inner(
    design: DesignKind,
    cell: CellCfg,
    faults: Option<FaultPlan>,
    trace: Option<dc_trace::TraceMode>,
) -> (CellStats, Option<dc_core::TraceArtifacts>) {
    let sim = Sim::new();
    let nodes = cell.clients + 1;
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
    if let Some(mode) = trace {
        // Enable before faults install so the static fault-window events
        // are captured too.
        cluster.tracer().enable(mode);
    }
    if let Some(plan) = faults {
        cluster.install_faults(plan);
    }
    // Node 0 is home/server and a member (it runs agents where the design
    // needs them) but drives no workload.
    let members: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
    let clients = design.build(&cluster, DlmConfig, NodeId(0), LOCKS, &members);
    let zipf = Rc::new(Zipf::new(LOCKS as usize, cell.alpha));
    // Per client: (all grant waits, waits on the hottest lock — rank 0).
    type ClientWaits = (Vec<u64>, Vec<u64>);
    let waits: Rc<RefCell<Vec<ClientWaits>>> =
        Rc::new(RefCell::new(vec![Default::default(); cell.clients]));
    let h = sim.handle();
    for (i, client) in clients.into_iter().enumerate().skip(1) {
        let slot = i - 1;
        let mut rng = component_rng(cell.seed, i as u64);
        let zipf = Rc::clone(&zipf);
        let waits = Rc::clone(&waits);
        let hh = h.clone();
        let tracer = cluster.tracer().clone();
        h.spawn_detached(async move {
            loop {
                hh.sleep(rng.gen_range(0..THINK_MAX_NS)).await;
                let lock = zipf.sample(&mut rng) as u32;
                let t0 = hh.now();
                // Sampled-request root span for critical-path attribution:
                // one acquisition, issue to grant.
                let tr = tracer.begin();
                client.lock(lock, LockMode::Exclusive).await;
                if let Some(tr) = tr {
                    tracer.complete(
                        tr,
                        i as u32,
                        dc_trace::Subsys::App,
                        "request",
                        vec![("stage", "request".into()), ("lock", lock.into())],
                    );
                }
                let wait = hh.now() - t0;
                {
                    let mut w = waits.borrow_mut();
                    w[slot].0.push(wait);
                    if lock == 0 {
                        w[slot].1.push(wait);
                    }
                }
                hh.sleep(HOLD_NS).await;
                client.unlock(lock).await;
            }
        });
    }
    sim.run_until(HORIZON_NS);

    let waits = waits.borrow();
    let mut all: Vec<u64> = waits.iter().flat_map(|(w, _)| w).copied().collect();
    assert!(!all.is_empty(), "{design:?} made no progress in {cell:?}");
    all.sort_unstable();
    let p99 = all[(all.len() * 99).div_ceil(100).saturating_sub(1)];
    // Fairness: how evenly the hot lock serves its contenders.
    let hot_means: Vec<f64> = waits
        .iter()
        .filter(|(_, hot)| !hot.is_empty())
        .map(|(_, hot)| hot.iter().sum::<u64>() as f64 / hot.len() as f64)
        .collect();
    assert!(
        hot_means.len() >= 2,
        "{design:?}: hot lock saw fewer than two clients in {cell:?}"
    );
    let mean = hot_means.iter().sum::<f64>() / hot_means.len() as f64;
    let var = hot_means
        .iter()
        .map(|m| (m - mean) * (m - mean))
        .sum::<f64>()
        / hot_means.len() as f64;
    let stats = CellStats {
        design,
        acquires: all.len() as u64,
        throughput_per_s: all.len() as f64 / (HORIZON_NS as f64 / 1e9),
        p99_wait_us: as_us(p99),
        fairness_cv: var.sqrt() / mean,
        max_wait_us: as_us(*all.last().unwrap()),
    };
    let artifacts = trace.map(|_| dc_core::TraceArtifacts::collect(&cluster));
    (stats, artifacts)
}

/// Run the whole sweep: one `Vec<CellStats>` per entry of [`CELLS`], rows
/// in [`DesignKind::ALL`] order. Seeded sub-runs are numbered design-major.
pub fn run(ctx: &RunCtx) -> Vec<Vec<CellStats>> {
    let sub_run = |c: usize, d: usize| {
        let (design, mut cell) = (DesignKind::ALL[d], CELLS[c]);
        cell.seed = ctx.seed_for(d * CELLS.len() + c, cell.seed);
        let label = || format!("{};c{}", design.label(), cell.clients);
        let traced = |mode| run_cell_traced(design, cell, None, mode);
        ctx.farm(label, || run_cell(design, cell, None), traced)
    };
    let row = |c| (0..DesignKind::ALL.len()).map(|d| sub_run(c, d)).collect();
    (0..CELLS.len()).map(row).collect()
}

/// Render one cell's table (rows in [`DesignKind::ALL`] order).
pub fn table(cell: CellCfg, stats: &[CellStats]) -> dc_core::Table {
    let mut t = dc_core::Table::new(
        &format!(
            "Shootout — {} clients, zipf(a={}), {} locks",
            cell.clients, cell.alpha, LOCKS
        ),
        &[
            "design",
            "locks/s",
            "p99 wait (us)",
            "fairness CV",
            "max wait (us)",
        ],
    );
    for s in stats {
        t.row(vec![
            s.design.label().to_string(),
            format!("{:.0}", s.throughput_per_s),
            format!("{:.1}", s.p99_wait_us),
            format!("{:.3}", s.fairness_cv),
            format!("{:.1}", s.max_wait_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cell_runs_every_design_and_everyone_progresses() {
        let cell = CELLS[0];
        for s in DesignKind::ALL.map(|d| run_cell(d, cell, None)) {
            // 4 clients, ~45us/cycle uncontended, 30ms horizon: hundreds of
            // grants minimum even for the slowest design.
            assert!(
                s.acquires > 400,
                "{:?}: only {} grants",
                s.design,
                s.acquires
            );
            assert!(s.fairness_cv.is_finite(), "{:?}", s.design);
            assert!(s.p99_wait_us <= s.max_wait_us, "{:?}", s.design);
        }
    }

    #[test]
    fn identical_seeds_reproduce_identical_stats() {
        let cell = CELLS[1];
        for design in [DesignKind::CasSpin, DesignKind::McsTicket] {
            let a = run_cell(design, cell, None);
            let b = run_cell(design, cell, None);
            assert_eq!(a.acquires, b.acquires, "{design:?}");
            assert_eq!(a.p99_wait_us, b.p99_wait_us, "{design:?}");
            assert_eq!(a.max_wait_us, b.max_wait_us, "{design:?}");
        }
    }

    #[test]
    fn table_rows_follow_legend_order() {
        let cell = CELLS[0];
        let stats = DesignKind::ALL.map(|d| run_cell(d, cell, None));
        let t = table(cell, &stats).to_report();
        assert_eq!(t.rows.len(), DesignKind::ALL.len());
        for (row, d) in t.rows.iter().zip(DesignKind::ALL) {
            assert_eq!(row[0], d.label());
        }
    }
}
