//! The five workloads: each a fixed, ordered list of cells, every cell one
//! call into a public cell-level entry point of the repo.
//!
//! Loops are closed or open in *virtual* time; on the host every workload
//! is a batch of fixed size. No cell goes through an entry that fans out
//! over `sweep::parallel_map` (`fig6::run_panel`, `fig8b::run`): those
//! figures are rebuilt from their cells on the calling thread, so the
//! thread-local scheduler counters see all the work and the thread count
//! stays 1.

use dc_bench::ext_incast::{self, IncastLane, IncastPoint};
use dc_bench::ext_shootout::{self, CellStats};
use dc_bench::ext_webfarm::{self, SweepCell};
use dc_bench::{fig6, fig8b, scenario};
use dc_coopcache::CacheScheme;
use dc_core::{
    run_hosting, run_webfarm, run_webfarm_scale, run_webfarm_traced, ScaleFarmCfg, ScalePoint,
    Table, WebFarmCfg, WebFarmResult,
};
use dc_dlm::DesignKind;
use dc_fabric::FabricModel;
use dc_resmon::MonitorScheme;
use dc_trace::{BenchReport, TraceMode};

use crate::spans;

/// What one cell produced, kept for verification and per-layer counts.
pub enum Output {
    /// One `run_webfarm` cell of Figure 6.
    Farm {
        /// The configuration the cell ran.
        cfg: WebFarmCfg,
        /// Its result.
        result: WebFarmResult,
    },
    /// One lock-shootout cell.
    Lock {
        /// Index into [`ext_shootout::CELLS`].
        cell: usize,
        /// Its result.
        stats: CellStats,
    },
    /// One incast cell.
    Incast(IncastPoint),
    /// One open-loop scale-farm cell.
    Scale {
        /// The sweep cell.
        cell: SweepCell,
        /// Its result.
        point: ScalePoint,
    },
    /// One whole registered scenario, rendered.
    Figure {
        /// The scenario's report.
        report: BenchReport,
        /// `report.to_json()`.
        json: String,
    },
}

impl Output {
    /// The workload's operations this cell performed.
    pub fn ops(&self) -> u64 {
        match self {
            Output::Farm { cfg, .. } => cfg.requests as u64,
            Output::Lock { stats, .. } => stats.acquires,
            Output::Incast(p) => (p.fanin * ext_incast::REQS_PER_SESSION) as u64,
            Output::Scale { point, .. } => point.issued,
            Output::Figure { report, .. } => numeric_cells(report),
        }
    }
}

/// Table cells of `report` that parse as numbers (the op of `paper_figures`).
pub fn numeric_cells(report: &BenchReport) -> u64 {
    report
        .tables()
        .iter()
        .flat_map(|t| t.rows.iter().flatten())
        .filter(|c| dc_regress::claims::parse_cell(c).is_some())
        .count() as u64
}

/// One cell of a workload.
pub struct Cell {
    /// Stable name, unique within the workload.
    pub name: String,
    /// Whether `--seed` reaches this cell (it has a public seed field).
    pub seeded: bool,
    /// Run the cell once.
    pub run: Box<dyn Fn() -> Output>,
    /// Run the cell through its public traced entry, where it has one, and
    /// return the metrics-registry snapshot (JSON) that entry exports.
    pub registry: Option<Box<dyn Fn() -> String>>,
}

impl Cell {
    fn new(name: String, seeded: bool, run: impl Fn() -> Output + 'static) -> Cell {
        Cell {
            name,
            seeded,
            run: Box::new(move || spans::scope("run", &run)),
            registry: None,
        }
    }

    fn with_registry(mut self, traced: impl Fn() -> String + 'static) -> Cell {
        self.registry = Some(Box::new(traced));
        self
    }
}

/// The traced entries keep one event: only their registry snapshot is read.
const REGISTRY_ONLY: TraceMode = TraceMode::Ring(1);

/// One workload of the benchmark.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line).
    pub why: &'static str,
    /// What one operation is.
    pub op: &'static str,
    /// Loop discipline in virtual time.
    pub load: &'static str,
    /// Timed passes per 10 s of `--seconds`; a constant, never derived from
    /// a clock, so that parent and change do identical work.
    pub passes_per_10s: usize,
    /// Build the cell list for a seed (0 keeps the scenarios' pinned seeds).
    pub cells: fn(u64) -> Vec<Cell>,
}

/// Every workload, in the order `all` runs them.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "coopcache_farm",
        why: "real stack end to end: Cluster, dc-svc dispatch, Wire, coopcache LRU and directory, 8-64 KiB payloads; file size sweeps the hit ratio",
        op: "one farm request",
        load: "closed loop, 8 clients per proxy",
        passes_per_10s: 10,
        cells: coopcache_farm,
    },
    Workload {
        name: "lock_contention",
        why: "one-sided CAS/FAA verbs and backoff/lease timers with almost no payload: engine- and verb-bound, bypasses svc, Wire and coopcache",
        op: "one lock grant",
        load: "closed loop, 4-16 clients",
        passes_per_10s: 70,
        cells: lock_contention,
    },
    Workload {
        name: "incast_rpc",
        why: "dc-sockets does the work: eRPC packets, credits and AIMD vs SDP copy path vs AZ-SDP, up to 2048 sessions and 4096 QPs; bypasses DLM, DDSS and coopcache",
        op: "one RPC",
        load: "closed loop, 64-2048 sessions",
        passes_per_10s: 20,
        cells: incast_rpc,
    },
    Workload {
        name: "farm_scale_open",
        why: "open-loop Poisson and MMPP-2 arrivals on the sharded window driver and ShardNet at 1 shard; imports no Cluster or dc-svc, so fabric, svc and codec changes must not move it",
        op: "one issued request",
        load: "open loop, 60k clients at 0.3-1.5x saturation",
        passes_per_10s: 35,
        cells: farm_scale_open,
    },
    Workload {
        name: "paper_figures",
        why: "the nine remaining scenarios with table render and JSON: DDSS put/get, resmon and kstat, reconfig, stream flow control; set-up dominated, so a set-up gain shows here and a steady-state one does not",
        op: "one numeric table cell regenerated",
        load: "closed loop, per scenario",
        passes_per_10s: 18,
        cells: paper_figures,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// The seed of the `cell`-th seeded simulation of a workload: `pinned` at
/// seed 0; otherwise its own stream of `seed`, so that the cells of one
/// pass do not all draw the same requests and a seed's luck averages out
/// over the pass instead of tilting every cell the same way.
fn seed_or(seed: u64, cell: usize, pinned: u64) -> u64 {
    if seed == 0 {
        return pinned;
    }
    // splitmix64 of (seed, cell).
    let mut z = seed.wrapping_add((cell as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn coopcache_farm(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for proxies in [2usize, 8] {
        for scheme in CacheScheme::ALL {
            for size in fig6::SIZES {
                let mut cfg = fig6::cell_cfg(proxies, scheme, size);
                cfg.seed = seed_or(seed, cells.len(), cfg.seed);
                let traced_cfg = cfg.clone();
                cells.push(
                    Cell::new(
                        format!("p{proxies}.{}.{}k", scheme.label(), size / 1024),
                        true,
                        move || Output::Farm {
                            result: run_webfarm(&cfg),
                            cfg: cfg.clone(),
                        },
                    )
                    .with_registry(move || {
                        run_webfarm_traced(&traced_cfg, REGISTRY_ONLY)
                            .1
                            .metrics_json
                    }),
                );
            }
        }
    }
    cells
}

fn lock_contention(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for design in DesignKind::ALL {
        for (i, mut cell) in ext_shootout::CELLS.into_iter().enumerate() {
            cell.seed = seed_or(seed, cells.len(), cell.seed);
            cells.push(
                Cell::new(
                    format!("{}.c{}", design.label(), cell.clients),
                    true,
                    move || Output::Lock {
                        cell: i,
                        stats: ext_shootout::run_cell(design, cell, None),
                    },
                )
                .with_registry(move || {
                    ext_shootout::run_cell_traced(design, cell, None, REGISTRY_ONLY)
                        .1
                        .metrics_json
                }),
            );
        }
    }
    cells
}

fn incast_rpc(_seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for lane in IncastLane::ALL {
        for fanin in ext_incast::FANINS {
            cells.push(Cell::new(
                format!("{}.f{fanin}", lane.label()),
                false,
                move || Output::Incast(ext_incast::run_cell(lane, fanin, 0.0)),
            ));
        }
    }
    cells
}

/// The scale-farm configuration of the `index`-th sweep cell at an explicit
/// shard count (1 for the workload, 2 for the shard probe).
pub fn scale_cfg(seed: u64, index: usize, cell: &SweepCell, shards: usize) -> ScaleFarmCfg {
    let base = ext_webfarm::gate_cfg();
    ScaleFarmCfg {
        offered_rps: cell.load_x * base.saturation_rps(),
        arrival: cell.kind,
        gateways_per_proxy: cell.gateways_per_proxy,
        seed: seed_or(seed, index, base.seed),
        shards: Some(shards),
        ..base
    }
}

fn farm_scale_open(seed: u64) -> Vec<Cell> {
    ext_webfarm::cells()
        .into_iter()
        .enumerate()
        .map(|(i, cell)| {
            let cfg = scale_cfg(seed, i, &cell, 1);
            Cell::new(
                format!("{}.{:.1}x", cell.arrival, cell.load_x),
                true,
                move || Output::Scale {
                    cell,
                    point: run_webfarm_scale(&cfg),
                },
            )
        })
        .collect()
}

/// Figure 8b rebuilt from its `run_hosting` cells on the calling thread
/// (`fig8b::run` fans them out over worker threads).
fn fig8b_report(seed: u64) -> BenchReport {
    let mut simulations = 0;
    let mut tps = |scheme, alpha| {
        let mut cfg = fig8b::cell_cfg(scheme, alpha);
        cfg.seed = seed_or(seed, simulations, cfg.seed);
        simulations += 1;
        run_hosting(&cfg).tps
    };
    let mut cells = Vec::new();
    for alpha in fig8b::ALPHAS {
        let base = tps(MonitorScheme::SocketAsync, alpha);
        for scheme in MonitorScheme::FIG8B {
            let tps = tps(scheme, alpha);
            cells.push(fig8b::ThroughputCell {
                scheme,
                alpha,
                tps,
                improvement: (tps - base) / base,
            });
        }
    }
    let mut r = BenchReport::new("fig8b_monitor_throughput");
    r.set_fingerprint(&FabricModel::calibrated_2007().fingerprint());
    r.add_param("cells", cells.len() as u64);
    r.add_table(fig8b::table(&cells).to_report());
    r
}

/// The scenarios `paper_figures` runs whole: every registered scenario the
/// other four workloads do not already cover cell by cell.
pub const FIGURES: [&str; 9] = [
    "fig3a_ddss_put",
    "fig3b_storm",
    "fig5a_lock_shared",
    "fig5b_lock_exclusive",
    "fig8a_monitor_accuracy",
    "fig8b_monitor_throughput",
    "ext_flowcontrol_bw",
    "ext_fine_reconfig",
    "ext_ablations",
];

fn paper_figures(seed: u64) -> Vec<Cell> {
    FIGURES
        .into_iter()
        .map(|name| {
            let seeded = name == "fig8b_monitor_throughput";
            let run = scenario::by_name(name).expect("registered scenario").run;
            Cell {
                name: name.to_string(),
                seeded,
                registry: None,
                run: Box::new(move || {
                    let report =
                        spans::scope("run", || if seeded { fig8b_report(seed) } else { run() });
                    let json = spans::scope("render", || {
                        for t in report.tables() {
                            std::hint::black_box(Table::from_report(t).render());
                        }
                        report.to_json()
                    });
                    Output::Figure { report, json }
                }),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_lists_have_the_documented_sizes_and_unique_names() {
        for (w, n) in ALL.iter().zip([40usize, 18, 12, 8, 9]) {
            let cells = (w.cells)(0);
            assert_eq!(cells.len(), n, "{}", w.name);
            let mut names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n, "{}: duplicate cell name", w.name);
            assert!(w.passes_per_10s >= 10, "{}: R >= 10", w.name);
            assert!(by_name(w.name).is_some());
        }
    }

    #[test]
    fn the_five_workloads_cover_all_thirteen_registered_scenarios() {
        let mut covered: Vec<&str> = FIGURES.to_vec();
        covered.extend([
            "fig6_coopcache",
            "ext_lock_shootout",
            "ext_incast",
            "ext_webfarm_scale",
        ]);
        let mut registered: Vec<&str> = scenario::ALL.iter().map(|s| s.name).collect();
        covered.sort_unstable();
        registered.sort_unstable();
        assert_eq!(covered, registered);
    }

    #[test]
    fn a_nonzero_seed_reaches_the_seeded_cells_and_changes_their_output() {
        let pick = |seed| match ((lock_contention(seed)[0]).run)() {
            Output::Lock { stats, .. } => (stats.acquires, stats.p99_wait_us),
            _ => unreachable!(),
        };
        assert_eq!(pick(0), pick(0));
        assert_eq!(pick(7), pick(7));
        assert_ne!(pick(0), pick(7));
    }
}
