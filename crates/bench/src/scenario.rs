//! The scenario registry: every figure/extension experiment as a function
//! of one [`RunCtx`] returning a finished [`BenchReport`].
//!
//! Everything that runs a scenario goes through these runners — `dc-bench`
//! ([`crate::cli`]) for the tables, the JSON, `baselines/`, the gate and
//! `flame`, `tests/paper_claims.rs` and the `benchmark/` crate — so the
//! *same* code path produces all of them. Every report carries the
//! calibration fingerprint of [`FabricModel::calibrated_2007`], so
//! regression tooling can tell a model recalibration apart from a
//! behavioral regression.

use std::collections::BTreeMap;
use std::sync::Mutex;

use dc_core::{Table, TraceArtifacts};
use dc_dlm::LockMode;
use dc_fabric::{Cluster, FabricModel};
use dc_sim::Sim;
use dc_trace::{critical, fold_into, ArgVal, BenchReport, Event, RequestBreakdown, TraceMode};

use crate::{ext_ablations, ext_flowcontrol, ext_incast, ext_reconfig, ext_shootout, ext_webfarm};
use crate::{fig3a, fig3b, fig5, fig6, fig8a, fig8b};

/// A scenario run's one input: the seed its seeded sub-runs draw from and,
/// when profiling, the sink every sub-run folds its trace into. A sub-run
/// builds its cluster with `RunCtx::cluster` and ends with `RunCtx::fold`;
/// a farm sub-run goes through `RunCtx::farm`. All three cost nothing
/// untraced.
pub struct RunCtx {
    /// 0 keeps every pinned seed; otherwise see [`RunCtx::seed_for`].
    pub seed: u64,
    sink: Option<Mutex<Profile>>,
}

/// A traced run's sub-runs, each folded under its own label. The maps are
/// label-keyed, so the order [`crate::sweep::parallel_map`] finishes its
/// cells in does not show.
#[derive(Default)]
pub struct Profile {
    /// Collapsed stacks (`label;node…;frame` → self ns).
    pub stacks: BTreeMap<String, u64>,
    /// Each sub-run's sampled requests, attributed to critical-path stages.
    pub requests: BTreeMap<String, Vec<RequestBreakdown>>,
    /// Trace events folded, over all sub-runs.
    pub events: usize,
}

impl RunCtx {
    /// The run `baselines/` commits: pinned seeds, untraced.
    pub const fn pinned() -> RunCtx {
        RunCtx {
            seed: 0,
            sink: None,
        }
    }

    /// A run at `seed` whose sub-runs fold into [`RunCtx::into_profile`].
    pub fn traced(seed: u64) -> RunCtx {
        RunCtx {
            seed,
            sink: Some(Mutex::default()),
        }
    }

    /// The seed of the `i`-th seeded sub-run: `pinned` at seed 0, else
    /// splitmix64 of `(seed, i)`, so that the cells of one run do not all
    /// draw the same requests.
    pub fn seed_for(&self, i: usize, pinned: u64) -> u64 {
        if self.seed == 0 {
            return pinned;
        }
        let step = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        dc_sim::rng::splitmix64(self.seed.wrapping_add(step))
    }

    /// A sub-run's cluster of `nodes` on `sim`, under the calibrated model.
    pub(crate) fn cluster(&self, sim: &Sim, nodes: usize) -> Cluster {
        let model = FabricModel::calibrated_2007();
        self.watch(Cluster::new(sim.handle(), model, nodes))
    }

    /// `cluster` with its tracer on when this run is traced.
    pub(crate) fn watch(&self, cluster: Cluster) -> Cluster {
        if self.sink.is_some() {
            cluster.tracer().enable(TraceMode::Full);
        }
        cluster
    }

    /// End the sub-run on `cluster`: fold its events under `label()`.
    pub(crate) fn fold(&self, cluster: &Cluster, label: impl FnOnce() -> String) {
        if self.sink.is_some() {
            self.fold_events(&cluster.tracer().events(), label);
        }
    }

    /// A sub-run that builds its own cluster: `plain()` untraced, else
    /// `traced(mode)` with its events folded under `label()`.
    pub(crate) fn farm<R>(
        &self,
        label: impl FnOnce() -> String,
        plain: impl FnOnce() -> R,
        traced: impl FnOnce(TraceMode) -> (R, TraceArtifacts),
    ) -> R {
        if self.sink.is_none() {
            return plain();
        }
        let (r, artifacts) = traced(TraceMode::Full);
        self.fold_events(&artifacts.raw_events, label);
        r
    }

    fn fold_events(&self, events: &[Event], label: impl FnOnce() -> String) {
        let Some(sink) = &self.sink else { return };
        let label = label();
        let requests = critical::analyze_requests(events);
        let mut p = sink.lock().expect("profile poisoned");
        let twice = p.requests.contains_key(&label);
        assert!(!twice, "two sub-runs are `{label}`");
        fold_into(&mut p.stacks, events, &label);
        p.events += events.len();
        p.requests.insert(label, requests);
    }

    /// What a traced run folded (`None` untraced).
    pub fn into_profile(self) -> Option<Profile> {
        self.sink.map(|m| m.into_inner().expect("profile poisoned"))
    }
}

/// One registered scenario.
pub struct Scenario {
    /// Bench name — what the `dc-bench` subcommands take, and the
    /// baseline file stem (`baselines/<name>.json`).
    pub name: &'static str,
    /// One-line description of what the scenario regenerates.
    pub title: &'static str,
    /// Run the full experiment in a context and return its report.
    pub report: fn(&RunCtx) -> BenchReport,
    /// `report` in [`RunCtx::pinned`]: the name `benchmark/` calls.
    pub run: fn() -> BenchReport,
}

/// Every gated scenario, in figure order: one baseline and one claim
/// table each.
pub const ALL: [Scenario; 13] = [
    Scenario {
        name: "fig3a_ddss_put",
        title: "Fig 3a — DDSS put() latency by coherence model",
        report: fig3a_report,
        run: || fig3a_report(&RunCtx::pinned()),
    },
    Scenario {
        name: "fig3b_storm",
        title: "Fig 3b — distributed STORM, sockets vs DDSS",
        report: fig3b_report,
        run: || fig3b_report(&RunCtx::pinned()),
    },
    Scenario {
        name: "fig5a_lock_shared",
        title: "Fig 5a — shared-lock cascading latency",
        report: fig5a_report,
        run: || fig5a_report(&RunCtx::pinned()),
    },
    Scenario {
        name: "fig5b_lock_exclusive",
        title: "Fig 5b — exclusive-lock cascading latency",
        report: fig5b_report,
        run: || fig5b_report(&RunCtx::pinned()),
    },
    Scenario {
        name: "fig6_coopcache",
        title: "Fig 6 — cooperative-cache TPS, 2 and 8 proxies",
        report: fig6_report,
        run: || fig6_report(&RunCtx::pinned()),
    },
    Scenario {
        name: "fig8a_monitor_accuracy",
        title: "Fig 8a — monitoring accuracy under bursty load",
        report: fig8a_report,
        run: || fig8a_report(&RunCtx::pinned()),
    },
    Scenario {
        name: "fig8b_monitor_throughput",
        title: "Fig 8b — hosted throughput by monitoring scheme",
        report: fig8b_report,
        run: || fig8b_report(&RunCtx::pinned()),
    },
    Scenario {
        name: "ext_flowcontrol_bw",
        title: "§6 ext — packetized vs credit flow-control bandwidth",
        report: ext_flowcontrol_report,
        run: || ext_flowcontrol_report(&RunCtx::pinned()),
    },
    Scenario {
        name: "ext_fine_reconfig",
        title: "§6 ext — fine- vs coarse-grained reconfiguration",
        report: ext_fine_reconfig_report,
        run: || ext_fine_reconfig_report(&RunCtx::pinned()),
    },
    Scenario {
        name: "ext_ablations",
        title: "Ablations — coherence verbs, cache capacity, cadence",
        report: ext_ablations_report,
        run: || ext_ablations_report(&RunCtx::pinned()),
    },
    Scenario {
        name: "ext_lock_shootout",
        title: "Shootout — six lock designs under Zipf contention",
        report: ext_lock_shootout_report,
        run: || ext_lock_shootout_report(&RunCtx::pinned()),
    },
    Scenario {
        name: "ext_webfarm_scale",
        title: "At scale — open-loop webfarm load sweep across the knee",
        report: ext_webfarm_scale_report,
        run: || ext_webfarm_scale_report(&RunCtx::pinned()),
    },
    Scenario {
        name: "ext_incast",
        title: "Incast — fan-in sweep, eRPC vs SDP vs AZ-SDP lanes",
        report: ext_incast_report,
        run: || ext_incast_report(&RunCtx::pinned()),
    },
];

/// Runnable but ungated scenarios: too heavy for the regression gate, so
/// not in [`ALL`] — claims and baselines never run them.
pub const UNGATED: [Scenario; 1] = [Scenario {
    name: "ext_webfarm_scale_full",
    title: "At scale — 10^6 open-loop clients (ungated, no baseline)",
    report: ext_webfarm_scale_full_report,
    run: || ext_webfarm_scale_full_report(&RunCtx::pinned()),
}];

/// Look a gated scenario up by bench name.
pub fn by_name(name: &str) -> Option<&'static Scenario> {
    ALL.iter().find(|s| s.name == name)
}

/// Everything `dc-bench` can run or list: [`ALL`], then [`UNGATED`].
pub fn runnable() -> impl Iterator<Item = &'static Scenario> {
    ALL.iter().chain(UNGATED.iter())
}

/// Whether `s` is gated: in [`ALL`], with a baseline and claims.
pub fn gated(s: &Scenario) -> bool {
    by_name(s.name).is_some()
}

/// Resolve `name` among the [`runnable`] scenarios `admit` accepts: the
/// exact name, else a unique prefix (`fig5a` → `fig5a_lock_shared`).
/// Ambiguous or unknown → `None`.
pub fn lookup(name: &str, admit: impl Fn(&Scenario) -> bool) -> Option<&'static Scenario> {
    let hits: Vec<&'static Scenario> = runnable()
        .filter(|s| admit(s) && s.name.starts_with(name))
        .collect();
    match hits[..] {
        [s] => Some(s),
        _ => hits.into_iter().find(|s| s.name == name),
    }
}

/// Assemble a fingerprinted report from rendered tables.
fn report(bench: &str, params: Vec<(&str, ArgVal)>, tables: &[Table]) -> BenchReport {
    let mut r = BenchReport::new(bench);
    r.set_fingerprint(&FabricModel::calibrated_2007().fingerprint());
    for (k, v) in params {
        r.add_param(k, v);
    }
    for t in tables {
        r.add_table(t.to_report());
    }
    r
}

/// Figure 3a: DDSS put() latency by coherence model.
pub fn fig3a_report(ctx: &RunCtx) -> BenchReport {
    fig3a_report_with(ctx, &FabricModel::calibrated_2007())
}

/// Figure 3a under an explicit fabric model — the report carries *that*
/// model's fingerprint. Used by the paper-claims suite's negative control
/// (a perturbed calibration must violate at least one claim) and by the
/// differ's fingerprint-mismatch tests.
pub fn fig3a_report_with(ctx: &RunCtx, fabric: &FabricModel) -> BenchReport {
    let series = fig3a::run(ctx, fabric);
    let mut r = BenchReport::new("fig3a_ddss_put");
    r.set_fingerprint(&fabric.fingerprint());
    r.add_param("models", series.len() as u64);
    r.add_table(fig3a::table(&series).to_report());
    r
}

/// Figure 3b: distributed STORM query time, sockets vs DDSS.
pub fn fig3b_report(ctx: &RunCtx) -> BenchReport {
    let rows = fig3b::run(ctx);
    let params = vec![("rows", (rows.len() as u64).into())];
    report("fig3b_storm", params, &[fig3b::table(&rows)])
}

/// Figure 5a: shared-lock cascading latency.
pub fn fig5a_report(ctx: &RunCtx) -> BenchReport {
    let table = fig5::table(
        "Fig 5a — Shared-lock cascading latency (us)",
        &fig5::run(ctx, LockMode::Shared),
    );
    report(
        "fig5a_lock_shared",
        vec![("mode", "shared".into())],
        &[table],
    )
}

/// Figure 5b: exclusive-lock cascading latency.
pub fn fig5b_report(ctx: &RunCtx) -> BenchReport {
    let table = fig5::table(
        "Fig 5b — Exclusive-lock cascading latency (us)",
        &fig5::run(ctx, LockMode::Exclusive),
    );
    let params = vec![("mode", "exclusive".into())];
    report("fig5b_lock_exclusive", params, &[table])
}

/// Figure 6: cooperative-cache throughput, both proxy-count panels.
pub fn fig6_report(ctx: &RunCtx) -> BenchReport {
    let panels = fig6::PROXIES.iter().zip(fig6::run(ctx));
    let tables: Vec<Table> = panels.map(|(&p, cells)| fig6::table(p, &cells)).collect();
    report("fig6_coopcache", vec![("panels", "2,8".into())], &tables)
}

/// Figure 8a: monitoring accuracy — report from already-run results
/// (`dc-bench run --series` reuses the results for its time-series dump).
pub fn fig8a_report_from(results: &[fig8a::AccuracyResult]) -> BenchReport {
    let params = vec![("schemes", (results.len() as u64).into())];
    report("fig8a_monitor_accuracy", params, &[fig8a::table(results)])
}

/// Figure 8a: monitoring accuracy under bursty load.
pub fn fig8a_report(ctx: &RunCtx) -> BenchReport {
    fig8a_report_from(&fig8a::run(ctx))
}

/// Figure 8b: hosted throughput by monitoring scheme.
pub fn fig8b_report(ctx: &RunCtx) -> BenchReport {
    let cells = fig8b::run(ctx);
    let params = vec![("cells", (cells.len() as u64).into())];
    report("fig8b_monitor_throughput", params, &[fig8b::table(&cells)])
}

/// §6 extension: flow-control bandwidth comparison.
pub fn ext_flowcontrol_report(ctx: &RunCtx) -> BenchReport {
    let table = ext_flowcontrol::table(&ext_flowcontrol::run(ctx));
    report("ext_flowcontrol_bw", vec![], &[table])
}

/// §6 extension: fine- vs coarse-grained reconfiguration reaction time.
pub fn ext_fine_reconfig_report(ctx: &RunCtx) -> BenchReport {
    let fine = ext_reconfig::reaction(ctx, true);
    let coarse = ext_reconfig::reaction(ctx, false);
    report(
        "ext_fine_reconfig",
        vec![],
        &[ext_reconfig::table(&fine, &coarse)],
    )
}

/// Ablations: coherence verb counts, cache capacity, monitoring cadence.
pub fn ext_ablations_report(ctx: &RunCtx) -> BenchReport {
    let tables = [
        ext_ablations::coherence_table(&ext_ablations::run_coherence(ctx)),
        ext_ablations::capacity_table(&ext_ablations::run_capacity(ctx)),
        ext_ablations::granularity_table(&ext_ablations::run_granularity(ctx)),
    ];
    report("ext_ablations", vec![], &tables)
}

/// Lock-design shootout: six designs, three contention cells.
pub fn ext_lock_shootout_report(ctx: &RunCtx) -> BenchReport {
    let cells = ext_shootout::CELLS.into_iter().zip(ext_shootout::run(ctx));
    let tables: Vec<Table> = cells
        .map(|(c, stats)| ext_shootout::table(c, &stats))
        .collect();
    let params = vec![
        ("designs", (dc_dlm::DesignKind::ALL.len() as u64).into()),
        ("cells", (ext_shootout::CELLS.len() as u64).into()),
    ];
    report("ext_lock_shootout", params, &tables)
}

/// At-scale webfarm: the gated sweep over the 60k-client configuration,
/// with the knee point's exact stage partition as the latency breakdown.
pub fn ext_webfarm_scale_report(ctx: &RunCtx) -> BenchReport {
    let (base, sweep) = (ext_webfarm::gate_cfg(), ext_webfarm::cells());
    webfarm_scale_report_over(ctx, "ext_webfarm_scale", &base, &sweep)
}

/// At-scale webfarm, flagship size: 10^6 clients over 450 nodes, three
/// knee-straddling points (5.8 × 10^6 engine events). Ungated (see
/// [`UNGATED`]).
pub fn ext_webfarm_scale_full_report(ctx: &RunCtx) -> BenchReport {
    let sweep: Vec<ext_webfarm::SweepCell> = ext_webfarm::cells()
        .into_iter()
        .filter(|c| c.arrival == "poisson" && c.load_x >= 0.6 && c.load_x <= 1.2)
        .collect();
    let base = ext_webfarm::full_cfg();
    webfarm_scale_report_over(ctx, "ext_webfarm_scale_full", &base, &sweep)
}

/// Incast extension: fan-in sweep over the three RPC lanes.
pub fn ext_incast_report(ctx: &RunCtx) -> BenchReport {
    let points = ext_incast::run(ctx, 0.0);
    let fanins = &ext_incast::FANINS;
    let params = vec![
        ("lanes", (ext_incast::IncastLane::ALL.len() as u64).into()),
        ("fanins", (fanins.len() as u64).into()),
        ("max_sessions", (fanins[fanins.len() - 1] as u64).into()),
        ("resp_bytes", (ext_incast::RESP_BYTES as u64).into()),
    ];
    report("ext_incast", params, &[ext_incast::table(&points)])
}

fn webfarm_scale_report_over(
    ctx: &RunCtx,
    bench: &str,
    base: &dc_core::ScaleFarmCfg,
    sweep: &[ext_webfarm::SweepCell],
) -> BenchReport {
    let points = ext_webfarm::run_sweep(ctx, base, sweep);
    let params = vec![
        ("clients", (base.clients as u64).into()),
        ("proxies", (base.proxies as u64).into()),
        ("app_nodes", (base.app_nodes as u64).into()),
        ("saturation_rps", base.saturation_rps().round().into()),
    ];
    let tables = [
        ext_webfarm::sweep_table(&points),
        ext_webfarm::accounting_table(&points),
    ];
    let mut r = report(bench, params, &tables);
    if let Some((_, knee)) = points
        .iter()
        .find(|(c, _)| c.arrival == "poisson" && c.load_x == 0.9)
    {
        r.set_latency_breakdown(knee.breakdown.clone());
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        // Unique over ALL *and* the ungated extras: an extra can never
        // shadow a registered scenario in the shared lookup.
        let mut names: Vec<&str> = runnable().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len() + UNGATED.len(), "duplicate name");
        for s in &ALL {
            assert!(by_name(s.name).is_some());
        }
        for s in runnable() {
            assert_eq!(lookup(s.name, |_| true).map(|f| f.title), Some(s.title));
        }
        for s in &UNGATED {
            assert!(by_name(s.name).is_none(), "{} must stay ungated", s.name);
        }
        assert!(by_name("fig9_imaginary").is_none());
        assert!(lookup("fig9_imaginary", |_| true).is_none());
    }

    #[test]
    fn a_cheap_scenario_report_is_fingerprinted_and_valid() {
        let rep = fig5a_report(&RunCtx::pinned());
        assert_eq!(rep.bench(), "fig5a_lock_shared");
        assert_eq!(
            rep.fingerprint(),
            Some(FabricModel::calibrated_2007().fingerprint().as_str())
        );
        assert_eq!(rep.tables().len(), 1);
        assert!(dc_trace::json::validate(&rep.to_json()).is_ok());
    }

    /// `seed_for` is `benchmark/`'s `seed_or`: the values below are that
    /// rule's, so moving the benchmark onto `RunCtx` moves no number.
    #[test]
    fn seed_for_is_the_benchmarks_splitmix_rule() {
        let at = |seed| RunCtx { seed, sink: None };
        for (seed, cell, want) in [
            (1, 0, 0x910a_2dec_8902_5cc1),
            (42, 3, 0x581c_e1ff_0e4a_e394),
            (0xdead_beef, 39, 0xadc4_e046_7853_ac2c),
            (u64::MAX, 7, 0x405d_a438_a39e_8064),
        ] {
            assert_eq!(at(seed).seed_for(cell, 5), want, "seed {seed} cell {cell}");
        }
        // Seed 0 keeps every pinned seed.
        for (cell, pinned) in [(0, 20_070_326), (19, 881_100), (7, 7_411)] {
            assert_eq!(RunCtx::pinned().seed_for(cell, pinned), pinned);
        }
    }

    #[test]
    fn an_untraced_fold_builds_no_label_and_keeps_nothing() {
        let ctx = RunCtx::pinned();
        let sim = Sim::new();
        let cluster = ctx.cluster(&sim, 2);
        assert!(!cluster.tracer().is_enabled());
        ctx.fold(&cluster, || unreachable!("label built untraced"));
        let r = ctx.farm(|| unreachable!(), || 7, |_| unreachable!());
        assert_eq!(r, 7);
        assert!(ctx.into_profile().is_none());
    }

    #[test]
    #[should_panic(expected = "two sub-runs are `x`")]
    fn two_sub_runs_cannot_share_a_label() {
        let ctx = RunCtx::traced(0);
        let sim = Sim::new();
        let cluster = ctx.cluster(&sim, 1);
        ctx.fold(&cluster, || "x".into());
        ctx.fold(&cluster, || "x".into());
    }
}
