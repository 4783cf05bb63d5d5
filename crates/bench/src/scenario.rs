//! The scenario registry: every figure/extension experiment as a callable
//! library function returning a finished [`BenchReport`].
//!
//! Everything that runs a scenario goes through these runners — `dc-bench
//! run` ([`crate::run`]) for the text tables and the `--json` artifacts,
//! `dc-regress` for the committed `baselines/` and the gate, the
//! paper-claims conformance suite (`tests/paper_claims.rs`) and the
//! `benchmark/` crate in-process — so the *same* code path produces all of
//! them. Every report carries the calibration fingerprint of
//! [`FabricModel::calibrated_2007`], so regression tooling can tell a
//! model recalibration apart from a behavioral regression.

use dc_fabric::FabricModel;
use dc_trace::{ArgVal, BenchReport};

/// One registered scenario.
pub struct Scenario {
    /// Bench name — what `dc-bench run` and `dc-regress` take, and the
    /// baseline file stem (`baselines/<name>.json`).
    pub name: &'static str,
    /// One-line description of what the scenario regenerates.
    pub title: &'static str,
    /// Run the full experiment and return its report.
    pub run: fn() -> BenchReport,
}

/// Every gated scenario, in figure order: one baseline and one claim
/// table each.
pub const ALL: [Scenario; 13] = [
    Scenario {
        name: "fig3a_ddss_put",
        title: "Fig 3a — DDSS put() latency by coherence model",
        run: fig3a_report,
    },
    Scenario {
        name: "fig3b_storm",
        title: "Fig 3b — distributed STORM, sockets vs DDSS",
        run: fig3b_report,
    },
    Scenario {
        name: "fig5a_lock_shared",
        title: "Fig 5a — shared-lock cascading latency",
        run: fig5a_report,
    },
    Scenario {
        name: "fig5b_lock_exclusive",
        title: "Fig 5b — exclusive-lock cascading latency",
        run: fig5b_report,
    },
    Scenario {
        name: "fig6_coopcache",
        title: "Fig 6 — cooperative-cache TPS, 2 and 8 proxies",
        run: fig6_report,
    },
    Scenario {
        name: "fig8a_monitor_accuracy",
        title: "Fig 8a — monitoring accuracy under bursty load",
        run: fig8a_report,
    },
    Scenario {
        name: "fig8b_monitor_throughput",
        title: "Fig 8b — hosted throughput by monitoring scheme",
        run: fig8b_report,
    },
    Scenario {
        name: "ext_flowcontrol_bw",
        title: "§6 ext — packetized vs credit flow-control bandwidth",
        run: ext_flowcontrol_report,
    },
    Scenario {
        name: "ext_fine_reconfig",
        title: "§6 ext — fine- vs coarse-grained reconfiguration",
        run: ext_fine_reconfig_report,
    },
    Scenario {
        name: "ext_ablations",
        title: "Ablations — coherence verbs, cache capacity, cadence",
        run: ext_ablations_report,
    },
    Scenario {
        name: "ext_lock_shootout",
        title: "Shootout — six lock designs under Zipf contention",
        run: ext_lock_shootout_report,
    },
    Scenario {
        name: "ext_webfarm_scale",
        title: "At scale — open-loop webfarm load sweep across the knee",
        run: ext_webfarm_scale_report,
    },
    Scenario {
        name: "ext_incast",
        title: "Incast — fan-in sweep, eRPC vs SDP vs AZ-SDP lanes",
        run: ext_incast_report,
    },
];

/// Runnable but ungated scenarios: too heavy for the regression gate, so
/// not in [`ALL`] — claims and baselines never run them.
pub const UNGATED: [Scenario; 1] = [Scenario {
    name: "ext_webfarm_scale_full",
    title: "At scale — 10^6 open-loop clients (ungated, no baseline)",
    run: ext_webfarm_scale_full_report,
}];

/// Look a gated scenario up by bench name.
pub fn by_name(name: &str) -> Option<&'static Scenario> {
    ALL.iter().find(|s| s.name == name)
}

/// Everything `dc-bench` can run or list: [`ALL`], then [`UNGATED`].
pub fn runnable() -> impl Iterator<Item = &'static Scenario> {
    ALL.iter().chain(UNGATED.iter())
}

/// Look up anything [`runnable`] by bench name.
pub fn lookup(name: &str) -> Option<&'static Scenario> {
    runnable().find(|s| s.name == name)
}

/// Assemble a fingerprinted report from rendered tables.
fn report(bench: &str, params: Vec<(&str, ArgVal)>, tables: &[dc_core::Table]) -> BenchReport {
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
pub fn fig3a_report() -> BenchReport {
    fig3a_report_with(&FabricModel::calibrated_2007())
}

/// Figure 3a under an explicit fabric model — the report carries *that*
/// model's fingerprint. Used by the paper-claims suite's negative control
/// (a perturbed calibration must violate at least one claim) and by the
/// `dc-regress` fingerprint-mismatch tests.
pub fn fig3a_report_with(fabric: &FabricModel) -> BenchReport {
    let series = crate::fig3a::run_with(fabric);
    let mut r = BenchReport::new("fig3a_ddss_put");
    r.set_fingerprint(&fabric.fingerprint());
    r.add_param("models", series.len() as u64);
    r.add_table(crate::fig3a::table(&series).to_report());
    r
}

/// Figure 3b: distributed STORM query time, sockets vs DDSS.
pub fn fig3b_report() -> BenchReport {
    let rows = crate::fig3b::run();
    report(
        "fig3b_storm",
        vec![("rows", (rows.len() as u64).into())],
        &[crate::fig3b::table(&rows)],
    )
}

/// Figure 5a: shared-lock cascading latency.
pub fn fig5a_report() -> BenchReport {
    let series = crate::fig5::run(dc_dlm::LockMode::Shared);
    report(
        "fig5a_lock_shared",
        vec![("mode", "shared".into())],
        &[crate::fig5::table(
            "Fig 5a — Shared-lock cascading latency (us)",
            &series,
        )],
    )
}

/// Figure 5b: exclusive-lock cascading latency.
pub fn fig5b_report() -> BenchReport {
    let series = crate::fig5::run(dc_dlm::LockMode::Exclusive);
    report(
        "fig5b_lock_exclusive",
        vec![("mode", "exclusive".into())],
        &[crate::fig5::table(
            "Fig 5b — Exclusive-lock cascading latency (us)",
            &series,
        )],
    )
}

/// Figure 6: cooperative-cache throughput, both proxy-count panels.
pub fn fig6_report() -> BenchReport {
    let tables: Vec<dc_core::Table> = [2usize, 8]
        .iter()
        .map(|&proxies| {
            let cells = crate::fig6::run_panel(proxies);
            crate::fig6::table(proxies, &cells)
        })
        .collect();
    report("fig6_coopcache", vec![("panels", "2,8".into())], &tables)
}

/// Figure 8a: monitoring accuracy — report from already-run results
/// (`dc-bench run --series` reuses the results for its time-series dump).
pub fn fig8a_report_from(results: &[crate::fig8a::AccuracyResult]) -> BenchReport {
    report(
        "fig8a_monitor_accuracy",
        vec![("schemes", (results.len() as u64).into())],
        &[crate::fig8a::table(results)],
    )
}

/// Figure 8a: monitoring accuracy under bursty load.
pub fn fig8a_report() -> BenchReport {
    fig8a_report_from(&crate::fig8a::run())
}

/// Figure 8b: hosted throughput by monitoring scheme.
pub fn fig8b_report() -> BenchReport {
    let cells = crate::fig8b::run();
    report(
        "fig8b_monitor_throughput",
        vec![("cells", (cells.len() as u64).into())],
        &[crate::fig8b::table(&cells)],
    )
}

/// §6 extension: flow-control bandwidth comparison.
pub fn ext_flowcontrol_report() -> BenchReport {
    let series = crate::ext_flowcontrol::run();
    report(
        "ext_flowcontrol_bw",
        vec![],
        &[crate::ext_flowcontrol::table(&series)],
    )
}

/// §6 extension: fine- vs coarse-grained reconfiguration reaction time.
pub fn ext_fine_reconfig_report() -> BenchReport {
    let fine = crate::ext_reconfig::reaction(true);
    let coarse = crate::ext_reconfig::reaction(false);
    report(
        "ext_fine_reconfig",
        vec![],
        &[crate::ext_reconfig::table(&fine, &coarse)],
    )
}

/// Ablations: coherence verb counts, cache capacity, monitoring cadence.
pub fn ext_ablations_report() -> BenchReport {
    let verbs = crate::ext_ablations::run_coherence();
    let caps = crate::ext_ablations::run_capacity();
    let grans = crate::ext_ablations::run_granularity();
    report(
        "ext_ablations",
        vec![],
        &[
            crate::ext_ablations::coherence_table(&verbs),
            crate::ext_ablations::capacity_table(&caps),
            crate::ext_ablations::granularity_table(&grans),
        ],
    )
}

/// Lock-design shootout: six designs, three contention cells.
pub fn ext_lock_shootout_report() -> BenchReport {
    let tables: Vec<dc_core::Table> = crate::ext_shootout::CELLS
        .into_iter()
        .zip(crate::ext_shootout::run())
        .map(|(cell, stats)| crate::ext_shootout::table(cell, &stats))
        .collect();
    report(
        "ext_lock_shootout",
        vec![
            ("designs", (dc_dlm::DesignKind::ALL.len() as u64).into()),
            ("cells", (crate::ext_shootout::CELLS.len() as u64).into()),
        ],
        &tables,
    )
}

/// At-scale webfarm: the gated sweep over the 60k-client configuration,
/// with the knee point's exact stage partition as the latency breakdown.
pub fn ext_webfarm_scale_report() -> BenchReport {
    webfarm_scale_report_over(
        "ext_webfarm_scale",
        &crate::ext_webfarm::gate_cfg(),
        &crate::ext_webfarm::cells(),
    )
}

/// At-scale webfarm, flagship size: 10^6 clients over 450 nodes, three
/// knee-straddling points (5.8 × 10^6 engine events). Ungated (see
/// [`UNGATED`]).
pub fn ext_webfarm_scale_full_report() -> BenchReport {
    let sweep: Vec<crate::ext_webfarm::SweepCell> = crate::ext_webfarm::cells()
        .into_iter()
        .filter(|c| c.arrival == "poisson" && c.load_x >= 0.6 && c.load_x <= 1.2)
        .collect();
    webfarm_scale_report_over(
        "ext_webfarm_scale_full",
        &crate::ext_webfarm::full_cfg(),
        &sweep,
    )
}

/// Incast extension: fan-in sweep over the three RPC lanes.
pub fn ext_incast_report() -> BenchReport {
    ext_incast_report_with(0.0)
}

/// Incast sweep with a seeded uniform drop rate — the determinism tests
/// compare reports built under faults; the registered scenario runs clean.
pub fn ext_incast_report_with(drop_rate: f64) -> BenchReport {
    let points = crate::ext_incast::run(drop_rate);
    report(
        "ext_incast",
        vec![
            (
                "lanes",
                (crate::ext_incast::IncastLane::ALL.len() as u64).into(),
            ),
            ("fanins", (crate::ext_incast::FANINS.len() as u64).into()),
            (
                "max_sessions",
                (*crate::ext_incast::FANINS.last().unwrap() as u64).into(),
            ),
            ("resp_bytes", (crate::ext_incast::RESP_BYTES as u64).into()),
        ],
        &[crate::ext_incast::table(&points)],
    )
}

fn webfarm_scale_report_over(
    bench: &str,
    base: &dc_core::ScaleFarmCfg,
    sweep: &[crate::ext_webfarm::SweepCell],
) -> BenchReport {
    let points = crate::ext_webfarm::run_sweep(base, sweep);
    let mut r = report(
        bench,
        vec![
            ("clients", (base.clients as u64).into()),
            ("proxies", (base.proxies as u64).into()),
            ("app_nodes", (base.app_nodes as u64).into()),
            ("saturation_rps", base.saturation_rps().round().into()),
        ],
        &[
            crate::ext_webfarm::sweep_table(&points),
            crate::ext_webfarm::accounting_table(&points),
        ],
    );
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
            assert_eq!(lookup(s.name).map(|f| f.title), Some(s.title));
        }
        for s in &UNGATED {
            assert!(by_name(s.name).is_none(), "{} must stay ungated", s.name);
        }
        assert!(by_name("fig9_imaginary").is_none());
        assert!(lookup("fig9_imaginary").is_none());
    }

    #[test]
    fn a_cheap_scenario_report_is_fingerprinted_and_valid() {
        let rep = fig5a_report();
        assert_eq!(rep.bench(), "fig5a_lock_shared");
        assert_eq!(
            rep.fingerprint(),
            Some(FabricModel::calibrated_2007().fingerprint().as_str())
        );
        assert_eq!(rep.tables().len(), 1);
        assert!(dc_trace::json::validate(&rep.to_json()).is_ok());
    }
}
