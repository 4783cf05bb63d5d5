//! The paper-claims conformance suite.
//!
//! Every `fig*`/`ext*` scenario runs in-process (same code path as the
//! `--json` bins) and is checked against the claim tables transcribed
//! from `EXPERIMENTS.md` in `dc_bench::claims`. This is tier-1: a
//! change that breaks a figure's *shape* — an ordering flip, a lost
//! crossover, a vanished 80x factor — fails `cargo test` directly,
//! before the numeric baseline gate even looks at it. Each scenario runs
//! once per test binary: its claims test and the live-vs-baseline diff
//! read the same report.
//!
//! Also here: the negative control (a deliberately perturbed fabric
//! calibration must violate claims — proving the claims actually
//! constrain the model), the live-vs-committed-baseline diff, and
//! fault-seeded robustness claims (opt-in via `DC_CLAIMS_FAULTS=1`,
//! exercised by CI).

use std::sync::OnceLock;

use dc_bench::claims::{claims_for, evaluate};
use dc_bench::diff::{diff, DiffError, LoadedReport, Tolerance};
use dc_bench::scenario::{self, RunCtx};
use dc_trace::BenchReport;

/// The report of registered scenario `name`, run once per test binary:
/// its claims test and the baseline diff share it.
fn report(name: &str) -> &'static BenchReport {
    const N: usize = scenario::ALL.len();
    static REPORTS: [OnceLock<BenchReport>; N] = [const { OnceLock::new() }; N];
    let i = scenario::ALL
        .iter()
        .position(|s| s.name == name)
        .expect("scenario registered");
    REPORTS[i].get_or_init(|| (scenario::ALL[i].report)(&RunCtx::pinned()))
}

/// Assert the transcribed claims of scenario `name` hold on its report.
fn assert_claims_hold(name: &str) {
    let claims = claims_for(name);
    assert!(!claims.is_empty(), "no claims transcribed for {name}");
    let report = report(name);
    let violations = evaluate(report.tables(), &claims);
    assert!(
        violations.is_empty(),
        "{name}: {} paper claim(s) violated:\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fig3a_ddss_put_claims() {
    assert_claims_hold("fig3a_ddss_put");
}

#[test]
fn fig3b_storm_claims() {
    assert_claims_hold("fig3b_storm");
}

#[test]
fn fig5a_lock_shared_claims() {
    assert_claims_hold("fig5a_lock_shared");
}

#[test]
fn fig5b_lock_exclusive_claims() {
    assert_claims_hold("fig5b_lock_exclusive");
}

#[test]
fn fig6_coopcache_claims() {
    assert_claims_hold("fig6_coopcache");
}

#[test]
fn fig8a_monitor_accuracy_claims() {
    assert_claims_hold("fig8a_monitor_accuracy");
}

#[test]
fn fig8b_monitor_throughput_claims() {
    assert_claims_hold("fig8b_monitor_throughput");
}

#[test]
fn ext_flowcontrol_bw_claims() {
    assert_claims_hold("ext_flowcontrol_bw");
}

#[test]
fn ext_fine_reconfig_claims() {
    assert_claims_hold("ext_fine_reconfig");
}

#[test]
fn ext_ablations_claims() {
    assert_claims_hold("ext_ablations");
}

#[test]
fn ext_lock_shootout_claims() {
    assert_claims_hold("ext_lock_shootout");
}

#[test]
fn ext_webfarm_scale_claims() {
    assert_claims_hold("ext_webfarm_scale");
}

#[test]
fn ext_incast_claims() {
    assert_claims_hold("ext_incast");
}

#[test]
fn every_registered_scenario_has_claims() {
    for s in &scenario::ALL {
        assert!(
            !claims_for(s.name).is_empty(),
            "{} has no transcribed paper claims",
            s.name
        );
    }
}

/// Negative control: the claims must *constrain* the calibration. A
/// fabric model with a wrecked RDMA-write cost has to violate at least
/// one Fig 3a claim and carry a different fingerprint — if this test
/// ever passes with zero violations, the claim tables have gone soft.
#[test]
fn perturbed_calibration_fails_fig3a_claims() {
    let good = dc_fabric::FabricModel::calibrated_2007();
    let mut bad = good.clone();
    // An RDMA write costing more than a Strict-coherence lock cycle
    // inverts the Fig 3a ordering and blows the 1-byte Null band.
    bad.rdma_write_base_ns *= 8;

    assert_ne!(
        good.fingerprint(),
        bad.fingerprint(),
        "perturbation must be visible in the calibration fingerprint"
    );

    let report = scenario::fig3a_report_with(&RunCtx::pinned(), &bad);
    assert_eq!(report.fingerprint(), Some(bad.fingerprint().as_str()));
    let violations = evaluate(report.tables(), &claims_for("fig3a_ddss_put"));
    assert!(
        !violations.is_empty(),
        "a 8x RDMA-write cost must break at least one Fig 3a claim"
    );
}

/// The perturbed report also refuses to diff against a healthy baseline:
/// calibration drift surfaces as a hard fingerprint error, not as a wall
/// of numeric deltas.
#[test]
fn perturbed_calibration_is_rejected_by_the_differ() {
    let mut bad = dc_fabric::FabricModel::calibrated_2007();
    bad.rdma_write_base_ns += 1;
    let healthy = LoadedReport::from_bench(report("fig3a_ddss_put"));
    let drifted = LoadedReport::from_bench(&scenario::fig3a_report_with(&RunCtx::pinned(), &bad));
    let err = diff(&healthy, &drifted, &Tolerance::pct(100.0)).unwrap_err();
    assert!(matches!(err, DiffError::FingerprintMismatch(_, _)));
}

/// A live run diffs cleanly against itself at zero tolerance — the
/// regression gate's self-consistency floor (determinism guarantee).
#[test]
fn live_report_self_comparison_is_clean() {
    let a = LoadedReport::from_bench(&scenario::fig5a_report(&RunCtx::pinned()));
    let b = LoadedReport::from_bench(&scenario::fig5a_report(&RunCtx::pinned()));
    let d = diff(&a, &b, &Tolerance::pct(0.0)).unwrap();
    assert_eq!(
        d.regressions(),
        0,
        "same seed, same model, same numbers:\n{}",
        d.render(false)
    );
    assert!(!d.cells.is_empty());
}

/// Live runs must match the committed `baselines/` exactly: the same
/// check CI's regression gate performs, kept in tier-1 so a drift is
/// caught at `cargo test` time with a cell-level explanation.
#[test]
fn live_runs_match_committed_baselines() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
    assert!(
        dir.is_dir(),
        "committed baselines missing at {}",
        dir.display()
    );
    for s in &scenario::ALL {
        let base =
            LoadedReport::from_path(&dir.join(format!("{}.json", s.name))).expect("baseline loads");
        let live = LoadedReport::from_bench(report(s.name));
        let d =
            diff(&base, &live, &Tolerance::pct(0.0)).unwrap_or_else(|e| panic!("{}: {e}", s.name));
        assert_eq!(
            d.regressions(),
            0,
            "{} drifted from its committed baseline (re-bless deliberately):\n{}",
            s.name,
            d.render(false)
        );
    }
}

/// Fault-seeded robustness claims, opt-in via `DC_CLAIMS_FAULTS=1` (CI
/// runs the suite a second time with it set). Under injected crashes,
/// drops, and latency storms the exact figures move, but the paper's
/// *relative* story must survive: cooperation still beats no
/// cooperation, and accurate RDMA monitoring still beats blind socket
/// polling.
#[test]
fn fault_seeded_claims_hold_when_enabled() {
    if std::env::var("DC_CLAIMS_FAULTS").ok().as_deref() != Some("1") {
        return; // opt-in: default tier-1 stays fault-free
    }
    let faults = dc_fabric::FaultConfig::default();
    for seed in [7u64, 8, 9] {
        // Cooperative caching under faults: BCC still beats AC.
        let mk = |scheme| {
            let mut cfg = dc_bench::fig6::cell_cfg(2, scheme, 16 * 1024);
            cfg.faults = Some((seed, faults.clone()));
            dc_core::run_webfarm(&cfg)
        };
        let ac = mk(dc_coopcache::CacheScheme::Ac);
        let bcc = mk(dc_coopcache::CacheScheme::Bcc);
        assert!(
            bcc.tps > ac.tps,
            "seed {seed}: faulted BCC {:.0} should still beat AC {:.0}",
            bcc.tps,
            ac.tps
        );

        // Hosted throughput under faults: RDMA-Sync still beats Socket-Sync.
        let mk = |scheme| {
            let mut cfg = dc_bench::fig8b::cell_cfg(scheme, 0.75);
            cfg.faults = Some((seed, faults.clone()));
            dc_core::run_hosting(&cfg)
        };
        let socket = mk(dc_resmon::MonitorScheme::SocketSync);
        let rdma = mk(dc_resmon::MonitorScheme::RdmaSync);
        assert!(
            rdma.tps > socket.tps,
            "seed {seed}: faulted RDMA-Sync {:.0} should still beat Socket-Sync {:.0}",
            rdma.tps,
            socket.tps
        );
    }
}

/// Fault-seeded at-scale webfarm invariants, opt-in via
/// `DC_CLAIMS_FAULTS=1`. Crashes, drops, and latency storms move every
/// quantile, but the structural story must survive: every issued request
/// is still accounted for (conservation), runs stay bit-deterministic per
/// seed, goodput can never exceed what was admitted, and an overloaded
/// farm still sheds rather than queueing without bound.
#[test]
fn fault_seeded_webfarm_scale_conservation_holds() {
    if std::env::var("DC_CLAIMS_FAULTS").ok().as_deref() != Some("1") {
        return; // opt-in: default tier-1 stays fault-free
    }
    let base = dc_bench::ext_webfarm::gate_cfg();
    let sat = base.saturation_rps();
    for seed in [7u64, 8, 9] {
        let cfg = dc_core::ScaleFarmCfg {
            // A quarter-size population at 1.2x saturation keeps the
            // three-seed loop fast while still straddling the knee.
            clients: base.clients / 4,
            offered_rps: 1.2 * sat,
            faults: Some((seed, dc_fabric::FaultConfig::default())),
            ..base.clone()
        };
        let p = dc_core::run_webfarm_scale(&cfg);
        assert_eq!(
            p.conservation_gap, 0,
            "seed {seed}: conservation violated under faults: {p:?}"
        );
        assert!(
            p.shed > 0,
            "seed {seed}: an overloaded faulted farm must shed"
        );
        assert!(
            p.goodput_rps <= p.offered_rps,
            "seed {seed}: goodput {} above offered {}",
            p.goodput_rps,
            p.offered_rps
        );
        let q = dc_core::run_webfarm_scale(&cfg);
        assert_eq!(p, q, "seed {seed}: faulted run must be deterministic");
    }
}

/// Fault-seeded shootout dominance, opt-in via `DC_CLAIMS_FAULTS=1`.
/// Message drops and latency storms shift every absolute number, but the
/// hot-cell ordering the claims gate on must survive: the FIFO ticket
/// queue stays fairer and better-bounded than the CAS spinner. The plan
/// carries no crash or stall windows — one-sided atomics cannot ride out
/// a crashed home (see `dc_bench::ext_shootout::run_cell`).
#[test]
fn fault_seeded_lock_shootout_dominance_holds() {
    if std::env::var("DC_CLAIMS_FAULTS").ok().as_deref() != Some("1") {
        return; // opt-in: default tier-1 stays fault-free
    }
    use dc_bench::ext_shootout::{run_cell, CELLS, HORIZON_NS};
    use dc_dlm::DesignKind;

    let cfg = dc_fabric::FaultConfig {
        horizon_ns: HORIZON_NS,
        max_crashes_per_node: 0,
        max_stalls_per_node: 0,
        drop_prob: 0.05,
        latency_windows: 2,
        latency_min_ns: dc_sim::time::ms(2),
        latency_max_ns: dc_sim::time::ms(6),
        ..Default::default()
    };
    let hot = CELLS[2];
    for seed in [7u64, 8, 9] {
        let nodes = hot.clients + 1;
        let mk = |design| {
            let plan = dc_fabric::FaultPlan::generate(seed, &cfg, nodes);
            run_cell(design, hot, Some(plan))
        };
        let cas = mk(DesignKind::CasSpin);
        let mcs = mk(DesignKind::McsTicket);
        assert!(
            mcs.fairness_cv < cas.fairness_cv,
            "seed {seed}: faulted MCS-FAA fairness CV {:.3} should beat CAS-Spin {:.3}",
            mcs.fairness_cv,
            cas.fairness_cv
        );
        assert!(
            mcs.max_wait_us < cas.max_wait_us,
            "seed {seed}: faulted MCS-FAA max wait {:.1}us should beat CAS-Spin {:.1}us",
            mcs.max_wait_us,
            cas.max_wait_us
        );
    }
}

/// Fault-seeded incast recovery, opt-in via `DC_CLAIMS_FAULTS=1`. Under a
/// seeded uniform drop rate the eRPC lane's RTO retransmit plus the
/// server's reply cache must deliver exactly-once completion for every
/// request (`run_cell` asserts none are lost), with the recovery visible
/// in the retransmit counter and the whole cell bit-deterministic.
#[test]
fn fault_seeded_incast_recovers_every_request() {
    if std::env::var("DC_CLAIMS_FAULTS").ok().as_deref() != Some("1") {
        return; // opt-in: default tier-1 stays fault-free
    }
    use dc_bench::ext_incast::{run_cell, IncastLane};
    let p = run_cell(IncastLane::Erpc, 64, 0.05);
    assert!(
        p.retransmits > 0,
        "a 5% drop plan must exercise the retransmit path"
    );
    assert!(p.goodput_rps > 0.0);
    let q = run_cell(IncastLane::Erpc, 64, 0.05);
    assert_eq!(
        p.retransmits, q.retransmits,
        "faulted incast cell must be deterministic"
    );
    assert_eq!(p.p999_us, q.p999_us);
}
