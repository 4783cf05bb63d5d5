//! `dc-bench flame` — virtual-time profiling of traceable scenarios.
//!
//! Runs a scenario with the cluster tracer on, folds the per-node span tree
//! into collapsed-stack (inferno/flamegraph.pl) lines weighted by span
//! *self* time, and attributes each sampled request's end-to-end latency to
//! critical-path stages (`dc_trace::critical`). Both outputs are pure
//! functions of `(scenario, seed)`: two runs emit byte-identical bytes,
//! which `tests/trace_determinism.rs` pins.

use std::collections::BTreeMap;

use dc_coopcache::CacheScheme;
use dc_dlm::LockMode;
use dc_trace::critical;
use dc_trace::{fold_into, render_collapsed, BenchReport, LatencyBreakdown, RequestBreakdown};
use dc_trace::{Event, TraceMode};

use crate::ext_shootout;
use crate::fig5;
use crate::fig6;
use crate::scenario::{self, Scenario};

/// Scenario names `flame` (and `top`) can trace, registry order.
pub const TRACEABLE: [&str; 4] = [
    "fig5a_lock_shared",
    "fig5b_lock_exclusive",
    "fig6_coopcache",
    "ext_lock_shootout",
];

/// Whether `flame` can trace `s` (its name is in [`TRACEABLE`]).
pub fn traceable(s: &Scenario) -> bool {
    TRACEABLE.contains(&s.name)
}

/// The profile of one traced scenario run.
pub struct FlameProfile {
    /// Resolved scenario name.
    pub scenario: &'static str,
    /// Seed the traced sub-runs were configured with.
    pub seed: u64,
    /// Collapsed-stack lines (`root;frame;frame weight\n`), sorted.
    pub collapsed: String,
    /// Per-request critical-path attributions, run order.
    pub requests: Vec<RequestBreakdown>,
    /// Aggregated stage attribution over all sampled requests.
    pub breakdown: LatencyBreakdown,
    /// Trace events folded, across all sub-runs.
    pub events: usize,
}

/// Trace `scenario` under `seed` and profile it. The name may be a unique
/// prefix ([`scenario::lookup`]); an untraceable one panics.
pub fn profile(scenario: &str, seed: u64) -> FlameProfile {
    let scenario = scenario::lookup(scenario, traceable)
        .unwrap_or_else(|| panic!("scenario `{scenario}` is not traceable: {TRACEABLE:?}"))
        .name;
    // Each sub-run folds under a distinguishing root prefix so one profile
    // shows e.g. every lock scheme side by side.
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut requests: Vec<RequestBreakdown> = Vec::new();
    let mut events = 0usize;
    let take = |folded: &mut BTreeMap<String, u64>,
                requests: &mut Vec<RequestBreakdown>,
                evs: &[Event],
                prefix: &str| {
        fold_into(folded, evs, prefix);
        requests.extend(critical::analyze_requests(evs));
        evs.len()
    };
    match scenario {
        "fig5a_lock_shared" | "fig5b_lock_exclusive" => {
            let mode = if scenario == "fig5a_lock_shared" {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
            // The cascade topology is seed-free; `seed` is recorded for the
            // report but does not vary the runs.
            for scheme in fig5::SCHEMES {
                for waiters in fig5::WAITERS {
                    let (_, evs) = fig5::cascade_traced(scheme, waiters, mode, TraceMode::Full);
                    let prefix = format!("{};w{:02}", scheme.label(), waiters);
                    events += take(&mut folded, &mut requests, &evs, &prefix);
                }
            }
        }
        "fig6_coopcache" => {
            // One representative cell per scheme: 2 proxies, 16k documents.
            for scheme in CacheScheme::ALL {
                let mut cfg = fig6::cell_cfg(2, scheme, 16 * 1024);
                cfg.seed = seed;
                let (_, art) = dc_core::run_webfarm_traced(&cfg, TraceMode::Full);
                events += take(&mut folded, &mut requests, &art.raw_events, scheme.label());
            }
        }
        "ext_lock_shootout" => {
            let mut cell = ext_shootout::CELLS[0];
            cell.seed = seed;
            for design in dc_dlm::DesignKind::ALL {
                let (_, art) = ext_shootout::run_cell_traced(design, cell, None, TraceMode::Full);
                events += take(&mut folded, &mut requests, &art.raw_events, design.label());
            }
        }
        _ => unreachable!("lookup() returned an untraceable name"),
    }
    let breakdown = critical::aggregate(&requests);
    FlameProfile {
        scenario,
        seed,
        collapsed: render_collapsed(&folded),
        requests,
        breakdown,
        events,
    }
}

/// Wrap a profile's attribution in a fingerprinted [`BenchReport`] (the
/// `latency_breakdown` section of the v2 schema).
pub fn report(p: &FlameProfile) -> BenchReport {
    let mut r = BenchReport::new(p.scenario);
    r.set_fingerprint(&dc_fabric::FabricModel::calibrated_2007().fingerprint());
    r.add_param("profile", "flame");
    r.add_param("seed", p.seed);
    r.add_param("events", p.events as u64);
    r.add_param("stacks", p.collapsed.lines().count() as u64);
    r.set_latency_breakdown(p.breakdown.clone());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5a_profile_has_stacks_and_a_full_partition() {
        let p = profile("fig5a", 42);
        assert_eq!(p.scenario, "fig5a_lock_shared");
        assert!(p.events > 0);
        assert!(!p.collapsed.is_empty());
        // Every scheme root appears in the fold.
        for scheme in fig5::SCHEMES {
            assert!(
                p.collapsed.contains(scheme.label()),
                "missing {} in fold",
                scheme.label()
            );
        }
        // One request span per waiter per (scheme, waiter-count) cell.
        let expected: usize = fig5::WAITERS.iter().sum::<usize>() * fig5::SCHEMES.len();
        assert_eq!(p.requests.len(), expected);
        // The stage partition is exact for every sampled request.
        for r in &p.requests {
            assert_eq!(r.stage_ns.iter().sum::<u64>(), r.total_ns);
        }
        assert_eq!(p.breakdown.requests, expected as u64);
    }

    #[test]
    fn report_carries_the_breakdown_section() {
        let p = profile("fig5b", 7);
        let json = report(&p).to_json();
        assert!(dc_trace::json::validate(&json).is_ok());
        assert!(json.contains(r#""latency_breakdown":{"requests":"#));
        assert!(json.contains(r#""profile":"flame""#));
    }
}
