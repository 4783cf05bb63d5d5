//! `dc-bench flame` — virtual-time profiling of a registered scenario: its
//! registered run in a traced [`RunCtx`], whose sub-runs fold their span
//! trees into collapsed stacks weighted by span *self* time and attribute
//! each sampled request to critical-path stages (`dc_trace::critical`).
//! Tracing only records, so the report is the untraced run's plus a
//! `latency_breakdown`, and both outputs are pure functions of
//! `(scenario, seed)` (`tests/trace_determinism.rs` pins this).

use dc_trace::{critical, BenchReport, RequestBreakdown};

use crate::scenario::{self, Profile, RunCtx};

/// Trace gated scenario `name` (or a unique prefix of it) at `seed`: its
/// report, with the sampled requests' stage attribution as its latency
/// breakdown, and what its sub-runs folded. Errs on an unknown name and on
/// a scenario that builds no cluster, which leaves nothing to fold.
pub fn profile(name: &str, seed: u64) -> Result<(BenchReport, Profile), String> {
    let s = scenario::lookup(name, scenario::gated)
        .ok_or_else(|| format!("no gated scenario `{name}` (`dc-bench list` names them)"))?;
    let ctx = RunCtx::traced(seed);
    let mut report = (s.report)(&ctx);
    let p = ctx.into_profile().expect("a traced run keeps its profile");
    if p.requests.is_empty() {
        let name = s.name;
        return Err(format!("`{name}` builds no `Cluster`: nothing to trace"));
    }
    let requests: Vec<RequestBreakdown> = p.requests.values().flatten().cloned().collect();
    report.set_latency_breakdown(critical::aggregate(&requests));
    Ok((report, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig5;

    #[test]
    fn fig5a_profile_has_stacks_and_a_full_partition() {
        let (report, p) = profile("fig5a", 42).unwrap();
        assert_eq!(report.bench(), "fig5a_lock_shared");
        assert!(p.events > 0);
        // Every sub-run's root appears in the fold: one per scheme and
        // waiter count.
        let collapsed = dc_trace::render_collapsed(&p.stacks);
        for scheme in fig5::SCHEMES {
            for waiters in fig5::WAITERS {
                let root = format!("{};w{waiters:02};", scheme.label());
                assert!(collapsed.contains(&root), "missing {root} in fold");
            }
        }
        // One request span per waiter per (scheme, waiter-count) cell, and
        // the stage partition is exact for every one.
        let expected: usize = fig5::WAITERS.iter().sum::<usize>() * fig5::SCHEMES.len();
        let requests: Vec<&RequestBreakdown> = p.requests.values().flatten().collect();
        assert_eq!(requests.len(), expected);
        for r in requests {
            assert_eq!(r.stage_ns.iter().sum::<u64>(), r.total_ns);
        }
        let breakdown = report.latency_breakdown().unwrap();
        assert_eq!(breakdown.requests, expected as u64);
    }

    #[test]
    fn the_report_is_the_scenarios_plus_the_breakdown() {
        let (report, _) = profile("fig5b", 0).unwrap();
        let json = report.to_json();
        assert!(dc_trace::json::validate(&json).is_ok());
        assert!(json.contains(r#""latency_breakdown":{"requests":"#));
        let mut untraced = scenario::fig5b_report(&RunCtx::pinned());
        untraced.set_latency_breakdown(report.latency_breakdown().unwrap().clone());
        assert_eq!(json, untraced.to_json());
        assert!(profile("fig9", 0).is_err());
    }
}
