//! Critical-path latency attribution over the recorded span tree.
//!
//! Instrumented layers tag their spans with a `("stage", ...)` argument
//! (the taxonomy is contractual — see DESIGN.md "Span and stage taxonomy"):
//!
//! * `"request"` — one span per sampled end-to-end request, recorded on the
//!   node where the request runs; everything else attributes *into* it.
//! * `"wire"` — fabric verb time (one-sided read/write/CAS/FAA, sends).
//! * `"queue"` — time a request sat in a service's admission queue before
//!   its handler was dispatched.
//! * `"handler"` — service handler execution (dc-svc pump dispatch).
//! * `"cpu"` — explicit CPU charging outside a handler.
//! * `"retry"` — retry/backoff sleeps (fabric budgeted retries, SvcClient
//!   attempt backoff, DLM spin backoff).
//! * `"remote"` — derived, not tagged: the interval bracketed by a
//!   req→grant flow-arrow pair (`FlowStart`/`FlowEnd` with one endpoint on
//!   the request's node), i.e. time blocked on another node.
//!
//! For each request span the analyzer sweeps its `[ts, ts+dur)` window and
//! attributes every elementary sub-interval to the innermost overlapping
//! stage span on the same node (latest start wins, shortest span breaks
//! ties; tagged spans beat flow-derived `remote` intervals). Time covered
//! by nothing is `"other"`. The arithmetic is integer nanoseconds over a
//! partition of the window, so per request the stage sums equal the
//! end-to-end time *exactly* — the invariant `tests/trace_determinism.rs`
//! asserts for every sampled request.
//!
//! Caveat: attribution is per-node and time-based. If several sampled
//! requests overlap on one node, a stage span is attributed to every
//! request window it intersects; sums still partition each window, but
//! cross-request bleed is possible. The engines sample disjoint requests
//! per node (webfarm tags one in-flight request per client task).

use std::collections::BTreeMap;

use crate::event::{ArgVal, Event, Ph};
use crate::hist::StreamHist;
use crate::json::JsonWriter;

/// Span argument key carrying the stage tag.
pub const STAGE_KEY: &str = "stage";
/// Stage value marking a sampled end-to-end request span.
pub const STAGE_REQUEST: &str = "request";

/// Attributable stages, in report order. `"other"` (uncovered time) last.
pub const STAGES: [&str; 7] = [
    "wire", "queue", "handler", "cpu", "retry", "remote", "other",
];
/// Index of the derived `"remote"` stage in [`STAGES`].
const REMOTE: usize = 5;
/// Index of the fallback `"other"` stage in [`STAGES`].
const OTHER: usize = 6;

fn stage_index(s: &str) -> Option<usize> {
    STAGES.iter().position(|&x| x == s)
}

fn stage_arg(e: &Event) -> Option<&str> {
    e.args.iter().find_map(|(k, v)| match v {
        ArgVal::S(s) if *k == STAGE_KEY => Some(s.as_str()),
        _ => None,
    })
}

/// One sampled request's attributed latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestBreakdown {
    /// Node the request span was recorded on.
    pub node: u32,
    /// End-to-end request time (the span's duration).
    pub total_ns: u64,
    /// Per-stage attribution, indexed like [`STAGES`]. Sums to `total_ns`
    /// exactly.
    pub stage_ns: [u64; STAGES.len()],
}

/// Aggregate attribution of one stage across all sampled requests.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAgg {
    /// Stage name (one of [`STAGES`]).
    pub stage: &'static str,
    /// Total attributed time across requests.
    pub total_ns: u64,
    /// Share of the summed end-to-end time, percent.
    pub share_pct: f64,
    /// Median per-request stage time (streaming, one-bucket accuracy).
    pub p50_ns: u64,
    /// 99th-percentile per-request stage time.
    pub p99_ns: u64,
    /// Worst per-request stage time (exact).
    pub max_ns: u64,
}

/// The `latency_breakdown` section of a bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBreakdown {
    /// Number of sampled request spans.
    pub requests: u64,
    /// Summed end-to-end time of all sampled requests.
    pub total_ns: u64,
    /// Per-stage aggregates in [`STAGES`] order (all stages always present,
    /// zeros included, so the report shape is stable).
    pub stages: Vec<StageAgg>,
}

/// Attribute every sampled request span in `events`. Requests are returned
/// in deterministic `(node, start, record-order)` order.
pub fn analyze_requests(events: &[Event]) -> Vec<RequestBreakdown> {
    // Matched flow arrows: id -> (start_ts, start_node, end_ts, end_node).
    let mut flow_start: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
    let mut flows: Vec<(u64, u32, u64, u32)> = Vec::new();
    for e in events {
        match e.ph {
            Ph::FlowStart { id } => {
                flow_start.insert(id, (e.ts, e.node));
            }
            Ph::FlowEnd { id } => {
                if let Some((ts0, n0)) = flow_start.remove(&id) {
                    if e.ts >= ts0 {
                        flows.push((ts0, n0, e.ts, e.node));
                    }
                }
            }
            _ => {}
        }
    }

    // Tagged stage spans and request spans.
    struct Tagged {
        ts: u64,
        end: u64,
        node: u32,
        stage: usize,
    }
    let mut tagged: Vec<Tagged> = Vec::new();
    let mut requests: Vec<(u64, u64, u32)> = Vec::new(); // (ts, end, node)
    for e in events {
        let Ph::Complete { dur_ns } = e.ph else {
            continue;
        };
        match stage_arg(e) {
            Some(STAGE_REQUEST) => requests.push((e.ts, e.ts + dur_ns, e.node)),
            Some(s) => {
                if let Some(stage) = stage_index(s) {
                    tagged.push(Tagged {
                        ts: e.ts,
                        end: e.ts + dur_ns,
                        node: e.node,
                        stage,
                    });
                }
            }
            None => {}
        }
    }
    requests.sort_by_key(|&(ts, end, node)| (node, ts, end));

    let mut out = Vec::with_capacity(requests.len());
    for &(rts, rend, node) in &requests {
        // Candidates clipped to the request window. `local` distinguishes
        // tagged spans (innermost-wins) from flow-derived remote intervals
        // (lowest priority).
        struct Cand {
            ts: u64,
            end: u64,
            local: bool,
            stage: usize,
        }
        let mut cands: Vec<Cand> = Vec::new();
        for t in tagged.iter().filter(|t| t.node == node) {
            let (a, b) = (t.ts.max(rts), t.end.min(rend));
            if a < b {
                cands.push(Cand {
                    ts: a,
                    end: b,
                    local: true,
                    stage: t.stage,
                });
            }
        }
        for &(ts0, n0, ts1, n1) in &flows {
            if n0 != node && n1 != node {
                continue;
            }
            let (a, b) = (ts0.max(rts), ts1.min(rend));
            if a < b {
                cands.push(Cand {
                    ts: a,
                    end: b,
                    local: false,
                    stage: REMOTE,
                });
            }
        }
        // Elementary sweep over the window's breakpoints.
        let mut points: Vec<u64> = vec![rts, rend];
        for c in &cands {
            points.push(c.ts);
            points.push(c.end);
        }
        points.sort_unstable();
        points.dedup();
        let mut stage_ns = [0u64; STAGES.len()];
        for w in points.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Innermost active candidate: tagged beats remote, then latest
            // start, then earliest end, then highest stage index (a
            // deterministic tiebreak for identical intervals).
            let best = cands
                .iter()
                .filter(|c| c.ts <= a && c.end >= b)
                .max_by_key(|c| (c.local, c.ts, std::cmp::Reverse(c.end), c.stage));
            let idx = best.map_or(OTHER, |c| c.stage);
            stage_ns[idx] += b - a;
        }
        out.push(RequestBreakdown {
            node,
            total_ns: rend - rts,
            stage_ns,
        });
    }
    out
}

/// Aggregate [`analyze_requests`] into the report section. Per-stage
/// percentiles come from a [`StreamHist`] over per-request stage times —
/// the streaming path, since sampled-request counts are unbounded.
pub fn analyze(events: &[Event]) -> LatencyBreakdown {
    let per_request = analyze_requests(events);
    aggregate(&per_request)
}

/// Aggregate pre-computed per-request breakdowns.
pub fn aggregate(per_request: &[RequestBreakdown]) -> LatencyBreakdown {
    let total_ns: u64 = per_request.iter().map(|r| r.total_ns).sum();
    let mut hists: Vec<StreamHist> = (0..STAGES.len()).map(|_| StreamHist::new()).collect();
    for r in per_request {
        for (h, &ns) in hists.iter_mut().zip(r.stage_ns.iter()) {
            h.record(ns);
        }
    }
    let stages = STAGES
        .iter()
        .zip(&hists)
        .map(|(&stage, h)| {
            let stage_total: u64 = per_request
                .iter()
                .map(|r| r.stage_ns[stage_index(stage).unwrap()])
                .sum();
            StageAgg {
                stage,
                total_ns: stage_total,
                share_pct: if total_ns == 0 {
                    0.0
                } else {
                    stage_total as f64 * 100.0 / total_ns as f64
                },
                p50_ns: h.p50_ns(),
                p99_ns: h.p99_ns(),
                max_ns: h.max_ns(),
            }
        })
        .collect();
    LatencyBreakdown {
        requests: per_request.len() as u64,
        total_ns,
        stages,
    }
}

impl LatencyBreakdown {
    /// Render as the JSON object spliced into a bench report under the
    /// `latency_breakdown` key. Deterministic: integer-derived fields only.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("requests").u64(self.requests);
        w.key("total_ns").u64(self.total_ns);
        w.key("stages").begin_array();
        for s in &self.stages {
            w.begin_object();
            w.key("stage").string(s.stage);
            w.key("total_ns").u64(s.total_ns);
            w.key("share_pct").f64(s.share_pct);
            w.key("p50_ns").u64(s.p50_ns);
            w.key("p99_ns").u64(s.p99_ns);
            w.key("max_ns").u64(s.max_ns);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Subsys;
    use crate::json::validate;

    fn tagged(ts: u64, dur: u64, node: u32, name: &'static str, stage: &str) -> Event {
        Event {
            ts,
            node,
            subsys: Subsys::App,
            name,
            ph: Ph::Complete { dur_ns: dur },
            args: vec![(STAGE_KEY, ArgVal::S(stage.to_string()))],
        }
    }

    #[test]
    fn stages_partition_the_request_window_exactly() {
        let evs = vec![
            tagged(0, 100, 0, "request", STAGE_REQUEST),
            tagged(10, 20, 0, "verb.read", "wire"),
            tagged(50, 25, 0, "svc", "handler"),
        ];
        let reqs = analyze_requests(&evs);
        assert_eq!(reqs.len(), 1);
        let r = &reqs[0];
        assert_eq!(r.total_ns, 100);
        assert_eq!(r.stage_ns.iter().sum::<u64>(), r.total_ns);
        assert_eq!(r.stage_ns[stage_index("wire").unwrap()], 20);
        assert_eq!(r.stage_ns[stage_index("handler").unwrap()], 25);
        assert_eq!(r.stage_ns[OTHER], 55);
    }

    #[test]
    fn innermost_tagged_span_wins() {
        // handler [10,90) contains wire [20,30): wire wins inside itself.
        let evs = vec![
            tagged(0, 100, 0, "request", STAGE_REQUEST),
            tagged(10, 80, 0, "svc", "handler"),
            tagged(20, 10, 0, "verb.read", "wire"),
        ];
        let r = &analyze_requests(&evs)[0];
        assert_eq!(r.stage_ns[stage_index("wire").unwrap()], 10);
        assert_eq!(r.stage_ns[stage_index("handler").unwrap()], 70);
        assert_eq!(r.stage_ns[OTHER], 20);
        assert_eq!(r.stage_ns.iter().sum::<u64>(), 100);
    }

    #[test]
    fn flow_arrows_fill_remote_but_lose_to_tagged_spans() {
        let mut evs = vec![
            tagged(0, 100, 1, "request", STAGE_REQUEST),
            tagged(40, 10, 1, "verb.cas", "wire"),
        ];
        evs.push(Event {
            ts: 20,
            node: 1,
            subsys: Subsys::Dlm,
            name: "lock.request",
            ph: Ph::FlowStart { id: 9 },
            args: Vec::new(),
        });
        evs.push(Event {
            ts: 80,
            node: 1,
            subsys: Subsys::Dlm,
            name: "lock.grant",
            ph: Ph::FlowEnd { id: 9 },
            args: Vec::new(),
        });
        let r = &analyze_requests(&evs)[0];
        // [20,80) is remote except the tagged wire [40,50).
        assert_eq!(r.stage_ns[stage_index("wire").unwrap()], 10);
        assert_eq!(r.stage_ns[REMOTE], 50);
        assert_eq!(r.stage_ns[OTHER], 40);
        assert_eq!(r.stage_ns.iter().sum::<u64>(), 100);
    }

    #[test]
    fn spans_on_other_nodes_do_not_attribute() {
        let evs = vec![
            tagged(0, 50, 0, "request", STAGE_REQUEST),
            tagged(0, 50, 1, "verb.read", "wire"),
        ];
        let r = &analyze_requests(&evs)[0];
        assert_eq!(r.stage_ns[OTHER], 50);
    }

    #[test]
    fn clipping_stage_spans_straddling_the_window() {
        let evs = vec![
            tagged(10, 30, 0, "request", STAGE_REQUEST),
            tagged(0, 25, 0, "verb.read", "wire"), // [0,25) clips to [10,25)
            tagged(35, 20, 0, "svc", "handler"),   // clips to [35,40)
        ];
        let r = &analyze_requests(&evs)[0];
        assert_eq!(r.stage_ns[stage_index("wire").unwrap()], 15);
        assert_eq!(r.stage_ns[stage_index("handler").unwrap()], 5);
        assert_eq!(r.stage_ns[OTHER], 10);
        assert_eq!(r.total_ns, 30);
    }

    #[test]
    fn aggregate_and_json_shape() {
        let evs = vec![
            tagged(0, 100, 0, "request", STAGE_REQUEST),
            tagged(0, 60, 0, "verb.read", "wire"),
            tagged(200, 100, 0, "request", STAGE_REQUEST),
            tagged(200, 20, 0, "verb.read", "wire"),
        ];
        let b = analyze(&evs);
        assert_eq!(b.requests, 2);
        assert_eq!(b.total_ns, 200);
        assert_eq!(b.stages.len(), STAGES.len());
        let wire = &b.stages[0];
        assert_eq!(wire.stage, "wire");
        assert_eq!(wire.total_ns, 80);
        assert_eq!(wire.share_pct, 40.0);
        assert_eq!(wire.max_ns, 60);
        let sum: u64 = b.stages.iter().map(|s| s.total_ns).sum();
        assert_eq!(sum, b.total_ns);
        let json = b.to_json();
        assert!(validate(&json).is_ok(), "{json}");
        assert!(
            json.starts_with("{\"requests\":2,\"total_ns\":200,\"stages\":[{\"stage\":\"wire\"")
        );
        assert_eq!(json, analyze(&evs).to_json(), "deterministic");
    }

    #[test]
    fn empty_events_yield_an_empty_breakdown() {
        let b = analyze(&[]);
        assert_eq!(b.requests, 0);
        assert_eq!(b.total_ns, 0);
        assert_eq!(b.stages.len(), STAGES.len());
        assert!(validate(&b.to_json()).is_ok());
    }
}
