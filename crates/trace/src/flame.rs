//! Collapsed-stack (flamegraph) folding of the recorded span tree.
//!
//! Chrome/Perfetto `Complete` spans already carry everything a flamegraph
//! needs — start, duration, node, subsystem, name — the nesting is just
//! implicit in time containment. This module rebuilds the per-node span
//! tree (a span is a child of the innermost span on the same node whose
//! half-open `[ts, ts+dur)` interval contains it) and folds it into the
//! `inferno`/`flamegraph.pl` collapsed-stack text format:
//!
//! ```text
//! node0;app.request;fabric.verb.read 12345
//! ```
//!
//! One line per distinct stack, whitespace-separated from its weight. The
//! weight is **self** virtual nanoseconds — the span's duration minus its
//! contained children's — so rendered flame widths sum correctly, exactly
//! like sampled-profiler self counts. Lines are emitted in lexicographic
//! order and nothing here consults a clock or randomness, so the same
//! events fold to byte-identical text on every run.

use std::collections::BTreeMap;

use crate::event::{Event, Ph};

struct Span {
    ts: u64,
    end: u64,
    node: u32,
    frame: String,
}

/// Fold `events` into collapsed-stack text. Only `Complete` spans
/// contribute; instants and flow arrows carry no duration to attribute.
#[cfg(test)]
pub fn fold_collapsed(events: &[Event]) -> String {
    let mut stacks = BTreeMap::new();
    fold_into(&mut stacks, events, "");
    render_collapsed(&stacks)
}

/// Fold `events` into `stacks`, prefixing every stack with `prefix` as a
/// synthetic root frame (pass `""` for none). Lets a caller merge several
/// sub-runs — e.g. one per lock scheme — into one flamegraph with each
/// sub-run under its own root.
pub fn fold_into(stacks: &mut BTreeMap<String, u64>, events: &[Event], prefix: &str) {
    let mut spans: Vec<Span> = events
        .iter()
        .filter_map(|e| match e.ph {
            Ph::Complete { dur_ns } => Some(Span {
                ts: e.ts,
                end: e.ts.saturating_add(dur_ns),
                node: e.node,
                frame: format!("{}.{}", e.subsys.label(), e.name),
            }),
            _ => None,
        })
        .collect();
    // Group by node, then containment order: earlier start first, longer
    // span first on ties (the longer one is the parent). The sort is
    // stable, so remaining ties keep deterministic record order.
    spans.sort_by(|a, b| (a.node, a.ts, b.end).cmp(&(b.node, b.ts, a.end)));

    // Pass 1: parent links and per-span contained-child time.
    let mut parent: Vec<Option<usize>> = vec![None; spans.len()];
    let mut child_ns: Vec<u64> = vec![0; spans.len()];
    let mut open: Vec<usize> = Vec::new(); // outermost-first stack of indices
    let mut prev_node = None;
    for i in 0..spans.len() {
        if prev_node != Some(spans[i].node) {
            open.clear();
            prev_node = Some(spans[i].node);
        }
        // Pop finished (or merely overlapping, from concurrent tasks on one
        // node) spans: a parent must fully contain the child.
        while let Some(&top) = open.last() {
            if spans[i].ts < spans[top].end && spans[i].end <= spans[top].end {
                break;
            }
            open.pop();
        }
        if let Some(&p) = open.last() {
            parent[i] = Some(p);
            child_ns[p] += spans[i].end - spans[i].ts;
        }
        open.push(i);
    }

    // Pass 2: self time per span, keyed by its full frame path. Overlapping
    // children (concurrent handlers inside one parent) can sum past the
    // parent's duration; saturate rather than go negative.
    for i in 0..spans.len() {
        let self_ns = (spans[i].end - spans[i].ts).saturating_sub(child_ns[i]);
        if self_ns == 0 {
            continue;
        }
        let mut frames = vec![spans[i].frame.as_str()];
        let mut p = parent[i];
        while let Some(j) = p {
            frames.push(spans[j].frame.as_str());
            p = parent[j];
        }
        let mut stack = String::new();
        if !prefix.is_empty() {
            stack.push_str(prefix);
            stack.push(';');
        }
        stack.push_str("node");
        stack.push_str(&spans[i].node.to_string());
        for f in frames.iter().rev() {
            stack.push(';');
            stack.push_str(f);
        }
        *stacks.entry(stack).or_insert(0) += self_ns;
    }
}

/// Render folded stacks as collapsed-stack text: one `stack weight` line
/// per entry, lexicographic stack order, trailing newline when non-empty.
pub fn render_collapsed(stacks: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (stack, ns) in stacks {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArgVal, Subsys};

    fn span(ts: u64, dur: u64, node: u32, subsys: Subsys, name: &'static str) -> Event {
        Event {
            ts,
            node,
            subsys,
            name,
            ph: Ph::Complete { dur_ns: dur },
            args: Vec::new(),
        }
    }

    #[test]
    fn nesting_by_containment_and_self_time() {
        // request [0,100) contains verb [10,30) and verb [40,50).
        let evs = vec![
            span(0, 100, 0, Subsys::App, "request"),
            span(10, 20, 0, Subsys::Fabric, "verb.read"),
            span(40, 10, 0, Subsys::Fabric, "verb.write"),
        ];
        let out = fold_collapsed(&evs);
        assert_eq!(
            out,
            "node0;app.request 70\n\
             node0;app.request;fabric.verb.read 20\n\
             node0;app.request;fabric.verb.write 10\n"
        );
    }

    #[test]
    fn deeper_nesting_and_sibling_spans() {
        let evs = vec![
            span(0, 100, 1, Subsys::App, "request"),
            span(10, 60, 1, Subsys::Dlm, "lock"),
            span(20, 10, 1, Subsys::Fabric, "verb.cas"),
            span(120, 10, 1, Subsys::Fabric, "verb.read"), // sibling after request
        ];
        let out = fold_collapsed(&evs);
        assert_eq!(
            out,
            "node1;app.request 40\n\
             node1;app.request;dlm.lock 50\n\
             node1;app.request;dlm.lock;fabric.verb.cas 10\n\
             node1;fabric.verb.read 10\n"
        );
    }

    #[test]
    fn nodes_fold_independently() {
        let evs = vec![
            span(0, 10, 0, Subsys::Fabric, "verb.read"),
            span(0, 10, 1, Subsys::Fabric, "verb.read"),
        ];
        let out = fold_collapsed(&evs);
        assert_eq!(
            out,
            "node0;fabric.verb.read 10\nnode1;fabric.verb.read 10\n"
        );
    }

    #[test]
    fn instants_flows_and_zero_self_are_skipped() {
        let evs = vec![
            span(0, 10, 0, Subsys::App, "outer"),
            span(0, 10, 0, Subsys::Fabric, "inner"), // consumes all of outer
            Event {
                ts: 5,
                node: 0,
                subsys: Subsys::Fault,
                name: "drop",
                ph: Ph::Instant,
                args: vec![("src", ArgVal::U(1))],
            },
            Event {
                ts: 5,
                node: 0,
                subsys: Subsys::Dlm,
                name: "lock.request",
                ph: Ph::FlowStart { id: 7 },
                args: Vec::new(),
            },
        ];
        let out = fold_collapsed(&evs);
        // `outer` has zero self time (inner covers it fully) so only the
        // nested stack appears.
        assert_eq!(out, "node0;app.outer;fabric.inner 10\n");
    }

    #[test]
    fn overlap_without_containment_becomes_sibling() {
        // b starts inside a but ends after it: not contained, so sibling.
        let evs = vec![
            span(0, 10, 0, Subsys::App, "a"),
            span(5, 10, 0, Subsys::App, "b"),
        ];
        let out = fold_collapsed(&evs);
        assert_eq!(out, "node0;app.a 10\nnode0;app.b 10\n");
    }

    #[test]
    fn prefix_becomes_a_root_frame_and_folds_merge() {
        let a = vec![span(0, 10, 0, Subsys::Fabric, "verb.cas")];
        let b = vec![span(0, 20, 0, Subsys::Fabric, "verb.cas")];
        let mut stacks = BTreeMap::new();
        fold_into(&mut stacks, &a, "srsl");
        fold_into(&mut stacks, &b, "dqnl");
        let out = render_collapsed(&stacks);
        assert_eq!(
            out,
            "dqnl;node0;fabric.verb.cas 20\nsrsl;node0;fabric.verb.cas 10\n"
        );
    }

    #[test]
    fn fold_is_deterministic() {
        let evs = vec![
            span(0, 100, 0, Subsys::App, "request"),
            span(10, 20, 0, Subsys::Fabric, "verb.read"),
            span(0, 50, 1, Subsys::App, "request"),
        ];
        assert_eq!(fold_collapsed(&evs), fold_collapsed(&evs));
        assert!(fold_collapsed(&[]).is_empty());
    }
}
