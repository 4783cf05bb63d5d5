//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from this crate's files only, around the public calls
//! into each layer: `workload > pass > cell > {run, render, verify}` and
//! one span per probe. Each span carries its parent and the deltas of the
//! exact counters the repo exposes (scheduler polls/events/timers/barrier
//! waits from `dc_sim::thread_totals`, allocations and bytes from the
//! counting allocator). Everything stays in memory until [`finish`]; with
//! no recorder installed [`scope`] costs one thread-local flag test.

use std::cell::RefCell;
use std::time::Instant;

use dc_sim::{thread_totals, SimCounters};
use dc_trace::json::JsonWriter;

use crate::alloc::{thread_counts, uncounted, AllocCounts};

/// The exact counters, read together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Scheduler counters of every executor retired on this thread.
    pub sim: SimCounters,
    /// This thread's allocation counters (move only while counting is on).
    pub alloc: AllocCounts,
}

impl Counters {
    /// Read both counter sets now.
    pub fn now() -> Counters {
        Counters {
            sim: thread_totals(),
            alloc: thread_counts(),
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            sim: SimCounters {
                polls: self.sim.polls - earlier.sim.polls,
                events: self.sim.events - earlier.sim.events,
                timers_fired: self.sim.timers_fired - earlier.sim.timers_fired,
                barrier_waits: self.sim.barrier_waits - earlier.sim.barrier_waits,
            },
            alloc: self.alloc.since(earlier.alloc),
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was installed.
    pub start_ns: u64,
    /// End, ns since the recorder was installed.
    pub end_ns: u64,
    /// Counter deltas over the span.
    pub counters: Counters,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Set while [`paused`] runs: [`scope`] is then a plain call.
    paused: bool,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Install a fresh recorder on this thread.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            paused: false,
        })
    });
}

/// Remove the recorder and hand back what it recorded.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Run `f` with recording suspended, so that untraced passes can alternate
/// with traced ones under one open root span.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    let set = |on: bool| {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.paused = on;
            }
        })
    };
    set(true);
    let out = f();
    set(false);
    out
}

/// Run `f` inside a span named `name` (a plain call when no recorder is
/// installed or recording is paused).
pub fn scope<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().filter(|rec| !rec.paused)?;
        let idx = rec.spans.len();
        uncounted(|| {
            rec.spans.push(Span {
                name: name.to_string(),
                parent: rec.open.last().copied(),
                start_ns: rec.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                counters: Counters::default(),
            });
            rec.open.push(idx);
        });
        Some((idx, Counters::now()))
    });
    let out = f();
    if let Some((idx, before)) = opened {
        let after = Counters::now();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("recorder removed inside a span");
            rec.spans[idx].end_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.spans[idx].counters = after.since(before);
            let closed = rec.open.pop();
            debug_assert_eq!(closed, Some(idx), "spans closed out of order");
        });
    }
    out
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Render the spans as one JSON document (an array of objects; `parent` is
/// an index into the same array or `null`).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("workload").string(workload);
    w.key("seed").u64(seed);
    w.key("spans").begin_array();
    for (s, own_ns) in spans.iter().zip(own) {
        w.begin_object();
        w.key("name").string(&s.name);
        match s.parent {
            Some(p) => w.key("parent").u64(p as u64),
            None => w.key("parent").raw("null"),
        };
        w.key("start_ns").u64(s.start_ns);
        w.key("end_ns").u64(s.end_ns);
        w.key("self_ns").u64(own_ns);
        w.key("polls").u64(s.counters.sim.polls);
        w.key("events").u64(s.counters.sim.events);
        w.key("timers").u64(s.counters.sim.timers_fired);
        w.key("barrier_waits").u64(s.counters.sim.barrier_waits);
        w.key("allocs").u64(s.counters.alloc.allocs);
        w.key("bytes").u64(s.counters.alloc.bytes);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_with_parent_links_and_self_time_excludes_children() {
        assert_eq!(scope("no recorder", || 7), 7);
        assert!(finish().is_empty());

        start();
        let _counting = crate::alloc::Counting::start();
        scope("outer", || {
            scope("a", || drop(std::hint::black_box(vec![0u8; 1000])));
            scope("b", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            paused(|| scope("not recorded", || ()));
        });
        let spans = finish();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "a", "b"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].counters.alloc.allocs, 1);
        assert_eq!(spans[1].counters.alloc.bytes, 1000);
        assert_eq!(
            spans[0].counters.alloc.allocs, 1,
            "parent covers the child and none of the recorder's own allocations"
        );
        let own = self_times(&spans);
        let total = spans[0].end_ns - spans[0].start_ns;
        assert!(total >= 2_000_000);
        assert_eq!(own[0] + own[1] + own[2], total);
        let json = to_json("w", 3, &spans);
        dc_trace::json::validate(&json).expect("span file is valid JSON");
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":0"));
    }
}
