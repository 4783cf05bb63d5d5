//! The sim-time event recorder and its Chrome trace-event exporter.
//!
//! A [`Tracer`] is a cheap clonable handle (like `SimHandle`). It starts
//! disabled — every record call is a branch on a `Cell<bool>` and nothing
//! else — so instrumented hot paths cost nothing in benches that don't
//! trace. Crucially, recording never spawns tasks, takes timers, or
//! otherwise touches the executor: enabling tracing cannot perturb the
//! simulated schedule, which is what keeps traced and untraced runs of the
//! same seed identical in behaviour, and two traced runs identical in
//! output.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use dc_sim::{SimHandle, SimTime};

use crate::event::{ArgVal, Event, Ph, Subsys, TraceMode};
use crate::json::JsonWriter;

struct TracerInner {
    sim: SimHandle,
    enabled: Cell<bool>,
    mode: Cell<TraceMode>,
    events: RefCell<VecDeque<Event>>,
    /// Events discarded by `Ring` eviction.
    dropped: Cell<u64>,
}

/// Clonable handle to the per-cluster trace recorder.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.enabled.get())
            .field("events", &self.inner.events.borrow().len())
            .field("dropped", &self.inner.dropped.get())
            .finish()
    }
}

impl Tracer {
    /// A new recorder bound to `sim`'s clock. Starts disabled.
    pub fn new(sim: SimHandle) -> Self {
        Tracer {
            inner: Rc::new(TracerInner {
                sim,
                enabled: Cell::new(false),
                mode: Cell::new(TraceMode::Full),
                events: RefCell::new(VecDeque::new()),
                dropped: Cell::new(0),
            }),
        }
    }

    /// Turn recording on with the given memory-bounding mode. Clears any
    /// previously recorded events.
    pub fn enable(&self, mode: TraceMode) {
        if let TraceMode::Ring(cap) = mode {
            assert!(cap > 0, "ring capacity must be nonzero");
        }
        self.inner.enabled.set(true);
        self.inner.mode.set(mode);
        self.inner.events.borrow_mut().clear();
        self.inner.dropped.set(0);
    }

    /// Whether recording is on. Instrumentation that must compute argument
    /// values should gate on this to keep the disabled path free.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.events.borrow().len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.inner.events.borrow().is_empty()
    }

    /// Events discarded by ring eviction.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    fn push(&self, ev: Event) {
        match self.inner.mode.get() {
            TraceMode::Full => self.inner.events.borrow_mut().push_back(ev),
            TraceMode::Ring(cap) => {
                let mut q = self.inner.events.borrow_mut();
                if q.len() == cap {
                    q.pop_front();
                    self.inner.dropped.set(self.inner.dropped.get() + 1);
                }
                q.push_back(ev);
            }
        }
    }

    /// Record an instant event at the current virtual time.
    #[inline]
    pub fn instant(
        &self,
        node: u32,
        subsys: Subsys,
        name: &'static str,
        args: Vec<(&'static str, ArgVal)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.instant_at(self.inner.sim.now(), node, subsys, name, args);
    }

    /// Record an instant event with an explicit timestamp. Used for events
    /// whose time is known statically (e.g. fault windows exported at plan
    /// install) so no runtime marker task has to run — spawning tasks for
    /// tracing would shift executor timer ordering.
    pub fn instant_at(
        &self,
        ts: SimTime,
        node: u32,
        subsys: Subsys,
        name: &'static str,
        args: Vec<(&'static str, ArgVal)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(Event {
            ts,
            node,
            subsys,
            name,
            ph: Ph::Instant,
            args,
        });
    }

    /// Start a span: returns the current virtual time to pass to
    /// [`Tracer::complete`], or `None` when disabled (callers skip the whole
    /// span bookkeeping on the fast path).
    #[inline]
    pub fn begin(&self) -> Option<SimTime> {
        if self.is_enabled() {
            Some(self.inner.sim.now())
        } else {
            None
        }
    }

    /// Finish a span opened with [`Tracer::begin`]; duration is measured on
    /// the virtual clock.
    pub fn complete(
        &self,
        t0: SimTime,
        node: u32,
        subsys: Subsys,
        name: &'static str,
        args: Vec<(&'static str, ArgVal)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let now = self.inner.sim.now();
        self.complete_at(t0, now.saturating_sub(t0), node, subsys, name, args);
    }

    /// Record a complete span with explicit start and duration (for spans
    /// whose bounds are known without observing the clock twice).
    pub fn complete_at(
        &self,
        ts: SimTime,
        dur_ns: SimTime,
        node: u32,
        subsys: Subsys,
        name: &'static str,
        args: Vec<(&'static str, ArgVal)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(Event {
            ts,
            node,
            subsys,
            name,
            ph: Ph::Complete { dur_ns },
            args,
        });
    }

    /// Record the start half of a flow arrow (e.g. a DLM lock request
    /// leaving the requester).
    pub fn flow_start(&self, id: u64, node: u32, subsys: Subsys, name: &'static str) {
        if !self.is_enabled() {
            return;
        }
        self.push(Event {
            ts: self.inner.sim.now(),
            node,
            subsys,
            name,
            ph: Ph::FlowStart { id },
            args: Vec::new(),
        });
    }

    /// Record the end half of a flow arrow (e.g. the grant arriving back).
    pub fn flow_end(&self, id: u64, node: u32, subsys: Subsys, name: &'static str) {
        if !self.is_enabled() {
            return;
        }
        self.push(Event {
            ts: self.inner.sim.now(),
            node,
            subsys,
            name,
            ph: Ph::FlowEnd { id },
            args: Vec::new(),
        });
    }

    /// Snapshot the retained events in record order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.borrow().iter().cloned().collect()
    }

    /// Export the retained events as Chrome trace-event JSON (the format
    /// Perfetto and `chrome://tracing` load). One process track per node,
    /// one thread track per subsystem. Deterministic: same events in, same
    /// bytes out.
    pub fn export_chrome_json(&self) -> String {
        export_chrome_json(&self.events())
    }
}

/// Render `events` as a Chrome trace-event JSON document.
pub fn export_chrome_json(events: &[Event]) -> String {
    // Track metadata first: name each (node, subsys) pair that appears, in
    // sorted order so the preamble is stable regardless of event order.
    let mut pairs: Vec<(u32, Subsys)> = events.iter().map(|e| (e.node, e.subsys)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut nodes: Vec<u32> = pairs.iter().map(|&(n, _)| n).collect();
    nodes.dedup();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit").string("ns");
    w.key("traceEvents").begin_array();
    for &node in &nodes {
        w.begin_object();
        w.key("ph").string("M");
        w.key("name").string("process_name");
        w.key("pid").u64(node as u64);
        w.key("tid").u64(0);
        w.key("args").begin_object();
        w.key("name").string(&format!("node{node}"));
        w.end_object();
        w.end_object();
    }
    for &(node, subsys) in &pairs {
        w.begin_object();
        w.key("ph").string("M");
        w.key("name").string("thread_name");
        w.key("pid").u64(node as u64);
        w.key("tid").u64(subsys.tid() as u64);
        w.key("args").begin_object();
        w.key("name").string(subsys.label());
        w.end_object();
        w.end_object();
    }
    for ev in events {
        w.begin_object();
        w.key("name").string(ev.name);
        w.key("cat").string(ev.subsys.label());
        match ev.ph {
            Ph::Instant => {
                w.key("ph").string("i");
                w.key("s").string("t");
            }
            Ph::Complete { dur_ns } => {
                w.key("ph").string("X");
                w.key("dur").raw(&us_fixed(dur_ns));
            }
            Ph::FlowStart { id } => {
                w.key("ph").string("s");
                w.key("id").u64(id);
            }
            Ph::FlowEnd { id } => {
                w.key("ph").string("f");
                w.key("bp").string("e");
                w.key("id").u64(id);
            }
        }
        w.key("ts").raw(&us_fixed(ev.ts));
        w.key("pid").u64(ev.node as u64);
        w.key("tid").u64(ev.subsys.tid() as u64);
        if !ev.args.is_empty() {
            w.key("args").begin_object();
            for (k, v) in &ev.args {
                w.key(k);
                match v {
                    ArgVal::U(x) => w.u64(*x),
                    ArgVal::I(x) => w.i64(*x),
                    ArgVal::F(x) => w.f64(*x),
                    ArgVal::S(x) => w.string(x),
                };
            }
            w.end_object();
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Nanoseconds rendered as microseconds with fixed 3-decimal precision,
/// via integer math only — `12345` ns → `"12.345"`. Chrome `ts`/`dur` are
/// in microseconds; going through floats here would invite rounding noise
/// into the byte-identical-export guarantee.
fn us_fixed(ns: SimTime) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use dc_sim::time::us;
    use dc_sim::Sim;

    fn traced_sim(mode: TraceMode) -> (Sim, Tracer) {
        let sim = Sim::new();
        let tr = Tracer::new(sim.handle());
        tr.enable(mode);
        (sim, tr)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let sim = Sim::new();
        let tr = Tracer::new(sim.handle());
        assert!(!tr.is_enabled());
        tr.instant(0, Subsys::App, "x", vec![]);
        assert!(tr.begin().is_none());
        assert!(tr.is_empty());
    }

    #[test]
    fn spans_measure_virtual_time() {
        let (sim, tr) = traced_sim(TraceMode::Full);
        let h = sim.handle();
        let tr2 = tr.clone();
        sim.run_to(async move {
            let t0 = tr2.begin().unwrap();
            h.sleep(us(7)).await;
            tr2.complete(
                t0,
                3,
                Subsys::Fabric,
                "verb.read",
                vec![("bytes", 64u64.into())],
            );
        });
        let evs = tr.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].ts, 0);
        assert_eq!(evs[0].node, 3);
        assert_eq!(evs[0].ph, Ph::Complete { dur_ns: us(7) });
        assert_eq!(evs[0].args, vec![("bytes", ArgVal::U(64))]);
    }

    #[test]
    fn ring_mode_evicts_oldest_and_counts_drops() {
        let (_sim, tr) = traced_sim(TraceMode::Ring(3));
        for i in 0..5u64 {
            tr.instant_at(i, 0, Subsys::App, "tick", vec![("i", i.into())]);
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 2);
        let ts: Vec<_> = tr.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn enable_resets_state() {
        let (_sim, tr) = traced_sim(TraceMode::Ring(2));
        tr.instant_at(0, 0, Subsys::App, "a", vec![]);
        tr.instant_at(1, 0, Subsys::App, "b", vec![]);
        tr.instant_at(2, 0, Subsys::App, "c", vec![]);
        assert_eq!(tr.dropped(), 1);
        tr.enable(TraceMode::Full);
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 0);
    }

    #[test]
    fn export_is_valid_json_and_deterministic() {
        let (_sim, tr) = traced_sim(TraceMode::Full);
        tr.instant_at(us(1), 1, Subsys::Fault, "drop", vec![("src", 0u32.into())]);
        tr.complete_at(
            us(2),
            us(5),
            0,
            Subsys::Dlm,
            "lock",
            vec![("lock", 7u64.into())],
        );
        tr.flow_start(42, 0, Subsys::Dlm, "lock.req");
        let a = tr.export_chrome_json();
        let b = tr.export_chrome_json();
        assert_eq!(a, b);
        assert!(validate(&a).is_ok(), "export must parse: {a}");
        assert!(a.contains("\"process_name\""));
        assert!(a.contains("\"thread_name\""));
        assert!(a.contains("\"ts\":2.000"));
        assert!(a.contains("\"dur\":5.000"));
    }

    #[test]
    fn us_fixed_uses_integer_math() {
        assert_eq!(us_fixed(0), "0.000");
        assert_eq!(us_fixed(999), "0.999");
        assert_eq!(us_fixed(1_000), "1.000");
        assert_eq!(us_fixed(12_345), "12.345");
    }
}
