//! Unified metrics registry.
//!
//! Every layer registers named counters, gauges, and latency histograms
//! here instead of keeping private `Cell` fields. Names are dotted paths
//! (`"fabric.verbs.read"`, `"fault.dropped_msgs"`, `"coopcache.local_hits"`)
//! and enumeration is deterministic: storage is a `BTreeMap`, so snapshots
//! and JSON exports list metrics in lexicographic name order regardless of
//! registration order.
//!
//! Handles are `Rc`-backed and `Clone`; incrementing is a `Cell` bump with
//! no registry lookup, so hot paths pre-register their handles once.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use dc_sim::SimTime;

use crate::hist::{HistSummary, StreamHist};
use crate::json::JsonWriter;

/// Monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.set(self.0.get() + 1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// Point-in-time level (queue depths, occupancy). Also usable as a
/// high-water mark via [`Gauge::set_max`].
#[derive(Clone, Debug, Default)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }

    /// Add signed `delta` to the level.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.set(self.0.get() + delta);
    }

    /// Raise the level to `v` if `v` is higher (high-water-mark tracking).
    #[inline]
    pub fn set_max(&self, v: i64) {
        if v > self.0.get() {
            self.0.set(v);
        }
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.get()
    }
}

/// Shared handle to a registered latency histogram: a streaming
/// constant-memory [`StreamHist`], so recording never allocates.
#[derive(Clone, Debug, Default)]
pub struct HistHandle(Rc<RefCell<StreamHist>>);

impl HistHandle {
    /// Record one latency sample.
    #[inline]
    pub fn record(&self, ns: SimTime) {
        self.0.borrow_mut().record(ns);
    }

    /// Summarise the histogram's headline statistics.
    pub fn summary(&self) -> HistSummary {
        self.0.borrow().summary()
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Hist(HistHandle),
}

/// The value of one metric in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram summary.
    Hist(HistSummary),
}

/// Named registry of counters, gauges, and histograms.
#[derive(Default)]
pub struct Registry {
    metrics: RefCell<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.metrics.borrow().len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`. Registering the same name
    /// twice returns the same underlying cell; registering it as a
    /// different kind panics (names are a flat namespace).
    ///
    /// A lookup hit allocates nothing, so a caller without a pre-registered
    /// handle still pays only the map walk (prefer caching handles anyway).
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.borrow_mut();
        match m.get(name) {
            Some(Metric::Counter(c)) => c.clone(),
            Some(_) => panic!("metric {name:?} already registered with a different kind"),
            None => {
                let c = Counter::default();
                m.insert(name.to_string(), Metric::Counter(c.clone()));
                c
            }
        }
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.borrow_mut();
        match m.get(name) {
            Some(Metric::Gauge(g)) => g.clone(),
            Some(_) => panic!("metric {name:?} already registered with a different kind"),
            None => {
                let g = Gauge::default();
                m.insert(name.to_string(), Metric::Gauge(g.clone()));
                g
            }
        }
    }

    /// Get or create the histogram named `name`.
    pub fn hist(&self, name: &str) -> HistHandle {
        let mut m = self.metrics.borrow_mut();
        match m.get(name) {
            Some(Metric::Hist(h)) => h.clone(),
            Some(_) => panic!("metric {name:?} already registered with a different kind"),
            None => {
                let h = HistHandle::default();
                m.insert(name.to_string(), Metric::Hist(h.clone()));
                h
            }
        }
    }

    /// All registered metric names, lexicographically sorted.
    pub fn names(&self) -> Vec<String> {
        self.metrics.borrow().keys().cloned().collect()
    }

    /// Read every metric at once, in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let values = self
            .metrics
            .borrow()
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Hist(h) => MetricValue::Hist(h.summary()),
                };
                (name.clone(), v)
            })
            .collect();
        MetricsSnapshot { values }
    }
}

/// A flat, name-ordered reading of every metric in a registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in lexicographic name order.
    pub values: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Look up one metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.values[i].1)
    }

    /// Convenience: the counter named `name`, or 0 if absent/not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Convenience: the gauge named `name`, or 0 if absent/not a gauge.
    pub fn gauge(&self, name: &str) -> i64 {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Render as a JSON object keyed by metric name. Counters and gauges
    /// become numbers; histograms become `{count,min_ns,...}` objects.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        for (name, v) in &self.values {
            w.key(name);
            match v {
                MetricValue::Counter(c) => {
                    w.u64(*c);
                }
                MetricValue::Gauge(g) => {
                    w.i64(*g);
                }
                MetricValue::Hist(h) => {
                    w.begin_object();
                    w.key("count").u64(h.count);
                    w.key("min_ns").u64(h.min_ns);
                    w.key("max_ns").u64(h.max_ns);
                    w.key("mean_ns").u64(h.mean_ns);
                    w.key("p50_ns").u64(h.p50_ns);
                    w.key("p99_ns").u64(h.p99_ns);
                    w.key("p999_ns").u64(h.p999_ns);
                    w.end_object();
                }
            }
        }
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use dc_sim::time::us;

    #[test]
    fn counters_share_storage_by_name() {
        let r = Registry::new();
        let a = r.counter("fabric.verbs.read");
        let b = r.counter("fabric.verbs.read");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 5);
    }

    #[test]
    fn gauge_levels_and_high_water_mark() {
        let r = Registry::new();
        let g = r.gauge("sockets.reorder_depth");
        g.set(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
        g.set_max(7);
        g.set_max(5);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn hist_handles_record_and_summarise() {
        let r = Registry::new();
        let h = r.hist("dlm.lock_latency");
        h.record(us(10));
        h.record(us(20));
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.mean_ns, us(15));
    }

    #[test]
    fn enumeration_is_sorted_regardless_of_registration_order() {
        let r = Registry::new();
        r.counter("z.last");
        r.gauge("a.first");
        r.hist("m.middle");
        assert_eq!(r.names(), vec!["a.first", "m.middle", "z.last"]);
        let snap = r.snapshot();
        let names: Vec<_> = snap.values.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn snapshot_reads_and_lookups() {
        let r = Registry::new();
        r.counter("c").add(9);
        r.gauge("g").set(-3);
        r.hist("h").record(us(1));
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), 9);
        assert_eq!(snap.gauge("g"), -3);
        assert_eq!(snap.counter("missing"), 0);
        match snap.get("h") {
            Some(MetricValue::Hist(s)) => assert_eq!(s.count, 1),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn snapshot_json_is_valid_and_deterministic() {
        let r = Registry::new();
        r.counter("fabric.verbs.read").add(2);
        r.gauge("sockets.reorder_hwm").set(4);
        r.hist("app.latency").record(us(5));
        let a = r.snapshot().to_json();
        let b = r.snapshot().to_json();
        assert_eq!(a, b);
        assert!(validate(&a).is_ok(), "snapshot must parse: {a}");
        assert!(a.starts_with("{\"app.latency\":{\"count\":1"));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    /// Registered-but-never-touched metrics must still appear in the
    /// snapshot (and its JSON) with explicit zero values — absence and
    /// zero are different facts, and cross-run diffs rely on the
    /// distinction.
    #[test]
    fn snapshot_includes_registered_but_zero_metrics() {
        let r = Registry::new();
        r.counter("fault.dropped_msgs");
        r.gauge("idle.depth");
        r.hist("quiet.latency");
        let snap = r.snapshot();
        assert_eq!(snap.values.len(), 3);
        assert_eq!(
            snap.get("fault.dropped_msgs"),
            Some(&MetricValue::Counter(0))
        );
        assert_eq!(snap.get("idle.depth"), Some(&MetricValue::Gauge(0)));
        assert_eq!(
            snap.get("quiet.latency"),
            Some(&MetricValue::Hist(crate::HistSummary::default()))
        );
        let json = snap.to_json();
        assert!(json.contains("\"fault.dropped_msgs\":0"), "{json}");
        assert!(json.contains("\"idle.depth\":0"), "{json}");
        assert!(validate(&json).is_ok());
    }
}
