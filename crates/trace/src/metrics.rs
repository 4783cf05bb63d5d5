//! Unified metrics registry.
//!
//! Every layer registers named counters, gauges, and latency histograms
//! here instead of keeping private `Cell` fields. Names are dotted paths
//! (`"fabric.verbs.read"`, `"fault.dropped_msgs"`, `"coopcache.local_hits"`)
//! and enumeration is deterministic: the registry keeps its entries in a
//! `Vec` sorted by name, so snapshots and JSON exports list metrics in
//! lexicographic name order regardless of registration order.
//!
//! Registering costs a fixed amount per registry, not an amount per name:
//! names are copied into one `String` arena, the sorted entry list is
//! reserved for `FIRST_ENTRIES` on first use, and counters and gauges are
//! cells of shared `BLOCK`-cell blocks, one allocation per block. A
//! histogram is its own `Rc`.
//!
//! Handles are `Rc`-backed and `Clone`; incrementing is a `Cell` bump with
//! no registry lookup, so hot paths pre-register their handles once.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use dc_sim::SimTime;

use crate::hist::{HistSummary, StreamHist};
use crate::json::JsonWriter;

/// Cells per shared block. A power of two, so a handle masks its index with
/// `BLOCK - 1` and a bump carries no bounds check.
const BLOCK: usize = 32;
const _: () = assert!(BLOCK.is_power_of_two());

/// Entries a registry reserves on its first registration: a cluster's
/// registry holds 18–33 names (33 with a cooperative cache on it), so the
/// list never grows.
const FIRST_ENTRIES: usize = 40;

/// Name bytes a registry's arena reserves on its first registration: a
/// cluster's names are about 20 bytes each.
const FIRST_NAME_BYTES: usize = 768;

/// One cell of a shared block: the storage behind a [`Counter`] or
/// [`Gauge`]. Gauges keep their `i64` level as its two's-complement bits.
#[derive(Clone)]
struct Slot {
    block: Rc<[Cell<u64>; BLOCK]>,
    index: usize,
}

impl Slot {
    #[inline]
    fn cell(&self) -> &Cell<u64> {
        &self.block[self.index & (BLOCK - 1)]
    }
}

/// Monotonically increasing event count.
#[derive(Clone)]
pub struct Counter(Slot);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        let c = self.0.cell();
        c.set(c.get() + n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.cell().get()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// Point-in-time level (queue depths, occupancy). Also usable as a
/// high-water mark via [`Gauge::set_max`].
#[derive(Clone)]
pub struct Gauge(Slot);

impl Gauge {
    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.cell().set(v as u64);
    }

    /// Add signed `delta` to the level.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.set(self.get() + delta);
    }

    /// Raise the level to `v` if `v` is higher (high-water-mark tracking).
    #[inline]
    pub fn set_max(&self, v: i64) {
        if v > self.get() {
            self.set(v);
        }
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.cell().get() as i64
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
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

/// One registered metric: its name's bytes in the arena and its handle.
struct Entry {
    name: Range<usize>,
    metric: Metric,
}

#[derive(Default)]
struct Store {
    /// Every registered name, back to back.
    names: String,
    /// Sorted by name.
    entries: Vec<Entry>,
    /// The block new counters and gauges take cells from, and how many of
    /// its cells are taken.
    block: Option<Rc<[Cell<u64>; BLOCK]>>,
    taken: usize,
}

impl Store {
    fn name(&self, e: &Entry) -> &str {
        &self.names[e.name.clone()]
    }

    /// The next free cell, starting a new block when the current one is full.
    fn slot(&mut self) -> Slot {
        let block = match &self.block {
            Some(b) if self.taken < BLOCK => Rc::clone(b),
            _ => {
                let b = Rc::new(std::array::from_fn(|_| Cell::new(0)));
                self.block = Some(Rc::clone(&b));
                self.taken = 0;
                b
            }
        };
        let index = self.taken;
        self.taken = index + 1;
        Slot { block, index }
    }

    /// The metric named `name`, registered by `make` if it is new.
    fn get_or_insert(&mut self, name: &str, make: impl FnOnce(&mut Store) -> Metric) -> &Metric {
        let at = match self.entries.binary_search_by(|e| self.name(e).cmp(name)) {
            Ok(at) => at,
            Err(at) => {
                if self.entries.capacity() == 0 {
                    self.entries.reserve_exact(FIRST_ENTRIES);
                    self.names.reserve_exact(FIRST_NAME_BYTES);
                }
                let metric = make(self);
                let start = self.names.len();
                self.names.push_str(name);
                let name = start..self.names.len();
                self.entries.insert(at, Entry { name, metric });
                at
            }
        };
        &self.entries[at].metric
    }
}

/// Named registry of counters, gauges, and histograms.
#[derive(Default)]
pub struct Registry {
    store: RefCell<Store>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.store.borrow().entries.len())
            .finish()
    }
}

fn kind_mismatch(name: &str) -> ! {
    panic!("metric {name:?} already registered with a different kind")
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
    /// handle still pays only the binary search (prefer caching handles
    /// anyway).
    pub fn counter(&self, name: &str) -> Counter {
        let mut s = self.store.borrow_mut();
        match s.get_or_insert(name, |s| Metric::Counter(Counter(s.slot()))) {
            Metric::Counter(c) => c.clone(),
            _ => kind_mismatch(name),
        }
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut s = self.store.borrow_mut();
        match s.get_or_insert(name, |s| Metric::Gauge(Gauge(s.slot()))) {
            Metric::Gauge(g) => g.clone(),
            _ => kind_mismatch(name),
        }
    }

    /// Get or create the histogram named `name`.
    pub fn hist(&self, name: &str) -> HistHandle {
        let mut s = self.store.borrow_mut();
        match s.get_or_insert(name, |_| Metric::Hist(HistHandle::default())) {
            Metric::Hist(h) => h.clone(),
            _ => kind_mismatch(name),
        }
    }

    /// All registered metric names, lexicographically sorted.
    pub fn names(&self) -> Vec<String> {
        let s = self.store.borrow();
        s.entries.iter().map(|e| s.name(e).to_string()).collect()
    }

    /// Read every metric at once, in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let s = self.store.borrow();
        let values = s
            .entries
            .iter()
            .map(|e| {
                let v = match &e.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Hist(h) => MetricValue::Hist(h.summary()),
                };
                (s.name(e).to_string(), v)
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

    /// Counters and gauges registered in turn fill three shared blocks;
    /// each name keeps its own cell, a name registered again after its
    /// block has filled gets that same cell back, and the snapshot lists
    /// every name in order.
    #[test]
    fn every_name_gets_its_own_cell_across_blocks() {
        let r = Registry::new();
        let n = 2 * BLOCK + 6;
        let name = |i: usize| format!("m.{:03}", n - i);
        let bump = |i: usize| {
            if i.is_multiple_of(2) {
                r.counter(&name(i)).add(i as u64 + 1);
            } else {
                r.gauge(&name(i)).set(-(i as i64) - 1);
            }
        };
        (0..n).for_each(bump);
        for i in 0..n {
            if i.is_multiple_of(2) {
                assert_eq!(r.counter(&name(i)).get(), i as u64 + 1, "{}", name(i));
            } else {
                assert_eq!(r.gauge(&name(i)).get(), -(i as i64) - 1, "{}", name(i));
            }
        }
        let first = r.counter(&name(0));
        first.inc();
        assert_eq!(
            r.counter(&name(0)).get(),
            2,
            "re-registering made a new cell"
        );
        assert_eq!(r.counter(&name(2)).get(), 3, "a neighbour's cell moved");
        let snap = r.snapshot();
        let names: Vec<_> = snap.values.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted: Vec<_> = (0..n).map(name).collect();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(r.names(), sorted);
        assert_eq!(snap.counter(&name(n - 2)), (n - 1) as u64);
        assert_eq!(snap.gauge(&name(n - 1)), -(n as i64));
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
