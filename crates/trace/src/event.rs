//! Trace event model.
//!
//! Events are recorded in executor order with virtual (`SimTime`) timestamps
//! only — no wall clock anywhere — so the same seed and configuration yield
//! the same event sequence byte for byte. Each event is scoped by the node
//! it happened on and by subsystem; the Chrome exporter maps node → process
//! track and subsystem → thread track.

use dc_sim::SimTime;

/// The layer an event belongs to. Maps to a Perfetto thread track within the
/// node's process track; variants are ordered the way tracks should appear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsys {
    /// RDMA-style fabric verbs (read/write/CAS/FAA/send).
    Fabric,
    /// Socket lanes and flow-control machinery.
    Sockets,
    /// Distributed lock manager protocols.
    Dlm,
    /// Distributed data sharing substrate.
    Ddss,
    /// Cooperative cache service.
    Coopcache,
    /// Active resource monitoring.
    Resmon,
    /// Injected faults (drops, crashes, stalls, latency windows).
    Fault,
    /// Application / experiment-harness level markers.
    App,
}

impl Subsys {
    /// Stable lowercase label used in exports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            Subsys::Fabric => "fabric",
            Subsys::Sockets => "sockets",
            Subsys::Dlm => "dlm",
            Subsys::Ddss => "ddss",
            Subsys::Coopcache => "coopcache",
            Subsys::Resmon => "resmon",
            Subsys::Fault => "fault",
            Subsys::App => "app",
        }
    }

    /// Thread-track id within a node's process track (stable across runs).
    pub fn tid(self) -> u32 {
        match self {
            Subsys::Fabric => 1,
            Subsys::Sockets => 2,
            Subsys::Dlm => 3,
            Subsys::Ddss => 4,
            Subsys::Coopcache => 5,
            Subsys::Resmon => 6,
            Subsys::Fault => 7,
            Subsys::App => 8,
        }
    }

    /// Every subsystem, in track order (used to emit track metadata).
    pub const ALL: [Subsys; 8] = [
        Subsys::Fabric,
        Subsys::Sockets,
        Subsys::Dlm,
        Subsys::Ddss,
        Subsys::Coopcache,
        Subsys::Resmon,
        Subsys::Fault,
        Subsys::App,
    ];
}

/// One typed event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// Unsigned integer.
    U(u64),
    /// Signed integer.
    I(i64),
    /// Float.
    F(f64),
    /// String.
    S(String),
}

impl From<u64> for ArgVal {
    fn from(v: u64) -> Self {
        ArgVal::U(v)
    }
}

impl From<u32> for ArgVal {
    fn from(v: u32) -> Self {
        ArgVal::U(v as u64)
    }
}

impl From<usize> for ArgVal {
    fn from(v: usize) -> Self {
        ArgVal::U(v as u64)
    }
}

impl From<i64> for ArgVal {
    fn from(v: i64) -> Self {
        ArgVal::I(v)
    }
}

impl From<f64> for ArgVal {
    fn from(v: f64) -> Self {
        ArgVal::F(v)
    }
}

impl From<&str> for ArgVal {
    fn from(v: &str) -> Self {
        ArgVal::S(v.to_string())
    }
}

impl From<String> for ArgVal {
    fn from(v: String) -> Self {
        ArgVal::S(v)
    }
}

/// Event phase, mirroring the Chrome trace-event phases the exporter emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ph {
    /// A point-in-time marker (`"i"`).
    Instant,
    /// A completed span of `dur_ns` (`"X"`).
    Complete {
        /// Span duration in virtual nanoseconds.
        dur_ns: SimTime,
    },
    /// Start of a flow arrow (`"s"`), linking to the matching `FlowEnd`.
    FlowStart {
        /// Flow correlation id; both halves must use the same id.
        id: u64,
    },
    /// End of a flow arrow (`"f"`, binding point `e`).
    FlowEnd {
        /// Flow correlation id; both halves must use the same id.
        id: u64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual timestamp. For `Complete` spans this is the span start.
    pub ts: SimTime,
    /// Node the event happened on (process track in the export).
    pub node: u32,
    /// Subsystem (thread track in the export).
    pub subsys: Subsys,
    /// Event name, e.g. `"verb.read"` or `"lock.acquire"`.
    pub name: &'static str,
    /// Phase and phase-specific payload.
    pub ph: Ph,
    /// Typed key/value arguments, in insertion order.
    pub args: Vec<(&'static str, ArgVal)>,
}

/// How the recorder bounds memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Keep every event (tests, short scenarios).
    Full,
    /// Keep only the most recent `N` events; older ones are dropped and
    /// counted.
    Ring(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsys_labels_and_tids_are_unique() {
        let mut labels: Vec<_> = Subsys::ALL.iter().map(|s| s.label()).collect();
        let mut tids: Vec<_> = Subsys::ALL.iter().map(|s| s.tid()).collect();
        labels.sort_unstable();
        labels.dedup();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(labels.len(), Subsys::ALL.len());
        assert_eq!(tids.len(), Subsys::ALL.len());
    }

    #[test]
    fn argval_from_impls() {
        assert_eq!(ArgVal::from(3u64), ArgVal::U(3));
        assert_eq!(ArgVal::from(3u32), ArgVal::U(3));
        assert_eq!(ArgVal::from(3usize), ArgVal::U(3));
        assert_eq!(ArgVal::from(-3i64), ArgVal::I(-3));
        assert_eq!(ArgVal::from(1.5f64), ArgVal::F(1.5));
        assert_eq!(ArgVal::from("x"), ArgVal::S("x".into()));
    }
}
