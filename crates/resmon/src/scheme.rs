//! The monitoring schemes compared in Figures 8a and 8b.

use std::fmt;

/// How the front-end learns a back-end node's resource usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonitorScheme {
    /// On-demand query to a user-level daemon over host TCP. The daemon
    /// must be scheduled to answer, so replies lag under load.
    SocketSync,
    /// The back-end daemon pushes periodic updates over host TCP; pushes
    /// are delayed or skipped when the node is loaded.
    SocketAsync,
    /// On-demand one-sided RDMA read of the registered kernel statistics.
    RdmaSync,
    /// The front-end polls the registered kernel statistics with periodic
    /// RDMA reads into a local cache.
    RdmaAsync,
    /// Enhanced RDMA-Sync: the registered kernel block additionally exposes
    /// connection and accept-queue state, giving the load balancer a
    /// request-level view (the paper's e-RDMA variant).
    ERdmaSync,
}

impl MonitorScheme {
    /// The four schemes of Figure 8a (accuracy), in legend order.
    pub const FIG8A: [MonitorScheme; 4] = [
        MonitorScheme::SocketAsync,
        MonitorScheme::SocketSync,
        MonitorScheme::RdmaAsync,
        MonitorScheme::RdmaSync,
    ];

    /// The four schemes of Figure 8b (throughput), in legend order.
    pub const FIG8B: [MonitorScheme; 4] = [
        MonitorScheme::SocketSync,
        MonitorScheme::RdmaAsync,
        MonitorScheme::RdmaSync,
        MonitorScheme::ERdmaSync,
    ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            MonitorScheme::SocketSync => "Socket-Sync",
            MonitorScheme::SocketAsync => "Socket-Async",
            MonitorScheme::RdmaSync => "RDMA-Sync",
            MonitorScheme::RdmaAsync => "RDMA-Async",
            MonitorScheme::ERdmaSync => "e-RDMA-Sync",
        }
    }

    /// Whether the scheme needs a user-level daemon on the monitored node.
    pub fn needs_daemon(self) -> bool {
        matches!(self, MonitorScheme::SocketSync | MonitorScheme::SocketAsync)
    }
}

impl fmt::Display for MonitorScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_classification() {
        assert!(MonitorScheme::SocketSync.needs_daemon());
        assert!(MonitorScheme::SocketAsync.needs_daemon());
        assert!(!MonitorScheme::RdmaSync.needs_daemon());
    }

    #[test]
    fn labels_are_unique() {
        let mut all = vec![
            MonitorScheme::SocketSync,
            MonitorScheme::SocketAsync,
            MonitorScheme::RdmaSync,
            MonitorScheme::RdmaAsync,
            MonitorScheme::ERdmaSync,
        ];
        all.dedup_by_key(|s| s.label());
        assert_eq!(all.len(), 5);
    }
}
