//! Shared tunables of the lock-manager schemes.

/// Cost constants for the DLM agents and the SRSL server. Every protocol
/// message rides the reliable transport: grant authority travels
/// peer-to-peer in these schemes, so a message undeliverable past the retry
/// budget is a fatal protocol failure (the lock would be orphaned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlmConfig {
    /// Processing time an agent spends on one incoming message.
    pub agent_proc_ns: u64,
    /// Per-outgoing-message issue time at a granter (descriptor prep +
    /// doorbell, charged serially when a node grants a batch).
    pub grant_issue_ns: u64,
    /// CPU time the SRSL server consumes per request or release message
    /// (competes with any other load on the server node).
    pub server_cpu_ns: u64,
    /// CAS-spin design: pause between failed CAS attempts (plus a small
    /// deterministic per-node jitter so spinners do not phase-lock).
    pub spin_retry_ns: u64,
    /// Lease design: initial backoff after a failed acquisition attempt;
    /// doubles per consecutive failure up to [`DlmConfig::backoff_max_ns`].
    pub backoff_base_ns: u64,
    /// Lease design: exponential-backoff ceiling.
    pub backoff_max_ns: u64,
    /// Lease design: ownership duration granted per acquisition. Mutual
    /// exclusion holds only for critical sections shorter than this bound
    /// (see the `LockClient` contract in DESIGN.md §10).
    pub lease_ns: u64,
}

impl Default for DlmConfig {
    fn default() -> Self {
        DlmConfig {
            agent_proc_ns: 500,
            grant_issue_ns: 2_000,
            server_cpu_ns: 2_000,
            // One remote atomic is ~12.5us round trip; spinning much faster
            // than that only burns fabric, much slower starves the spinner.
            spin_retry_ns: 20_000,
            backoff_base_ns: 15_000,
            backoff_max_ns: 240_000,
            lease_ns: 2_000_000,
        }
    }
}

/// Requested lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Multiple concurrent holders.
    Shared,
    /// Single holder.
    Exclusive,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DlmConfig::default();
        assert!(c.agent_proc_ns < c.grant_issue_ns);
        assert!(c.server_cpu_ns > 0);
        assert!(c.backoff_base_ns <= c.backoff_max_ns);
        // A lease must comfortably outlast the spin/backoff cadence, or
        // healthy holders would be stolen from mid-critical-section.
        assert!(c.lease_ns > 4 * c.backoff_max_ns);
        assert!(c.spin_retry_ns > 0);
    }
}
