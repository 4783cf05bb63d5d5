//! STORM-like data-intensive query workload.
//!
//! Figure 3b runs "distributed STORM" — a middleware for data-intensive
//! applications that ships query results from data nodes to clients — over
//! DDSS versus traditional sockets, sweeping the number of records selected
//! (1K … 100K). We model the same shape: a query selects `records` records
//! of `record_bytes` each from a data node after a per-record scan cost.

/// Parameters of one STORM query workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormQuery {
    /// Records selected by the query.
    pub records: usize,
    /// Bytes per record (STORM's evaluation used ~100-byte tuples).
    pub record_bytes: usize,
    /// CPU scan cost per record at the data node.
    pub scan_ns_per_record: u64,
}

impl StormQuery {
    /// The record-count sweep of Figure 3b.
    pub const FIG3B_RECORDS: [usize; 4] = [1_000, 5_000, 10_000, 100_000];

    /// A query selecting `records` records with defaults matching the
    /// paper's setup.
    pub fn with_records(records: usize) -> StormQuery {
        StormQuery {
            records,
            record_bytes: 100,
            scan_ns_per_record: 600,
        }
    }

    /// Total result payload in bytes.
    pub fn result_bytes(&self) -> usize {
        self.records * self.record_bytes
    }

    /// Total scan CPU at the data node.
    pub fn scan_ns(&self) -> u64 {
        self.records as u64 * self.scan_ns_per_record
    }

    /// Split the result into transfer chunks of at most `chunk` bytes
    /// (DDSS segments / socket messages).
    pub fn chunks(&self, chunk: usize) -> Vec<usize> {
        assert!(chunk > 0);
        let total = self.result_bytes();
        let mut out = Vec::with_capacity(total.div_ceil(chunk));
        let mut left = total;
        while left > 0 {
            let n = left.min(chunk);
            out.push(n);
            left -= n;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_with_records() {
        let q = StormQuery::with_records(1_000);
        assert_eq!(q.result_bytes(), 100_000);
        assert_eq!(q.scan_ns(), 600_000);
        let big = StormQuery::with_records(100_000);
        assert_eq!(big.result_bytes(), 100 * q.result_bytes());
    }

    #[test]
    fn chunking_covers_exactly() {
        let q = StormQuery::with_records(1_000); // 100_000 bytes
        let chunks = q.chunks(32 * 1024);
        assert_eq!(chunks.iter().sum::<usize>(), 100_000);
        assert_eq!(chunks.len(), 4); // 3 × 32k + remainder
        assert!(chunks[..3].iter().all(|&c| c == 32 * 1024));
        assert_eq!(chunks[3], 100_000 - 3 * 32 * 1024);
    }

    #[test]
    fn sweep_matches_paper() {
        assert_eq!(StormQuery::FIG3B_RECORDS, [1_000, 5_000, 10_000, 100_000]);
    }
}
