//! Kernel statistics block — the registered kernel data structure.
//!
//! The paper's monitoring design registers the kernel data structures that
//! hold resource-usage information with the NIC, letting a front-end node
//! read them with one-sided RDMA. We mirror that: each node's CPU model
//! keeps a fixed-layout block of counters inside registered region 0, at
//! [`KSTAT_REGION_LEN`] bytes. Monitoring schemes `rdma_read` the block (or
//! socket-query a user-level daemon that reads it locally).

/// Byte length of the kernel statistics region.
pub const KSTAT_REGION_LEN: usize = 64;

/// Field offsets (all 8-byte-aligned u64 little-endian).
pub mod offsets {
    /// Length of the CPU run queue (running + ready tasks).
    pub const RUN_QUEUE: usize = 0;
    /// Number of live application threads registered on the node.
    pub const APP_THREADS: usize = 8;
    /// Accumulated busy CPU nanoseconds.
    pub const BUSY_NS: usize = 16;
    /// Monotonic version, bumped on every update (torn-read detection).
    pub const VERSION: usize = 24;
    /// Open connection count. Nothing opens a connection, so it reads 0; the
    /// word keeps the block's layout.
    pub const CONNS: usize = 32;
    /// Requests currently queued in the application accept queue.
    pub const ACCEPT_QUEUE: usize = 40;
}

/// Decoded snapshot of a node's kernel statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Running + ready tasks on the CPU.
    pub run_queue: u64,
    /// Live application threads.
    pub app_threads: u64,
    /// Accumulated busy nanoseconds.
    pub busy_ns: u64,
    /// Update version counter.
    pub version: u64,
    /// Open connections.
    pub conns: u64,
    /// Application accept-queue depth.
    pub accept_queue: u64,
}

impl KernelStats {
    /// The snapshot as the bytes of a kstat region, zero-padded past the
    /// last field — what the CPU model publishes into registered memory and
    /// what a socket daemon sends back, built on the stack either way.
    pub fn to_block(&self) -> [u8; KSTAT_REGION_LEN] {
        let mut block = [0u8; KSTAT_REGION_LEN];
        for (off, v) in [
            (offsets::RUN_QUEUE, self.run_queue),
            (offsets::APP_THREADS, self.app_threads),
            (offsets::BUSY_NS, self.busy_ns),
            (offsets::VERSION, self.version),
            (offsets::CONNS, self.conns),
            (offsets::ACCEPT_QUEUE, self.accept_queue),
        ] {
            block[off..off + 8].copy_from_slice(&v.to_le_bytes());
        }
        block
    }

    /// Decode a snapshot from the raw bytes of a kstat region read.
    pub fn decode(bytes: &[u8]) -> KernelStats {
        assert!(
            bytes.len() >= KSTAT_REGION_LEN,
            "kstat read must cover the whole block"
        );
        let f = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        KernelStats {
            run_queue: f(offsets::RUN_QUEUE),
            app_threads: f(offsets::APP_THREADS),
            busy_ns: f(offsets::BUSY_NS),
            version: f(offsets::VERSION),
            conns: f(offsets::CONNS),
            accept_queue: f(offsets::ACCEPT_QUEUE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::RegionData;

    #[test]
    fn encode_decode_round_trip() {
        let region = RegionData::new(KSTAT_REGION_LEN);
        let s = KernelStats {
            run_queue: 3,
            app_threads: 17,
            busy_ns: 123_456_789,
            version: 42,
            conns: 8,
            accept_queue: 2,
        };
        region.write(0, &s.to_block());
        let bytes = region.read(0, KSTAT_REGION_LEN);
        assert_eq!(KernelStats::decode(&bytes), s);
    }

    #[test]
    fn zeroed_region_decodes_to_default() {
        let region = RegionData::new(KSTAT_REGION_LEN);
        let bytes = region.read(0, KSTAT_REGION_LEN);
        assert_eq!(KernelStats::decode(&bytes), KernelStats::default());
    }

    #[test]
    fn block_is_the_region_image() {
        let s = KernelStats {
            run_queue: 1,
            app_threads: 2,
            busy_ns: 3,
            version: 4,
            conns: 5,
            accept_queue: 6,
        };
        let block = s.to_block();
        assert_eq!(KernelStats::decode(&block), s);
        assert!(block[offsets::ACCEPT_QUEUE + 8..].iter().all(|&b| b == 0));
        let region = RegionData::new(KSTAT_REGION_LEN);
        region.write(0, &block);
        assert_eq!(region.read_array::<KSTAT_REGION_LEN>(0), block);
    }

    #[test]
    #[should_panic(expected = "whole block")]
    fn short_read_panics() {
        KernelStats::decode(&[0; 16]);
    }
}
