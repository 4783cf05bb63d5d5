//! The `Wire` codec trait and little-endian buffer helpers.
//!
//! Every control-plane message in the stack (DDSS allocation ops, DLM
//! protocol messages, reconfiguration assignments, kernel-statistics
//! snapshots) implements [`Wire`] instead of hand-rolling
//! `u64::from_le_bytes` offset arithmetic at each call site. Encodings are
//! part of the simulator's timing model — message length feeds the fabric's
//! byte-time cost — so implementations must be stable: round-tripping is
//! enforced by proptests in `tests/wire_roundtrip.rs` at the workspace root.

use std::cell::RefCell;

use bytes::Bytes;
use dc_fabric::kstat::{KernelStats, KSTAT_REGION_LEN};

thread_local! {
    /// Reused encode buffer backing [`Wire::encode_bytes`]. Message encoding
    /// sits on every protocol hot path; reusing one scratch `Vec` keeps the
    /// common small-message case completely allocation-free (the resulting
    /// `Bytes` stores short payloads inline).
    static ENCODE_SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::with_capacity(64));
}

/// A message that can be encoded to and decoded from raw bytes.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decode a value from `bytes`; `None` on malformed input.
    fn decode(bytes: &[u8]) -> Option<Self>;

    /// Encode into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode straight into a [`Bytes`] payload via a reused thread-local
    /// scratch buffer: allocation-free for messages short enough to store
    /// inline (every DLM/DDSS control message qualifies).
    fn encode_bytes(&self) -> Bytes {
        ENCODE_SCRATCH.with(|s| {
            let mut v = s.borrow_mut();
            v.clear();
            self.encode_into(&mut v);
            Bytes::copy_from_slice(&v)
        })
    }
}

/// Chainable little-endian writer over a byte buffer.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Write into (append to) `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { out }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.out.push(v);
        self
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.out.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.out.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.out.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append raw bytes verbatim (length is the caller's framing concern).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.out.extend_from_slice(v);
        self
    }
}

/// Cursor-style little-endian reader; every accessor returns `None` on
/// underrun so decoders stay panic-free on malformed input.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read from the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let (&v, rest) = self.buf.split_first()?;
        self.buf = rest;
        Some(v)
    }

    /// Consume a little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    /// Everything not yet consumed.
    pub fn rest(self) -> &'a [u8] {
        self.buf
    }

    /// `Some(v)` only if the whole input was consumed — use as the last step
    /// of a decoder to reject trailing garbage.
    pub fn finish<T>(self, v: T) -> Option<T> {
        if self.buf.is_empty() {
            Some(v)
        } else {
            None
        }
    }
}

/// Kernel-statistics snapshots travel as the raw bytes of the registered
/// kstat region ([`KernelStats::to_block`]: fixed [`KSTAT_REGION_LEN`]
/// layout, zero-padded past the last field), whether read one-sided or
/// returned by a socket daemon.
impl Wire for KernelStats {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_block());
    }

    fn decode(bytes: &[u8]) -> Option<KernelStats> {
        if bytes.len() < KSTAT_REGION_LEN {
            return None;
        }
        Some(KernelStats::decode(bytes))
    }

    /// Straight from the stack block, not through the thread-local scratch:
    /// the payload is the only buffer, and a sweep's allocation count does
    /// not depend on how many worker threads happened to encode a snapshot.
    fn encode_bytes(&self) -> Bytes {
        Bytes::copy_from_slice(&self.to_block())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_rejects_underrun_and_trailing_bytes() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u16(), Some(0x0201));
        assert_eq!(r.u16(), None);
        assert_eq!(r.u8(), Some(3));

        let r = Reader::new(&[7, 9]);
        assert_eq!(r.finish(()), None);
        let mut r = Reader::new(&[7, 9]);
        r.u16().unwrap();
        assert_eq!(r.finish(42), Some(42));
    }

    #[test]
    fn writer_reader_round_trip_all_widths() {
        let mut buf = Vec::new();
        Writer::new(&mut buf)
            .u8(0xab)
            .u16(0x1234)
            .u32(0xdead_beef)
            .u64(0x0123_4567_89ab_cdef)
            .bytes(b"tail");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(0xab));
        assert_eq!(r.u16(), Some(0x1234));
        assert_eq!(r.u32(), Some(0xdead_beef));
        assert_eq!(r.u64(), Some(0x0123_4567_89ab_cdef));
        assert_eq!(r.rest(), b"tail");
    }

    #[test]
    fn kernel_stats_wire_matches_region_layout() {
        let s = KernelStats {
            run_queue: 3,
            app_threads: 17,
            busy_ns: 123_456_789,
            version: 42,
            conns: 8,
            accept_queue: 2,
        };
        let bytes = Wire::encode(&s);
        assert_eq!(bytes, s.to_block());
        assert_eq!(&s.encode_bytes()[..], &bytes[..]);
        assert_eq!(<KernelStats as Wire>::decode(&bytes), Some(s));
        assert_eq!(<KernelStats as Wire>::decode(&bytes[..32]), None);
    }
}
