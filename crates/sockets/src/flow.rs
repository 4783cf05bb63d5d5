//! Framing and flow-control accounting shared by the stream kinds.
//!
//! A wire chunk is a [`Chunk`]: a `Bytes::slice` window of the sender's
//! buffer plus a small header value (first-or-continuation, total message
//! length). The header never exists as bytes on the host: the lane packs it
//! with its sequence number into `Message.imm` ([`pack_imm`]) and the fabric
//! charges the bytes it stands for — [`FIRST_HDR`] or [`CONT_HDR`], what the
//! modelled stacks prepend — through the gather send's `hdr_len`. Every
//! flow-control and copy cost reads [`Chunk::wire_len`], the length of the
//! chunk *as framed on the wire*. Feedback messages (credit returns,
//! ring-space returns) are a bare count in `imm` over an empty payload,
//! charged [`FEEDBACK_HDR`] bytes.

use bytes::Bytes;

/// Modelled header bytes of a FIRST chunk (tag + u64 total length).
pub const FIRST_HDR: usize = 9;
/// Modelled header bytes of a continuation chunk (tag only).
pub const CONT_HDR: usize = 1;
/// Modelled wire bytes of a feedback message (a u64 count).
pub const FEEDBACK_HDR: usize = 8;

/// One wire chunk of an application message.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Whether this chunk opens its message.
    pub first: bool,
    /// Total length of the application message this chunk belongs to.
    pub total: usize,
    /// This chunk's window of the message.
    pub data: Bytes,
}

impl Chunk {
    /// A message that travels as one chunk, whatever its size.
    pub fn whole(data: Bytes) -> Chunk {
        Chunk {
            first: true,
            total: data.len(),
            data,
        }
    }

    /// Header bytes this chunk carries on the wire.
    pub fn hdr_len(&self) -> usize {
        if self.first {
            FIRST_HDR
        } else {
            CONT_HDR
        }
    }

    /// Framed length on the wire: what ring space, credits' buffers and
    /// copy costs are charged for.
    pub fn wire_len(&self) -> usize {
        self.hdr_len() + self.data.len()
    }
}

/// Pack a lane message header into the immediate word:
/// `[seq:32 | first:1 | total_len:31]`.
pub fn pack_imm(seq: u32, first: bool, total: usize) -> u64 {
    assert!(
        total < 1 << 31,
        "stream message of {total} bytes exceeds the 31-bit total_len field"
    );
    ((seq as u64) << 32) | ((first as u64) << 31) | total as u64
}

/// Inverse of [`pack_imm`]: `(seq, first, total)`.
pub fn unpack_imm(imm: u64) -> (u32, bool, usize) {
    (
        (imm >> 32) as u32,
        (imm >> 31) & 1 == 1,
        (imm & ((1 << 31) - 1)) as usize,
    )
}

/// Split one application message into wire chunks of at most `cap` framed
/// bytes each (headers included). `cap` must exceed [`FIRST_HDR`]. Always
/// yields at least the FIRST chunk, so empty messages frame too.
pub fn frame(data: Bytes, cap: usize) -> Frames {
    assert!(cap > FIRST_HDR, "chunk capacity too small for framing");
    Frames {
        data,
        cap,
        off: 0,
        first: true,
    }
}

/// Iterator over the chunks of one message; see [`frame`].
pub struct Frames {
    data: Bytes,
    cap: usize,
    off: usize,
    first: bool,
}

impl Iterator for Frames {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        let total = self.data.len();
        if !self.first && self.off == total {
            return None;
        }
        let hdr = if self.first { FIRST_HDR } else { CONT_HDR };
        let n = (self.cap - hdr).min(total - self.off);
        let chunk = Chunk {
            first: self.first,
            total,
            data: self.data.slice(self.off..self.off + n),
        };
        self.first = false;
        self.off += n;
        Some(chunk)
    }
}

/// Receiver-side reassembly of chunks back into application messages.
/// Chunks must arrive in order (the streams are SPSC FIFO lanes). [`frame`]
/// cuts a message into adjacent windows of one buffer, and they rejoin
/// here: a message of any chunk count comes back as the very buffer that
/// was sent. Chunks that are not such windows — of an inline (≤ 30-byte) or
/// static message, whose windows are values of their own, or built by hand
/// from separate buffers — are copied once into a buffer sized by the FIRST
/// chunk.
#[derive(Default)]
pub struct Reassembler {
    partial: Partial,
    expected: usize,
}

/// The message being reassembled.
#[derive(Default)]
enum Partial {
    #[default]
    None,
    /// Every chunk so far continued the one before: their union.
    Window(Bytes),
    /// Some chunk did not: everything so far, copied.
    Copy(Vec<u8>),
}

impl Reassembler {
    /// Create an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one wire chunk; returns the completed message if this chunk
    /// finished one.
    pub fn feed(&mut self, chunk: Chunk) -> Option<Bytes> {
        let got = match std::mem::take(&mut self.partial) {
            Partial::None => {
                assert!(chunk.first, "CONT chunk without a FIRST");
                self.expected = chunk.total;
                Partial::Window(chunk.data)
            }
            _ if chunk.first => panic!("FIRST chunk arrived mid-message (framing violated)"),
            Partial::Window(mut head) => match head.try_unsplit(chunk.data) {
                Ok(()) => Partial::Window(head),
                Err(data) => {
                    let mut buf = Vec::with_capacity(self.expected);
                    buf.extend_from_slice(&head);
                    buf.extend_from_slice(&data);
                    Partial::Copy(buf)
                }
            },
            Partial::Copy(mut buf) => {
                buf.extend_from_slice(&chunk.data);
                Partial::Copy(buf)
            }
        };
        let len = got.len();
        assert!(
            len <= self.expected,
            "reassembly overflow: got {len} of {}",
            self.expected
        );
        if len < self.expected {
            self.partial = got;
            return None;
        }
        Some(got.into_bytes())
    }
}

impl Partial {
    fn len(&self) -> usize {
        match self {
            Partial::None => 0,
            Partial::Window(head) => head.len(),
            Partial::Copy(buf) => buf.len(),
        }
    }

    fn into_bytes(self) -> Bytes {
        match self {
            Partial::None => Bytes::new(),
            Partial::Window(head) => head,
            Partial::Copy(buf) => Bytes::from(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(len: usize, cap: usize) {
        let data: Bytes = (0..len).map(|i| (i % 251) as u8).collect();
        let chunks: Vec<Chunk> = frame(data.clone(), cap).collect();
        for c in &chunks {
            assert!(c.wire_len() <= cap);
            assert_eq!(c.total, len);
        }
        // The framed byte count the byte-tag framing put on the wire.
        let wire: usize = chunks.iter().map(Chunk::wire_len).sum();
        assert_eq!(wire, len + FIRST_HDR + CONT_HDR * (chunks.len() - 1));
        let mut r = Reassembler::new();
        let mut out = None;
        let n = chunks.len();
        for (i, c) in chunks.into_iter().enumerate() {
            let res = r.feed(c);
            if i + 1 < n {
                assert!(res.is_none(), "message completed early at chunk {i}");
            } else {
                out = res;
            }
        }
        let out = out.expect("message did not complete");
        assert_eq!(&out[..], &data[..]);
        // `Bytes::from(Vec)` shares anything over 30 bytes: its chunks are
        // windows of that buffer, and what comes back is that buffer.
        if len > 30 {
            assert_eq!(
                out.as_ptr(),
                data.as_ptr(),
                "{len} B at cap {cap} was copied"
            );
        }
    }

    #[test]
    fn single_chunk_messages() {
        round_trip(0, 64);
        round_trip(1, 64);
        round_trip(55, 64); // exactly fills cap
    }

    #[test]
    fn multi_chunk_messages() {
        round_trip(56, 64);
        round_trip(1000, 64);
        round_trip(8192, 8192);
        round_trip(100_000, 8192);
    }

    #[test]
    fn windows_that_do_not_rejoin_are_copied_once() {
        // An inline message's windows are small values of their own.
        round_trip(24, 12);
        // Chunks built by hand from separate buffers, after two that rejoin.
        let whole = Bytes::from(vec![1u8; 100]);
        let foreign = Bytes::from(vec![2u8; 50]);
        let mut r = Reassembler::new();
        let chunk = |first, data| Chunk {
            first,
            total: 200,
            data,
        };
        assert!(r.feed(chunk(true, whole.slice(..60))).is_none());
        assert!(r.feed(chunk(false, whole.slice(60..))).is_none());
        assert!(r.feed(chunk(false, foreign.clone())).is_none());
        let got = r.feed(chunk(false, foreign.clone())).unwrap();
        assert_eq!(got.len(), 200);
        assert_eq!((&got[..100], &got[100..150]), (&whole[..], &foreign[..]));
        assert_eq!(&got[150..], &foreign[..]);
        // The reassembler is idle again, and back to rejoining.
        round_trip(1000, 64);
    }

    #[test]
    fn chunk_count_matches_capacity_math() {
        let data = Bytes::from(vec![0u8; 100]);
        // cap 64: first carries 55, then ceil(45/63) = 1 more.
        assert_eq!(frame(data.clone(), 64).count(), 2);
        // Tiny cap of 10: first carries 1 byte, then 99 conts of 9.
        assert_eq!(frame(data, 10).count(), 1 + 11);
    }

    #[test]
    fn back_to_back_messages_share_a_reassembler() {
        let mut r = Reassembler::new();
        for len in [3usize, 200, 0, 77] {
            let data: Bytes = (0..len).map(|i| i as u8).collect();
            let mut got = None;
            for c in frame(data.clone(), 50) {
                got = r.feed(c);
            }
            assert_eq!(got.unwrap(), data);
        }
    }

    #[test]
    fn chunks_are_windows_and_single_chunk_messages_come_back_whole() {
        let data = Bytes::from(vec![7u8; 4096]);
        let mut off = 0;
        for c in frame(data.clone(), 1024) {
            assert_eq!(c.data.as_ptr(), data[off..].as_ptr());
            off += c.data.len();
        }
        assert_eq!(off, data.len());
        let got = Reassembler::new().feed(Chunk::whole(data.clone()));
        assert_eq!(got.unwrap().as_ptr(), data.as_ptr());
    }

    #[test]
    #[should_panic(expected = "CONT chunk without a FIRST")]
    fn cont_before_first_panics() {
        let cont = frame(Bytes::from(vec![0u8; 100]), 64).nth(1).unwrap();
        Reassembler::new().feed(cont);
    }

    #[test]
    fn imm_layout_is_seq_first_total() {
        assert_eq!(pack_imm(0, false, 0), 0);
        assert_eq!(pack_imm(1, false, 0), 1 << 32);
        assert_eq!(pack_imm(0, true, 0), 1 << 31);
        assert_eq!(pack_imm(u32::MAX, true, (1 << 31) - 1), u64::MAX);
        assert_eq!(unpack_imm(u64::MAX), (u32::MAX, true, (1 << 31) - 1));
    }
}
