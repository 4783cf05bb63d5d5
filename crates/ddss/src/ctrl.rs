//! DDSS control-plane messages.
//!
//! A request is `[op][body]` sent through `dc_svc::SvcClient`, so the
//! leading opcode routes it in the home daemon's `Dispatcher`; the response
//! is the bare encoded reply. What is pinned: every codec round-trips
//! (`tests/wire_roundtrip.rs`), and a remote 64-byte `allocate` / `free`
//! takes 18,051 / 18,032 virtual ns on the calibrated fabric (message
//! length feeds the transmission-time model; pinned in `substrate.rs`).
//! No golden baseline observes a control call's duration.

use dc_svc::{Reader, Wire, Writer};

use crate::coherence::Coherence;

/// Opcode of an allocation request.
pub const OP_ALLOC: u8 = 1;
/// Opcode of a free request.
pub const OP_FREE: u8 = 2;

/// Ask a home daemon for `len` bytes under a coherence model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocReq {
    /// Payload bytes requested (excluding the block header).
    pub len: u64,
    /// Coherence model the segment will be accessed under.
    pub coherence: Coherence,
}

impl Wire for AllocReq {
    fn encode_into(&self, out: &mut Vec<u8>) {
        Writer::new(out).u64(self.len).u8(self.coherence.to_u8());
    }

    fn decode(bytes: &[u8]) -> Option<AllocReq> {
        let mut r = Reader::new(bytes);
        let len = r.u64()?;
        let coherence = Coherence::from_u8(r.u8()?);
        r.finish(AllocReq { len, coherence })
    }
}

/// Home daemon's answer: the new segment's id and block offset, or `None`
/// when the heap is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocResp {
    /// `(key id, block offset)` on success.
    pub key: Option<(u64, u64)>,
}

impl Wire for AllocResp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self.key {
            Some((id, block_off)) => {
                Writer::new(out).u8(1).u64(id).u64(block_off);
            }
            None => {
                Writer::new(out).u8(0);
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<AllocResp> {
        let mut r = Reader::new(bytes);
        match r.u8()? {
            0 => r.finish(AllocResp { key: None }),
            1 => {
                let id = r.u64()?;
                let block_off = r.u64()?;
                r.finish(AllocResp {
                    key: Some((id, block_off)),
                })
            }
            _ => None,
        }
    }
}

/// Release a segment by key id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeReq {
    /// The segment's key id.
    pub id: u64,
}

impl Wire for FreeReq {
    fn encode_into(&self, out: &mut Vec<u8>) {
        Writer::new(out).u64(self.id);
    }

    fn decode(bytes: &[u8]) -> Option<FreeReq> {
        let mut r = Reader::new(bytes);
        let id = r.u64()?;
        r.finish(FreeReq { id })
    }
}

/// Whether the free found a live segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeResp {
    /// False when the segment was already freed.
    pub ok: bool,
}

impl Wire for FreeResp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        Writer::new(out).u8(u8::from(self.ok));
    }

    fn decode(bytes: &[u8]) -> Option<FreeResp> {
        let mut r = Reader::new(bytes);
        let ok = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        r.finish(FreeResp { ok })
    }
}
