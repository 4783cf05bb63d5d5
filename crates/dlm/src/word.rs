//! The N-CoSED 64-bit lock word.
//!
//! Exactly the paper's layout (§4.2): for each lock, a 64-bit window at the
//! home node whose **first 32 bits store the tail of the distributed queue
//! of exclusive requesters** (as node-id + 1; 0 = no exclusive tail) and
//! whose **second 32 bits count the shared lock requests received after the
//! enqueuing of the last exclusive request**.
//!
//! Exclusive requesters swap themselves in with compare-and-swap (zeroing
//! the shared count — the count they swap out is exactly the set of shared
//! holders they must wait behind); shared requesters fetch-and-add the low
//! half and read the tail from the returned value.

use dc_fabric::NodeId;

/// Decoded view of the lock word: `(exclusive tail, shared count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockWord {
    /// Node id of the exclusive-queue tail, if any.
    pub tail: Option<NodeId>,
    /// Shared requests since the last exclusive enqueue (or since free).
    pub shared: u32,
}

impl LockWord {
    /// The free word (no tail, no shared requests).
    pub const FREE: u64 = 0;

    /// Decode a raw 64-bit word.
    pub fn decode(raw: u64) -> LockWord {
        let tail_raw = (raw >> 32) as u32;
        LockWord {
            tail: if tail_raw == 0 {
                None
            } else {
                Some(NodeId(tail_raw - 1))
            },
            shared: raw as u32,
        }
    }

    /// Encode back to the raw representation.
    pub fn encode(self) -> u64 {
        let tail_raw = match self.tail {
            None => 0u32,
            Some(n) => n.0 + 1,
        };
        ((tail_raw as u64) << 32) | self.shared as u64
    }

    /// The word after an exclusive enqueue by `node` (tail = node, shared
    /// count reset — the swapped-out count becomes the enqueuer's wait set).
    pub fn with_excl_tail(node: NodeId) -> u64 {
        LockWord {
            tail: Some(node),
            shared: 0,
        }
        .encode()
    }
}

/// The fetch-and-add delta registering one shared request (+1 to the low
/// half; never carries into the tail field until 2^32 outstanding requests).
pub const SHARED_FAA_DELTA: u64 = 1;

/// The MCS-style ticket word: a fetch-and-add dispenser in the high half and
/// a now-serving counter in the low half, packed into the same one-sided
/// 64-bit window the N-CoSED family uses.
///
/// Acquire is one FAA of [`TICKET_TAKE_DELTA`]: the returned `next` is the
/// caller's ticket, and if it equals the returned `serving` the lock was
/// free. Release is one FAA of [`ticket_serve_delta`]. Both counters wrap at
/// 2^32 without touching the other: the dispenser's carry falls off the top
/// of the word, and the releaser, which knows the number it serves, cancels
/// the serving counter's carry at its wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TicketWord {
    /// Ticket currently being served (its holder owns the lock).
    pub serving: u32,
    /// Next ticket to dispense.
    pub next: u32,
}

/// Bit offset of `next`: the high half, where the dispenser's carry at 2^32
/// falls off the top of the word. `serving` takes the other half.
const NEXT_AT: u32 = 32;
const SERVING_AT: u32 = 32 - NEXT_AT;

impl TicketWord {
    /// The initial word: serving 0, next ticket 0 (lock free).
    pub const FREE: u64 = 0;

    /// Decode a raw 64-bit word.
    pub fn decode(raw: u64) -> TicketWord {
        TicketWord {
            serving: (raw >> SERVING_AT) as u32,
            next: (raw >> NEXT_AT) as u32,
        }
    }

    /// Encode back to the raw representation.
    pub const fn encode(self) -> u64 {
        ((self.next as u64) << NEXT_AT) | ((self.serving as u64) << SERVING_AT)
    }
}

/// FAA delta dispensing one ticket (+1 to the `next` half).
pub const TICKET_TAKE_DELTA: u64 = TicketWord {
    serving: 0,
    next: 1,
}
.encode();

/// FAA delta advancing the now-serving counter from `serving` to the number
/// after it, leaving `next` as it is: +1 to the serving half, less 2^32 at
/// `serving == u32::MAX`, where the +1 carries out of the low half.
pub fn ticket_serve_delta(serving: u32) -> u64 {
    let word = |serving| TicketWord { serving, next: 0 }.encode();
    word(serving.wrapping_add(1)).wrapping_sub(word(serving))
}

/// The lease word: current owner in the high half (node-id + 1; 0 = free)
/// and the lease expiry instant, in microseconds of sim time, in the low
/// half.
///
/// Acquire and steal are both single CAS operations on the whole word, so
/// ownership and deadline change atomically. The 32-bit expiry wraps after
/// ~71 simulated minutes — orders of magnitude past any scenario horizon —
/// and the encoding asserts rather than silently aliasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseWord {
    /// Current owner, if any.
    pub owner: Option<NodeId>,
    /// Sim-time instant (µs) at which the ownership lapses.
    pub expiry_us: u32,
}

impl LeaseWord {
    /// The free word: no owner, no deadline.
    pub const FREE: u64 = 0;

    /// Decode a raw 64-bit word.
    pub fn decode(raw: u64) -> LeaseWord {
        let owner_raw = (raw >> 32) as u32;
        LeaseWord {
            owner: if owner_raw == 0 {
                None
            } else {
                Some(NodeId(owner_raw - 1))
            },
            expiry_us: raw as u32,
        }
    }

    /// Encode back to the raw representation.
    pub fn encode(self) -> u64 {
        let owner_raw = match self.owner {
            None => 0u32,
            Some(n) => n.0 + 1,
        };
        ((owner_raw as u64) << 32) | self.expiry_us as u64
    }

    /// Whether the lease has lapsed at sim instant `now_us`.
    pub fn expired(self, now_us: u64) -> bool {
        self.owner.is_some() && now_us > self.expiry_us as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_word_decodes_to_empty() {
        let w = LockWord::decode(LockWord::FREE);
        assert_eq!(w.tail, None);
        assert_eq!(w.shared, 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        for tail in [
            None,
            Some(NodeId(0)),
            Some(NodeId(7)),
            Some(NodeId(4_000_000_000)),
        ] {
            for shared in [0u32, 1, 55, u32::MAX] {
                let w = LockWord { tail, shared };
                assert_eq!(LockWord::decode(w.encode()), w);
            }
        }
    }

    #[test]
    fn node_zero_is_distinguishable_from_no_tail() {
        let w = LockWord {
            tail: Some(NodeId(0)),
            shared: 0,
        };
        assert_ne!(w.encode(), LockWord::FREE);
        assert_eq!(LockWord::decode(w.encode()).tail, Some(NodeId(0)));
    }

    #[test]
    fn shared_faa_only_touches_low_half() {
        let base = LockWord {
            tail: Some(NodeId(3)),
            shared: 41,
        }
        .encode();
        let after = base.wrapping_add(SHARED_FAA_DELTA);
        let w = LockWord::decode(after);
        assert_eq!(w.tail, Some(NodeId(3)));
        assert_eq!(w.shared, 42);
    }

    #[test]
    fn excl_enqueue_zeroes_shared_count() {
        let w = LockWord::decode(LockWord::with_excl_tail(NodeId(9)));
        assert_eq!(w.tail, Some(NodeId(9)));
        assert_eq!(w.shared, 0);
    }

    #[test]
    fn ticket_word_round_trips_and_faa_deltas_are_disjoint() {
        for serving in [0u32, 1, 77, u32::MAX - 1] {
            for next in [0u32, 1, 2_000_000, u32::MAX - 1] {
                let w = TicketWord { serving, next };
                assert_eq!(TicketWord::decode(w.encode()), w);
            }
        }
        let base = TicketWord {
            serving: 3,
            next: 9,
        }
        .encode();
        let took = TicketWord::decode(base.wrapping_add(TICKET_TAKE_DELTA));
        assert_eq!(
            took,
            TicketWord {
                serving: 3,
                next: 10
            }
        );
        let served = TicketWord::decode(base.wrapping_add(ticket_serve_delta(3)));
        assert_eq!(
            served,
            TicketWord {
                serving: 4,
                next: 9
            }
        );
    }

    /// Each counter wraps to 0 at 2^32 and leaves the other as it was.
    #[test]
    fn ticket_counters_wrap_without_touching_each_other() {
        let base = TicketWord {
            serving: u32::MAX,
            next: u32::MAX,
        }
        .encode();
        let took = TicketWord::decode(base.wrapping_add(TICKET_TAKE_DELTA));
        assert_eq!(
            took,
            TicketWord {
                serving: u32::MAX,
                next: 0
            }
        );
        let served = TicketWord::decode(base.wrapping_add(ticket_serve_delta(u32::MAX)));
        assert_eq!(
            served,
            TicketWord {
                serving: 0,
                next: u32::MAX
            }
        );
    }

    #[test]
    fn free_ticket_word_grants_immediately() {
        let w = TicketWord::decode(TicketWord::FREE);
        assert_eq!(w.serving, w.next, "free word must self-grant");
    }

    #[test]
    fn lease_word_round_trips_and_expires() {
        for owner in [None, Some(NodeId(0)), Some(NodeId(511))] {
            for expiry_us in [0u32, 1, 5_000_000] {
                let w = LeaseWord { owner, expiry_us };
                assert_eq!(LeaseWord::decode(w.encode()), w);
            }
        }
        let w = LeaseWord {
            owner: Some(NodeId(2)),
            expiry_us: 100,
        };
        assert!(!w.expired(100), "expiry instant itself is still owned");
        assert!(w.expired(101));
        let free = LeaseWord::decode(LeaseWord::FREE);
        assert!(!free.expired(u64::MAX), "a free word never 'expires'");
    }
}
