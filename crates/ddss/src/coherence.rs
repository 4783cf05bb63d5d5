//! Coherence models supported by the distributed data sharing substrate.
//!
//! The paper's DDSS supports six models plus temporal client caching; each
//! model is realized as a distinct sequence of one-sided verbs (see
//! `substrate.rs` for the protocols). The enum order matches the legend of
//! the paper's Figure 3a.

use std::fmt;

/// How reads and writes of a shared allocation are coordinated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Coherence {
    /// No coordination: `put` is a bare RDMA write, `get` a bare read.
    /// Readers may observe torn intermediate states.
    Null,
    /// Read coherence: writers publish a version *after* the data lands, so
    /// a reader that validates the version never consumes a torn value.
    Read,
    /// Write coherence: Read's protocol, after a ticket taken with a
    /// fetch-and-add on the stamp word (the cost of the paper's write
    /// sequencer). The ticket does not order the data writes: concurrent
    /// puts may interleave, and the model promises what Read does. The
    /// segment's lock stays free for `lock` and `put_versioned`.
    Write,
    /// Strict coherence: every access (read or write) holds the allocation's
    /// lock — linearizable, and the most expensive model.
    Strict,
    /// Versioned: each write bumps a version with fetch-and-add; readers
    /// validate the version before and after the data read and retry on a
    /// concurrent update.
    Version,
    /// Delta: writers append logical deltas (read current version, write the
    /// delta record, bump the version); readers reconstruct base + deltas.
    Delta,
    /// Temporal: clients may serve reads from a local copy younger than the
    /// configured TTL; otherwise refresh with a read.
    Temporal,
}

impl Coherence {
    /// All models, in the paper's Figure 3a legend order, with `Temporal`
    /// appended (Figure 3a omits it because a warm temporal `get` has no
    /// network component to plot).
    pub const ALL: [Coherence; 7] = [
        Coherence::Null,
        Coherence::Read,
        Coherence::Write,
        Coherence::Strict,
        Coherence::Version,
        Coherence::Delta,
        Coherence::Temporal,
    ];

    /// The six models plotted in Figure 3a.
    pub const FIG3A: [Coherence; 6] = [
        Coherence::Null,
        Coherence::Read,
        Coherence::Write,
        Coherence::Strict,
        Coherence::Version,
        Coherence::Delta,
    ];

    /// Stable wire encoding (for the allocation RPC).
    /// Lowercase name, for trace args and bench table legends.
    pub fn label(self) -> &'static str {
        match self {
            Coherence::Null => "null",
            Coherence::Read => "read",
            Coherence::Write => "write",
            Coherence::Strict => "strict",
            Coherence::Version => "version",
            Coherence::Delta => "delta",
            Coherence::Temporal => "temporal",
        }
    }

    pub fn to_u8(self) -> u8 {
        match self {
            Coherence::Null => 0,
            Coherence::Read => 1,
            Coherence::Write => 2,
            Coherence::Strict => 3,
            Coherence::Version => 4,
            Coherence::Delta => 5,
            Coherence::Temporal => 6,
        }
    }

    /// Decode the wire encoding.
    pub fn from_u8(v: u8) -> Coherence {
        match v {
            0 => Coherence::Null,
            1 => Coherence::Read,
            2 => Coherence::Write,
            3 => Coherence::Strict,
            4 => Coherence::Version,
            5 => Coherence::Delta,
            6 => Coherence::Temporal,
            _ => panic!("invalid coherence encoding {v}"),
        }
    }
}

impl fmt::Display for Coherence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Coherence::Null => "Null",
            Coherence::Read => "Read",
            Coherence::Write => "Write",
            Coherence::Strict => "Strict",
            Coherence::Version => "Version",
            Coherence::Delta => "Delta",
            Coherence::Temporal => "Temporal",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_encoding_round_trips() {
        for c in Coherence::ALL {
            assert_eq!(Coherence::from_u8(c.to_u8()), c);
        }
    }

    #[test]
    #[should_panic(expected = "invalid coherence")]
    fn bad_encoding_panics() {
        Coherence::from_u8(99);
    }

    #[test]
    fn display_labels_are_distinct() {
        let labels: std::collections::HashSet<String> =
            Coherence::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(labels.len(), Coherence::ALL.len());
    }
}
