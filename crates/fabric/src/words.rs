//! A table of shared 64-bit words: one `u64` per entity in a registered
//! region on a home node, read one-sided and updated with remote atomics.
//!
//! The lock managers' lock words, the cache directory's holder bitmaps, a
//! cache node's document index and the reconfiguration site map are all this
//! table. What a word *means* stays with each of them; where word `i` lives,
//! the bounds check and the little-endian decode are written here and
//! nowhere else, so a coherence model can later go under all four at once.

use std::future::Future;

use crate::cluster::{Cluster, NodeId};
use crate::faults::FabricError;
use crate::mem::{RegionId, RemoteAddr};

/// `len` shared words homed on one node. Clone shares the table.
#[derive(Clone)]
pub struct WordTable {
    cluster: Cluster,
    home: NodeId,
    region: RegionId,
    len: usize,
}

impl WordTable {
    /// Register a zeroed table of `len` words on `home`.
    pub fn new(cluster: &Cluster, home: NodeId, len: usize) -> WordTable {
        WordTable {
            cluster: cluster.clone(),
            home,
            region: cluster.register(home, len * 8),
            len,
        }
    }

    /// Byte offset of word `i` in the region; panics when `i` is outside
    /// the table.
    fn offset(&self, i: usize) -> usize {
        assert!(
            i < self.len,
            "word {i} out of range (table of {})",
            self.len
        );
        i * 8
    }

    /// One-sided address of word `i`.
    pub fn addr(&self, i: usize) -> RemoteAddr {
        RemoteAddr {
            node: self.home,
            region: self.region,
            offset: self.offset(i),
        }
    }

    // The verbs hand back the cluster's own futures rather than awaiting
    // them in an `async fn`: a lock, grant or cache-request future that
    // goes through the table is no deeper than one that named the address.

    /// Read word `i` from `from` (one RDMA read).
    pub fn read(&self, from: NodeId, i: usize) -> impl Future<Output = u64> + '_ {
        self.cluster.read_u64(from, self.addr(i))
    }

    /// [`WordTable::read`] that fails instead of riding out a crash window.
    pub fn try_read(
        &self,
        from: NodeId,
        i: usize,
    ) -> impl Future<Output = Result<u64, FabricError>> + '_ {
        self.cluster.try_read_u64(from, self.addr(i))
    }

    /// Compare-and-swap word `i` from `from`; returns the prior value.
    pub fn cas(
        &self,
        from: NodeId,
        i: usize,
        expect: u64,
        swap: u64,
    ) -> impl Future<Output = u64> + '_ {
        self.cluster.atomic_cas(from, self.addr(i), expect, swap)
    }

    /// Fetch-and-add (wrapping) on word `i` from `from`; returns the prior
    /// value.
    pub fn faa(&self, from: NodeId, i: usize, add: u64) -> impl Future<Output = u64> + '_ {
        self.cluster.atomic_faa(from, self.addr(i), add)
    }

    /// Make word `i` read `f(word)`: an optimistic CAS loop seeded by one
    /// read, re-deriving the target from whatever a failed CAS found. When
    /// the word already is what `f` makes of it, no CAS is issued.
    pub async fn update(&self, from: NodeId, i: usize, f: impl Fn(u64) -> u64) {
        let addr = self.addr(i);
        let mut expect = self.cluster.read_u64(from, addr).await;
        loop {
            let desired = f(expect);
            if desired == expect {
                return;
            }
            let old = self.cluster.atomic_cas(from, addr, expect, desired).await;
            if old == expect {
                return;
            }
            expect = old;
        }
    }

    /// Word `i` as the home node stores it right now — what a process on
    /// `home` reads for free.
    pub fn peek(&self, i: usize) -> u64 {
        let region = self.cluster.region(self.home, self.region);
        region.read_u64(self.offset(i))
    }

    /// Home-local store of `v` into word `i`.
    pub fn poke(&self, i: usize, v: u64) {
        let region = self.cluster.region(self.home, self.region);
        region.write_u64(self.offset(i), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FabricModel;
    use dc_sim::Sim;

    fn setup() -> (Sim, Cluster, WordTable) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
        let table = WordTable::new(&cluster, NodeId(0), 16);
        (sim, cluster, table)
    }

    #[test]
    #[should_panic(expected = "word 16 out of range")]
    fn out_of_range_index_panics() {
        let (_sim, _c, table) = setup();
        table.addr(16);
    }

    #[test]
    fn remote_verbs_and_home_access_see_one_word() {
        let (sim, _c, table) = setup();
        let t = table.clone();
        sim.run_to(async move {
            assert_eq!(t.read(NodeId(1), 3).await, 0);
            t.poke(3, 0xDEAD_BEEF_0000_0001);
            assert_eq!(t.read(NodeId(1), 3).await, t.peek(3));
            assert_eq!(t.try_read(NodeId(2), 3).await, Ok(0xDEAD_BEEF_0000_0001));
            let stale = t.cas(NodeId(1), 3, 0, 9).await;
            assert_eq!((stale, t.peek(3)), (0xDEAD_BEEF_0000_0001, stale));
            assert_eq!(t.cas(NodeId(1), 3, stale, 9).await, stale);
            assert_eq!(t.faa(NodeId(2), 3, 5).await, 9);
        });
        assert_eq!(table.peek(3), 14);
        assert_eq!((table.peek(2), table.peek(4)), (0, 0), "a neighbour moved");
    }

    #[test]
    fn concurrent_updates_lose_no_bit() {
        let (sim, _c, table) = setup();
        for n in 0..4u32 {
            let t = table.clone();
            sim.spawn(async move { t.update(NodeId(n), 0, |w| w | 1 << n).await });
        }
        sim.run();
        assert_eq!(table.peek(0), 0b1111, "a concurrent CAS lost an update");
    }

    #[test]
    fn update_that_already_holds_is_a_read_and_no_cas() {
        let (sim, c, table) = setup();
        let (t, cc) = (table.clone(), c.clone());
        sim.run_to(async move {
            t.update(NodeId(1), 5, |w| w | 2).await;
            let first = cc.stats();
            assert_eq!((first.reads, first.cas), (1, 1));
            t.update(NodeId(1), 5, |w| w | 2).await;
        });
        let s = c.stats();
        assert_eq!((s.reads, s.cas), (2, 1), "idempotent update issued a CAS");
    }
}
