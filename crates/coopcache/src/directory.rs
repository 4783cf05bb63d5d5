//! Cluster-wide cache directory as soft shared state.
//!
//! One 64-bit word per document, homed on a designated node: a bitmap of
//! which cache nodes currently hold the document. Proxies look entries up
//! with a one-sided RDMA read and maintain them with compare-and-swap loops
//! — the directory is never a process, so it costs its home node no CPU.
//!
//! The directory is *soft* state: a reader may act on a stale bitmap (the
//! holder evicted between lookup and fetch). Fetch paths therefore validate
//! the fetched bytes against the per-document header and fall back to the
//! backend on mismatch.

use dc_fabric::{Cluster, NodeId, WordTable};

use crate::lru::DocId;

/// Handle to the shared directory.
#[derive(Clone)]
pub struct Directory {
    words: WordTable,
}

impl Directory {
    /// Create the directory for `num_docs` documents, homed on `home`.
    pub fn new(cluster: &Cluster, home: NodeId, num_docs: usize) -> Directory {
        Directory {
            words: WordTable::new(cluster, home, num_docs),
        }
    }

    /// `node`'s bit in a holder bitmap; panics for a node id the 64-bit
    /// bitmap has no bit for.
    pub(crate) fn bit(node: NodeId) -> u64 {
        assert!(
            node.0 < u64::BITS,
            "holder bitmaps are 64 bits: no bit for {node:?}"
        );
        1u64 << node.0
    }

    /// Read the holder bitmap for `doc` (one RDMA read).
    pub async fn lookup(&self, from: NodeId, doc: DocId) -> u64 {
        self.words.read(from, doc as usize).await
    }

    /// Pick a holder from a bitmap, preferring `prefer` if set, else the
    /// lowest-numbered holder. Returns `None` for an empty bitmap.
    pub fn pick_holder(bitmap: u64, prefer: Option<NodeId>) -> Option<NodeId> {
        if let Some(p) = prefer {
            if bitmap & Self::bit(p) != 0 {
                return Some(p);
            }
        }
        if bitmap == 0 {
            None
        } else {
            Some(NodeId(bitmap.trailing_zeros()))
        }
    }

    /// Mark `holder` as caching `doc` (CAS loop; a read only when it
    /// already is).
    pub async fn set(&self, from: NodeId, doc: DocId, holder: NodeId) {
        let bit = Self::bit(holder);
        self.words.update(from, doc as usize, |w| w | bit).await;
    }

    /// Clear `holder`'s bit for `doc` (CAS loop; a read only when it
    /// already is).
    pub async fn clear(&self, from: NodeId, doc: DocId, holder: NodeId) {
        let bit = Self::bit(holder);
        self.words.update(from, doc as usize, |w| w & !bit).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::Sim;

    #[test]
    fn set_lookup_clear_cycle() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
        let d = Directory::new(&cluster, NodeId(0), 16);
        sim.run_to(async move {
            assert_eq!(d.lookup(NodeId(1), 3).await, 0);
            d.set(NodeId(1), 3, NodeId(1)).await;
            d.set(NodeId(2), 3, NodeId(2)).await;
            let bm = d.lookup(NodeId(3), 3).await;
            assert_eq!(bm, 0b110);
            d.clear(NodeId(1), 3, NodeId(1)).await;
            assert_eq!(d.lookup(NodeId(3), 3).await, 0b100);
        });
    }

    #[test]
    fn pick_holder_prefers_and_falls_back() {
        assert_eq!(Directory::pick_holder(0, None), None);
        assert_eq!(Directory::pick_holder(0b100, None), Some(NodeId(2)));
        assert_eq!(
            Directory::pick_holder(0b110, Some(NodeId(2))),
            Some(NodeId(2))
        );
        assert_eq!(
            Directory::pick_holder(0b010, Some(NodeId(3))),
            Some(NodeId(1))
        );
    }
}
