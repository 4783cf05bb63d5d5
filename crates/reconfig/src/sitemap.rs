//! The shared cluster map: which website each back-end node serves.
//!
//! One shared word per node: the low bits carry the site id, the top bit
//! marks a node mid-reconfiguration (its server processes are restarting
//! and it serves nobody). Reconfiguration agents move nodes with
//! compare-and-swap, so two agents never tug the same node in different
//! directions — the paper's concurrency control against live-locks.

use dc_fabric::{Cluster, NodeId, WordTable};
use dc_svc::{Reader, Wire, Writer};

/// Marks a node whose reassignment is still in progress.
pub const TRANSITION_BIT: u64 = 1 << 63;

/// A node's place in the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Site the node serves (or is moving to).
    pub site: u32,
    /// Whether the node is mid-move and not serving.
    pub in_transition: bool,
}

impl Assignment {
    /// Decode from the raw map word.
    pub fn decode(raw: u64) -> Assignment {
        Assignment {
            site: (raw & !TRANSITION_BIT) as u32,
            in_transition: raw & TRANSITION_BIT != 0,
        }
    }

    /// Encode to the raw map word.
    pub fn encode(self) -> u64 {
        let mut raw = self.site as u64;
        if self.in_transition {
            raw |= TRANSITION_BIT;
        }
        raw
    }
}

/// The map word as wire bytes (little-endian u64) — what a CAS or read of a
/// map slot carries on the fabric.
impl Wire for Assignment {
    fn encode_into(&self, out: &mut Vec<u8>) {
        Writer::new(out).u64((*self).encode());
    }

    fn decode(bytes: &[u8]) -> Option<Assignment> {
        let mut r = Reader::new(bytes);
        let raw = r.u64()?;
        r.finish(Assignment::decode(raw))
    }
}

/// Handle to the shared site map.
#[derive(Clone)]
pub struct SiteMap {
    /// One word per managed node, in `nodes` order.
    words: WordTable,
    nodes: Vec<NodeId>,
}

impl SiteMap {
    /// Create the map on `home` with every node in `initial` assigned to
    /// the given site.
    pub fn new(cluster: &Cluster, home: NodeId, initial: &[(NodeId, u32)]) -> SiteMap {
        let words = WordTable::new(cluster, home, initial.len());
        for (i, &(_, site)) in initial.iter().enumerate() {
            let serving = Assignment {
                site,
                in_transition: false,
            };
            words.poke(i, serving.encode());
        }
        SiteMap {
            words,
            nodes: initial.iter().map(|&(n, _)| n).collect(),
        }
    }

    /// The managed back-end nodes.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn slot(&self, node: NodeId) -> usize {
        self.nodes
            .iter()
            .position(|&n| n == node)
            .unwrap_or_else(|| panic!("{node:?} is not in the site map"))
    }

    /// Read a node's assignment with a one-sided read (from `reader`).
    pub async fn read(&self, reader: NodeId, node: NodeId) -> Assignment {
        Assignment::decode(self.words.read(reader, self.slot(node)).await)
    }

    /// Local (home-side) snapshot of a node's assignment — what the load
    /// balancer colocated with the map reads for free.
    pub fn peek(&self, node: NodeId) -> Assignment {
        Assignment::decode(self.words.peek(self.slot(node)))
    }

    /// All nodes currently serving `site` (local snapshot).
    pub fn serving(&self, site: u32) -> Vec<NodeId> {
        self.nodes
            .iter()
            .copied()
            .filter(|&n| {
                let a = self.peek(n);
                a.site == site && !a.in_transition
            })
            .collect()
    }

    /// Atomically claim `node` for `to_site` if it currently serves
    /// `from_site` (not in transition). Returns whether this agent won the
    /// claim. The winner must later call [`SiteMap::complete`].
    pub async fn claim(&self, agent: NodeId, node: NodeId, from_site: u32, to_site: u32) -> bool {
        let expect = Assignment {
            site: from_site,
            in_transition: false,
        }
        .encode();
        let desired = Assignment {
            site: to_site,
            in_transition: true,
        }
        .encode();
        let old = self
            .words
            .cas(agent, self.slot(node), expect, desired)
            .await;
        old == expect
    }

    /// Finish a claimed move: clear the transition bit.
    pub async fn complete(&self, agent: NodeId, node: NodeId, to_site: u32) {
        let expect = Assignment {
            site: to_site,
            in_transition: true,
        }
        .encode();
        let desired = Assignment {
            site: to_site,
            in_transition: false,
        }
        .encode();
        let old = self
            .words
            .cas(agent, self.slot(node), expect, desired)
            .await;
        assert_eq!(old, expect, "transition completed by someone else");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::Sim;

    fn setup() -> (Sim, Cluster, SiteMap) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 5);
        let map = SiteMap::new(
            &cluster,
            NodeId(0),
            &[
                (NodeId(1), 0),
                (NodeId(2), 0),
                (NodeId(3), 1),
                (NodeId(4), 1),
            ],
        );
        (sim, cluster, map)
    }

    #[test]
    fn encode_decode_round_trip() {
        for site in [0u32, 1, 77] {
            for t in [false, true] {
                let a = Assignment {
                    site,
                    in_transition: t,
                };
                assert_eq!(Assignment::decode(a.encode()), a);
            }
        }
    }

    #[test]
    fn initial_assignment_and_serving_sets() {
        let (_sim, _c, map) = setup();
        assert_eq!(map.serving(0), vec![NodeId(1), NodeId(2)]);
        assert_eq!(map.serving(1), vec![NodeId(3), NodeId(4)]);
    }

    #[test]
    fn claim_moves_node_through_transition() {
        let (sim, _c, map) = setup();
        let m = map.clone();
        sim.run_to(async move {
            assert!(m.claim(NodeId(0), NodeId(2), 0, 1).await);
            let a = m.read(NodeId(0), NodeId(2)).await;
            assert_eq!(a.site, 1);
            assert!(a.in_transition);
            // In transition: serves nobody.
            assert_eq!(m.serving(1), vec![NodeId(3), NodeId(4)]);
            m.complete(NodeId(0), NodeId(2), 1).await;
            assert_eq!(m.serving(1), vec![NodeId(2), NodeId(3), NodeId(4)]);
        });
        assert_eq!(map.serving(0), vec![NodeId(1)]);
    }

    #[test]
    fn concurrent_claims_have_one_winner() {
        let (sim, _c, map) = setup();
        let mut joins = Vec::new();
        for agent in [NodeId(0), NodeId(3), NodeId(4)] {
            let m = map.clone();
            joins.push(sim.spawn(async move { m.claim(agent, NodeId(1), 0, 1).await }));
        }
        sim.run();
        let winners = joins.iter().filter(|j| j.try_take() == Some(true)).count();
        assert_eq!(winners, 1, "CAS concurrency control failed");
    }

    #[test]
    fn stale_claim_fails() {
        let (sim, _c, map) = setup();
        let m = map.clone();
        sim.run_to(async move {
            // Node 3 serves site 1; claiming it "from site 0" must fail.
            assert!(!m.claim(NodeId(0), NodeId(3), 0, 1).await);
            let a = m.read(NodeId(0), NodeId(3)).await;
            assert_eq!(a.site, 1);
            assert!(!a.in_transition);
        });
    }
}
