//! Property tests of the sharded conservative driver: the cross-shard
//! merge order and the 1-shard ≡ K-shard equivalence contract.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use proptest::prelude::*;

use dc_sim::shard::{run_sharded, ShardCfg, ShardRun, Stamped};

/// One randomized relay topology: `entities` nodes, each with its own
/// deterministic forward delay and stride; a set of seed messages starts
/// hop chains that bounce around the graph until their hop budget runs out.
#[derive(Debug, Clone)]
struct Topology {
    entities: usize,
    lookahead: u64,
    horizon: u64,
    /// Per-entity forward delay, each ≥ lookahead.
    delay: Vec<u64>,
    /// Per-entity forward stride (which entity a relay targets next).
    stride: Vec<usize>,
    /// Seed messages: (source entity, first-delivery offset ≥ lookahead,
    /// destination entity, hop budget).
    seeds: Vec<(usize, u64, usize, u8)>,
}

fn topologies() -> impl Strategy<Value = Topology> {
    (1usize..10, 1u64..3_000).prop_flat_map(|(entities, lookahead)| {
        let delays = prop::collection::vec(lookahead..4 * lookahead, entities);
        let strides = prop::collection::vec(0usize..entities, entities);
        let seeds = prop::collection::vec(
            (0..entities, lookahead..20 * lookahead, 0..entities, 0u8..12),
            1..16,
        );
        (delays, strides, seeds).prop_map(move |(delay, stride, seeds)| Topology {
            entities,
            lookahead,
            horizon: 64 * lookahead,
            delay,
            stride,
            seeds,
        })
    })
}

/// One entity's delivery log: the exact sequence of (timestamp,
/// remaining hops) it observed.
type DeliveryLog = Vec<Vec<(u64, u8)>>;

/// Run `topo` at `shards` shards and return each entity's delivery log.
fn relay_logs(topo: &Topology, shards: usize) -> DeliveryLog {
    let cfg = ShardCfg {
        shards,
        lookahead_ns: topo.lookahead,
        horizon_ns: topo.horizon,
        src_keys: topo.entities,
    };
    let (outs, _stats) = run_sharded::<(usize, u8), DeliveryLog, _>(&cfg, |shard, _sim, net| {
        let logs: Rc<RefCell<DeliveryLog>> = Rc::new(RefCell::new(vec![Vec::new(); topo.entities]));
        let n = shards;
        // Seed messages leave from their source entity's host shard so
        // that entity's seq counter is bumped exactly once per send,
        // regardless of the shard count.
        for &(src, offset, dst, hops) in &topo.seeds {
            if src % n == shard {
                net.send(dst % n, src as u32, offset, (dst, hops));
            }
        }
        let topo = topo.clone();
        let dispatch = {
            let logs = Rc::clone(&logs);
            let net = net.clone();
            Box::new(move |ts: u64, (dst, hops): (usize, u8)| {
                logs.borrow_mut()[dst].push((ts, hops));
                if hops > 0 {
                    let next = (dst + topo.stride[dst]) % topo.entities;
                    net.send(next % n, dst as u32, ts + topo.delay[dst], (next, hops - 1));
                }
            })
        };
        let finish = {
            let logs = Rc::clone(&logs);
            Box::new(move || logs.borrow().clone())
        };
        ShardRun { dispatch, finish }
    });
    // Each entity's log lives on exactly one shard; merge by element-wise
    // union (non-owners logged nothing for it).
    let mut merged = vec![Vec::new(); topo.entities];
    for shard_logs in outs {
        for (e, log) in shard_logs.into_iter().enumerate() {
            if !log.is_empty() {
                assert!(
                    merged[e].is_empty(),
                    "entity {e} delivered on two different shards"
                );
                merged[e] = log;
            }
        }
    }
    merged
}

proptest! {
    /// The pending-event heap drains any interleaving of stamped events in
    /// canonical `(ts, src_key, seq)` order — the merge is a pure function
    /// of the event set, not of arrival order.
    #[test]
    fn stamped_events_drain_in_canonical_order(
        events in prop::collection::vec((0u64..10_000, 0u32..8, 0u64..50), 1..200)
    ) {
        let mut heap: BinaryHeap<Reverse<Stamped<()>>> = BinaryHeap::new();
        for &(ts, src_key, seq) in &events {
            heap.push(Reverse(Stamped { ts, src_key, seq, msg: () }));
        }
        let mut prev: Option<(u64, u32, u64)> = None;
        while let Some(Reverse(ev)) = heap.pop() {
            let key = (ev.ts, ev.src_key, ev.seq);
            if let Some(p) = prev {
                prop_assert!(p <= key, "drained {key:?} after {p:?}");
            }
            prev = Some(key);
        }
    }

    /// Every entity in a random relay topology observes the identical
    /// delivery sequence whether the topology runs on one shard or on K:
    /// shard count is a wall-clock knob, never a behavioural one.
    #[test]
    fn single_shard_and_k_shard_delivery_orders_agree(
        topo in topologies(),
        shards in 2usize..5,
    ) {
        let base = relay_logs(&topo, 1);
        let sharded = relay_logs(&topo, shards);
        prop_assert_eq!(&base, &sharded,
            "{} shards diverged from single-shard delivery", shards);
        // Sanity: seeds actually delivered something.
        let total: usize = base.iter().map(Vec::len).sum();
        prop_assert!(total >= topo.seeds.iter()
            .filter(|(_, off, _, _)| *off < topo.horizon).count());
    }
}
