//! Property tests of the stream protocols: any message sequence, any sizes,
//! any kind — delivered complete, intact, and in order.

use proptest::prelude::*;

use dc_fabric::{Cluster, FabricModel, NodeId};
use dc_sim::Sim;
use dc_sockets::{connect, SocketsConfig, StreamKind};

fn kind_strategy() -> impl Strategy<Value = StreamKind> {
    prop::sample::select(StreamKind::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One-directional stream: arbitrary message sizes arrive in order with
    /// exact contents under every protocol kind.
    #[test]
    fn stream_preserves_order_and_content(
        kind in kind_strategy(),
        sizes in prop::collection::vec(0usize..20_000, 1..12)
    ) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let (mut tx, mut rx) = connect(
            &cluster,
            NodeId(0),
            NodeId(1),
            kind,
            SocketsConfig,
        );
        let expected: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| ((i * 131 + j * 7) % 256) as u8).collect())
            .collect();
        let payloads = expected.clone();
        sim.spawn(async move {
            for p in payloads {
                tx.send(&p).await;
            }
        });
        let got = sim.run_to(async move {
            let mut got = Vec::new();
            for _ in 0..sizes.len() {
                got.push(rx.recv().await.to_vec());
            }
            got
        });
        prop_assert_eq!(got, expected);
    }

    /// Full duplex: both directions carry independent sequences without
    /// interference.
    #[test]
    fn duplex_directions_are_independent(
        kind in kind_strategy(),
        n_ab in 1usize..8,
        n_ba in 1usize..8
    ) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let (mut a, mut b) = connect(
            &cluster,
            NodeId(0),
            NodeId(1),
            kind,
            SocketsConfig,
        );
        let done_a = sim.spawn(async move {
            let mut got = Vec::new();
            for i in 0..n_ab {
                a.send(&vec![i as u8; 100 + i]).await;
            }
            for _ in 0..n_ba {
                got.push(a.recv().await.len());
            }
            got
        });
        let done_b = sim.spawn(async move {
            let mut got = Vec::new();
            for j in 0..n_ba {
                b.send(&vec![j as u8; 200 + j]).await;
            }
            for _ in 0..n_ab {
                got.push(b.recv().await.len());
            }
            got
        });
        sim.run();
        let at_a = done_a.try_take().expect("a did not finish");
        let at_b = done_b.try_take().expect("b did not finish");
        prop_assert_eq!(at_a, (0..n_ba).map(|j| 200 + j).collect::<Vec<_>>());
        prop_assert_eq!(at_b, (0..n_ab).map(|i| 100 + i).collect::<Vec<_>>());
    }

    /// Flow control never deadlocks even when the sender bursts far beyond
    /// the buffer budget before the receiver drains anything.
    #[test]
    fn burst_beyond_budget_never_deadlocks(
        kind in kind_strategy(),
        count in 1usize..60,
        size in 1usize..4_096
    ) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let (mut tx, mut rx) = connect(
            &cluster,
            NodeId(0),
            NodeId(1),
            kind,
            SocketsConfig,
        );
        sim.spawn(async move {
            for _ in 0..count {
                tx.send(&vec![0xEEu8; size]).await;
            }
        });
        // The receiver only starts draining after a long delay.
        let h = sim.handle();
        let received = sim.run_to(async move {
            h.sleep(dc_sim::time::ms(50)).await;
            let mut n = 0;
            for _ in 0..count {
                rx.recv().await;
                n += 1;
            }
            n
        });
        prop_assert_eq!(received, count);
    }
}
