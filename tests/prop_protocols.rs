//! Property-based tests of the distributed protocols: lock-manager safety
//! and liveness under randomized schedules, DDSS coherence invariants
//! under concurrent access, monitoring-accuracy dominance, and
//! reconfiguration stability.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;

use nextgen_datacenter::ddss::{Coherence, Ddss, DdssConfig};
use nextgen_datacenter::dlm::{DesignKind, DlmConfig, LockMode, NcosedDlm};
use nextgen_datacenter::fabric::{Cluster, FabricModel, FaultConfig, FaultPlan, NodeId};
use nextgen_datacenter::sim::time::{ms, us};
use nextgen_datacenter::sim::Sim;

/// One randomized lock request.
#[derive(Debug, Clone, Copy)]
struct LockOp {
    node: u32,
    exclusive: bool,
    arrive_us: u64,
    hold_us: u64,
}

fn lock_op(nodes: u32) -> impl Strategy<Value = LockOp> {
    (1..nodes, any::<bool>(), 0u64..3_000, 10u64..500).prop_map(
        |(node, exclusive, arrive_us, hold_us)| LockOp {
            node,
            exclusive,
            arrive_us,
            hold_us,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// N-CoSED safety and liveness: writers exclude everyone, readers
    /// overlap only with readers, and every request is eventually granted —
    /// under arbitrary arrival schedules, modes, and hold times.
    ///
    /// One request per node at a time (the manager's documented contract),
    /// so each op gets its own node out of a 9-node pool.
    #[test]
    fn ncosed_is_safe_and_live(ops in prop::collection::vec(lock_op(9), 1..9)) {
        // De-duplicate node ids: the manager allows one outstanding request
        // per (node, lock).
        let mut seen = std::collections::HashSet::new();
        let ops: Vec<LockOp> = ops
            .into_iter()
            .filter(|op| seen.insert(op.node))
            .collect();
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 10);
        let members: Vec<NodeId> = (0..10).map(NodeId).collect();
        let dlm = NcosedDlm::new(&cluster, NodeId(0), 1, &members);

        let readers: Rc<Cell<i64>> = Rc::default();
        let writers: Rc<Cell<i64>> = Rc::default();
        let violations: Rc<Cell<u32>> = Rc::default();
        let granted: Rc<Cell<usize>> = Rc::default();
        for op in &ops {
            let client = dlm.client(NodeId(op.node));
            let readers = Rc::clone(&readers);
            let writers = Rc::clone(&writers);
            let violations = Rc::clone(&violations);
            let granted = Rc::clone(&granted);
            let h = sim.handle();
            let op = *op;
            sim.spawn(async move {
                h.sleep(us(op.arrive_us)).await;
                let mode = if op.exclusive {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                client.lock(0, mode).await;
                if op.exclusive {
                    if readers.get() > 0 || writers.get() > 0 {
                        violations.set(violations.get() + 1);
                    }
                    writers.set(writers.get() + 1);
                } else {
                    if writers.get() > 0 {
                        violations.set(violations.get() + 1);
                    }
                    readers.set(readers.get() + 1);
                }
                h.sleep(us(op.hold_us)).await;
                if op.exclusive {
                    writers.set(writers.get() - 1);
                } else {
                    readers.set(readers.get() - 1);
                }
                client.unlock(0).await;
                granted.set(granted.get() + 1);
            });
        }
        let reached = sim.run_until(ms(500));
        prop_assert_eq!(reached, ms(500));
        prop_assert_eq!(violations.get(), 0, "mutual exclusion violated");
        prop_assert_eq!(granted.get(), ops.len(), "a request was never granted");
        prop_assert_eq!(readers.get(), 0);
        prop_assert_eq!(writers.get(), 0);
    }

    /// DDSS strict coherence: with N concurrent writers of distinct
    /// patterns, the final segment is exactly one writer's full pattern —
    /// never torn — and the stamp word reflects some successful write.
    #[test]
    fn strict_coherence_never_tears(
        writer_count in 2usize..6,
        len in 1usize..200,
        stagger in prop::collection::vec(0u64..2_000, 6)
    ) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 7);
        let members: Vec<NodeId> = (0..7).map(NodeId).collect();
        let ddss = Ddss::new(&cluster, DdssConfig::default(), &members);
        let owner = ddss.client(NodeId(0));
        let key = sim.run_to(async move {
            owner.allocate(NodeId(0), len, Coherence::Strict).await.unwrap()
        });
        for (w, &delay) in stagger.iter().enumerate().take(writer_count) {
            let client = ddss.client(NodeId(1 + w as u32));
            let h = sim.handle();
            sim.spawn(async move {
                h.sleep(us(delay)).await;
                let pattern = vec![(w as u8) + 1; len];
                client.put(&key, &pattern[..]).await;
            });
        }
        sim.run();
        let reader = ddss.client(NodeId(6));
        let data = sim.run_to(async move { reader.get(&key).await });
        prop_assert_eq!(data.len(), len);
        let first = data[0];
        prop_assert!(first >= 1 && first <= writer_count as u8);
        prop_assert!(data.iter().all(|&b| b == first), "torn strict write");
    }

    /// Versioned puts: version increases by exactly one per successful
    /// versioned write, and conflicting writers always learn the truth.
    #[test]
    fn versioned_puts_serialize(writers in 2usize..5, rounds in 1usize..4) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 6);
        let members: Vec<NodeId> = (0..6).map(NodeId).collect();
        let ddss = Ddss::new(&cluster, DdssConfig::default(), &members);
        let owner = ddss.client(NodeId(0));
        let key = sim.run_to(async move {
            owner.allocate(NodeId(0), 8, Coherence::Version).await.unwrap()
        });
        let successes: Rc<Cell<u64>> = Rc::default();
        for w in 0..writers {
            let client = ddss.client(NodeId(1 + w as u32));
            let successes = Rc::clone(&successes);
            sim.spawn(async move {
                for _ in 0..rounds {
                    // Optimistic loop: read the version, attempt the CAS-put.
                    loop {
                        let v = client.version(&key).await;
                        match client.put_versioned(&key, &v.to_le_bytes(), v).await {
                            Ok(_) => {
                                successes.set(successes.get() + 1);
                                break;
                            }
                            Err(_actual) => continue,
                        }
                    }
                }
            });
        }
        sim.run();
        let reader = ddss.client(NodeId(5));
        let final_version = sim.run_to(async move { reader.version(&key).await });
        prop_assert_eq!(final_version, successes.get());
        prop_assert_eq!(successes.get(), (writers * rounds) as u64);
    }
}

proptest! {
    // Every case drives one whole cluster per lock design, so few cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The `LockClient` contract, checked for every design at once:
    /// exclusive holders never overlap, and every request drains — under
    /// randomized arrivals and hold times, optionally with seeded message
    /// drops and latency storms. Hold times stay far below the lease
    /// bound, so the lease design's conditional mutual exclusion is
    /// unconditional here (DESIGN.md). Crash and stall windows are
    /// excluded by construction: one-sided atomics cannot ride out a
    /// crashed home.
    ///
    /// One outstanding request per (node, lock) is the client contract, so
    /// a node's ops run in turn: its first arrives at `arrive_us`, and a
    /// second one `arrive_us / 30` (under 100 µs) after the first unlock —
    /// soon enough to find its own release still handing off.
    #[test]
    fn every_lock_design_is_safe_and_drains(
        ops in prop::collection::vec(lock_op(7), 2..9),
        faulted in any::<bool>(),
        fault_seed in any::<u64>(),
    ) {
        let mut per_node: Vec<Vec<LockOp>> = vec![Vec::new(); 7];
        for op in ops {
            let mine = &mut per_node[op.node as usize];
            if mine.len() < 2 {
                mine.push(op);
            }
        }
        let requests: usize = per_node.iter().map(Vec::len).sum();
        for design in DesignKind::ALL {
            let sim = Sim::new();
            let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 7);
            if faulted {
                let cfg = FaultConfig {
                    horizon_ns: ms(60),
                    max_crashes_per_node: 0,
                    max_stalls_per_node: 0,
                    drop_prob: 0.05,
                    latency_windows: 2,
                    latency_min_ns: ms(2),
                    latency_max_ns: ms(8),
                    ..Default::default()
                };
                cluster.install_faults(FaultPlan::generate(fault_seed, &cfg, 7));
            }
            let members: Vec<NodeId> = (0..7).map(NodeId).collect();
            let mut clients: Vec<_> = design
                .build(&cluster, DlmConfig, NodeId(0), 4, &members)
                .into_iter()
                .map(Some)
                .collect();
            let in_cs: Rc<Cell<i64>> = Rc::default();
            let violations: Rc<Cell<u32>> = Rc::default();
            let granted: Rc<Cell<usize>> = Rc::default();
            for (node, mine) in per_node.iter().enumerate() {
                if mine.is_empty() {
                    continue;
                }
                let client = clients[node].take().expect("one task per node");
                let in_cs = Rc::clone(&in_cs);
                let violations = Rc::clone(&violations);
                let granted = Rc::clone(&granted);
                let h = sim.handle();
                let mine = mine.clone();
                sim.spawn(async move {
                    for (k, op) in mine.into_iter().enumerate() {
                        let wait = if k == 0 { op.arrive_us } else { op.arrive_us / 30 };
                        h.sleep(us(wait)).await;
                        // Exclusive only: CAS-Spin, Lease, and MCS-FAA treat
                        // every request as exclusive, so a shared overlap
                        // would read as a false violation.
                        client.lock(0, LockMode::Exclusive).await;
                        if in_cs.get() > 0 {
                            violations.set(violations.get() + 1);
                        }
                        in_cs.set(in_cs.get() + 1);
                        h.sleep(us(op.hold_us)).await;
                        in_cs.set(in_cs.get() - 1);
                        client.unlock(0).await;
                        granted.set(granted.get() + 1);
                    }
                });
            }
            let reached = sim.run_until(ms(400));
            prop_assert_eq!(reached, ms(400), "{:?} stalled the sim", design);
            prop_assert_eq!(
                violations.get(), 0,
                "{:?}: mutual exclusion violated (faulted={})", design, faulted
            );
            prop_assert_eq!(
                granted.get(), requests,
                "{:?}: a request was never granted (faulted={})", design, faulted
            );
            prop_assert_eq!(in_cs.get(), 0, "{:?}", design);
        }
    }

    /// Fig 8a generalized: synchronous RDMA sampling dominates both
    /// asynchronous schemes on monitoring accuracy, not just at the
    /// figure's sampling cadence but across sampling periods and horizon
    /// lengths. (Sync RDMA reads the truth at the instant it is consumed;
    /// async schemes serve a stale snapshot no matter the transport.)
    #[test]
    fn rdma_sync_accuracy_dominates_async_schemes(
        sample_period_ms in 5u64..25,
        duration_ms in 150u64..400,
    ) {
        use nextgen_datacenter::resmon::MonitorScheme;
        let duration = ms(duration_ms);
        let period = ms(sample_period_ms);
        let run = |scheme| dc_bench::fig8a::run_scheme(scheme, duration, period);
        let sync = run(MonitorScheme::RdmaSync);
        let rdma_async = run(MonitorScheme::RdmaAsync);
        let socket_async = run(MonitorScheme::SocketAsync);
        prop_assert!(!sync.samples.is_empty());
        prop_assert!(
            sync.mean_deviation() <= rdma_async.mean_deviation(),
            "RDMA-Sync {:.3} should not trail RDMA-Async {:.3} (period {sample_period_ms}ms)",
            sync.mean_deviation(),
            rdma_async.mean_deviation()
        );
        prop_assert!(
            sync.mean_deviation() <= socket_async.mean_deviation(),
            "RDMA-Sync {:.3} should not trail Socket-Async {:.3} (period {sample_period_ms}ms)",
            sync.mean_deviation(),
            socket_async.mean_deviation()
        );
        prop_assert!(
            sync.max_deviation() <= socket_async.max_deviation(),
            "worst-case deviation must not regress either"
        );
    }

    /// Reconfiguration stability: under *stable, balanced* load the
    /// adaptation agent must never move a node — for either the fine
    /// (2 ms RDMA) or coarse (500 ms socket) profile, at any uniform load
    /// level. Oscillation under steady state would thrash caches and
    /// processes; the imbalance-ratio and hysteresis guards exist exactly
    /// to forbid it.
    #[test]
    fn reconfiguration_never_oscillates_under_stable_load(
        fine in any::<bool>(),
        threads_per_node in 0u32..4,
    ) {
        use nextgen_datacenter::reconfig::{AdaptCfg, Reconfigurator, SiteMap};
        use nextgen_datacenter::resmon::{Monitor, MonitorCfg, MonitorScheme};

        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 5);
        let backends = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let map = SiteMap::new(
            &cluster,
            NodeId(0),
            &[(NodeId(1), 0), (NodeId(2), 0), (NodeId(3), 1), (NodeId(4), 1)],
        );
        let (scheme, cfg) = if fine {
            (MonitorScheme::RdmaSync, AdaptCfg::fine(2))
        } else {
            (MonitorScheme::SocketSync, AdaptCfg::coarse(2))
        };
        let monitor =
            Monitor::spawn(&cluster, scheme, MonitorCfg::default(), NodeId(0), &backends);
        let agent = Reconfigurator::spawn(sim.handle(), NodeId(0), map, monitor, 2, cfg);

        // Identical steady load on every backend of both sites.
        for node in backends {
            let cpu = cluster.cpu(node);
            let h = sim.handle();
            sim.spawn(async move {
                for _ in 0..threads_per_node {
                    let c = cpu.clone();
                    h.spawn(async move { c.execute(ms(1_500)).await });
                }
            });
        }
        sim.run_until(ms(1_000));
        prop_assert!(agent.checks() > 0, "the agent must actually be evaluating load");
        prop_assert_eq!(
            agent.moves().len(),
            0,
            "stable balanced load must never trigger a move (fine={}, threads={})",
            fine,
            threads_per_node
        );
    }
}

/// A release that finds its successor's request still in flight keeps the
/// grant it owes that successor. Node 1 holds lock 0. At 99 µs node 2
/// starts a 4 MiB write, which holds its outbound link, and at 100 µs it
/// queues behind node 1: its request reaches node 1 late. At 130 µs node 1
/// releases and requests again, before that request arrives; at 200 µs
/// node 3 queues last. Every design grants all four requests.
#[test]
fn a_release_with_its_successor_in_flight_loses_no_waiter() {
    use nextgen_datacenter::fabric::RemoteAddr;
    use std::cell::RefCell;
    let mut lost = Vec::new();
    for design in DesignKind::ALL {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        let clients: Vec<Rc<_>> = design
            .build(&cluster, DlmConfig, NodeId(0), 4, &members)
            .into_iter()
            .map(Rc::new)
            .collect();
        let grants: Rc<RefCell<Vec<(u32, u64)>>> = Rc::default();
        let h = sim.handle();
        // (node, first request, release times): a release at 0 holds the
        // lock 10 µs; node 1's second request follows its first unlock.
        for (node, start_us, releases) in [(1, 0, &[130, 0][..]), (2, 100, &[0]), (3, 200, &[0])] {
            let (client, grants, h) = (Rc::clone(&clients[node]), Rc::clone(&grants), h.clone());
            sim.spawn(async move {
                h.sleep(us(start_us)).await;
                for &release_us in releases {
                    client.lock(0, LockMode::Exclusive).await;
                    grants.borrow_mut().push((node as u32, h.now()));
                    let until = us(release_us).max(h.now() + us(10));
                    h.sleep(until - h.now()).await;
                    client.unlock(0).await;
                }
            });
        }
        let region = cluster.register(NodeId(0), 4 << 20);
        let c = cluster.clone();
        let hh = h.clone();
        sim.spawn(async move {
            hh.sleep(us(99)).await;
            let addr = RemoteAddr {
                node: NodeId(0),
                region,
                offset: 0,
            };
            c.rdma_write(NodeId(2), addr, &vec![7u8; 4 << 20]).await;
        });
        sim.run_until(ms(50));
        let grants = grants.borrow();
        if grants.len() != 4 {
            lost.push(format!("{design:?} granted only (node, ns) {grants:?}"));
        }
    }
    assert!(lost.is_empty(), "a waiter was lost:\n{}", lost.join("\n"));
}
