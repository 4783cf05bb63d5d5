//! The monitoring service: one front-end observing many back-end nodes.
//!
//! The RDMA schemes read each back-end's registered kernel-statistics block
//! directly ([`dc_fabric::kstat`]); the socket schemes talk to a user-level
//! monitoring daemon whose replies queue behind application load — the
//! paper's central observation is that accuracy is a property of the *read
//! path*, not of the sampling rate.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use dc_fabric::kstat::{KernelStats, KSTAT_REGION_LEN};
use dc_fabric::{Cluster, NodeId, Transport};
use dc_sim::join::JoinAll;
use dc_sim::SimTime;
use dc_svc::{
    parse_request, respond_bytes, Cost, Dispatcher, Mode, Service, ServiceSpec, Subsys, SvcClient,
};

use crate::scheme::MonitorScheme;

/// CPU the user-level daemon burns per query/push (reading /proc and
/// formatting — the paper's "extra monitoring process" overhead).
const DAEMON_CPU_NS: u64 = 80_000;

/// Tunables of the monitoring service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorCfg {
    /// Refresh period of the async schemes (and the push period of
    /// Socket-Async).
    pub period_ns: u64,
}

impl Default for MonitorCfg {
    fn default() -> Self {
        MonitorCfg {
            period_ns: 10_000_000, // 10 ms
        }
    }
}

/// A load observation with its freshness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadView {
    /// The observed kernel statistics.
    pub stats: KernelStats,
    /// When the observation reached the reader: the virtual instant the
    /// read or the query completed at the front-end (for Socket-Async, the
    /// instant the daemon sampled before pushing).
    pub observed_at: SimTime,
}

impl LoadView {
    /// Scalar load metric used by the load balancer: run queue plus, for
    /// the enhanced scheme, queued requests.
    pub fn load_metric(&self, enhanced: bool) -> u64 {
        if enhanced {
            self.stats.run_queue + self.stats.accept_queue + self.stats.conns / 4
        } else {
            self.stats.run_queue
        }
    }
}

struct TargetState {
    cached: RefCell<LoadView>,
    daemon_port: Option<u16>,
}

struct Inner {
    cluster: Cluster,
    scheme: MonitorScheme,
    cfg: MonitorCfg,
    frontend: NodeId,
    client: SvcClient,
    /// Sorted by node id, so spawn order and every view are id-ordered.
    targets: Vec<(NodeId, Rc<TargetState>)>,
}

/// The monitoring front-end service.
#[derive(Clone)]
pub struct Monitor {
    inner: Rc<Inner>,
}

impl Monitor {
    /// Stand up monitoring of `targets` from `frontend` under `scheme`.
    pub fn spawn(
        cluster: &Cluster,
        scheme: MonitorScheme,
        cfg: MonitorCfg,
        frontend: NodeId,
        targets: &[NodeId],
    ) -> Monitor {
        let mut sorted = Vec::with_capacity(targets.len());
        for &t in targets {
            let daemon_port = scheme.needs_daemon().then(|| {
                let port = cluster.alloc_port_for(t, "resmon.daemon");
                spawn_daemon(cluster, t, port);
                port
            });
            sorted.push((
                t,
                Rc::new(TargetState {
                    cached: RefCell::new(LoadView {
                        stats: KernelStats::default(),
                        observed_at: 0,
                    }),
                    daemon_port,
                }),
            ));
        }
        sorted.sort_by_key(|&(t, _)| t);
        assert!(
            sorted.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate monitor target"
        );
        let monitor = Monitor {
            inner: Rc::new(Inner {
                cluster: cluster.clone(),
                scheme,
                cfg,
                frontend,
                client: SvcClient::new(cluster, frontend),
                targets: sorted,
            }),
        };
        match scheme {
            MonitorScheme::RdmaAsync => monitor.spawn_rdma_poller(),
            MonitorScheme::SocketAsync => monitor.spawn_socket_pushers(),
            _ => {}
        }
        monitor
    }

    /// The scheme in force.
    pub fn scheme(&self) -> MonitorScheme {
        self.inner.scheme
    }

    /// Current load view of `target` under the scheme's semantics: a fresh
    /// round trip for the sync schemes, the cached view for the async ones.
    pub async fn observe(&self, target: NodeId) -> LoadView {
        let targets = &self.inner.targets;
        let i = targets
            .binary_search_by_key(&target, |&(t, _)| t)
            .unwrap_or_else(|_| panic!("{target:?} is not a monitored target"));
        let st = &targets[i].1;
        match self.inner.scheme {
            MonitorScheme::RdmaSync | MonitorScheme::ERdmaSync => {
                self.rdma_read_stats(target).await
            }
            MonitorScheme::SocketSync => self.socket_query(target, st).await,
            MonitorScheme::RdmaAsync | MonitorScheme::SocketAsync => *st.cached.borrow(),
        }
    }

    /// The scalar load metric the balancer feeds on.
    pub async fn load(&self, target: NodeId) -> u64 {
        let enhanced = self.inner.scheme == MonitorScheme::ERdmaSync;
        self.observe(target).await.load_metric(enhanced)
    }

    /// The monitored targets, in id order.
    pub fn targets(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.inner.targets.iter().map(|&(t, _)| t)
    }

    /// Probe every target at once, inside the calling task: one
    /// [`dc_sim::SimHandle::join_all`] over the per-target [`Monitor::load`]
    /// futures, so the sync schemes' round trips overlap and the async
    /// schemes' cached views are read without suspending. The probes' array
    /// is the one the previous view left in the `Sim`'s store. Yields
    /// `(node, load)` in id order.
    fn probe_all(&self) -> JoinAll<impl Future<Output = (NodeId, u64)>> {
        self.inner.cluster.sim().join_all(self.targets().map(|t| {
            let monitor = self.clone();
            async move { (t, monitor.load(t).await) }
        }))
    }

    /// The least-loaded target right now (ties broken by lowest node id).
    pub async fn least_loaded(&self) -> NodeId {
        let view = self.probe_all().await;
        view.min_by_key(|&(n, l)| (l, n))
            .map(|(n, _)| n)
            .expect("monitor has no targets")
    }

    async fn rdma_read_stats(&self, target: NodeId) -> LoadView {
        let cluster = &self.inner.cluster;
        LoadView {
            stats: cluster.read_kstat(self.inner.frontend, target).await,
            // The one-sided read samples at the target mid-flight; the
            // freshness error is half a round trip.
            observed_at: cluster.sim().now(),
        }
    }

    async fn socket_query(&self, target: NodeId, st: &TargetState) -> LoadView {
        let port = st.daemon_port.expect("socket scheme without daemon");
        let resp = self
            .inner
            .client
            .call(target, port, &[], Transport::Tcp)
            .await;
        let view = LoadView {
            stats: KernelStats::decode(&resp),
            observed_at: self.inner.cluster.sim().now(),
        };
        *st.cached.borrow_mut() = view;
        view
    }

    fn spawn_rdma_poller(&self) {
        for &(target, ref st) in &self.inner.targets {
            let st = Rc::clone(st);
            let monitor = self.clone();
            let sim = self.inner.cluster.sim().clone();
            let period = self.inner.cfg.period_ns;
            sim.clone().spawn_detached(async move {
                loop {
                    let view = monitor.rdma_read_stats(target).await;
                    *st.cached.borrow_mut() = view;
                    sim.sleep(period).await;
                }
            });
        }
    }

    fn spawn_socket_pushers(&self) {
        // The back-end daemon pushes periodically; the push pays daemon CPU
        // (queued behind load) and TCP processing on both sides.
        for &(target, ref st) in &self.inner.targets {
            let st = Rc::clone(st);
            let cluster = self.inner.cluster.clone();
            let period = self.inner.cfg.period_ns;
            let sim = cluster.sim().clone();
            sim.clone().spawn_detached(async move {
                loop {
                    // Daemon wakes, reads /proc (CPU), pushes the sample.
                    cluster.cpu(target).execute(DAEMON_CPU_NS).await;
                    let stats = cluster.cpu(target).snapshot();
                    let observed_at = sim.now();
                    // Model the push as the TCP costs of a small message.
                    let m = cluster.model().clone();
                    cluster
                        .cpu(target)
                        .execute(m.tcp_send_cpu(KSTAT_REGION_LEN))
                        .await;
                    sim.sleep(m.tcp_base_ns).await;
                    *st.cached.borrow_mut() = LoadView { stats, observed_at };
                    sim.sleep(period).await;
                }
            });
        }
    }
}

fn spawn_daemon(cluster: &Cluster, node: NodeId, port: u16) {
    // The user-level daemon must get the CPU to read /proc and reply — under
    // load this queueing is where the accuracy dies. The pump charges
    // `DAEMON_CPU_NS` on the target's CPU before each reply.
    let spec = ServiceSpec {
        name: "resmon.daemon",
        subsys: Subsys::Resmon,
        node,
        port,
        cost: Cost::Cpu(DAEMON_CPU_NS),
        mode: Mode::Serial,
        queue_cap: None,
    };
    // The daemon's replies, kept for reuse: each request rewrites the first
    // one no client or wire still holds, so the list is as long as the most
    // replies ever in flight at once.
    let replies: Rc<RefCell<Vec<Bytes>>> = Rc::default();
    let dispatcher = Dispatcher::new().fallback(move |ctx, msg| {
        let replies = Rc::clone(&replies);
        async move {
            let req = parse_request(&msg);
            let block = ctx.cluster.cpu(node).snapshot().to_block();
            let reply = fill_reply(&mut replies.borrow_mut(), &block);
            respond_bytes(&ctx.cluster, node, &req, reply, Transport::Tcp).await;
        }
    });
    Service::spawn(cluster, spec, dispatcher);
}

/// `block` in the first of `replies` held by nothing else, rewritten in
/// place; a new buffer, kept in `replies`, when every one is in flight.
fn fill_reply(replies: &mut Vec<Bytes>, block: &[u8]) -> Bytes {
    for reply in replies.iter_mut() {
        if let Some(buf) = reply.try_mut() {
            buf.copy_from_slice(block);
            return reply.clone();
        }
    }
    let reply = Bytes::from(block.to_vec());
    replies.push(reply.clone());
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fabric::FabricModel;
    use dc_sim::time::{ms, us};
    use dc_sim::Sim;
    use dc_workloads::{BurstPhase, BurstSchedule};

    fn setup(scheme: MonitorScheme) -> (Sim, Cluster, Monitor) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let monitor = Monitor::spawn(
            &cluster,
            scheme,
            MonitorCfg::default(),
            NodeId(0),
            &[NodeId(1)],
        );
        (sim, cluster, monitor)
    }

    #[test]
    fn rdma_sync_sees_exact_thread_count() {
        let (sim, cluster, monitor) = setup(MonitorScheme::RdmaSync);
        let cpu = cluster.cpu(NodeId(1));
        cpu.thread_started();
        cpu.thread_started();
        cpu.thread_started();
        let view = sim.run_to(async move { monitor.observe(NodeId(1)).await });
        assert_eq!(view.stats.app_threads, 3);
    }

    #[test]
    fn rdma_read_is_fast_and_cpu_free() {
        let (sim, cluster, monitor) = setup(MonitorScheme::RdmaSync);
        let h = sim.handle();
        let t = sim.run_to(async move {
            monitor.observe(NodeId(1)).await;
            h.now()
        });
        assert!(t < us(20), "RDMA observe took {t}ns");
        assert_eq!(cluster.cpu(NodeId(1)).snapshot().busy_ns, 0);
    }

    #[test]
    fn socket_sync_pays_daemon_cpu() {
        let (sim, cluster, monitor) = setup(MonitorScheme::SocketSync);
        let view = sim.run_to(async move { monitor.observe(NodeId(1)).await });
        assert_eq!(view.stats.app_threads, 0);
        assert!(cluster.cpu(NodeId(1)).snapshot().busy_ns >= 80_000);
    }

    /// The daemon reuses its reply buffers: a second probe, after the load
    /// changed, must read the new statistics, not the first reply's bytes
    /// handed out again unrewritten.
    #[test]
    fn socket_sync_replies_are_rewritten_when_reused() {
        let (sim, cluster, monitor) = setup(MonitorScheme::SocketSync);
        let m2 = monitor.clone();
        let first = sim.run_to(async move { m2.observe(NodeId(1)).await });
        let cpu = cluster.cpu(NodeId(1));
        cpu.thread_started();
        cpu.accept_enqueued();
        let second = sim.run_to(async move { monitor.observe(NodeId(1)).await });
        assert_eq!((first.stats.app_threads, first.stats.accept_queue), (0, 0));
        assert_eq!(
            (second.stats.app_threads, second.stats.accept_queue),
            (1, 1)
        );
        assert_ne!(first.stats, second.stats);
    }

    #[test]
    fn socket_sync_is_delayed_by_load_rdma_is_not() {
        let observe_latency = |scheme: MonitorScheme, loaded: bool| {
            let (sim, cluster, monitor) = setup(scheme);
            if loaded {
                let schedule = BurstSchedule::new(vec![BurstPhase {
                    threads: 8,
                    duration_ns: ms(100),
                }]);
                let _load =
                    crate::loadgen::BurstLoad::spawn(&cluster, NodeId(1), schedule, ms(500));
                sim.run_until(ms(5)); // let the load establish
            }
            let h = sim.handle();
            sim.run_to(async move {
                let t0 = h.now();
                monitor.observe(NodeId(1)).await;
                h.now() - t0
            })
        };
        let socket_penalty = observe_latency(MonitorScheme::SocketSync, true)
            - observe_latency(MonitorScheme::SocketSync, false);
        let rdma_penalty = observe_latency(MonitorScheme::RdmaSync, true)
            .saturating_sub(observe_latency(MonitorScheme::RdmaSync, false));
        assert!(socket_penalty > ms(3), "socket_penalty={socket_penalty}");
        assert_eq!(rdma_penalty, 0, "rdma_penalty={rdma_penalty}");
    }

    #[test]
    fn rdma_async_serves_cached_views_that_refresh() {
        let (sim, cluster, monitor) = setup(MonitorScheme::RdmaAsync);
        let cpu = cluster.cpu(NodeId(1));
        sim.run_until(ms(1));
        cpu.thread_started();
        // Cached view is stale until the next poll lands…
        let m2 = monitor.clone();
        let v1 = sim.run_to(async move { m2.observe(NodeId(1)).await });
        assert_eq!(v1.stats.app_threads, 0);
        // …and fresh after it.
        sim.run_until(ms(25));
        let m3 = monitor.clone();
        let v2 = sim.run_to(async move { m3.observe(NodeId(1)).await });
        assert_eq!(v2.stats.app_threads, 1);
    }

    #[test]
    fn socket_async_pushes_periodically() {
        let (sim, cluster, monitor) = setup(MonitorScheme::SocketAsync);
        let cpu = cluster.cpu(NodeId(1));
        cpu.thread_started();
        sim.run_until(ms(30));
        let m2 = monitor.clone();
        let v = sim.run_to(async move { m2.observe(NodeId(1)).await });
        assert_eq!(v.stats.app_threads, 1);
        assert!(v.observed_at > 0);
    }

    #[test]
    fn probe_all_and_least_loaded() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
        let monitor = Monitor::spawn(
            &cluster,
            MonitorScheme::RdmaSync,
            MonitorCfg::default(),
            NodeId(0),
            &[NodeId(1), NodeId(2), NodeId(3)],
        );
        // Load node 1 heavily, node 3 lightly; node 2 idle.
        for _ in 0..4 {
            let cpu = cluster.cpu(NodeId(1));
            sim.spawn(async move { cpu.execute(ms(50)).await });
        }
        {
            let cpu = cluster.cpu(NodeId(3));
            sim.spawn(async move { cpu.execute(ms(50)).await });
        }
        sim.run_until(ms(1));
        let m2 = monitor.clone();
        let (view, best) = sim.run_to(async move {
            (
                m2.probe_all().await.collect::<Vec<_>>(),
                m2.least_loaded().await,
            )
        });
        assert_eq!(
            view.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(view[0].1, 4);
        assert_eq!(view[1].1, 0);
        assert_eq!(view[2].1, 1);
        assert_eq!(best, NodeId(2));
    }

    /// The in-task fan-out against the design it replaced, written out: one
    /// spawned, joined task per target. Under every scheme, on back-ends
    /// under different load (so the socket daemons answer out of id order),
    /// both see the same `(node, load)` pairs at the same virtual instant.
    #[test]
    fn probe_all_matches_the_spawned_probe_reference() {
        let run = |scheme: MonitorScheme, spawned: bool| {
            let sim = Sim::new();
            let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
            let targets = [NodeId(1), NodeId(2), NodeId(3)];
            let monitor =
                Monitor::spawn(&cluster, scheme, MonitorCfg::default(), NodeId(0), &targets);
            for (node, jobs) in [(NodeId(1), 5), (NodeId(3), 2)] {
                for _ in 0..jobs {
                    let cpu = cluster.cpu(node);
                    cpu.accept_enqueued();
                    sim.spawn(async move { cpu.execute(ms(200)).await });
                }
            }
            // Past two refresh periods: the async schemes have cached views.
            sim.run_until(ms(25));
            let h = sim.handle();
            sim.run_to(async move {
                let view = if spawned {
                    let probes: Vec<_> = monitor
                        .targets()
                        .map(|t| {
                            let m = monitor.clone();
                            h.spawn(async move { (t, m.load(t).await) })
                        })
                        .collect();
                    let mut view = Vec::new();
                    for p in probes {
                        view.push(p.await);
                    }
                    view
                } else {
                    monitor.probe_all().await.collect()
                };
                (view, monitor.least_loaded().await, h.now())
            })
        };
        for scheme in [
            MonitorScheme::SocketSync,
            MonitorScheme::SocketAsync,
            MonitorScheme::RdmaSync,
            MonitorScheme::RdmaAsync,
            MonitorScheme::ERdmaSync,
        ] {
            let (view, best, at) = run(scheme, false);
            assert_eq!(
                (view.clone(), best, at),
                run(scheme, true),
                "{}",
                scheme.label()
            );
            assert_eq!(view.len(), 3);
            assert!(view[0].1 > view[2].1 && view[2].1 > view[1].1, "{view:?}");
            assert_eq!(best, NodeId(2));
        }
    }

    /// Poller tasks are spawned in target-id order whatever order the
    /// targets were given in, so the schedule cannot depend on a per-process
    /// (or per-map) hash seed: the first round of polls, all issued at t = 0
    /// and all completing at the same instant, completes in id order.
    #[test]
    fn pollers_spawn_in_id_order() {
        use dc_trace::{ArgVal, TraceMode};
        let given = [5, 2, 8, 1, 7, 3, 6, 4].map(NodeId);
        for _ in 0..2 {
            let sim = Sim::new();
            let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 9);
            cluster.tracer().enable(TraceMode::Full);
            let monitor = Monitor::spawn(
                &cluster,
                MonitorScheme::RdmaAsync,
                MonitorCfg::default(),
                NodeId(0),
                &given,
            );
            sim.run_until(ms(1));
            let polled: Vec<u64> = cluster
                .tracer()
                .events()
                .iter()
                .filter(|e| e.name == "verb.read")
                .map(|e| match e.args.iter().find(|(k, _)| *k == "target") {
                    Some((_, ArgVal::U(t))) => *t,
                    other => panic!("verb.read without a target: {other:?}"),
                })
                .collect();
            assert_eq!(polled, (1..=8).collect::<Vec<u64>>());
            assert!(monitor.targets().eq((1..=8).map(NodeId)));
        }
    }

    #[test]
    fn enhanced_metric_includes_queue_state() {
        let view = LoadView {
            stats: KernelStats {
                run_queue: 2,
                accept_queue: 5,
                conns: 8,
                ..KernelStats::default()
            },
            observed_at: 0,
        };
        assert_eq!(view.load_metric(false), 2);
        assert_eq!(view.load_metric(true), 2 + 5 + 2);
    }
}
