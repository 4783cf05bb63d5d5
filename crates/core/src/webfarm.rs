//! The multi-tier web-serving experiment engine behind Figure 6.
//!
//! Topology: node 0 hosts the backend (application/database origin) and the
//! cache directory; nodes `1..=P` are proxies; the next `A` nodes are
//! application servers whose memory joins the aggregate cache under
//! MTACC/HYBCC. Closed-loop clients issue Zipf-distributed document requests
//! against the proxies; every request pays parse CPU, the caching scheme's
//! serve path, and response transmission. Reported TPS excludes a warm-up
//! fraction so the steady-state cache behaviour dominates.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dc_coopcache::{Backend, CacheCfg, CacheScheme, CacheStats, CoopCache};
use dc_fabric::{Cluster, FabricModel, FaultConfig, FaultPlan, NodeId};
use dc_sim::rng::component_rng;
use dc_sim::{Sim, SimTime};
use dc_workloads::{FileSet, Zipf};

use dc_trace::{tps, LatencyHist, MetricsSnapshot, Subsys, TraceMode};

/// Fixed per-request handling overhead at a proxy (parsing, connection
/// handling), charged before the caching scheme serves.
const HANDLING_NS: u64 = 20_000;

/// Configuration of one web-farm run.
#[derive(Debug, Clone)]
pub struct WebFarmCfg {
    /// Caching scheme under test.
    pub scheme: CacheScheme,
    /// Number of proxy nodes.
    pub proxies: usize,
    /// Number of application-server nodes (cache donors under MTACC).
    pub app_nodes: usize,
    /// Documents in the working set.
    pub num_docs: usize,
    /// Uniform document size in bytes.
    pub doc_size: usize,
    /// Cache memory per node.
    pub cache_bytes_per_node: usize,
    /// Zipf exponent of document popularity.
    pub zipf_alpha: f64,
    /// Concurrent closed-loop clients per proxy.
    pub clients_per_proxy: usize,
    /// Total requests to issue (including warm-up).
    pub requests: usize,
    /// Fraction of requests treated as warm-up (excluded from metrics).
    pub warmup_fraction: f64,
    /// Experiment seed.
    pub seed: u64,
    /// Optional fault injection: `(fault_seed, shape)`. The plan is
    /// materialized from the seed and installed before any traffic. Node 0
    /// (backend + directory home) is forced immune — a down origin has no
    /// degraded mode, every other failure does.
    pub faults: Option<(u64, FaultConfig)>,
}

impl Default for WebFarmCfg {
    fn default() -> Self {
        WebFarmCfg {
            scheme: CacheScheme::Bcc,
            proxies: 2,
            app_nodes: 2,
            num_docs: 512,
            doc_size: 16 * 1024,
            cache_bytes_per_node: 2 * 1024 * 1024,
            zipf_alpha: 0.75,
            clients_per_proxy: 8,
            requests: 4_000,
            warmup_fraction: 0.25,
            seed: 42,
            faults: None,
        }
    }
}

/// Result of one web-farm run.
#[derive(Debug, Clone)]
pub struct WebFarmResult {
    /// Steady-state transactions per second.
    pub tps: f64,
    /// Mean steady-state response latency (ns).
    pub mean_latency_ns: u64,
    /// 99th-percentile latency (ns).
    pub p99_latency_ns: u64,
    /// Cache counters over the whole run.
    pub cache: CacheStats,
    /// Virtual time of the measured span (ns).
    pub span_ns: SimTime,
}

/// Exported observability artifacts of a traced run.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// Chrome trace-event JSON (load in Perfetto / `chrome://tracing`).
    pub trace_json: String,
    /// Flat metrics-registry snapshot as JSON.
    pub metrics_json: String,
    /// Events retained by the recorder.
    pub events: usize,
    /// Events discarded by ring eviction or sampling.
    pub dropped: u64,
    /// The retained events themselves, for offline analysis (flamegraph
    /// folding, critical-path attribution) without re-parsing the JSON.
    pub raw_events: Vec<dc_trace::Event>,
}

impl TraceArtifacts {
    /// Export what `cluster`'s tracer and metrics registry hold right now
    /// (after folding the executor's counters into the registry).
    pub fn collect(cluster: &Cluster) -> TraceArtifacts {
        cluster.sync_sim_metrics();
        let raw_events = cluster.tracer().events();
        TraceArtifacts {
            trace_json: dc_trace::export_chrome_json(&raw_events),
            metrics_json: cluster.metrics().snapshot().to_json(),
            events: raw_events.len(),
            dropped: cluster.tracer().dropped(),
            raw_events,
        }
    }
}

/// Run one configuration to completion and report.
pub fn run_webfarm(cfg: &WebFarmCfg) -> WebFarmResult {
    run_webfarm_inner(cfg, None, None).0
}

/// [`run_webfarm`] with the cluster tracer enabled in `mode`. Tracing never
/// perturbs the simulated schedule, so the result is identical to the
/// untraced run of the same config, and two traced runs of the same config
/// export byte-identical artifacts.
pub fn run_webfarm_traced(cfg: &WebFarmCfg, mode: TraceMode) -> (WebFarmResult, TraceArtifacts) {
    let (result, artifacts) = run_webfarm_inner(cfg, Some(mode), None);
    (result, artifacts.expect("traced run returns artifacts"))
}

/// [`run_webfarm`] with a periodic metrics observer: every `interval_ns` of
/// virtual time, sim-side counters are synced into the registry and a full
/// [`MetricsSnapshot`] is handed to `on_snapshot` (plus one final snapshot
/// after the run drains). This powers `dc-bench top`. Unlike tracing, the
/// observer schedules real timers, so observed runs are deterministic per
/// config but not schedule-identical to unobserved ones — never use this on
/// a golden-baseline path.
pub fn run_webfarm_observed(
    cfg: &WebFarmCfg,
    interval_ns: SimTime,
    on_snapshot: impl FnMut(MetricsSnapshot) + 'static,
) -> WebFarmResult {
    run_webfarm_inner(cfg, None, Some((interval_ns, Box::new(on_snapshot)))).0
}

type Observer = (SimTime, Box<dyn FnMut(MetricsSnapshot)>);

/// The fault plan every farm engine installs: `cfg` with node 0 forced
/// immune to crashes and stalls. Node 0 is the station the rest of the farm
/// depends on (the backend here and at scale, the balancer under hosting),
/// and a down origin turns a degradation experiment into an outage.
pub(crate) fn farm_fault_plan(seed: u64, cfg: &FaultConfig, nodes: usize) -> FaultPlan {
    let mut cfg = cfg.clone();
    if !cfg.immune_nodes.contains(&NodeId(0)) {
        cfg.immune_nodes.push(NodeId(0));
    }
    FaultPlan::generate(seed, &cfg, nodes)
}

fn run_webfarm_inner(
    cfg: &WebFarmCfg,
    trace: Option<TraceMode>,
    observer: Option<Observer>,
) -> (WebFarmResult, Option<TraceArtifacts>) {
    assert!(cfg.proxies >= 1);
    let sim = Sim::new();
    let total_nodes = 1 + cfg.proxies + cfg.app_nodes;
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), total_nodes);
    if let Some(mode) = trace {
        // Enable before faults install so the static fault-window events
        // are captured too.
        cluster.tracer().enable(mode);
    }
    let backend_node = NodeId(0);
    if let Some((fault_seed, fault_cfg)) = &cfg.faults {
        cluster.install_faults(farm_fault_plan(*fault_seed, fault_cfg, total_nodes));
    }
    let proxies: Vec<NodeId> = (1..=cfg.proxies as u32).map(NodeId).collect();
    let apps: Vec<NodeId> = (cfg.proxies as u32 + 1..total_nodes as u32)
        .map(NodeId)
        .collect();

    let fileset = Rc::new(FileSet::uniform(cfg.num_docs, cfg.doc_size));
    let backend = Backend::spawn(&cluster, backend_node, Rc::clone(&fileset));
    let cache = CoopCache::build(
        &cluster,
        cfg.scheme,
        &proxies,
        &apps,
        backend,
        Rc::clone(&fileset),
        CacheCfg {
            per_node_bytes: cfg.cache_bytes_per_node,
        },
        backend_node,
    );

    // Periodic metrics poller for observed runs. Spawned after all services
    // so the steady-state spawn order of the farm itself is unchanged.
    let observer_cb = observer.map(|(interval, cb)| {
        let cb = Rc::new(RefCell::new(cb));
        let poller_cb = Rc::clone(&cb);
        let poller_cluster = cluster.clone();
        let h = sim.handle();
        sim.handle().spawn_detached(async move {
            loop {
                h.sleep(interval.max(1)).await;
                poller_cluster.sync_sim_metrics();
                let snap = poller_cluster.metrics().snapshot();
                (poller_cb.borrow_mut())(snap);
            }
        });
        cb
    });

    let zipf = Rc::new(Zipf::new(cfg.num_docs, cfg.zipf_alpha));
    let warmup = ((cfg.requests as f64 * cfg.warmup_fraction) as usize).min(cfg.requests);
    let issued: Rc<Cell<usize>> = Rc::default();
    let completed_measured: Rc<Cell<u64>> = Rc::default();
    let measure_start: Rc<Cell<SimTime>> = Rc::new(Cell::new(0));
    let measure_started: Rc<Cell<bool>> = Rc::default();
    let last_done: Rc<Cell<SimTime>> = Rc::default();
    let hist: Rc<RefCell<LatencyHist>> = Rc::new(RefCell::new(LatencyHist::new()));

    let model = cluster.model().clone();
    let mut clients = Vec::new();
    for (pi, &proxy) in proxies.iter().enumerate() {
        for ci in 0..cfg.clients_per_proxy {
            let stream = (pi * cfg.clients_per_proxy + ci) as u64;
            let mut rng = component_rng(cfg.seed, stream);
            let zipf = Rc::clone(&zipf);
            let cache = cache.clone();
            let cluster = cluster.clone();
            let issued = Rc::clone(&issued);
            let completed = Rc::clone(&completed_measured);
            let measure_start = Rc::clone(&measure_start);
            let measure_started = Rc::clone(&measure_started);
            let last_done = Rc::clone(&last_done);
            let hist = Rc::clone(&hist);
            let model = model.clone();
            let requests = cfg.requests;
            let doc_size = cfg.doc_size;
            let sim_h = sim.handle();
            clients.push(sim.spawn(async move {
                loop {
                    let seq = issued.get();
                    if seq >= requests {
                        break;
                    }
                    issued.set(seq + 1);
                    let in_measurement = seq >= warmup;
                    if in_measurement && !measure_started.get() {
                        measure_started.set(true);
                        measure_start.set(sim_h.now());
                    }
                    let doc = zipf.sample(&mut rng) as u32;
                    let t0 = sim_h.now();
                    // Root span of the whole client transaction; its
                    // `stage: request` arg marks it for critical-path
                    // attribution. All begin/complete pairs below are
                    // recording-only, so the schedule is untouched.
                    let tr = cluster.tracer().begin();
                    // Request parsing / connection handling at the proxy.
                    let tp = cluster.tracer().begin();
                    cluster.cpu(proxy).execute(HANDLING_NS).await;
                    if let Some(tp) = tp {
                        cluster.tracer().complete(
                            tp,
                            proxy.0,
                            Subsys::App,
                            "client.parse",
                            vec![("stage", "cpu".into())],
                        );
                    }
                    let (data, _outcome) = cache.serve(proxy, doc).await;
                    debug_assert_eq!(data.len(), doc_size);
                    // Response transmission to the (external) client.
                    let tc = cluster.tracer().begin();
                    cluster
                        .cpu(proxy)
                        .execute(model.tcp_send_cpu(data.len()))
                        .await;
                    if let Some(tc) = tc {
                        cluster.tracer().complete(
                            tc,
                            proxy.0,
                            Subsys::App,
                            "client.send_cpu",
                            vec![("stage", "cpu".into())],
                        );
                    }
                    let tw = cluster.tracer().begin();
                    sim_h.sleep(model.tcp_bytes_time(data.len())).await;
                    if let Some(tw) = tw {
                        cluster.tracer().complete(
                            tw,
                            proxy.0,
                            Subsys::App,
                            "client.send_wire",
                            vec![("stage", "wire".into())],
                        );
                    }
                    if let Some(tr) = tr {
                        cluster.tracer().complete(
                            tr,
                            proxy.0,
                            Subsys::App,
                            "request",
                            vec![("stage", "request".into()), ("doc", doc.into())],
                        );
                    }
                    if in_measurement {
                        completed.set(completed.get() + 1);
                        hist.borrow_mut().record(sim_h.now() - t0);
                        last_done.set(last_done.get().max(sim_h.now()));
                    }
                }
            }));
        }
    }

    // Drive until every client finishes; service daemons and pollers may
    // keep periodic timers alive forever, so quiescence is not the
    // termination condition.
    sim.run_to(async move {
        for c in clients {
            c.await;
        }
    });
    if let Some(cb) = observer_cb {
        // One final snapshot so short runs (or `--once`) always observe the
        // end state even if no poll interval elapsed.
        cluster.sync_sim_metrics();
        (cb.borrow_mut())(cluster.metrics().snapshot());
    }
    let span = last_done.get().saturating_sub(measure_start.get());
    let h = hist.borrow();
    let result = WebFarmResult {
        tps: tps(completed_measured.get(), span),
        mean_latency_ns: h.mean_ns(),
        p99_latency_ns: h.quantile_ns(0.99),
        cache: cache.stats(),
        span_ns: span,
    };
    let artifacts = trace.map(|_| TraceArtifacts::collect(&cluster));
    (result, artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(scheme: CacheScheme) -> WebFarmCfg {
        WebFarmCfg {
            scheme,
            proxies: 2,
            app_nodes: 1,
            num_docs: 64,
            doc_size: 8 * 1024,
            cache_bytes_per_node: 256 * 1024, // 32 docs per node
            zipf_alpha: 0.9,
            clients_per_proxy: 4,
            requests: 600,
            warmup_fraction: 0.3,
            seed: 7,
            faults: None,
        }
    }

    #[test]
    fn farm_completes_and_reports() {
        let r = run_webfarm(&quick_cfg(CacheScheme::Bcc));
        assert!(r.tps > 0.0);
        assert!(r.span_ns > 0);
        assert!(r.cache.total() >= 400); // measured + some warmup overlap
        assert!(r.mean_latency_ns > 0);
        assert!(r.p99_latency_ns >= r.mean_latency_ns);
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let a = run_webfarm(&quick_cfg(CacheScheme::Ccwr));
        let b = run_webfarm(&quick_cfg(CacheScheme::Ccwr));
        assert_eq!(a.tps, b.tps);
        assert_eq!(a.mean_latency_ns, b.mean_latency_ns);
        assert_eq!(a.cache, b.cache);
    }

    #[test]
    fn tracing_does_not_change_results() {
        let cfg = quick_cfg(CacheScheme::Bcc);
        let plain = run_webfarm(&cfg);
        let (traced, art) = run_webfarm_traced(&cfg, TraceMode::Full);
        assert_eq!(plain.tps, traced.tps);
        assert_eq!(plain.mean_latency_ns, traced.mean_latency_ns);
        assert_eq!(plain.cache, traced.cache);
        assert!(art.events > 0);
        assert_eq!(art.dropped, 0);
    }

    #[test]
    fn ring_mode_bounds_trace_memory() {
        let cfg = quick_cfg(CacheScheme::Bcc);
        let (_, art) = run_webfarm_traced(&cfg, TraceMode::Ring(100));
        assert_eq!(art.events, 100);
        assert!(art.dropped > 0);
    }

    #[test]
    fn cooperation_beats_isolated_caches_when_oversubscribed() {
        // Working set (64 × 8k = 512k) is 2× one node's cache but fits in
        // the aggregate: cooperative schemes must hit more and go to the
        // backend less.
        let ac = run_webfarm(&quick_cfg(CacheScheme::Ac));
        let bcc = run_webfarm(&quick_cfg(CacheScheme::Bcc));
        let ccwr = run_webfarm(&quick_cfg(CacheScheme::Ccwr));
        assert!(
            bcc.cache.hit_rate() > ac.cache.hit_rate(),
            "bcc {:.3} vs ac {:.3}",
            bcc.cache.hit_rate(),
            ac.cache.hit_rate()
        );
        assert!(bcc.tps > ac.tps, "bcc {} vs ac {}", bcc.tps, ac.tps);
        assert!(ccwr.tps > ac.tps, "ccwr {} vs ac {}", ccwr.tps, ac.tps);
    }
}
