//! The shared-hosting experiment engine behind Figure 8b.
//!
//! A front-end load balancer routes requests of two hosted services — a
//! Zipf-popularity document service with divergent per-document CPU demand
//! and a RUBiS-like auction service — across a pool of back-end application
//! servers. Each back-end runs a fixed worker pool over an accept queue, so
//! its kernel statistics expose both the run queue and the queued-request
//! depth (the signal the enhanced e-RDMA scheme exploits).
//!
//! The balancer's only lever is *how it learns load* ([`MonitorScheme`]):
//! accurate, fresh, CPU-free views route around hotspots; stale or
//! perturbed views herd requests and lose throughput.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use dc_fabric::{Cluster, FabricModel, FaultConfig, NodeId};
use dc_resmon::{Monitor, MonitorCfg, MonitorScheme};
use dc_sim::rng::component_rng;
use dc_sim::sync::{Rendezvous, Semaphore};
use dc_sim::{Sim, SimHandle, SimTime};
use dc_workloads::{RubisMix, Zipf};

use dc_trace::TraceMode;

use crate::webfarm::{farm_fault_plan, TraceArtifacts, Window};

/// Documents in the Zipf service.
const ZIPF_DOCS: usize = 256;
/// Client think time between requests.
const THINK_NS: u64 = 500_000;
/// Worker processes per back-end.
const WORKERS_PER_BACKEND: usize = 2;
/// Fraction of requests treated as warm-up (excluded from metrics).
const WARMUP_FRACTION: f64 = 0.2;

/// Configuration of one hosting run.
#[derive(Debug, Clone)]
pub struct HostingCfg {
    /// Monitoring scheme the balancer uses.
    pub scheme: MonitorScheme,
    /// Number of back-end application servers.
    pub backends: usize,
    /// Zipf exponent of the document service's popularity.
    pub zipf_alpha: f64,
    /// Concurrent closed-loop clients (split between the two services).
    pub clients: usize,
    /// Total requests (both services, including warm-up).
    pub requests: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Optional fault injection: `(fault_seed, shape)`, installed before any
    /// traffic. The front-end (node 0) is forced immune so the balancer
    /// itself stays reachable; back-ends may crash, stall, and lose messages.
    pub faults: Option<(u64, FaultConfig)>,
}

impl Default for HostingCfg {
    fn default() -> Self {
        HostingCfg {
            scheme: MonitorScheme::RdmaSync,
            backends: 4,
            zipf_alpha: 0.75,
            clients: 24,
            requests: 3_000,
            seed: 11,
            faults: None,
        }
    }
}

/// Result of one hosting run.
#[derive(Debug, Clone)]
pub struct HostingResult {
    /// Steady-state requests per second across both services.
    pub tps: f64,
    /// Mean response latency (ns).
    pub mean_latency_ns: u64,
    /// 99th-percentile latency (ns).
    pub p99_latency_ns: u64,
    /// Measured span (ns).
    pub span_ns: SimTime,
}

struct Job {
    cpu_ns: u64,
    resp_bytes: usize,
    /// Index of the closed-loop client waiting on this job.
    client: usize,
}

/// Where clients wait for their responses, each parked under its own index
/// (a closed-loop client has at most one job in flight).
type Responses = Rc<Rendezvous<usize, ()>>;

/// A back-end's accept queue and the signal its idle workers park on,
/// shared by the workers and the submitter in one `Rc`.
struct Accept {
    queue: RefCell<VecDeque<Job>>,
    /// One permit per submitted job.
    wake: Semaphore,
}

/// One back-end's worker pool over an accept queue, with kernel statistics
/// kept live (accept-queue depth included).
#[derive(Clone)]
struct AppServer {
    cluster: Cluster,
    node: NodeId,
    accept: Rc<Accept>,
}

impl AppServer {
    fn spawn(cluster: &Cluster, sim: &SimHandle, node: NodeId, responses: &Responses) -> AppServer {
        let srv = AppServer {
            cluster: cluster.clone(),
            node,
            accept: Rc::new(Accept {
                queue: RefCell::default(),
                wake: Semaphore::new(0),
            }),
        };
        let model = cluster.model().clone();
        for _ in 0..WORKERS_PER_BACKEND {
            let s = srv.clone();
            let model = model.clone();
            let sim2 = sim.clone();
            let responses = Rc::clone(responses);
            sim.spawn_detached(async move {
                let cpu = s.cluster.cpu(s.node);
                cpu.thread_started();
                loop {
                    let job = loop {
                        if let Some(j) = s.accept.queue.borrow_mut().pop_front() {
                            break j;
                        }
                        s.accept.wake.acquire().await;
                    };
                    cpu.accept_dequeued();
                    cpu.execute(job.cpu_ns).await;
                    // Response transmission costs (kernel send path).
                    cpu.execute(model.tcp_send_cpu(job.resp_bytes)).await;
                    sim2.sleep(model.tcp_bytes_time(job.resp_bytes)).await;
                    let delivered = responses.fulfil(job.client, ());
                    debug_assert!(delivered, "client {} is not waiting", job.client);
                }
            });
        }
        srv
    }

    fn submit(&self, job: Job) {
        self.cluster.cpu(self.node).accept_enqueued();
        self.accept.queue.borrow_mut().push_back(job);
        self.accept.wake.release();
    }
}

/// Run one hosting configuration and report throughput.
pub fn run_hosting(cfg: &HostingCfg) -> HostingResult {
    run_hosting_inner(cfg, None).0
}

/// [`run_hosting`] with the cluster tracer on in `mode`: the same schedule
/// and result, plus the artifacts (as [`crate::run_webfarm_traced`]).
pub fn run_hosting_traced(cfg: &HostingCfg, mode: TraceMode) -> (HostingResult, TraceArtifacts) {
    let (result, artifacts) = run_hosting_inner(cfg, Some(mode));
    (result, artifacts.expect("traced run returns artifacts"))
}

fn run_hosting_inner(
    cfg: &HostingCfg,
    trace: Option<TraceMode>,
) -> (HostingResult, Option<TraceArtifacts>) {
    let sim = Sim::new();
    let total_nodes = 1 + cfg.backends;
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), total_nodes);
    if let Some(mode) = trace {
        cluster.tracer().enable(mode);
    }
    let frontend = NodeId(0);
    if let Some((fault_seed, fault_cfg)) = &cfg.faults {
        cluster.install_faults(farm_fault_plan(*fault_seed, fault_cfg, total_nodes));
    }
    let backends: Vec<NodeId> = (1..=cfg.backends as u32).map(NodeId).collect();
    let monitor = Monitor::spawn(
        &cluster,
        cfg.scheme,
        MonitorCfg::default(),
        frontend,
        &backends,
    );
    let responses: Responses = Rc::default();
    let servers: Vec<AppServer> = backends
        .iter()
        .map(|&b| AppServer::spawn(&cluster, cluster.sim(), b, &responses))
        .collect();

    let zipf = Rc::new(Zipf::new(ZIPF_DOCS, cfg.zipf_alpha));
    let rubis = Rc::new(RubisMix::new());

    let window = Window::new(cfg.requests, WARMUP_FRACTION);

    let mut client_handles = Vec::new();
    for client in 0..cfg.clients {
        let zipf_service = client % 2 == 0;
        let mut rng = component_rng(cfg.seed, client as u64);
        let zipf = Rc::clone(&zipf);
        let rubis = Rc::clone(&rubis);
        let servers = servers.clone();
        let monitor = monitor.clone();
        let window = Rc::clone(&window);
        let responses = Rc::clone(&responses);
        let sim_h = sim.handle();
        client_handles.push(sim.spawn(async move {
            while let Some(claim) = window.claim(sim_h.now()) {
                // Compose the request.
                let (cpu_ns, resp_bytes) = if zipf_service {
                    let doc = zipf.sample(&mut rng);
                    // Divergent document costs: some documents are dynamic
                    // and expensive, some static and cheap.
                    let cpu = 150_000 + (doc as u64 % 10) * 220_000;
                    (cpu, 8 * 1024)
                } else {
                    let op = rubis.sample(&mut rng);
                    (op.cpu_ns(), op.response_bytes())
                };
                // Balance: the monitor probes every back-end in parallel
                // and the lowest-loaded one (ties by id) wins.
                let best = monitor.least_loaded().await;
                let response = responses.wait(client);
                servers[best.idx() - 1].submit(Job {
                    cpu_ns,
                    resp_bytes,
                    client,
                });
                response.await;
                window.complete(claim, sim_h.now());
                sim_h.sleep(THINK_NS).await;
            }
        }));
    }

    // Run until every client finishes (monitor pollers never quiesce).
    sim.run_to(async move {
        for c in client_handles {
            c.await;
        }
    });
    let (tps, mean_latency_ns, p99_latency_ns, span_ns) = window.finish();
    let result = HostingResult {
        tps,
        mean_latency_ns,
        p99_latency_ns,
        span_ns,
    };
    (result, trace.map(|_| TraceArtifacts::collect(&cluster)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scheme: MonitorScheme) -> HostingCfg {
        HostingCfg {
            scheme,
            backends: 3,
            clients: 12,
            requests: 800,
            ..HostingCfg::default()
        }
    }

    #[test]
    fn hosting_completes_and_reports() {
        let r = run_hosting(&quick(MonitorScheme::RdmaSync));
        assert!(r.tps > 0.0);
        assert!(r.mean_latency_ns > 0);
        assert!(r.span_ns > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_hosting(&quick(MonitorScheme::RdmaAsync));
        let b = run_hosting(&quick(MonitorScheme::RdmaAsync));
        assert_eq!(a.tps, b.tps);
        assert_eq!(a.mean_latency_ns, b.mean_latency_ns);
    }

    #[test]
    fn rdma_monitoring_beats_socket_sync() {
        let socket = run_hosting(&quick(MonitorScheme::SocketSync));
        let rdma = run_hosting(&quick(MonitorScheme::RdmaSync));
        assert!(
            rdma.tps > socket.tps,
            "rdma {} vs socket {}",
            rdma.tps,
            socket.tps
        );
    }
}
