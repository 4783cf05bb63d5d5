//! Per-node CPU model: a round-robin scheduler over a configurable number of
//! cores, with kernel statistics published into registered memory.
//!
//! Work is executed with [`CpuModel::execute`], which time-slices the job at
//! the preemption quantum and competes FIFO for cores. This produces the one
//! behaviour all of the paper's results hinge on: anything that needs the
//! target node's CPU (socket processing, a user-level monitoring daemon, the
//! SRSL lock server) is delayed by roughly `run_queue × quantum` when the
//! node is loaded, while one-sided RDMA completes unperturbed.
//!
//! Every state change (thread spawn/exit, run-queue and accept-queue
//! transitions) is immediately re-encoded into the node's kernel-statistics
//! region, so an `rdma_read` of that region at any virtual instant sees the
//! true current values — the simulated analogue of registering kernel data
//! structures with the NIC.
//!
//! A node's CPU state ([`NodeCpu`]: the cores, the live statistics and the
//! kstat region) sits inline in the node's slot of its cluster, and a
//! [`CpuModel`] is a view of one node of one cluster.

use std::cell::Cell;
use std::future::Future;

use dc_sim::sync::Semaphore;
use dc_sim::SimTime;

use crate::cluster::{Cluster, NodeId};
use crate::kstat::{KernelStats, KSTAT_REGION_LEN};
use crate::mem::RegionData;

/// Scheduling parameters of a node CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Number of cores (parallel execution slots).
    pub cores: usize,
    /// Preemption quantum: the longest uninterrupted slice one job holds a
    /// core before returning to the back of the run queue.
    pub quantum_ns: u64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        // Single-core nodes with a 1 ms quantum: the paper's back-end servers
        // were effectively single-processor for the monitored services.
        CpuConfig {
            cores: 1,
            quantum_ns: 1_000_000,
        }
    }
}

/// A node's CPU state, held in the node's slot of its cluster.
pub(crate) struct NodeCpu {
    cores: Semaphore,
    stats: Cell<KernelStats>,
    /// The node's region 0, which every statistics change is written into.
    pub(crate) kstat: RegionData,
}

impl NodeCpu {
    /// A CPU of `cfg`'s cores with its first statistics block published.
    pub(crate) fn new(cfg: CpuConfig) -> NodeCpu {
        assert!(cfg.cores > 0, "a node needs at least one core");
        assert!(cfg.quantum_ns > 0, "preemption quantum must be positive");
        let cpu = NodeCpu {
            cores: Semaphore::new(cfg.cores),
            stats: Cell::default(),
            kstat: RegionData::new(KSTAT_REGION_LEN),
        };
        cpu.update(|_| {});
        cpu
    }

    fn update(&self, f: impl FnOnce(&mut KernelStats)) {
        let mut stats = self.stats.get();
        f(&mut stats);
        stats.version += 1;
        self.stats.set(stats);
        // One region write per state change, from a block built on the stack.
        self.kstat.write(0, &stats.to_block());
    }
}

/// Execute `work_ns` of CPU time on `node`, competing round-robin with
/// everything else there. Returns when the work has fully run. The body of
/// [`CpuModel::execute`], and what a TCP send charges without a view.
pub(crate) async fn execute(cluster: &Cluster, node: NodeId, work_ns: SimTime) {
    if work_ns == 0 {
        return;
    }
    cluster.node_cpu(node).update(|s| s.run_queue += 1);
    let mut remaining = work_ns;
    while remaining > 0 {
        let slice = remaining.min(cluster.model().cpu.quantum_ns);
        cluster.node_cpu(node).cores.acquire().await;
        cluster.sim().sleep(slice).await;
        let cpu = cluster.node_cpu(node);
        cpu.update(|s| s.busy_ns += slice);
        cpu.cores.release();
        remaining -= slice;
    }
    cluster.node_cpu(node).update(|s| s.run_queue -= 1);
}

/// A node's CPU: a view of one node of a cluster. Cloning yields another
/// view of the same CPU.
#[derive(Clone)]
pub struct CpuModel {
    cluster: Cluster,
    node: NodeId,
}

impl CpuModel {
    pub(crate) fn new(cluster: Cluster, node: NodeId) -> Self {
        CpuModel { cluster, node }
    }

    fn state(&self) -> &NodeCpu {
        self.cluster.node_cpu(self.node)
    }

    /// Execute `work_ns` of CPU time, competing round-robin with everything
    /// else on this node. Returns when the work has fully run.
    pub fn execute(&self, work_ns: SimTime) -> impl Future<Output = ()> + '_ {
        execute(&self.cluster, self.node, work_ns)
    }

    /// Register an application thread (Fig 8a monitors this count).
    pub fn thread_started(&self) {
        self.state().update(|s| s.app_threads += 1);
    }

    /// Unregister an application thread.
    pub fn thread_exited(&self) {
        self.state().update(|s| {
            debug_assert!(s.app_threads > 0);
            s.app_threads -= 1;
        });
    }

    /// Record a request entering the application accept queue.
    pub fn accept_enqueued(&self) {
        self.state().update(|s| s.accept_queue += 1);
    }

    /// Record a request leaving the application accept queue.
    pub fn accept_dequeued(&self) {
        self.state().update(|s| {
            debug_assert!(s.accept_queue > 0);
            s.accept_queue -= 1;
        });
    }

    /// Node-local snapshot of the kernel statistics (what a local daemon
    /// reads for free; remote readers must pay a fabric round trip).
    pub fn snapshot(&self) -> KernelStats {
        self.state().stats.get()
    }

    /// Current run-queue length (running + ready jobs).
    pub fn run_queue(&self) -> u64 {
        self.snapshot().run_queue
    }

    /// Preemption quantum in nanoseconds.
    pub fn quantum_ns(&self) -> u64 {
        self.cluster.model().cpu.quantum_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::RegionId;
    use crate::FabricModel;
    use dc_sim::time::{ms, us};
    use dc_sim::Sim;

    /// The CPU of the one node of a cluster whose nodes have `cores` cores
    /// and a `quantum` preemption quantum.
    fn cpu(sim: &Sim, cores: usize, quantum: u64) -> CpuModel {
        let mut model = FabricModel::calibrated_2007();
        model.cpu = CpuConfig {
            cores,
            quantum_ns: quantum,
        };
        Cluster::new(sim.handle(), model, 1).cpu(NodeId(0))
    }

    /// What a one-sided read of the node's region 0 would return.
    fn kstat_region(c: &CpuModel) -> KernelStats {
        let region = c.cluster.region(c.node, RegionId(0));
        KernelStats::decode(&region.read(0, KSTAT_REGION_LEN))
    }

    #[test]
    fn single_job_takes_exact_work_time() {
        let sim = Sim::new();
        let c = cpu(&sim, 1, ms(1));
        let h = sim.handle();
        let t = sim.run_to(async move {
            c.execute(us(300)).await;
            h.now()
        });
        assert_eq!(t, us(300));
    }

    #[test]
    fn two_jobs_on_one_core_share_round_robin() {
        let sim = Sim::new();
        let c = cpu(&sim, 1, us(100));
        let h = sim.handle();
        let c1 = c.clone();
        let h1 = h.clone();
        let j1 = sim.spawn(async move {
            c1.execute(us(300)).await;
            h1.now()
        });
        let c2 = c.clone();
        let h2 = h.clone();
        let j2 = sim.spawn(async move {
            c2.execute(us(300)).await;
            h2.now()
        });
        sim.run();
        // Perfect interleaving: both finish around 600us, the second slightly
        // after the first (slices alternate).
        let t1 = j1.try_take().unwrap();
        let t2 = j2.try_take().unwrap();
        assert_eq!(t1, us(500)); // slices at 0-100,200-300,400-500
        assert_eq!(t2, us(600)); // slices at 100-200,300-400,500-600
    }

    #[test]
    fn two_cores_run_in_parallel() {
        let sim = Sim::new();
        let c = cpu(&sim, 2, ms(1));
        let h = sim.handle();
        let mut joins = Vec::new();
        for _ in 0..2 {
            let cc = c.clone();
            let hh = h.clone();
            joins.push(sim.spawn(async move {
                cc.execute(us(500)).await;
                hh.now()
            }));
        }
        sim.run();
        for j in joins {
            assert_eq!(j.try_take().unwrap(), us(500));
        }
    }

    #[test]
    fn short_job_behind_long_job_waits_about_one_quantum() {
        let sim = Sim::new();
        let c = cpu(&sim, 1, us(100));
        let h = sim.handle();
        let c1 = c.clone();
        sim.spawn(async move {
            c1.execute(ms(10)).await; // long background job
        });
        let c2 = c.clone();
        let h2 = h.clone();
        let j = sim.spawn(async move {
            h2.sleep(us(50)).await; // arrive mid-slice
            let start = h2.now();
            c2.execute(us(10)).await;
            h2.now() - start
        });
        sim.run();
        let waited = j.try_take().unwrap();
        // One quantum minus arrival offset, then our 10us of work.
        assert_eq!(waited, us(60));
    }

    #[test]
    fn run_queue_reflects_active_jobs_and_publishes_to_kstat() {
        let sim = Sim::new();
        let c = cpu(&sim, 1, ms(1));
        for _ in 0..3 {
            let cc = c.clone();
            sim.spawn(async move { cc.execute(ms(2)).await });
        }
        sim.run_until(ms(1));
        assert_eq!(c.run_queue(), 3);
        // The registered region sees the same value without CPU involvement.
        assert_eq!(kstat_region(&c).run_queue, 3);
        sim.run();
        assert_eq!(c.run_queue(), 0);
        assert_eq!(c.snapshot().busy_ns, ms(6));
    }

    #[test]
    fn thread_and_conn_counters_publish() {
        let sim = Sim::new();
        let c = cpu(&sim, 1, ms(1));
        c.thread_started();
        c.thread_started();
        c.accept_enqueued();
        let v = kstat_region(&c);
        assert_eq!(v.app_threads, 2);
        // Nothing opens a connection: the published count stays 0.
        assert_eq!(v.conns, 0);
        assert_eq!(v.accept_queue, 1);
        c.thread_exited();
        c.accept_dequeued();
        assert_eq!(c.snapshot().app_threads, 1);
        assert_eq!(c.snapshot().conns, 0);
        assert_eq!(c.snapshot().accept_queue, 0);
    }

    #[test]
    fn version_increases_with_every_update() {
        let sim = Sim::new();
        let c = cpu(&sim, 1, ms(1));
        let v0 = c.snapshot().version;
        c.thread_started();
        let v1 = c.snapshot().version;
        c.thread_exited();
        let v2 = c.snapshot().version;
        assert!(v0 < v1 && v1 < v2);
    }

    #[test]
    fn zero_work_is_free_and_immediate() {
        let sim = Sim::new();
        let c = cpu(&sim, 1, ms(1));
        let h = sim.handle();
        let t = sim.run_to(async move {
            c.execute(0).await;
            h.now()
        });
        assert_eq!(t, 0);
    }
}
