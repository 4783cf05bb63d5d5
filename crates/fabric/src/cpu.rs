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

use std::cell::RefCell;
use std::rc::Rc;

use dc_sim::sync::Semaphore;
use dc_sim::{SimHandle, SimTime};

use crate::kstat::KernelStats;
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

struct CpuState {
    stats: KernelStats,
}

/// A node's CPU. Cloning yields another handle to the same CPU.
#[derive(Clone)]
pub struct CpuModel {
    sim: SimHandle,
    cores: Semaphore,
    quantum: u64,
    state: Rc<RefCell<CpuState>>,
    kstat: RegionData,
}

impl CpuModel {
    /// Create a CPU whose statistics are published into `kstat` (the node's
    /// registered kernel-statistics region).
    pub fn new(sim: SimHandle, cfg: CpuConfig, kstat: RegionData) -> Self {
        assert!(cfg.cores > 0, "a node needs at least one core");
        assert!(cfg.quantum_ns > 0, "preemption quantum must be positive");
        let cpu = CpuModel {
            sim,
            cores: Semaphore::new(cfg.cores),
            quantum: cfg.quantum_ns,
            state: Rc::new(RefCell::new(CpuState {
                stats: KernelStats::default(),
            })),
            kstat,
        };
        cpu.publish();
        cpu
    }

    fn publish(&self) {
        let mut st = self.state.borrow_mut();
        st.stats.version += 1;
        // One region write per state change, from a block built on the stack.
        self.kstat.write(0, &st.stats.to_block());
    }

    fn update(&self, f: impl FnOnce(&mut KernelStats)) {
        f(&mut self.state.borrow_mut().stats);
        self.publish();
    }

    /// Execute `work_ns` of CPU time, competing round-robin with everything
    /// else on this node. Returns when the work has fully run.
    pub async fn execute(&self, work_ns: SimTime) {
        if work_ns == 0 {
            return;
        }
        self.update(|s| s.run_queue += 1);
        let mut remaining = work_ns;
        while remaining > 0 {
            let slice = remaining.min(self.quantum);
            self.cores.acquire().await;
            self.sim.sleep(slice).await;
            self.update(|s| s.busy_ns += slice);
            self.cores.release();
            remaining -= slice;
        }
        self.update(|s| s.run_queue -= 1);
    }

    /// Register an application thread (Fig 8a monitors this count).
    pub fn thread_started(&self) {
        self.update(|s| s.app_threads += 1);
    }

    /// Unregister an application thread.
    pub fn thread_exited(&self) {
        self.update(|s| {
            debug_assert!(s.app_threads > 0);
            s.app_threads -= 1;
        });
    }

    /// Record a request entering the application accept queue.
    pub fn accept_enqueued(&self) {
        self.update(|s| s.accept_queue += 1);
    }

    /// Record a request leaving the application accept queue.
    pub fn accept_dequeued(&self) {
        self.update(|s| {
            debug_assert!(s.accept_queue > 0);
            s.accept_queue -= 1;
        });
    }

    /// Node-local snapshot of the kernel statistics (what a local daemon
    /// reads for free; remote readers must pay a fabric round trip).
    pub fn snapshot(&self) -> KernelStats {
        self.state.borrow().stats
    }

    /// Current run-queue length (running + ready jobs).
    pub fn run_queue(&self) -> u64 {
        self.state.borrow().stats.run_queue
    }

    /// Preemption quantum in nanoseconds.
    pub fn quantum_ns(&self) -> u64 {
        self.quantum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_sim::time::{ms, us};
    use dc_sim::Sim;

    fn cpu(sim: &Sim, cores: usize, quantum: u64) -> CpuModel {
        CpuModel::new(
            sim.handle(),
            CpuConfig {
                cores,
                quantum_ns: quantum,
            },
            RegionData::new(crate::kstat::KSTAT_REGION_LEN),
        )
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
        let region = RegionData::new(crate::kstat::KSTAT_REGION_LEN);
        let c = CpuModel::new(
            sim.handle(),
            CpuConfig {
                cores: 1,
                quantum_ns: ms(1),
            },
            region.clone(),
        );
        for _ in 0..3 {
            let cc = c.clone();
            sim.spawn(async move { cc.execute(ms(2)).await });
        }
        sim.run_until(ms(1));
        assert_eq!(c.run_queue(), 3);
        // The registered region sees the same value without CPU involvement.
        let remote_view = KernelStats::decode(&region.read(0, crate::kstat::KSTAT_REGION_LEN));
        assert_eq!(remote_view.run_queue, 3);
        sim.run();
        assert_eq!(c.run_queue(), 0);
        assert_eq!(c.snapshot().busy_ns, ms(6));
    }

    #[test]
    fn thread_and_conn_counters_publish() {
        let sim = Sim::new();
        let region = RegionData::new(crate::kstat::KSTAT_REGION_LEN);
        let c = CpuModel::new(sim.handle(), CpuConfig::default(), region.clone());
        c.thread_started();
        c.thread_started();
        c.accept_enqueued();
        let v = KernelStats::decode(&region.read(0, crate::kstat::KSTAT_REGION_LEN));
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
