//! Fault soak: the whole service stack — cooperative caching, the lock
//! manager, and DDSS — driven under seeded randomized fault schedules
//! (node crashes, message drops, latency inflation, CPU stalls).
//!
//! The cross-cutting invariants, checked on every schedule:
//!   1. no deadlock — the scenario always drains (`run_to` panics otherwise);
//!   2. no wrong bytes — every served document matches its true content,
//!      and a strict-coherence segment is never torn;
//!   3. exclusive locks are never doubly granted, and every request drains;
//!   4. identical (workload seed, fault seed) pairs are bit-identical.
//!
//! To reproduce a failing schedule, re-run with the `(wseed, fseed,
//! drop_prob)` triple proptest prints — `soak_run` is a pure function of
//! those inputs.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;

use nextgen_datacenter::coopcache::{Backend, CacheCfg, CacheScheme, CoopCache};
use nextgen_datacenter::ddss::{Coherence, Ddss, DdssConfig};
use nextgen_datacenter::dlm::{DlmConfig, LockMode, NcosedDlm};
use nextgen_datacenter::fabric::{
    Cluster, FabricModel, FaultConfig, FaultPlan, FaultStats, NodeId,
};
use nextgen_datacenter::sim::rng::splitmix64;
use nextgen_datacenter::sim::time::{ms, us};
use nextgen_datacenter::sim::Sim;
use nextgen_datacenter::workloads::FileSet;

const DOCS: usize = 48;
const DOC_SIZE: usize = 4 * 1024;
const CACHE_REQS: usize = 36;
const LOCK_CYCLES: usize = 3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Everything observable about one soak run. `PartialEq`-compared across
/// reruns for the bit-identical invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SoakOutcome {
    end_ns: u64,
    served_hash: u64,
    wrong_bytes: u32,
    excl_peak: i32,
    lock_grants: u32,
    ddss_hash: u64,
    stats: FaultStats,
}

fn fault_cfg(drop_prob: f64) -> FaultConfig {
    FaultConfig {
        drop_prob,
        // Node 0 hosts the backend origin, the cache directory, the lock
        // home, and the DDSS segment: services degrade around every other
        // failure, but a dead origin has no defined outcome.
        immune_nodes: vec![NodeId(0)],
        ..FaultConfig::default()
    }
}

/// One full scenario on a 6-node cluster: node 0 is the backend/home,
/// nodes 1–2 serve documents through a cooperative cache, nodes 3–5 run
/// exclusive lock cycles and concurrently write a strict DDSS segment.
fn soak_run(wseed: u64, fseed: u64, drop_prob: f64) -> SoakOutcome {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 6);
    cluster.install_faults(FaultPlan::generate(fseed, &fault_cfg(drop_prob), 6));
    let members: Vec<NodeId> = (0..6).map(NodeId).collect();

    // --- cooperative cache over a lossy fabric ---
    let fileset = Rc::new(FileSet::uniform(DOCS, DOC_SIZE));
    let backend = Backend::spawn(&cluster, NodeId(0), Rc::clone(&fileset));
    let cache = CoopCache::build(
        &cluster,
        CacheScheme::Bcc,
        &[NodeId(1), NodeId(2)],
        &[],
        backend,
        Rc::clone(&fileset),
        CacheCfg {
            // ~16 docs per node against 48: remote fetches are the common
            // path, so drops and peer crashes are actually exercised.
            per_node_bytes: 64 * 1024,
        },
        NodeId(0),
    );
    let wrong: Rc<Cell<u32>> = Rc::default();
    let served_hash: Rc<Cell<u64>> = Rc::default();
    let mut joins = Vec::new();
    for (t, proxy) in [NodeId(1), NodeId(2)].into_iter().enumerate() {
        let cache = cache.clone();
        let fs = Rc::clone(&fileset);
        let wrong = Rc::clone(&wrong);
        let served_hash = Rc::clone(&served_hash);
        let h = sim.handle();
        joins.push(sim.spawn(async move {
            for i in 0..CACHE_REQS {
                let r = splitmix64(wseed ^ splitmix64((t as u64) << 32 | i as u64));
                let doc = (r % DOCS as u64) as u32;
                let (data, _) = cache.serve(proxy, doc).await;
                if data[..] != fs.content(doc as usize, DOC_SIZE)[..] {
                    wrong.set(wrong.get() + 1);
                }
                served_hash.set(fnv1a(served_hash.get() ^ doc as u64, &data[..8]));
                // Spread the run across the fault horizon.
                h.sleep(ms(4) + us(r >> 56)).await;
            }
        }));
    }

    // --- exclusive lock cycles: never two holders, everyone drains ---
    let dlm = NcosedDlm::new(&cluster, DlmConfig::default(), NodeId(0), 1, &members);
    let excl_cur: Rc<Cell<i32>> = Rc::default();
    let excl_peak: Rc<Cell<i32>> = Rc::default();
    let grants: Rc<Cell<u32>> = Rc::default();
    for n in 3..6u32 {
        let client = dlm.client(NodeId(n));
        let cur = Rc::clone(&excl_cur);
        let peak = Rc::clone(&excl_peak);
        let grants = Rc::clone(&grants);
        let h = sim.handle();
        joins.push(sim.spawn(async move {
            for c in 0..LOCK_CYCLES {
                let r = splitmix64(wseed ^ splitmix64((n as u64) << 16 | c as u64));
                h.sleep(us(r % 120_000)).await;
                client.lock(0, LockMode::Exclusive).await;
                cur.set(cur.get() + 1);
                peak.set(peak.get().max(cur.get()));
                h.sleep(us(20 + r % 200)).await;
                cur.set(cur.get() - 1);
                client.unlock(0).await;
                grants.set(grants.get() + 1);
            }
        }));
    }

    // --- strict DDSS segment: concurrent writers, never torn ---
    let ddss = Ddss::new(&cluster, DdssConfig::default(), &members);
    let owner = ddss.client(NodeId(0));
    let key = sim
        .run_to(async move { owner.allocate(NodeId(0), 64, Coherence::Strict).await })
        .expect("ddss allocate");
    for w in 3..6u32 {
        let client = ddss.client(NodeId(w));
        let h = sim.handle();
        joins.push(sim.spawn(async move {
            h.sleep(us(splitmix64(wseed ^ w as u64) % 150_000)).await;
            client.put(&key, &[w as u8; 64]).await;
        }));
    }

    // Invariant 1: this panics "deadlock" if anything wedges.
    let h = sim.handle();
    let end_ns = sim.run_to(async move {
        for j in joins {
            j.await;
        }
        h.now()
    });

    let reader = ddss.client(NodeId(1));
    let data = sim.run_to(async move { reader.get(&key).await });
    assert_eq!(data.len(), 64);
    assert!(
        (3..6).contains(&data[0]) && data.iter().all(|&b| b == data[0]),
        "torn strict write under faults: {:?}",
        &data[..8]
    );

    SoakOutcome {
        end_ns,
        served_hash: served_hash.get(),
        wrong_bytes: wrong.get(),
        excl_peak: excl_peak.get(),
        lock_grants: grants.get(),
        ddss_hash: fnv1a(0, &data),
        stats: cluster.fault_stats(),
    }
}

fn check_invariants(o: &SoakOutcome) {
    assert_eq!(o.wrong_bytes, 0, "served corrupted bytes: {o:?}");
    assert!(o.excl_peak <= 1, "two exclusive holders at once: {o:?}");
    assert_eq!(
        o.lock_grants,
        3 * LOCK_CYCLES as u32,
        "a lock waiter was orphaned: {o:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized schedules: every invariant holds and every (workload
    /// seed, fault seed) pair reproduces bit-identically.
    #[test]
    fn soak_invariants_hold_under_random_fault_schedules(
        wseed in any::<u64>(),
        fseed in any::<u64>(),
        drop_prob in 0.0f64..0.20
    ) {
        let a = soak_run(wseed, fseed, drop_prob);
        check_invariants(&a);
        let b = soak_run(wseed, fseed, drop_prob);
        prop_assert_eq!(a, b, "identical seeds diverged");
    }
}

/// The lock-design shootout soaked under a seeded drops+latency fault
/// plan: every design still makes progress, identical (cell, fault seed)
/// pairs reproduce bit-identically, and the plan leaves a visible mark on
/// at least the message-carrying designs. Crash and stall windows are
/// excluded — one-sided atomics cannot ride out a crashed home (see
/// `dc_bench::ext_shootout::run_cell`).
#[test]
fn lock_shootout_soak_under_drops_is_survivable_and_reproducible() {
    use dc_bench::ext_shootout::{run_cell, CELLS, HORIZON_NS};
    use nextgen_datacenter::dlm::DesignKind;

    let cell = CELLS[1];
    let nodes = cell.clients + 1;
    let cfg = FaultConfig {
        horizon_ns: HORIZON_NS,
        max_crashes_per_node: 0,
        max_stalls_per_node: 0,
        drop_prob: 0.08,
        latency_min_ns: ms(2),
        latency_max_ns: ms(8),
        immune_nodes: Vec::new(),
        ..FaultConfig::default()
    };
    let mk = || FaultPlan::generate(0x50AC, &cfg, nodes);
    assert!(
        !mk().latency_windows().is_empty(),
        "plan has no latency window"
    );
    for design in DesignKind::ALL {
        let a = run_cell(design, cell, Some(mk()));
        let b = run_cell(design, cell, Some(mk()));
        assert!(a.acquires > 0, "{design:?} made no progress under faults");
        assert_eq!(a.acquires, b.acquires, "{design:?} diverged");
        assert_eq!(
            a.p99_wait_us.to_bits(),
            b.p99_wait_us.to_bits(),
            "{design:?} diverged"
        );
        assert_eq!(
            a.fairness_cv.to_bits(),
            b.fairness_cv.to_bits(),
            "{design:?} diverged"
        );
        assert_eq!(
            a.max_wait_us.to_bits(),
            b.max_wait_us.to_bits(),
            "{design:?} diverged"
        );
    }

    // The plan is not a no-op: a message-carrying design feels it.
    let clean = run_cell(DesignKind::McsTicket, cell, None);
    let faulted = run_cell(DesignKind::McsTicket, cell, Some(mk()));
    assert_ne!(
        clean.acquires, faulted.acquires,
        "the fault plan had no observable effect on MCS-FAA"
    );
}

/// A pinned schedule that demonstrably injects all three headline fault
/// classes — node crashes, message drops, latency inflation (plus CPU
/// stalls) — survives with every invariant intact, and reproduces
/// bit-identically.
#[test]
fn soak_with_all_fault_classes_is_survivable_and_reproducible() {
    let (wseed, fseed, drop) = (11, 23, 0.10);
    let plan = FaultPlan::generate(fseed, &fault_cfg(drop), 6);
    assert!(!plan.crash_windows().is_empty(), "schedule has no crash");
    assert!(
        !plan.latency_windows().is_empty(),
        "schedule has no latency window"
    );
    assert!(
        !plan.stall_windows().is_empty(),
        "schedule has no stall window"
    );

    let a = soak_run(wseed, fseed, drop);
    check_invariants(&a);
    assert!(
        a.stats.dropped_msgs > 0,
        "no message was ever dropped: {a:?}"
    );
    assert!(
        a.stats.retries > 0,
        "nothing retried — faults were invisible: {a:?}"
    );

    let b = soak_run(wseed, fseed, drop);
    assert_eq!(a, b, "same fault seed must be bit-identical");

    // A different fault seed genuinely changes the execution.
    let c = soak_run(wseed, fseed + 1, drop);
    assert_ne!(a.end_ns, c.end_ns, "fault seed had no effect");
}

/// At-scale open-loop webfarm soak: a scaled-down `ext_webfarm_scale`
/// configuration driven past saturation under the full default fault menu
/// (crashes, drops, latency storms, stalls). The farm must keep serving,
/// conserve every issued request, reproduce bit-identically per seed, and
/// the plan must not be a no-op.
#[test]
fn webfarm_scale_soak_under_faults_conserves_and_reproduces() {
    use nextgen_datacenter::core::{run_webfarm_scale, ScaleFarmCfg};

    let base = ScaleFarmCfg {
        proxies: 16,
        app_nodes: 8,
        clients: 3_000,
        backend_workers: 1,
        horizon_ns: 900_000_000,
        warmup_ns: 200_000_000,
        ..dc_bench::ext_webfarm::gate_cfg()
    };
    let sat = base.saturation_rps();
    let cfg = ScaleFarmCfg {
        offered_rps: 1.3 * sat,
        faults: Some((0x50A_D01, FaultConfig::default())),
        ..base.clone()
    };

    let a = run_webfarm_scale(&cfg);
    let b = run_webfarm_scale(&cfg);
    assert_eq!(a, b, "faulted at-scale run diverged across replays");
    assert_eq!(a.conservation_gap, 0, "conservation violated: {a:?}");
    assert!(a.completed > 0, "farm made no progress under faults");
    assert!(
        a.shed_queue > 0,
        "an overloaded farm must shed at admission: {a:?}"
    );

    // The plan is not a no-op: the clean run differs.
    let clean = run_webfarm_scale(&ScaleFarmCfg {
        faults: None,
        ..cfg.clone()
    });
    assert_ne!(
        clean.completed, a.completed,
        "the fault plan had no observable effect"
    );
    assert_eq!(clean.conservation_gap, 0);
}
