//! Allocation profile for a single scenario run: counts global-allocator
//! calls so hot-path work can be attributed to allocator churn vs compute.
//!
//! ```sh
//! cargo run --release -p dc-bench --example alloc_profile -- fig5a_lock_shared
//! ```
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static TRACE: AtomicBool = AtomicBool::new(false);

/// Allocations per call site, process-wide: the scenarios sweep their cells
/// on worker threads (`sweep::parallel_map`), and a table kept per thread
/// shows only what the main thread allocated — the table render.
static SITES: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Re-entrancy guard, per thread: set while this thread is inside
    /// `record_site`, whose own allocations (the backtrace, the site name,
    /// the map node) must not be recorded — or take `SITES` a second time.
    static IN_TRACE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Frames that allocate on a caller's behalf — the executor boxing a task,
/// a channel growing its queue, a `Bytes` taking ownership of a buffer. A
/// site under one of these names the mechanism, not who asked for it.
const PLUMBING: [&str; 3] = [
    "/crates/sim/src/executor.rs",
    "/crates/sim/src/sync/",
    "/vendored/bytes/",
];

/// With `DC_ALLOC_TRACE=1`, capture a backtrace for every allocation and
/// attribute it to the innermost workspace frame outside [`PLUMBING`] (to
/// the innermost workspace frame at all, if plumbing is all there is).
/// Slow, but exact counts.
fn record_site() {
    IN_TRACE.with(|flag| {
        if flag.get() {
            return; // re-entrant allocation from the backtrace machinery
        }
        flag.set(true);
        let bt = std::backtrace::Backtrace::force_capture().to_string();
        let frames = bt.lines().filter_map(|l| l.trim().strip_prefix("at "));
        let workspace = frames.filter(|f| {
            (f.contains("/crates/") || f.contains("/vendored/")) && !f.contains("alloc_profile.rs")
        });
        let mut callers = workspace
            .clone()
            .filter(|f| !PLUMBING.iter().any(|p| f.contains(p)));
        let site = callers
            .next()
            .or_else(|| workspace.clone().next())
            .map(|f| {
                let parts: Vec<&str> = f.rsplit('/').take(3).collect();
                parts.into_iter().rev().collect::<Vec<_>>().join("/")
            });
        let site = site.unwrap_or_else(|| "<non-workspace>".into());
        // A worker that panicked mid-record poisons the lock, not the counts.
        let mut sites = SITES.lock().unwrap_or_else(|e| e.into_inner());
        *sites.entry(site).or_insert(0) += 1;
        flag.set(false);
    });
}

struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged. The counting touches only atomics, and `record_site`'s own
// allocations re-enter `alloc` behind its thread-local guard.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(l.size() as u64, Ordering::Relaxed);
        if TRACE.load(Ordering::Relaxed) {
            record_site();
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from this allocator, which is `System`.
        unsafe { System.dealloc(p, l) }
    }
}
#[global_allocator]
static A: Counting = Counting;

/// Print the 30 busiest sites, then what the rest add up to and the total,
/// which is the allocation count an untraced run of the scenario prints.
fn dump_sites() {
    let sites = std::mem::take(&mut *SITES.lock().unwrap_or_else(|e| e.into_inner()));
    let mut v: Vec<(String, u64)> = sites.into_iter().collect();
    v.sort_by_key(|e| std::cmp::Reverse(e.1));
    let total: u64 = v.iter().map(|e| e.1).sum();
    let shown = v.len().min(30);
    for (site, n) in &v[..shown] {
        println!("{n:>7}  {site}");
    }
    let rest: u64 = v[shown..].iter().map(|e| e.1).sum();
    println!("{rest:>7}  ({} other sites)", v.len() - shown);
    println!("{total:>7}  total");
}

fn measured<R>(label: &str, f: impl FnOnce() -> R) {
    let t0 = std::time::Instant::now();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    let r = f();
    std::hint::black_box(&r);
    let dt = t0.elapsed();
    let da = ALLOCS.load(Ordering::Relaxed) - a0;
    let db = BYTES.load(Ordering::Relaxed) - b0;
    println!(
        "{label}: {da} allocs, {db} bytes, {dt:?}  (~{:.0} ns/alloc if all)",
        dt.as_nanos() as f64 / da as f64
    );
}

fn fig5_setup_only(waiters: usize) {
    use dc_fabric::{Cluster, FabricModel, NodeId};
    use dc_sim::Sim;
    let sim = Sim::new();
    let nodes = 2 + waiters;
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
    let members: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
    let dlm = dc_dlm::DqnlDlm::new(
        &cluster,
        dc_dlm::DlmConfig::default(),
        NodeId(0),
        1,
        &members,
    );
    let clients: Vec<_> = members.iter().map(|&n| dlm.client(n)).collect();
    std::hint::black_box(&clients);
}

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "fig5a_lock_shared".into());
    if name == "fig5parts" {
        use dc_fabric::{Cluster, FabricModel};
        use dc_sim::Sim;
        measured("sim+cluster x15", || {
            for &w in &[1usize, 2, 4, 8, 16] {
                for _ in 0..3 {
                    let sim = Sim::new();
                    let c = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2 + w);
                    std::hint::black_box(&c);
                }
            }
        });
        measured("dlm on top x15", || {
            for &w in &[1usize, 2, 4, 8, 16] {
                for _ in 0..3 {
                    fig5_setup_only(w);
                }
            }
        });
        measured("one dqnl cascade w=16 (full)", || {
            dc_bench::fig5::cascade_ns(dc_dlm::DesignKind::Dqnl, 16, dc_dlm::LockMode::Exclusive)
        });
        return;
    }
    if name == "simnew" {
        use dc_sim::Sim;
        measured("Sim::new + drop x10000", || {
            for _ in 0..10000 {
                std::hint::black_box(Sim::new());
            }
        });
        measured("Sim::new + 3 sleeps x10000", || {
            for _ in 0..10000 {
                let sim = Sim::new();
                let h = sim.handle();
                sim.run_to(async move {
                    h.sleep(1_000).await;
                    h.sleep(700_000).await;
                    h.sleep(3).await;
                });
            }
        });
        return;
    }
    if name == "fig5setup" {
        // The setup portion of one fig5 cascade, repeated as the scenario
        // repeats it, without running the simulation.
        measured("fig5 setup x15 (dqnl mix of waiter counts)", || {
            for &w in &[1usize, 2, 4, 8, 16] {
                for _ in 0..3 {
                    fig5_setup_only(w);
                }
            }
        });
        return;
    }
    let s = dc_bench::scenario::lookup(&name).expect("scenario");
    if std::env::var("DC_ALLOC_TRACE").is_ok_and(|v| v == "1") {
        TRACE.store(true, Ordering::Relaxed);
        (s.run)();
        TRACE.store(false, Ordering::Relaxed);
        dump_sites();
        return;
    }
    measured(&name, || (s.run)());
}
