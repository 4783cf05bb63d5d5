//! Figure 5 — lock cascading latency vs number of waiting processes.
//!
//! An exclusive holder takes the lock; N processes on N distinct nodes queue
//! behind it; the holder releases at a known instant and we measure how long
//! until the *last* waiter is granted.
//!
//! * **(a) shared queue** — the waiters request shared mode. N-CoSED grants
//!   the whole group at the release (one issue per grant, flights overlap);
//!   SRSL also grants the group but through server CPU; DQNL has no shared
//!   mode, so the group degenerates into a serial chain of exclusive
//!   handoffs (the up-to-317% gap at 16 nodes).
//! * **(b) exclusive queue** — the waiters request exclusive mode. N-CoSED
//!   and DQNL hand off peer to peer; SRSL pays a release+grant server round
//!   trip per hop (the ≈39% gap).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dc_dlm::{DesignKind, DlmConfig, LockMode};
use dc_fabric::{Cluster, FabricModel, NodeId};
use dc_sim::time::{as_us, ms};
use dc_sim::{Sim, SimTime};

/// The lock-manager schemes of Figure 5, in legend order.
pub const SCHEMES: [DesignKind; 3] = [DesignKind::Srsl, DesignKind::Dqnl, DesignKind::Ncosed];

/// Waiter counts swept (the paper plots 1–16).
pub const WAITERS: [usize; 5] = [1, 2, 4, 8, 16];

/// Run one cascade: returns the time from the holder's release until the
/// last of `waiters` waiters (requesting `mode`) has been granted, in ns.
pub fn cascade_ns(scheme: DesignKind, waiters: usize, mode: LockMode) -> u64 {
    cascade_inner(scheme, waiters, mode, None).0
}

/// [`cascade_ns`] with the cluster tracer enabled: also returns the retained
/// trace events for offline analysis (flame folding, latency attribution).
/// Tracing is recording-only, so the measured cascade time is identical to
/// the untraced run's.
pub fn cascade_traced(
    scheme: DesignKind,
    waiters: usize,
    mode: LockMode,
    tmode: dc_trace::TraceMode,
) -> (u64, Vec<dc_trace::Event>) {
    let (ns, events) = cascade_inner(scheme, waiters, mode, Some(tmode));
    (ns, events.expect("traced run returns events"))
}

fn cascade_inner(
    scheme: DesignKind,
    waiters: usize,
    mode: LockMode,
    trace: Option<dc_trace::TraceMode>,
) -> (u64, Option<Vec<dc_trace::Event>>) {
    let sim = Sim::new();
    // Node 0: home/server; node 1: holder; nodes 2..: waiters.
    let nodes = 2 + waiters;
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
    if let Some(tmode) = trace {
        cluster.tracer().enable(tmode);
    }
    let members: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
    let mut clients = scheme.build(&cluster, DlmConfig::default(), NodeId(0), 1, &members);
    // Index clients by node id; remove from the back to keep indices valid.
    let mut waiter_clients = Vec::new();
    for _ in 0..waiters {
        waiter_clients.push(clients.pop().unwrap());
    }
    let holder = clients.pop().unwrap(); // node 1

    let release_at: Rc<Cell<SimTime>> = Rc::default();
    let grant_times: Rc<RefCell<Vec<SimTime>>> = Rc::default();
    let h = sim.handle();

    let ra = Rc::clone(&release_at);
    let hh = h.clone();
    h.spawn_detached(async move {
        holder.lock(0, LockMode::Exclusive).await;
        // Hold long enough for every waiter to be queued.
        hh.sleep(ms(5)).await;
        ra.set(hh.now());
        holder.unlock(0).await;
    });
    for (i, w) in waiter_clients.into_iter().enumerate() {
        let gt = Rc::clone(&grant_times);
        let hh = h.clone();
        // Clients were popped from the back of the by-node vector.
        let node = (nodes - 1 - i) as u32;
        let tracer = cluster.tracer().clone();
        h.spawn_detached(async move {
            // Stagger request arrivals to fix the queue order.
            hh.sleep(ms(1) + (i as u64) * 50_000).await;
            // Sampled-request root span: issue to grant, one per waiter.
            let tr = tracer.begin();
            w.lock(0, mode).await;
            if let Some(tr) = tr {
                tracer.complete(
                    tr,
                    node,
                    dc_trace::Subsys::App,
                    "request",
                    vec![("stage", "request".into())],
                );
            }
            gt.borrow_mut().push(hh.now());
            // Waiters release immediately (the cascade measurement of the
            // paper: time for the queue to drain through the grant path).
            w.unlock(0).await;
        });
    }
    sim.run();
    let cascade = {
        let times = grant_times.borrow();
        assert_eq!(times.len(), waiters, "not all waiters were granted");
        times.iter().max().unwrap() - release_at.get()
    };
    (cascade, trace.map(|_| cluster.tracer().events()))
}

/// One scheme's cascade series over [`WAITERS`], µs.
#[derive(Debug, Clone)]
pub struct CascadeSeries {
    /// The scheme.
    pub scheme: DesignKind,
    /// Cascade latency (µs) per waiter count.
    pub latency_us: Vec<f64>,
}

/// Run panel (a) — shared waiters — or panel (b) — exclusive waiters.
pub fn run(mode: LockMode) -> Vec<CascadeSeries> {
    SCHEMES
        .iter()
        .map(|&scheme| CascadeSeries {
            scheme,
            latency_us: WAITERS
                .iter()
                .map(|&n| as_us(cascade_ns(scheme, n, mode)))
                .collect(),
        })
        .collect()
}

/// Render the paper-style table for one panel.
pub fn table(panel: &str, series: &[CascadeSeries]) -> dc_core::Table {
    let mut headers = vec!["scheme".to_string()];
    headers.extend(WAITERS.iter().map(|n| format!("{n} waiters")));
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = dc_core::Table::new(panel, &hdr_refs);
    for s in series {
        let mut row = vec![s.scheme.label().to_string()];
        row.extend(s.latency_us.iter().map(|v| format!("{v:.1}")));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_cascade_ncosed_flat_dqnl_linear() {
        let n1 = cascade_ns(DesignKind::Ncosed, 1, LockMode::Shared);
        let n16 = cascade_ns(DesignKind::Ncosed, 16, LockMode::Shared);
        let d16 = cascade_ns(DesignKind::Dqnl, 16, LockMode::Shared);
        // DQNL at 16 shared waiters is several times worse (paper: ~317%).
        assert!(
            d16 > 3 * n16,
            "DQNL {d16}ns vs N-CoSED {n16}ns at 16 waiters"
        );
        // N-CoSED grows sub-linearly (group grant).
        assert!(n16 < 8 * n1, "N-CoSED not sub-linear: {n1} -> {n16}");
    }

    #[test]
    fn exclusive_cascade_srsl_slowest() {
        let n = cascade_ns(DesignKind::Ncosed, 8, LockMode::Exclusive);
        let d = cascade_ns(DesignKind::Dqnl, 8, LockMode::Exclusive);
        let s = cascade_ns(DesignKind::Srsl, 8, LockMode::Exclusive);
        assert!(s > n, "SRSL {s} should exceed N-CoSED {n}");
        // DQNL and N-CoSED are structurally identical for exclusive chains.
        let ratio = d as f64 / n as f64;
        assert!((0.6..1.6).contains(&ratio), "DQNL/N-CoSED ratio {ratio}");
    }

    #[test]
    fn shared_cascade_srsl_between() {
        let n = cascade_ns(DesignKind::Ncosed, 16, LockMode::Shared);
        let s = cascade_ns(DesignKind::Srsl, 16, LockMode::Shared);
        let d = cascade_ns(DesignKind::Dqnl, 16, LockMode::Shared);
        assert!(s > n, "SRSL {s} vs N-CoSED {n}");
        assert!(d > s, "DQNL {d} vs SRSL {s}");
    }
}
