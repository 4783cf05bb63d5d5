//! `ext_incast` — fan-in sweep over the general-purpose RPC lanes.
//!
//! Thousands of closed-loop client sessions on eight nodes hammer one
//! server with small requests that each return an 8 KB response — the
//! classic incast shape where the server's egress link and CPU are the
//! contended resources. Three lanes carry identical traffic:
//!
//! * **eRPC** — the packetized zero-copy lane: sessions multiplex onto a
//!   handful of QPs, credit-based flow control bounds per-session
//!   outstanding requests, and the Timely/DCQCN-style rate controller
//!   reacts to ECN marks sampled at the congested egress.
//! * **SDP** — one buffered-copy stream per session; the server pays a
//!   per-response copy, so past the knee it is CPU-bound.
//! * **AZ-SDP** — one zero-copy stream per session; no response copy, but
//!   still one QP pair pinned per connection.
//!
//! Each cell runs on a fresh cluster so the per-lane fabric counters
//! (`fabric.qp.active`, `fabric.ecn.marks`, retransmits) are exact. The
//! single table is lane-major — rows 0..4 eRPC, 4..8 SDP, 8..12 AZ-SDP,
//! one row per fan-in in [`FANINS`] order — so the claim tables slice
//! columns per lane.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use dc_core::{table::f, Table};
use dc_fabric::{FaultPlan, NodeId};
use dc_sim::time::as_us;
use dc_sim::Sim;
use dc_sockets::{connect, ErpcCfg, ErpcServer, SocketsConfig, StreamKind};
use dc_trace::LatencyHist;

use crate::scenario::RunCtx;

/// Total concurrent sessions per cell (split evenly over the client nodes).
pub const FANINS: [usize; 4] = [64, 256, 1024, 2048];

/// Client nodes fanning in on the one server.
pub const CLIENT_NODES: usize = 8;

/// Closed-loop requests each session issues.
pub const REQS_PER_SESSION: usize = 6;

/// Request payload (bytes) — a small lookup key.
pub const REQ_BYTES: usize = 32;

/// Response payload (bytes) — the incast-shaped reply.
pub const RESP_BYTES: usize = 8192;

/// Application CPU charged per request at the server, identical across
/// lanes so the comparison isolates transport costs.
pub const HANDLER_CPU_NS: u64 = 2_000;

/// ECN mark threshold (queued transmissions at the sender link) for the
/// eRPC cells. Stream lanes have no marking consumer, so the knob stays
/// unset there.
pub const ECN_THRESHOLD: usize = 4;

/// Pinned RNG seed for session rate-start jitter and the drop plan.
pub const SEED: u64 = 42;

/// Retransmission timeout for the eRPC cells. At the largest fan-in the
/// server egress queues ~16 MB of responses (~18 ms of link time), so the
/// RTO must sit well past that worst-case RTT or clean runs would count
/// spurious retransmits.
pub const RTO_NS: u64 = 100_000_000;

/// The three lanes under comparison, in table row-block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncastLane {
    /// The eRPC mux/session lane.
    Erpc,
    /// Buffered-copy SDP, one stream per session.
    Sdp,
    /// Zero-copy AZ-SDP, one stream per session.
    AzSdp,
}

impl IncastLane {
    /// All lanes, in the order the table reports them.
    pub const ALL: [IncastLane; 3] = [IncastLane::Erpc, IncastLane::Sdp, IncastLane::AzSdp];

    /// Display label used in table rows.
    pub fn label(self) -> &'static str {
        match self {
            IncastLane::Erpc => "eRPC",
            IncastLane::Sdp => "SDP",
            IncastLane::AzSdp => "AZ-SDP",
        }
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct IncastPoint {
    /// The lane carrying the traffic.
    pub lane: IncastLane,
    /// Concurrent sessions fanning in.
    pub fanin: usize,
    /// Completed responses per second over the cell's span.
    pub goodput_rps: f64,
    /// Median request latency, µs.
    pub p50_us: f64,
    /// 99th-percentile request latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile request latency, µs.
    pub p999_us: f64,
    /// Fabric-level retransmissions (0 in the clean baseline).
    pub retransmits: u64,
    /// ECN marks delivered (eRPC cells only; streams don't consume marks).
    pub marks: u64,
    /// `fabric.qp.active` at the end of the cell.
    pub qp_active: i64,
}

/// Run one (lane, fan-in) cell on a fresh cluster at the pinned [`SEED`].
/// `drop_rate > 0` installs a seeded uniform-drop fault plan (the
/// determinism tests exercise recovery; the registered scenario runs clean).
pub fn run_cell(lane: IncastLane, fanin: usize, drop_rate: f64) -> IncastPoint {
    cell(&RunCtx::pinned(), SEED, lane, fanin, drop_rate)
}

fn cell(ctx: &RunCtx, seed: u64, lane: IncastLane, fanin: usize, drop_rate: f64) -> IncastPoint {
    let sim = Sim::new();
    let cluster = ctx.cluster(&sim, 1 + CLIENT_NODES);
    if drop_rate > 0.0 {
        cluster.install_faults(FaultPlan::from_parts(
            seed,
            vec![],
            vec![],
            vec![],
            drop_rate,
        ));
    }
    let server = NodeId(0);
    let latencies = Rc::new(RefCell::new(LatencyHist::new()));
    let resp = Bytes::from(vec![0x5au8; RESP_BYTES]);
    let req = Bytes::from(vec![0x17u8; REQ_BYTES]);
    let h = sim.handle();

    let mut handles = Vec::with_capacity(fanin);
    // Kept alive for the cell's duration; dropping a mux mid-run would
    // orphan its response pumps.
    let mut muxes = Vec::new();
    match lane {
        IncastLane::Erpc => {
            cluster.set_ecn_threshold(Some(ECN_THRESHOLD));
            let srv = ErpcServer::spawn(&cluster, server, 2, 4, HANDLER_CPU_NS, {
                let resp = resp.clone();
                Rc::new(move |_, _| resp.clone())
            });
            for node in 0..CLIENT_NODES {
                muxes.push(dc_sockets::ErpcMux::new(
                    &cluster,
                    NodeId(1 + node as u32),
                    ErpcCfg {
                        rto_ns: RTO_NS,
                        ..ErpcCfg::default()
                    },
                ));
            }
            for i in 0..fanin {
                let sess = muxes[i % CLIENT_NODES].session(
                    server,
                    srv.ports()[i % srv.ports().len()],
                    seed.wrapping_add(i as u64),
                );
                let req = req.clone();
                let lat = latencies.clone();
                let h = h.clone();
                handles.push(sim.spawn(async move {
                    for _ in 0..REQS_PER_SESSION {
                        let t0 = h.now();
                        sess.call(0, req.clone()).await;
                        lat.borrow_mut().record(h.now() - t0);
                    }
                }));
            }
        }
        IncastLane::Sdp | IncastLane::AzSdp => {
            let kind = if lane == IncastLane::Sdp {
                StreamKind::Sdp
            } else {
                StreamKind::AzSdp
            };
            for i in 0..fanin {
                let client = NodeId(1 + (i % CLIENT_NODES) as u32);
                let (mut cli_end, mut srv_end) =
                    connect(&cluster, client, server, kind, SocketsConfig);
                let cpu = cluster.cpu(server);
                let resp = resp.clone();
                h.spawn_detached(async move {
                    for _ in 0..REQS_PER_SESSION {
                        srv_end.recv().await;
                        cpu.execute(HANDLER_CPU_NS).await;
                        srv_end.send_bytes(resp.clone()).await;
                    }
                });
                let req = req.clone();
                let lat = latencies.clone();
                let h = h.clone();
                handles.push(sim.spawn(async move {
                    for _ in 0..REQS_PER_SESSION {
                        let t0 = h.now();
                        cli_end.send_bytes(req.clone()).await;
                        cli_end.recv().await;
                        lat.borrow_mut().record(h.now() - t0);
                    }
                }));
            }
        }
    }

    let elapsed_ns = sim.run_to(async move {
        for hd in handles {
            hd.await;
        }
        h.now()
    });
    drop(muxes);

    let lats = latencies.borrow();
    assert_eq!(
        lats.count() as usize,
        fanin * REQS_PER_SESSION,
        "incast cell lost requests"
    );
    ctx.fold(&cluster, || format!("{};f{fanin}", lane.label()));
    IncastPoint {
        lane,
        fanin,
        goodput_rps: lats.count() as f64 * 1e9 / elapsed_ns as f64,
        p50_us: as_us(lats.p50_ns()),
        p99_us: as_us(lats.p99_ns()),
        p999_us: as_us(lats.p999_ns()),
        retransmits: cluster.stats().retransmits,
        marks: cluster.ecn_marks(),
        qp_active: cluster.qp_active(),
    }
}

/// Run the full lane × fan-in sweep; the `i`-th cell, lane-major, runs at
/// `ctx.seed_for(i, SEED)`.
pub fn run(ctx: &RunCtx, drop_rate: f64) -> Vec<IncastPoint> {
    let mut points = Vec::new();
    for lane in IncastLane::ALL {
        for &fanin in &FANINS {
            let seed = ctx.seed_for(points.len(), SEED);
            points.push(cell(ctx, seed, lane, fanin, drop_rate));
        }
    }
    points
}

/// Render the sweep table (lane-major row blocks).
pub fn table(points: &[IncastPoint]) -> Table {
    let mut t = Table::new(
        "ext — incast fan-in: eRPC vs SDP vs AZ-SDP",
        &[
            "lane",
            "fanin",
            "goodput rps",
            "p50 us",
            "p99 us",
            "p999 us",
            "retx",
            "cc marks",
            "qps",
        ],
    );
    for p in points {
        t.row(vec![
            p.lane.label().to_string(),
            p.fanin.to_string(),
            f(p.goodput_rps),
            f(p.p50_us),
            f(p.p99_us),
            f(p.p999_us),
            p.retransmits.to_string(),
            p.marks.to_string(),
            p.qp_active.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erpc_cell_completes_and_multiplexes() {
        let p = run_cell(IncastLane::Erpc, 64, 0.0);
        assert!(p.goodput_rps > 0.0);
        assert!(p.p50_us <= p.p99_us && p.p99_us <= p.p999_us);
        // 2 server QPs + 8 muxes x 4 client QPs, regardless of sessions.
        assert_eq!(p.qp_active, 2 + (CLIENT_NODES * 4) as i64);
        assert_eq!(p.retransmits, 0);
    }

    #[test]
    fn stream_cells_pin_a_qp_pair_per_session() {
        let p = run_cell(IncastLane::Sdp, 64, 0.0);
        assert_eq!(p.qp_active, 2 * 64);
        assert_eq!(p.marks, 0);
    }

    #[test]
    fn drops_recover_without_losing_requests() {
        let p = run_cell(IncastLane::Erpc, 64, 0.05);
        assert!(p.retransmits > 0, "drop plan produced no retransmits");
    }
}
