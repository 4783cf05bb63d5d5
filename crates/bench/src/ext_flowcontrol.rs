//! §6 extension — packetized vs credit-based flow control bandwidth.
//!
//! The paper's discussion section: credit-based SDP charges one preposted
//! buffer per message regardless of size, so small-message streams waste
//! the prepost budget and stall on credit round trips; packetized flow
//! control lets the sender manage both sides' buffers with RDMA and pack
//! data precisely. "Preliminary results … demonstrate close to an order of
//! magnitude bandwidth improvement for some message sizes."

use bytes::Bytes;
use dc_fabric::NodeId;
use dc_sim::Sim;
use dc_sockets::{connect, SocketsConfig, StreamKind};

use crate::scenario::RunCtx;

/// Message sizes swept (bytes).
pub const SIZES: [usize; 7] = [16, 64, 256, 1024, 4096, 16384, 65536];

/// Messages streamed per measurement.
pub const COUNT: usize = 200;

/// Measure achieved application bandwidth (MB/s) streaming `COUNT`
/// messages of `size` bytes over `kind`.
pub fn bandwidth_mbs(ctx: &RunCtx, kind: StreamKind, size: usize) -> f64 {
    let sim = Sim::new();
    let cluster = ctx.cluster(&sim, 2);
    let (mut tx, mut rx) = connect(&cluster, NodeId(0), NodeId(1), kind, SocketsConfig);
    let h = sim.handle();
    let recv_done = sim.spawn(async move {
        for _ in 0..COUNT {
            rx.recv().await;
        }
        h.now()
    });
    let payload = Bytes::from(vec![0x77u8; size]);
    sim.handle().spawn_detached(async move {
        for _ in 0..COUNT {
            tx.send_bytes(payload.clone()).await;
        }
    });
    sim.run();
    ctx.fold(&cluster, || format!("{};{size}B", kind.label()));
    let elapsed_ns = recv_done.try_take().expect("receiver did not finish");
    let bytes = (COUNT * size) as f64;
    bytes / (elapsed_ns as f64 / 1e3) // bytes per µs == MB/s
}

/// One scheme's bandwidth series.
#[derive(Debug, Clone)]
pub struct BwSeries {
    /// The stream kind.
    pub kind: StreamKind,
    /// MB/s per size in [`SIZES`] order.
    pub mbs: Vec<f64>,
}

/// Run all four stream kinds over the sweep.
pub fn run(ctx: &RunCtx) -> Vec<BwSeries> {
    StreamKind::ALL
        .iter()
        .map(|&kind| BwSeries {
            kind,
            mbs: SIZES.iter().map(|&s| bandwidth_mbs(ctx, kind, s)).collect(),
        })
        .collect()
}

/// Render the table.
pub fn table(series: &[BwSeries]) -> dc_core::Table {
    let mut headers = vec!["scheme".to_string()];
    headers.extend(SIZES.iter().map(|s| format!("{s}B")));
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = dc_core::Table::new(
        "§6 ext — Stream bandwidth by flow control scheme (MB/s)",
        &hdr_refs,
    );
    for s in series {
        let mut row = vec![s.kind.label().to_string()];
        row.extend(s.mbs.iter().map(|v| format!("{v:.1}")));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packetized_dominates_credit_for_small_messages() {
        let sdp = bandwidth_mbs(&RunCtx::pinned(), StreamKind::Sdp, 64);
        let pack = bandwidth_mbs(&RunCtx::pinned(), StreamKind::Packetized, 64);
        // Paper: "close to an order of magnitude for some message sizes".
        assert!(
            pack > 5.0 * sdp,
            "packetized {pack:.1} MB/s vs credit SDP {sdp:.1} MB/s"
        );
    }

    #[test]
    fn large_messages_converge_to_link_limits() {
        let sdp = bandwidth_mbs(&RunCtx::pinned(), StreamKind::Sdp, 65536);
        let pack = bandwidth_mbs(&RunCtx::pinned(), StreamKind::Packetized, 65536);
        let az = bandwidth_mbs(&RunCtx::pinned(), StreamKind::AzSdp, 65536);
        // At 64KB everyone is within the link/copy envelope; AZ-SDP (no
        // sender copy) reaches the highest rate.
        assert!(az >= sdp, "az {az:.1} vs sdp {sdp:.1}");
        let ratio = pack / sdp;
        assert!((0.5..3.0).contains(&ratio), "pack/sdp ratio {ratio:.2}");
    }

    #[test]
    fn tcp_is_slowest_for_small_messages() {
        let tcp = bandwidth_mbs(&RunCtx::pinned(), StreamKind::HostTcp, 64);
        let az = bandwidth_mbs(&RunCtx::pinned(), StreamKind::AzSdp, 64);
        assert!(az > tcp, "az {az:.1} vs tcp {tcp:.1}");
    }
}
