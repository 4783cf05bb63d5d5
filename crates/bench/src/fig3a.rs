//! Figure 3a — DDSS `put()` latency per coherence model vs message size.
//!
//! Paper claim: "for all coherence models, the maximum 1-byte latency
//! achieved is only around 55µs", with the models ordering from Null
//! (cheapest, one RDMA write) up to Strict (lock + write + stamp + unlock).

use bytes::Bytes;
use dc_ddss::{Coherence, Ddss, DdssConfig};
use dc_fabric::{Cluster, FabricModel, NodeId};
use dc_sim::time::as_us;
use dc_sim::Sim;

/// Message sizes swept (bytes).
pub const SIZES: [usize; 6] = [1, 64, 256, 1024, 4096, 16384];

/// One series: the model and its latency (µs) per size in [`SIZES`] order.
#[derive(Debug, Clone)]
pub struct PutSeries {
    /// Coherence model.
    pub model: Coherence,
    /// Latency in microseconds per swept size.
    pub latency_us: Vec<f64>,
}

/// Measure a single put latency for `model` and `size`.
pub fn put_latency_ns(model: Coherence, size: usize) -> u64 {
    put_latency_ns_with(&FabricModel::calibrated_2007(), model, size)
}

/// [`put_latency_ns`] under an explicit fabric model. The paper-claims
/// suite runs this with a deliberately perturbed calibration to prove the
/// claims actually constrain the model (a broken calibration must fail).
pub fn put_latency_ns_with(fabric: &FabricModel, model: Coherence, size: usize) -> u64 {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), fabric.clone(), 2);
    let ddss = Ddss::new(&cluster, DdssConfig::default(), &[NodeId(0), NodeId(1)]);
    let client = ddss.client(NodeId(0));
    let h = sim.handle();
    sim.run_to(async move {
        let key = client
            .allocate(NodeId(1), size, model)
            .await
            .expect("allocation failed");
        let payload = Bytes::from(vec![0xA5u8; size]);
        // Warm once (metadata/agents settled), then measure.
        client.put(&key, &payload).await;
        let t0 = h.now();
        client.put(&key, &payload).await;
        h.now() - t0
    })
}

/// Run the full sweep.
pub fn run() -> Vec<PutSeries> {
    run_with(&FabricModel::calibrated_2007())
}

/// Run the full sweep under an explicit fabric model.
pub fn run_with(fabric: &FabricModel) -> Vec<PutSeries> {
    Coherence::FIG3A
        .iter()
        .map(|&model| PutSeries {
            model,
            latency_us: SIZES
                .iter()
                .map(|&s| as_us(put_latency_ns_with(fabric, model, s)))
                .collect(),
        })
        .collect()
}

/// Render the paper-style table.
pub fn table(series: &[PutSeries]) -> dc_core::Table {
    let mut headers = vec!["model".to_string()];
    headers.extend(SIZES.iter().map(|s| format!("{s}B")));
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = dc_core::Table::new(
        "Fig 3a — DDSS put() latency by coherence model (us)",
        &hdr_refs,
    );
    for s in series {
        let mut row = vec![s.model.to_string()];
        row.extend(s.latency_us.iter().map(|v| format!("{v:.1}")));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_byte_ordering_and_ceiling() {
        let null = put_latency_ns(Coherence::Null, 1);
        let strict = put_latency_ns(Coherence::Strict, 1);
        let version = put_latency_ns(Coherence::Version, 1);
        assert!(null < version, "null {null} version {version}");
        assert!(version < strict, "version {version} strict {strict}");
        // The paper's ceiling: worst 1-byte put stays around 55us.
        assert!(strict < 60_000, "strict = {strict}ns");
        assert!(strict > 30_000, "strict suspiciously cheap: {strict}ns");
    }

    #[test]
    fn latency_grows_with_size() {
        let small = put_latency_ns(Coherence::Null, 1);
        let big = put_latency_ns(Coherence::Null, 16384);
        assert!(big > small + 15_000, "16KB should add ~18us of wire time");
    }

    #[test]
    fn full_sweep_has_expected_shape() {
        let series = run();
        assert_eq!(series.len(), 6);
        for s in &series {
            assert_eq!(s.latency_us.len(), SIZES.len());
            // Monotone non-decreasing in size.
            for w in s.latency_us.windows(2) {
                assert!(w[1] >= w[0] - 0.01, "{:?} not monotone: {w:?}", s.model);
            }
        }
        let tbl = table(&series);
        assert_eq!(tbl.len(), 6);
    }
}
