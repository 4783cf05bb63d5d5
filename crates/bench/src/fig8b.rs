//! Figure 8b — hosted-service throughput improvement by monitoring scheme,
//! across Zipf α values.
//!
//! The hosting engine (two services, least-loaded balancing) runs under
//! each monitoring scheme; the figure reports the throughput improvement of
//! each scheme relative to the traditional Socket-Async baseline, for
//! α ∈ {0.9, 0.75, 0.5, 0.25}. Paper claim: close to 35% improvement with
//! the RDMA-based schemes.

use dc_core::{run_hosting, HostingCfg};
use dc_resmon::MonitorScheme;

/// The α sweep of the figure.
pub const ALPHAS: [f64; 4] = [0.9, 0.75, 0.5, 0.25];

/// One measured cell.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputCell {
    /// Monitoring scheme.
    pub scheme: MonitorScheme,
    /// Zipf α of the document service.
    pub alpha: f64,
    /// Measured TPS.
    pub tps: f64,
    /// Improvement over the Socket-Async baseline at the same α.
    pub improvement: f64,
}

/// Configuration for one cell.
pub fn cell_cfg(scheme: MonitorScheme, alpha: f64) -> HostingCfg {
    HostingCfg {
        scheme,
        zipf_alpha: alpha,
        backends: 4,
        clients: 28,
        requests: 2_400,
        seed: 881_100,
        ..HostingCfg::default()
    }
}

/// Run the full figure: baseline plus the four plotted schemes per α.
///
/// The 20 independent simulations fan out across OS threads; results are
/// identical to a sequential run (each cell is seeded and single-threaded).
pub fn run() -> Vec<ThroughputCell> {
    let mut combos: Vec<(Option<MonitorScheme>, f64)> = Vec::new();
    for &alpha in &ALPHAS {
        combos.push((None, alpha)); // the Socket-Async baseline
        for &scheme in &MonitorScheme::FIG8B {
            combos.push((Some(scheme), alpha));
        }
    }
    let tps_out = crate::sweep::parallel_map(&combos, |&(scheme, alpha)| {
        let actual = scheme.unwrap_or(MonitorScheme::SocketAsync);
        run_hosting(&cell_cfg(actual, alpha)).tps
    });

    let mut cells = Vec::new();
    let mut idx = 0;
    for &alpha in &ALPHAS {
        let base = tps_out[idx];
        idx += 1;
        for &scheme in &MonitorScheme::FIG8B {
            let tps = tps_out[idx];
            idx += 1;
            cells.push(ThroughputCell {
                scheme,
                alpha,
                tps,
                improvement: (tps - base) / base,
            });
        }
    }
    cells
}

/// Render the paper-style table (improvement over Socket-Async, %).
pub fn table(cells: &[ThroughputCell]) -> dc_core::Table {
    let mut headers = vec!["scheme".to_string()];
    headers.extend(ALPHAS.iter().map(|a| format!("a={a}")));
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = dc_core::Table::new(
        "Fig 8b — Throughput improvement over Socket-Async (Zipf + RUBiS hosting)",
        &hdr_refs,
    );
    for &scheme in &MonitorScheme::FIG8B {
        let mut row = vec![scheme.label().to_string()];
        for &alpha in &ALPHAS {
            let c = cells
                .iter()
                .find(|c| c.scheme == scheme && c.alpha == alpha)
                .expect("missing cell");
            row.push(dc_core::table::pct(c.improvement));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdma_schemes_beat_socket_async_baseline() {
        let alpha = 0.75;
        let base = run_hosting(&cell_cfg(MonitorScheme::SocketAsync, alpha)).tps;
        let rdma_sync = run_hosting(&cell_cfg(MonitorScheme::RdmaSync, alpha)).tps;
        let e_rdma = run_hosting(&cell_cfg(MonitorScheme::ERdmaSync, alpha)).tps;
        assert!(
            rdma_sync > base,
            "RDMA-Sync {rdma_sync:.0} vs baseline {base:.0}"
        );
        assert!(
            e_rdma >= rdma_sync * 0.97,
            "e-RDMA {e_rdma:.0} should be competitive with RDMA-Sync {rdma_sync:.0}"
        );
    }
}
