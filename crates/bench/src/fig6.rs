//! Figure 6 — data-center throughput (TPS) under the five cooperative
//! caching schemes, for 2 and 8 proxy nodes across file sizes 8k–64k.
//!
//! The working set is sized at roughly twice the proxies' aggregate cache,
//! so per-node caching (AC) thrashes, cooperation (BCC) recovers remote
//! hits, redundancy elimination (CCWR) stretches the aggregate capacity,
//! tier aggregation (MTACC) stretches it further, and the hybrid picks the
//! better policy per document size.

use dc_coopcache::CacheScheme;
use dc_core::{run_webfarm, run_webfarm_traced, WebFarmCfg};

use crate::scenario::RunCtx;

/// Proxy counts of the two panels.
pub const PROXIES: [usize; 2] = [2, 8];

/// File sizes swept (bytes), matching the paper's x-axis.
pub const SIZES: [usize; 4] = [8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024];

/// One panel cell: scheme × file size → TPS.
#[derive(Debug, Clone)]
pub struct TpsCell {
    /// Scheme.
    pub scheme: CacheScheme,
    /// File size (bytes).
    pub size: usize,
    /// Measured steady-state TPS.
    pub tps: f64,
    /// Cache hit rate over the run.
    pub hit_rate: f64,
}

/// Build the configuration for one cell of one panel.
pub fn cell_cfg(proxies: usize, scheme: CacheScheme, size: usize) -> WebFarmCfg {
    // Aggregate proxy cache stays fixed; the working set is ~2x it so
    // capacity pressure is realistic at every file size.
    let per_node = 2 * 1024 * 1024;
    let aggregate = per_node * proxies;
    let num_docs = (2 * aggregate) / size;
    WebFarmCfg {
        scheme,
        proxies,
        app_nodes: (proxies / 2).max(1),
        num_docs,
        doc_size: size,
        cache_bytes_per_node: per_node,
        zipf_alpha: 0.9,
        clients_per_proxy: 8,
        requests: 350 * proxies,
        warmup_fraction: 0.3,
        seed: 20_070_326,
        ..WebFarmCfg::default()
    }
}

/// Run both panels across all schemes and sizes: one `Vec` per entry of
/// [`PROXIES`].
///
/// Each cell is an independent deterministic simulation, so the sweep fans
/// out across OS threads; results are identical to a sequential run.
pub fn run(ctx: &RunCtx) -> Vec<Vec<TpsCell>> {
    let combos: Vec<(usize, CacheScheme, usize)> = PROXIES
        .iter()
        .flat_map(|&p| CacheScheme::ALL.map(|scheme| SIZES.map(|size| (p, scheme, size))))
        .flatten()
        .collect();
    let cells = crate::sweep::parallel_map(&Vec::from_iter(0..combos.len()), |&i| {
        let (proxies, scheme, size) = combos[i];
        let mut cfg = cell_cfg(proxies, scheme, size);
        cfg.seed = ctx.seed_for(i, cfg.seed);
        let label = || format!("p{proxies};{};{}k", scheme.label(), size / 1024);
        let r = ctx.farm(label, || run_webfarm(&cfg), |m| run_webfarm_traced(&cfg, m));
        TpsCell {
            scheme,
            size,
            tps: r.tps,
            hit_rate: r.cache.hit_rate(),
        }
    });
    let per_panel = combos.len() / PROXIES.len();
    cells.chunks(per_panel).map(<[_]>::to_vec).collect()
}

/// Render one panel as the paper-style table.
pub fn table(proxies: usize, cells: &[TpsCell]) -> dc_core::Table {
    let mut headers = vec!["scheme".to_string()];
    headers.extend(SIZES.iter().map(|s| format!("{}k", s / 1024)));
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = dc_core::Table::new(
        &format!("Fig 6 — Data-center throughput (TPS), {proxies} proxy nodes"),
        &hdr_refs,
    );
    for &scheme in &CacheScheme::ALL {
        let mut row = vec![scheme.label().to_string()];
        for &size in &SIZES {
            let cell = cells
                .iter()
                .find(|c| c.scheme == scheme && c.size == size)
                .expect("missing cell");
            row.push(format!("{:.0}", cell.tps));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooperative_schemes_beat_ac_in_a_two_proxy_cell() {
        let size = 16 * 1024;
        let ac = run_webfarm(&cell_cfg(2, CacheScheme::Ac, size));
        let ccwr = run_webfarm(&cell_cfg(2, CacheScheme::Ccwr, size));
        let hyb = run_webfarm(&cell_cfg(2, CacheScheme::Hybcc, size));
        assert!(
            ccwr.tps > ac.tps,
            "CCWR {:.0} should beat AC {:.0}",
            ccwr.tps,
            ac.tps
        );
        assert!(
            hyb.tps > ac.tps,
            "HYBCC {:.0} should beat AC {:.0}",
            hyb.tps,
            ac.tps
        );
        assert!(ccwr.cache.hit_rate() > ac.cache.hit_rate());
    }

    #[test]
    fn redundancy_elimination_raises_hit_rate_over_bcc() {
        // With the working set at 2x the aggregate cache, duplicate copies
        // in BCC cost capacity that CCWR reclaims.
        let size = 32 * 1024;
        let bcc = run_webfarm(&cell_cfg(2, CacheScheme::Bcc, size));
        let ccwr = run_webfarm(&cell_cfg(2, CacheScheme::Ccwr, size));
        assert!(
            ccwr.cache.hit_rate() >= bcc.cache.hit_rate(),
            "ccwr {:.3} vs bcc {:.3}",
            ccwr.cache.hit_rate(),
            bcc.cache.hit_rate()
        );
    }
}
