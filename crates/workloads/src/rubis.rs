//! RUBiS-like auction-site request mix.
//!
//! The paper's Figure 8b hosts two web services, one of them "the RUBiS
//! auction benchmark simulating an e-commerce website developed by Rice
//! University". We reproduce its browsing mix: a weighted set of operation
//! types with distinct CPU demand and response sizes, so back-end load is
//! *divergent* across requests — the property that makes fine-grained
//! monitoring matter.

use rand::Rng;

/// One auction-site operation type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RubisOp {
    /// Front page / static browse.
    Home,
    /// Category listing (DB scan, mid cost).
    BrowseCategories,
    /// Item detail view (indexed lookup).
    ViewItem,
    /// Bid history for an item (join, expensive).
    ViewBidHistory,
    /// Place a bid (write + validation, expensive and bursty).
    PlaceBid,
    /// Seller/user info page.
    ViewUserInfo,
    /// Full-text-ish search over items (most expensive).
    SearchItems,
}

impl RubisOp {
    /// CPU demand on the application server, nanoseconds.
    pub fn cpu_ns(self) -> u64 {
        match self {
            RubisOp::Home => 120_000,
            RubisOp::BrowseCategories => 450_000,
            RubisOp::ViewItem => 250_000,
            RubisOp::ViewBidHistory => 900_000,
            RubisOp::PlaceBid => 1_300_000,
            RubisOp::ViewUserInfo => 300_000,
            RubisOp::SearchItems => 2_200_000,
        }
    }

    /// Response payload size, bytes.
    pub fn response_bytes(self) -> usize {
        match self {
            RubisOp::Home => 6 * 1024,
            RubisOp::BrowseCategories => 12 * 1024,
            RubisOp::ViewItem => 8 * 1024,
            RubisOp::ViewBidHistory => 10 * 1024,
            RubisOp::PlaceBid => 2 * 1024,
            RubisOp::ViewUserInfo => 7 * 1024,
            RubisOp::SearchItems => 16 * 1024,
        }
    }
}

/// Weighted sampler over the RUBiS browsing/bidding mix (weights follow the
/// benchmark's default transition-matrix steady state, coarsened).
#[derive(Debug, Clone)]
pub struct RubisMix {
    table: Vec<(RubisOp, u32)>,
    total: u32,
}

impl Default for RubisMix {
    fn default() -> Self {
        Self::new()
    }
}

impl RubisMix {
    /// The default mix.
    pub fn new() -> RubisMix {
        let table = vec![
            (RubisOp::Home, 16),
            (RubisOp::BrowseCategories, 22),
            (RubisOp::ViewItem, 28),
            (RubisOp::ViewBidHistory, 8),
            (RubisOp::PlaceBid, 6),
            (RubisOp::ViewUserInfo, 10),
            (RubisOp::SearchItems, 10),
        ];
        let total = table.iter().map(|&(_, w)| w).sum();
        RubisMix { table, total }
    }

    /// Sample one operation.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> RubisOp {
        let mut x = rng.gen_range(0..self.total);
        for &(op, w) in &self.table {
            if x < w {
                return op;
            }
            x -= w;
        }
        unreachable!("weights exhausted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sampling_respects_weights_roughly() {
        let mix = RubisMix::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut bids = 0usize;
        let mut views = 0usize;
        for _ in 0..20_000 {
            match mix.sample(&mut rng) {
                RubisOp::PlaceBid => bids += 1,
                RubisOp::ViewItem => views += 1,
                _ => {}
            }
        }
        // ViewItem (28) vs PlaceBid (6): ratio ≈ 4.7.
        let ratio = views as f64 / bids as f64;
        assert!(ratio > 3.0 && ratio < 7.0, "ratio {ratio}");
    }

    #[test]
    fn cpu_demand_is_divergent() {
        // The motivation for fine-grained monitoring: op costs span more
        // than an order of magnitude.
        let cheapest = RubisOp::Home.cpu_ns();
        let dearest = RubisOp::SearchItems.cpu_ns();
        assert!(dearest > 15 * cheapest);
    }
}
