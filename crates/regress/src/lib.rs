//! The four names `benchmark/` still imports from here, re-exported from
//! `dc-bench`, where the claims DSL and the report differ live. The crate
//! goes, with `benchmark/`'s dependency on it, once the benchmark imports
//! them from `dc-bench` directly.

pub use dc_bench::diff::{diff, LoadedReport, Tolerance};

/// `dc_bench::claims`, as far as `benchmark/` reads it.
pub mod claims {
    pub use dc_bench::claims::parse_cell;
}
