//! # dc-workloads — workload generators for the evaluation
//!
//! Deterministic (seeded) generators for every workload the paper's
//! evaluation uses:
//!
//! * [`zipf::Zipf`] — Zipf(α) document popularity, swept over
//!   α ∈ {0.9, 0.75, 0.5, 0.25} in Figure 8b and driving Figure 6.
//! * [`fileset::FileSet`] — document working sets (8k–64k uniform sizes in
//!   Figure 6).
//! * [`rubis::RubisMix`] — a RUBiS-like auction-site operation mix with
//!   divergent per-request CPU demand.
//! * [`storm::StormQuery`] — STORM-style record-selection queries
//!   (Figure 3b's 1K–100K record sweep).
//! * [`burst::BurstSchedule`] — bursty thread-load patterns for the
//!   monitoring accuracy experiment (Figure 8a).
//! * [`arrival::ArrivalProcess`] — seeded open-loop interarrival streams
//!   (Poisson and bursty MMPP-2) plus the allocation-free k-way
//!   [`arrival::MergedArrivals`] merge driving the at-scale web farm.

pub mod arrival;
pub mod burst;
pub mod fileset;
pub mod rubis;
pub mod storm;
pub mod zipf;

pub use arrival::{ArrivalKind, ArrivalProcess, MergedArrivals};
pub use burst::{BurstPhase, BurstSchedule};
pub use fileset::FileSet;
pub use rubis::{RubisMix, RubisOp};
pub use storm::StormQuery;
pub use zipf::Zipf;
