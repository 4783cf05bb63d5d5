//! # dc-coopcache — cooperative caching for multi-tier data-centers
//!
//! The paper's §5.1 service (detailed in the authors' CCGrid'06 paper):
//! RDMA-based cooperative caching schemes that aggregate cache memory
//! across proxies — and, with MTACC, across tiers — while controlling how
//! much content is duplicated:
//!
//! * [`CacheScheme::Ac`] — per-node Apache-style caching (baseline),
//! * [`CacheScheme::Bcc`] — basic RDMA cooperative cache (duplicates),
//! * [`CacheScheme::Ccwr`] — cooperative cache without redundancy,
//! * [`CacheScheme::Mtacc`] — multi-tier aggregate cooperative cache,
//! * [`CacheScheme::Hybcc`] — hybrid of the above by document size.
//!
//! Cache contents live in registered memory ([`node::CacheNode`]); remote
//! hits are one-sided RDMA reads validated against per-document headers;
//! holder metadata is soft shared state ([`directory::Directory`], a bitmap
//! per document maintained with remote atomics). Misses pay the multi-tier
//! backend price ([`backend::Backend`]).

pub mod backend;
pub mod directory;
pub mod lru;
pub mod node;
pub mod scheme;
pub mod service;

pub use backend::Backend;
pub use directory::Directory;
pub use lru::{DocId, LruStore};
pub use node::{CacheCfg, CacheNode, DOC_HDR};
pub use scheme::CacheScheme;
pub use service::{CacheStats, CoopCache, ServeOutcome};
