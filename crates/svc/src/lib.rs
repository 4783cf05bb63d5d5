//! `dc-svc` — the typed service runtime every control-plane daemon runs on.
//!
//! Layering: `dc-fabric` models the network and verbs; `dc-svc` turns it
//! into services. A service is a [`ServiceSpec`] (where it binds, what each
//! request costs, serial vs. overlapping) plus a [`Dispatcher`] of
//! per-opcode async handlers; [`Service::spawn`] runs the shared pump.
//! Clients call through [`SvcClient`] (correlation-id multiplexing over one
//! bound port) under a [`CallPolicy`]; handlers answer with [`parse_request`]
//! and [`respond`]. Message payloads implement [`Wire`] instead of
//! open-coding byte offsets.
//!
//! Everything above `dc-fabric` goes through this crate for its endpoints:
//! services via [`Service::spawn`], raw data-plane lanes (socket streams,
//! bench harness channels) via [`bind_raw`]. CI greps that no other crate
//! calls `cluster.bind` directly.

mod client;
mod frame;
mod service;
mod wire;

pub use client::{CallPolicy, SvcClient, DEFAULT_TIMEOUT_NS};
pub use frame::{
    parse_request, request_imm, respond, respond_bytes, split_request_imm, RpcRequest,
};
pub use service::{Cost, Ctx, Dispatcher, Mode, Route, Service, ServiceSpec};
pub use wire::{Reader, Wire, Writer};

// Trace lane ids, re-exported so service crates without a direct `dc-trace`
// dependency can fill `ServiceSpec::subsys`.
pub use dc_trace::Subsys;

use dc_fabric::{Cluster, Endpoint, NodeId};

/// Escape hatch for raw endpoints outside the service pump: socket-lane
/// plumbing, bench harness channels, examples. Keeping every non-fabric bind
/// behind this one symbol (and [`Service::spawn`]) is what lets
/// `tests/lints.rs` enforce "no `cluster.bind` outside `dc-svc`/`dc-fabric`".
pub fn bind_raw(cluster: &Cluster, node: NodeId, port: u16) -> Endpoint {
    cluster.bind(node, port)
}
