//! # dc-sockets — socket-level protocols over the simulated fabric
//!
//! The paper's bottom layer transparently accelerates sockets applications
//! over the SAN. This crate reproduces the four designs it discusses:
//!
//! * **Host TCP** ([`StreamKind::HostTcp`]) — the traditional path: kernel
//!   stack processing and copies charged to both CPUs, high base latency.
//! * **SDP** ([`StreamKind::Sdp`]) — buffered-copy Sockets Direct Protocol
//!   with *credit-based flow control*: the receiver preposts
//!   `sdp_credits` temporary buffers of `sdp_buf_size` bytes; every message
//!   consumes one buffer **regardless of its size**, so a stream of small
//!   messages wastes almost the entire prepost budget and stalls on credit
//!   round trips (the §6 motivation).
//! * **AZ-SDP** ([`StreamKind::AzSdp`]) — asynchronous zero-copy SDP: the
//!   sender memory-protects the user buffer (a fixed `az_protect_ns` cost),
//!   posts the transfer, and returns immediately while keeping synchronous
//!   sockets semantics; up to `az_window` sends are in flight.
//! * **Packetized flow control** ([`StreamKind::Packetized`]) — the §6
//!   work-in-progress design: the sender manages both sides' buffers via
//!   RDMA and packs transmitted data precisely, so flow control is charged
//!   in *bytes*, not buffers. The same pinned-memory budget sustains
//!   thousands of small messages in flight.
//!
//! Credit-based and packetized flow control are one windowed sender and one
//! receive pump that differ only in the window each is built with — what a
//! chunk costs, how large it may be, when units return ([`stream`]; the
//! contract is DESIGN.md §11).
//!
//! All four expose one message-oriented API: [`connect`] returns a pair of
//! [`StreamEnd`]s with `send_bytes`/`send`/`recv`. (The paper's stacks are
//! byte-stream sockets; every service in this workspace exchanges discrete
//! messages, so the message abstraction loses nothing and keeps framing
//! explicit.) `send_bytes(Bytes)` is the send: the message's bytes exist
//! once on the host — chunks are windows of that buffer, chunk headers ride
//! the fabric's immediate word ([`flow`]), and every copy the modelled
//! stacks make is charged in virtual time only. `send(&[u8])` copies the
//! slice into a buffer once and delegates. `recv` returns a message of any
//! chunk count as the very buffer that was sent: the receiver rejoins the
//! windows ([`flow::Reassembler`]).

//! ```
//! use dc_sim::Sim;
//! use dc_fabric::{Cluster, FabricModel, NodeId};
//! use dc_sockets::{connect, SocketsConfig, StreamKind};
//!
//! let sim = Sim::new();
//! let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
//! let (mut a, mut b) = connect(&cluster, NodeId(0), NodeId(1), StreamKind::AzSdp,
//!                              SocketsConfig::default());
//! sim.spawn(async move { a.send(b"hello over AZ-SDP").await });
//! let msg = sim.run_to(async move { b.recv().await });
//! assert_eq!(&msg[..], b"hello over AZ-SDP");
//! ```

pub mod config;
pub mod erpc;
pub mod flow;
pub mod lane;
pub mod stream;

pub use config::SocketsConfig;
pub use erpc::{CongestionState, ErpcCfg, ErpcMux, ErpcServer, ErpcSession};
pub use stream::{connect, StreamEnd, StreamKind};
