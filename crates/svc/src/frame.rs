//! Request/response framing: how a request finds its reply.
//!
//! A request carries the caller's reply port and a correlation id, the
//! response echoes the id; [`crate::SvcClient`] is the calling side,
//! [`parse_request`] / [`respond`] the serving side.
//!
//! Framing is a gather send: the correlation header rides
//! [`Message::imm`] and the payload `Bytes` crosses the fabric as the same
//! refcounted buffer the sender handed in. The header still costs its 10
//! (request) or 8 (response) bytes on the wire, as if it were prepended
//! (see [`Cluster::try_send_imm_ref`]).

use bytes::Bytes;

use dc_fabric::{Cluster, Message, NodeId, Transport};

/// Wire bytes of a request header: reply port + correlation id.
pub(crate) const REQ_HDR: usize = 2 + 8;
/// Wire bytes of a response header: correlation id.
const RESP_HDR: usize = 8;

/// Correlation ids share the request's immediate word with the reply port.
const ID_BITS: u32 = 48;

/// Pack a request header into its immediate word: `[reply_port:16|id:48]`.
/// A response's word is the bare id.
///
/// Panics if `id` needs more than 48 bits — at one call per simulated
/// nanosecond that is three days of virtual time on one client.
pub fn request_imm(reply_port: u16, id: u64) -> u64 {
    assert!(
        id < 1 << ID_BITS,
        "rpc correlation id {id} does not fit the 48-bit header field"
    );
    u64::from(reply_port) << ID_BITS | id
}

/// Inverse of [`request_imm`]: `(reply_port, id)`.
pub fn split_request_imm(imm: u64) -> (u16, u64) {
    ((imm >> ID_BITS) as u16, imm & ((1 << ID_BITS) - 1))
}

/// A parsed incoming request, ready to be answered with [`respond`].
#[derive(Debug, Clone)]
pub struct RpcRequest {
    /// Caller node.
    pub src: NodeId,
    /// Caller's reply port.
    pub reply_port: u16,
    /// Correlation id to echo.
    pub id: u64,
    /// Request payload.
    pub payload: Bytes,
}

/// Parse a message received on a server port into an [`RpcRequest`].
pub fn parse_request(msg: &Message) -> RpcRequest {
    let (reply_port, id) = split_request_imm(msg.imm);
    RpcRequest {
        src: msg.src,
        reply_port,
        id,
        payload: msg.data.clone(),
    }
}

/// Send `payload` back to the requester. Uses the reliable transport so a
/// transient drop cannot orphan the caller; if the requester stays down past
/// the retry budget the response is abandoned (the caller's own timeout
/// handles it).
pub async fn respond(
    cluster: &Cluster,
    server: NodeId,
    req: &RpcRequest,
    payload: &[u8],
    transport: Transport,
) {
    respond_bytes(
        cluster,
        server,
        req,
        Bytes::copy_from_slice(payload),
        transport,
    )
    .await;
}

/// [`respond`] with an owned payload: the caller receives this very buffer
/// (retransmissions included), never a copy.
pub async fn respond_bytes(
    cluster: &Cluster,
    server: NodeId,
    req: &RpcRequest,
    payload: Bytes,
    transport: Transport,
) {
    let _ = cluster
        .send_reliable_imm(
            server,
            req.src,
            req.reply_port,
            &payload,
            req.id,
            RESP_HDR,
            transport,
        )
        .await;
}
