//! Reliable, ordered message lanes over the raw fabric.
//!
//! The stream kinds pipeline wire chunks with overlapping flights, and the
//! [`crate::flow::Reassembler`] requires chunks in order. On a fault-free
//! fabric the FIFO issue order is the arrival order, but under injected
//! faults a dropped chunk is retransmitted while its successors sail
//! through, and a latency-inflation window can delay one flight past a
//! later one. A lane restores the SPSC FIFO contract the streams are built
//! on: the sender tags every chunk with a sequence number — in the
//! immediate word, beside the chunk header ([`crate::flow::pack_imm`]), so
//! the payload crosses as the sender's buffer — and rides the reliable
//! transport; the receiver delivers strictly in sequence, parking early
//! arrivals until the gap fills.
//!
//! This models what a hardware RC QP provides for real SDP streams —
//! in-order exactly-once delivery with link-level retransmission — without
//! serializing flights (chunk N+1 does not wait for chunk N's ack).

use std::cell::Cell;
use std::rc::Rc;

use dc_fabric::faults::{backoff_after, MAX_ATTEMPTS};
use dc_fabric::{Cluster, Endpoint, NodeId, Transport};
use dc_sim::fxhash::FxHashMap;

use crate::flow::{pack_imm, unpack_imm, Chunk};

/// Modelled wire bytes of the lane's u32 sequence number. Like the chunk
/// header it rides `Message.imm` (see [`pack_imm`]) and is charged through
/// the gather send's `hdr_len`, never prepended to the payload.
const SEQ_HDR: usize = 4;

/// Sending half of an ordered lane.
#[derive(Clone)]
pub struct LaneSender {
    cluster: Cluster,
    from: NodeId,
    to: NodeId,
    port: u16,
    transport: Transport,
    next_seq: Rc<Cell<u32>>,
}

impl LaneSender {
    /// Create a sender addressing the peer's lane endpoint.
    pub fn new(
        cluster: &Cluster,
        from: NodeId,
        to: NodeId,
        port: u16,
        transport: Transport,
    ) -> LaneSender {
        LaneSender {
            cluster: cluster.clone(),
            from,
            to,
            port,
            transport,
            next_seq: Rc::new(Cell::new(0)),
        }
    }

    /// Claim the next sequence number (synchronously — call order is
    /// delivery order) and return a future resolving once the chunk has
    /// been delivered; every retransmission re-posts the same window.
    /// Panics if the peer stays unreachable past the retry budget — a
    /// stream to a dead node has no degraded mode.
    pub fn send_tracked(&self, chunk: Chunk) -> impl std::future::Future<Output = ()> + 'static {
        let seq = self.next_seq.get();
        self.next_seq.set(seq.wrapping_add(1));
        let imm = pack_imm(seq, chunk.first, chunk.total);
        let hdr_len = SEQ_HDR + chunk.hdr_len();
        let cluster = self.cluster.clone();
        let (from, to, port, transport) = (self.from, self.to, self.port, self.transport);
        // Same loop as Cluster::send_reliable_imm, written out on purpose:
        // one of these futures is alive per in-flight chunk, and nesting
        // the generic Cluster::retrying future under it nearly doubled it
        // (368 B -> 656-680 B when measured, `incast_rpc` peak RSS +14 %;
        // ROADMAP item 3). It also owns the lane's accounting:
        // sockets.retransmits, lane.backoff.
        async move {
            for attempt in 0..MAX_ATTEMPTS {
                match cluster
                    .try_send_imm_ref(from, to, port, &chunk.data, imm, hdr_len, transport)
                    .await
                {
                    Ok(()) => return,
                    Err(e) if attempt + 1 >= MAX_ATTEMPTS => {
                        panic!("stream lane {from:?}->{to:?}:{port} undeliverable: {e}")
                    }
                    Err(_) => {
                        cluster.note_retransmit();
                        cluster.note_retry();
                        // Retry-stage span around the backoff so lane
                        // retransmissions show up in latency attribution.
                        let tb = cluster.tracer().begin();
                        cluster.sim().sleep(backoff_after(attempt)).await;
                        if let Some(tb) = tb {
                            cluster.tracer().complete(
                                tb,
                                from.0,
                                dc_trace::Subsys::Sockets,
                                "lane.backoff",
                                vec![("stage", "retry".into()), ("seq", seq.into())],
                            );
                        }
                    }
                }
            }
            unreachable!()
        }
    }

    /// Send one chunk without waiting for delivery (flights overlap).
    pub fn send_bg(&self, chunk: Chunk) {
        let fut = self.send_tracked(chunk);
        self.cluster.sim().spawn_detached(fut);
    }
}

/// Receiving half of an ordered lane: wraps the bound endpoint and hands
/// chunks out strictly in sequence.
pub struct LaneReceiver {
    cluster: Cluster,
    ep: Endpoint,
    next_seq: u32,
    /// Reorder parking (faults only); looked up by sequence number, never
    /// iterated.
    early: FxHashMap<u32, Chunk>,
}

impl LaneReceiver {
    /// Wrap a bound endpoint.
    pub fn new(cluster: &Cluster, ep: Endpoint) -> LaneReceiver {
        LaneReceiver {
            cluster: cluster.clone(),
            ep,
            next_seq: 0,
            early: FxHashMap::default(),
        }
    }

    /// Receive the next in-sequence chunk; its `data` is the buffer the
    /// sender posted.
    pub async fn recv(&mut self) -> Chunk {
        loop {
            if let Some(c) = self.early.remove(&self.next_seq) {
                self.next_seq = self.next_seq.wrapping_add(1);
                return c;
            }
            let msg = self.ep.recv().await;
            let (seq, first, total) = unpack_imm(msg.imm);
            let chunk = Chunk {
                first,
                total,
                data: msg.data,
            };
            if seq == self.next_seq {
                self.next_seq = self.next_seq.wrapping_add(1);
                return chunk;
            }
            // Out-of-order arrival (retransmission or latency skew): park it.
            let dup = self.early.insert(seq, chunk);
            assert!(dup.is_none(), "duplicate lane message seq {seq}");
            self.cluster.note_reorder_depth(self.early.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dc_fabric::{FabricModel, FaultPlan};
    use dc_sim::Sim;

    #[test]
    fn lane_preserves_order_without_faults() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let port = cluster.alloc_port();
        let mut rx = LaneReceiver::new(&cluster, dc_svc::bind_raw(&cluster, NodeId(1), port));
        let tx = LaneSender::new(&cluster, NodeId(0), NodeId(1), port, Transport::RdmaSend);
        for i in 0..20u8 {
            tx.send_bg(Chunk::whole(Bytes::from(vec![i])));
        }
        let got = sim.run_to(async move {
            let mut v = Vec::new();
            for _ in 0..20 {
                v.push(rx.recv().await.data[0]);
            }
            v
        });
        assert_eq!(got, (0..20u8).collect::<Vec<_>>());
    }

    #[test]
    fn lane_reorders_under_heavy_drop() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        // Drops force retransmissions, which arrive after later sequence
        // numbers; the receiver must still deliver 0..n in order.
        cluster.install_faults(FaultPlan::from_parts(3, vec![], vec![], vec![], 0.35));
        let port = cluster.alloc_port();
        let mut rx = LaneReceiver::new(&cluster, dc_svc::bind_raw(&cluster, NodeId(1), port));
        let tx = LaneSender::new(&cluster, NodeId(0), NodeId(1), port, Transport::RdmaSend);
        for i in 0..50u8 {
            tx.send_bg(Chunk::whole(Bytes::from(vec![i])));
        }
        let got = sim.run_to(async move {
            let mut v = Vec::new();
            for _ in 0..50 {
                v.push(rx.recv().await.data[0]);
            }
            v
        });
        assert_eq!(got, (0..50u8).collect::<Vec<_>>());
        assert!(cluster.fault_stats().dropped_msgs > 0);
        // Every drop forced a lane retransmission, and at least one
        // retransmitted chunk arrived after a successor (parking it).
        let s = cluster.stats();
        assert_eq!(s.retransmits, cluster.fault_stats().dropped_msgs);
        assert!(s.reorder_hwm > 0, "no out-of-order arrival was observed");
        let snap = cluster.metrics().snapshot();
        assert_eq!(snap.counter("sockets.retransmits"), s.retransmits);
        assert_eq!(snap.gauge("sockets.reorder_hwm") as u64, s.reorder_hwm);
    }

    #[test]
    fn retransmitted_chunk_arrives_as_the_sent_buffer_in_order() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        cluster.install_faults(FaultPlan::from_parts(3, vec![], vec![], vec![], 0.35));
        let port = cluster.alloc_port();
        let mut rx = LaneReceiver::new(&cluster, dc_svc::bind_raw(&cluster, NodeId(1), port));
        let tx = LaneSender::new(&cluster, NodeId(0), NodeId(1), port, Transport::RdmaSend);
        // Chunks are windows of one buffer, so one that was dropped and
        // re-posted must still arrive as its window, not as a copy.
        let msg = Bytes::from(vec![0xA5u8; 4096]);
        let chunks: Vec<Chunk> = crate::flow::frame(msg, 80).collect();
        let want: Vec<*const u8> = chunks.iter().map(|c| c.data.as_ptr()).collect();
        let n = chunks.len();
        for chunk in chunks {
            tx.send_bg(chunk);
        }
        let got = sim.run_to(async move {
            let mut v = Vec::new();
            for _ in 0..n {
                v.push(rx.recv().await.data.as_ptr());
            }
            v
        });
        assert_eq!(got, want);
        assert!(
            cluster.stats().retransmits > 0,
            "no chunk was retransmitted"
        );
        assert!(cluster.stats().reorder_hwm > 0, "no chunk was parked");
    }

    /// Frame one buffer, send every chunk in the background over a lane that
    /// drops `drop_prob` of its messages, and reassemble what arrives.
    fn multi_chunk_message_over_lane(drop_prob: f64) -> (Cluster, Bytes, Bytes) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        if drop_prob > 0.0 {
            cluster.install_faults(FaultPlan::from_parts(3, vec![], vec![], vec![], drop_prob));
        }
        let port = cluster.alloc_port();
        let mut rx = LaneReceiver::new(&cluster, dc_svc::bind_raw(&cluster, NodeId(1), port));
        let tx = LaneSender::new(&cluster, NodeId(0), NodeId(1), port, Transport::RdmaSend);
        let msg: Bytes = (0..4096).map(|i| (i % 251) as u8).collect();
        for chunk in crate::flow::frame(msg.clone(), 80) {
            tx.send_bg(chunk);
        }
        let got = sim.run_to(async move {
            let mut reasm = crate::flow::Reassembler::new();
            loop {
                if let Some(m) = reasm.feed(rx.recv().await) {
                    return m;
                }
            }
        });
        (cluster, msg, got)
    }

    #[test]
    fn multi_chunk_message_rejoins_as_the_sent_buffer() {
        let (cluster, msg, got) = multi_chunk_message_over_lane(0.0);
        assert_eq!(got, msg);
        assert_eq!(got.as_ptr(), msg.as_ptr(), "message was copied");
        assert_eq!(cluster.stats().retransmits, 0);
    }

    #[test]
    fn retransmitted_and_reordered_multi_chunk_message_still_rejoins() {
        // A dropped chunk is re-posted as the same window and parked chunks
        // come out in sequence, so adjacency survives the faults.
        let (cluster, msg, got) = multi_chunk_message_over_lane(0.15);
        assert_eq!(got, msg);
        assert_eq!(got.as_ptr(), msg.as_ptr(), "message was copied");
        let s = cluster.stats();
        assert!(s.retransmits > 0, "no chunk was retransmitted");
        assert!(s.reorder_hwm > 0, "no chunk arrived out of order");
    }
}
