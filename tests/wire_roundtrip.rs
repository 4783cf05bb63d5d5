//! Property tests: every control-plane message type round-trips through its
//! [`Wire`] codec, and decoders reject trailing garbage instead of silently
//! truncating — the wire formats are frozen inputs to the fabric's byte-time
//! model, so codec drift would silently shift golden-baseline timings.

use proptest::prelude::*;

use nextgen_datacenter::ddss::ctrl::{AllocReq, AllocResp, FreeReq, FreeResp};
use nextgen_datacenter::ddss::Coherence;
use nextgen_datacenter::dlm::msg::DlmMsg;
use nextgen_datacenter::fabric::kstat::{KernelStats, KSTAT_REGION_LEN};
use nextgen_datacenter::fabric::NodeId;
use nextgen_datacenter::reconfig::Assignment;
use nextgen_datacenter::sockets::flow::{pack_imm, unpack_imm};
use nextgen_datacenter::svc::{request_imm, split_request_imm, Wire};

fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.encode();
    let back = T::decode(&bytes).unwrap_or_else(|| panic!("decode failed for {v:?}"));
    assert_eq!(&back, v, "round trip of {v:?}");
    // Trailing bytes must be rejected, not ignored.
    let mut longer = bytes.clone();
    longer.push(0);
    assert!(
        T::decode(&longer).is_none(),
        "decoder accepted trailing garbage for {v:?}"
    );
    // Truncation must be rejected too.
    if !bytes.is_empty() {
        assert!(
            T::decode(&bytes[..bytes.len() - 1]).is_none() || bytes.len() > KSTAT_REGION_LEN,
            "decoder accepted truncated bytes for {v:?}"
        );
    }
}

fn coherence() -> impl Strategy<Value = Coherence> {
    (0u8..7).prop_map(Coherence::from_u8)
}

fn dlm_msg() -> impl Strategy<Value = DlmMsg> {
    (
        0u8..10,
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
    )
        .prop_map(|(tag, lock, node, count, flag)| match tag {
            0 => DlmMsg::ExclReq {
                lock,
                from: NodeId(node),
                shared_seen: count,
            },
            1 => DlmMsg::ShReq {
                lock,
                from: NodeId(node),
            },
            2 => DlmMsg::Grant {
                lock,
                exclusive: flag,
            },
            3 => DlmMsg::ShRelease { lock },
            4 => DlmMsg::WaitShared {
                lock,
                waiter: NodeId(node),
                need: count,
            },
            5 => DlmMsg::SrvLock {
                lock,
                from: NodeId(node),
                exclusive: flag,
            },
            6 => DlmMsg::SrvUnlock {
                lock,
                from: NodeId(node),
            },
            7 => DlmMsg::TicketWait {
                lock,
                ticket: count,
                from: NodeId(node),
            },
            8 => DlmMsg::TicketServe {
                lock,
                serving: count,
            },
            _ => DlmMsg::LeaseSteal {
                lock,
                from: NodeId(node),
                stolen_from: NodeId(count),
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dlm_messages_round_trip(msg in dlm_msg()) {
        round_trip(&msg);
    }

    #[test]
    fn ddss_alloc_req_round_trips(len in any::<u64>(), c in coherence()) {
        round_trip(&AllocReq { len, coherence: c });
    }

    #[test]
    fn ddss_alloc_resp_round_trips(key in proptest::option::of((any::<u64>(), any::<u64>()))) {
        round_trip(&AllocResp { key });
    }

    #[test]
    fn ddss_free_messages_round_trip(id in any::<u64>(), ok in any::<bool>()) {
        round_trip(&FreeReq { id });
        round_trip(&FreeResp { ok });
    }

    #[test]
    fn sitemap_assignment_round_trips(site in any::<u32>(), t in any::<bool>()) {
        let a = Assignment { site, in_transition: t };
        round_trip(&a);
        // The wire bytes are exactly the LE map word the CAS path uses.
        prop_assert_eq!(<Assignment as Wire>::encode(&a), a.encode().to_le_bytes().to_vec());
    }

    #[test]
    fn kernel_stats_round_trip_at_region_length(
        run_queue in any::<u64>(),
        app_threads in any::<u64>(),
        busy_ns in any::<u64>(),
        version in any::<u64>(),
        conns in any::<u64>(),
        accept_queue in any::<u64>(),
    ) {
        let s = KernelStats {
            run_queue,
            app_threads,
            busy_ns,
            version,
            conns,
            accept_queue,
        };
        let bytes = s.encode();
        prop_assert_eq!(bytes.len(), KSTAT_REGION_LEN);
        prop_assert_eq!(<KernelStats as Wire>::decode(&bytes), Some(s));
    }

    /// The RPC request header `(reply_port, id < 2^48)` and its immediate
    /// word are in bijection: every header survives the word, and every
    /// word is some header's.
    #[test]
    fn rpc_request_header_and_imm_are_a_bijection(
        reply_port in any::<u16>(),
        id in 0u64..1 << 48,
        imm in any::<u64>(),
    ) {
        prop_assert_eq!(split_request_imm(request_imm(reply_port, id)), (reply_port, id));
        let (p, i) = split_request_imm(imm);
        prop_assert!(i < 1 << 48);
        prop_assert_eq!(request_imm(p, i), imm);
    }

    /// The stream lane header `(seq, first, total < 2^31)` and its
    /// immediate word are in bijection.
    #[test]
    fn stream_lane_header_and_imm_are_a_bijection(
        seq in any::<u32>(),
        first in any::<bool>(),
        total in 0usize..1 << 31,
        imm in any::<u64>(),
    ) {
        prop_assert_eq!(unpack_imm(pack_imm(seq, first, total)), (seq, first, total));
        let (s, f, t) = unpack_imm(imm);
        prop_assert!(t < 1 << 31);
        prop_assert_eq!(pack_imm(s, f, t), imm);
    }
}

#[test]
#[should_panic(expected = "does not fit the 48-bit header field")]
fn rpc_correlation_id_overflow_panics_instead_of_wrapping() {
    request_imm(9, 1 << 48);
}

#[test]
#[should_panic(expected = "exceeds the 31-bit total_len field")]
fn stream_message_length_overflow_panics_instead_of_wrapping() {
    pack_imm(0, true, 1 << 31);
}

#[test]
fn decoders_reject_malformed_tags() {
    assert!(<DlmMsg as Wire>::decode(&[99, 0, 0, 0, 0]).is_none());
    assert!(<AllocResp as Wire>::decode(&[2]).is_none());
    assert!(<FreeResp as Wire>::decode(&[7]).is_none());
    assert!(<DlmMsg as Wire>::decode(&[]).is_none());
}
